"""Fail when tier-1 leaves an executable line of ``src/sae_lab`` unrun.

Run from the repository root (75-120 s on a 2-core machine)::

    PYTHONPATH=src python .github/unrun_lines.py

It runs tier-1 through ``pytest.main`` under the stdlib ``trace`` module,
counting only the lines of ``src/sae_lab``.  A line is executable when a code
object compiled from its module maps to it (``co_lines``; line 0 is not a
source line).  The script exits 1 if tier-1 fails, or if any executable line
outside ``ALLOWED`` has no count, and lists those lines.
"""

import functools
import os
import sys
import trace

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src", "sae_lab")

# (file, stripped source line) pairs that may stay unrun.  Tests call
# cli.main in-process, and the installed console script calls main itself,
# so only `python -m sae_lab.cli` runs this guard.
ALLOWED = {("cli.py", "sys.exit(main())")}


@functools.cache
def _in_src(filename: str) -> bool:
    return os.path.dirname(os.path.realpath(filename)) == SRC


class _OutsideSrc:
    """The ``trace.Ignore`` verdict by full path: everything outside SRC.

    ``trace.Ignore`` caches its verdict by bare module name, and every
    package's ``__init__.py`` is named ``__init__``: once it ignores one under
    ``sys.prefix``, it ignores ``sae_lab/__init__.py`` too, and that module's
    top-level lines read as unrun although they run at import.
    """

    def names(self, filename, modulename):
        return not _in_src(filename)


def _executable(source: str, path: str) -> set[int]:
    stack, lines = [compile(source, path, "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main() -> int:
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = _OutsideSrc()
    # nothing has imported sae_lab yet, so its module-level lines count too
    status = tracer.runfunc(pytest.main, ["-q"])
    if status != 0:
        print(f"tier-1 failed (pytest exit {int(status)})", file=sys.stderr)
        return 1
    ran = {}
    for filename, line in tracer.results().counts:
        if _in_src(filename):
            ran.setdefault(os.path.basename(filename), set()).add(line)
    unrun = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path) as fh:
            source = fh.read()
        lines = source.splitlines()
        for line in sorted(_executable(source, path) - ran.get(name, set())):
            text = lines[line - 1].strip()
            if (name, text) not in ALLOWED:
                unrun.append(f"src/sae_lab/{name}:{line}: {text}")
    if unrun:
        print(f"{len(unrun)} src/ lines tier-1 never runs:", *unrun, sep="\n", file=sys.stderr)
        return 1
    print("every executable src/ line ran in tier-1 (allowed unrun: cli.py's __main__ guard)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
