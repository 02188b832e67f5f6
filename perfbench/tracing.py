"""Outside-in layer tracing for the benchmark.

Wrappers are installed on the package's public functions and on the scipy
names each layer imports into its own namespace, so every call a layer makes
through a module attribute is timed as a span.  Nothing in ``src/`` changes.

Each thread keeps its own span stack, because ``cli`` may run layer calls on a
thread pool.  Spans of one operation are kept in memory and reduced, when the
operation ends, to per-name call counts and self times.  Self time splits each
instant of the operation's wall time among the innermost spans active at that
instant; a thread whose span is waiting while other threads run its work is
not charged, so the self times of all names add up to the operation's time.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name).  The four shape constructors share one name.
WRAPPED = [
    ("cli", "main", "cli.main"),
    ("box1d", "solve_spectrum", "box1d.solve_spectrum"),
    ("box1d", "brentq", "box1d.brentq"),
    ("box1d", "uncertainty_report_1d", "box1d.uncertainty_report_1d"),
    ("box1d", "quad", "box1d.quad"),
    ("wall_models", "reflection", "wall_models.reflection"),
    ("wall_models", "effective_gamma", "wall_models.effective_gamma"),
    ("dirac_wall", "dispersion_2p1", "dirac_wall.dispersion_2p1"),
    ("hetero", "parse_interface_file", "hetero.parse_interface_file"),
    ("hetero", "validate_interface", "hetero.validate_interface"),
    ("qdot_fd", "interval_grid", "qdot_fd.grid"),
    ("qdot_fd", "rect_grid", "qdot_fd.grid"),
    ("qdot_fd", "disk_grid", "qdot_fd.grid"),
    ("qdot_fd", "annulus_grid", "qdot_fd.grid"),
    ("qdot_fd", "read_grid", "qdot_fd.read_grid"),
    ("qdot_fd", "build_hamiltonian", "qdot_fd.build_hamiltonian"),
    ("qdot_fd", "moments", "qdot_fd.moments"),
    ("qdot_fd", "solve_lowest", "qdot_fd.solve_lowest"),
    ("qdot_fd", "spectral_flow_check", "qdot_fd.spectral_flow_check"),
    ("qdot_fd", "eigh_tridiagonal", "qdot_fd.eigh_tridiagonal"),
    ("qdot_fd", "eigh", "qdot_fd.eigh"),
    ("qdot_fd", "eigsh", "qdot_fd.eigsh"),
    ("qdot_fd", "splu", "qdot_fd.splu"),
]

# Time spent in the tracer's own measurements (backward errors), excluded
# from every span and from the traced operation's time.
UNTIMED = "trace.untimed"


def backward_error(A, w, v) -> float:
    """max_k ||A v_k - w_k v_k||_2 / (||A||_1 ||v_k||_2) over the returned pairs."""
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float).reshape(A.shape[0], -1)
    norm_a = float(abs(A).sum(axis=0).max())
    resid = np.linalg.norm(A @ v - v * w[np.newaxis, :], axis=0)
    scale = norm_a * np.linalg.norm(v, axis=0)
    return float(np.max(resid / scale))


class _CountingLU:
    """Stands in for a SuperLU factor and counts calls to ``solve``."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.count_solve()
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class OpTrace:
    """What the tracer saw during one operation."""

    def __init__(self):
        self.events = []  # (name, thread ident, depth, start_ns, end_ns)
        self.lu_solves = 0
        self.lu_fill = []
        self.cells = []
        self.backward_err = []


class Tracer:
    """Installs the wrappers and collects what they record, one operation at a time."""

    def __init__(self):
        self.recording = False
        self.absent = []
        self._saved = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.op = OpTrace()

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every attribute in WRAPPED that exists; list the rest as absent."""
        hooks = {
            "qdot_fd.solve_lowest": self._after_solve,
            "qdot_fd.eigh": self._after_raw_solver,
            "qdot_fd.eigh_tridiagonal": self._after_raw_solver,
            "qdot_fd.splu": self._after_splu,
            "qdot_fd.grid": self._after_grid,
            "qdot_fd.read_grid": self._after_grid,
        }
        for mod_name, attr, name in WRAPPED:
            module = importlib.import_module(f"sae_lab.{mod_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hooks.get(name)))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def begin_op(self):
        self.op = OpTrace()
        self.recording = True

    def end_op(self) -> OpTrace:
        self.recording = False
        return self.op

    # -- spans --------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, depth, start, end):
        self.op.events.append((name, threading.get_ident(), depth, start, end))

    def count_solve(self):
        with self._lock:
            self.op.lu_solves += 1

    def _wrap(self, fn, name, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            depth = len(stack)
            stack.append(name)
            result, error = None, None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
            end = time.perf_counter_ns()
            stack.pop()
            tracer._record(name, depth, start, end)
            if after is not None:
                untimed_start = time.perf_counter_ns()
                result = after(args, kwargs, result, error)
                tracer._record(UNTIMED, depth, untimed_start, time.perf_counter_ns())
            if error is not None:
                raise error
            return result

        return wrapper

    # -- after-hooks, run outside the timed span -----------------------------

    def _after_raw_solver(self, args, kwargs, result, error):
        self._local.last_raw = result if error is None else None
        return result

    def _after_solve(self, args, kwargs, result, error):
        ham = args[0] if args else kwargs.get("ham")
        pairs = result if error is None else getattr(self._local, "last_raw", None)
        self._local.last_raw = None
        if pairs is not None and ham is not None:
            with self._lock:
                self.op.backward_err.append(backward_error(ham.matrix, *pairs))
        return result

    def _after_splu(self, args, kwargs, result, error):
        if error is not None:
            return result
        with self._lock:
            self.op.lu_fill.append(int(result.L.nnz + result.U.nnz))
        return _CountingLU(result, self)

    def _after_grid(self, args, kwargs, result, error):
        if error is None:
            with self._lock:
                self.op.cells.append(int(result.n_cells))
        return result


def attribute(events, main_ident, t0, t1):
    """Split the wall interval [t0, t1] of one operation among its spans.

    Returns ({name: self_ns}, unattributed_ns, {thread idents}).  In each
    elementary interval between span boundaries the time goes to the
    innermost span of every thread inside a span, in equal parts; the main
    thread is left out while other threads are inside spans, because it is
    then waiting for them.  Time inside no span is unattributed.
    """
    bounds = []
    for idx, (_, _, depth, start, end) in enumerate(events):
        bounds.append((start, 1, depth, idx))
        bounds.append((end, 0, -depth, idx))
    bounds.sort()
    stacks = defaultdict(list)
    self_ns = Counter()
    unattributed = 0.0
    prev = t0

    def charge(until):
        nonlocal unattributed
        dt = until - prev
        if dt <= 0:
            return
        active = {ident: stack[-1] for ident, stack in stacks.items() if stack}
        targets = [i for ident, i in active.items() if ident != main_ident]
        if not targets:
            targets = list(active.values())
        if not targets:
            unattributed += dt
            return
        for i in targets:
            self_ns[events[i][0]] += dt / len(targets)

    for t, opening, _, idx in bounds:
        charge(t)
        prev = max(prev, t)
        stack = stacks[events[idx][1]]
        if opening:
            stack.append(idx)
        else:
            stack.remove(idx)
    charge(t1)
    threads = {ident for _, ident, _, _, _ in events}
    return self_ns, unattributed, threads
