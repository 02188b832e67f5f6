"""Seeded operation streams for the three workloads.

Each workload is a list of rounds.  A round is a fixed set of strata (kind of
operation, size band, variant); the seed draws every parameter inside its
stratum and the order of the round.  So two seeds give different inputs with
the same mix, and a run's figures do not hinge on how many costly operations
one seed happened to draw.  Input files (mask grids, junction JSON) are
written here, before any timing starts.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("sweeps", "dot_large", "dot_small")

# Nominal seconds per round.  A run does round(seconds / ROUND_SECONDS)
# rounds, so that every seed measures the same amount of work: with
# --seconds 25, four rounds of sweeps (about 35 s of operations on a 2-core
# VM) and of dot_small (about 26 s), and two dot_large operations.
ROUND_SECONDS = {"sweeps": 6.25, "dot_large": 12.5, "dot_small": 6.25}

UNCERTAINTY_PER_ROUND = 99
DENSE_CUTOFF = 2048  # qdot_fd._DENSE_CUTOFF at the time the strata were chosen
DOT_GAMMAS = (-3.0, -1.0, 0.0, 1.0, 5.0, math.inf)


@dataclass
class Op:
    kind: str
    argv: list | None = None
    params: dict = field(default_factory=dict)

    def label(self) -> str:
        if self.argv is not None:
            return "sae-lab " + " ".join(self.argv)
        return f"{self.kind}({', '.join(f'{k}={v!r}' for k, v in self.params.items())})"


def _fmt(x: float) -> str:
    return repr(float(x))


def _strata(rng: random.Random, count: int, lo: float, hi: float):
    """One uniform draw in each of ``count`` equal slices of [lo, hi], in slice order."""
    return [lo + (hi - lo) * (i + rng.random()) / count for i in range(count)]


def _rotation(variants, count: int, r: int, step: int = 1):
    """The variant of each of ``count`` strata in round ``r``: a fixed Latin rotation.

    Which variant (format, unit mode, range) goes with which size band is the
    same on every seed, so the costliest operations of a run, which set the
    tail latency, do not hinge on a random pairing.
    """
    return [variants[(i + step * r) % len(variants)] for i in range(count)]


def _signed_log(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(lo_exp, hi_exp)


# ---------------------------------------------------------------------------
# masks, with the same arithmetic as the package's shape constructors


def disk_mask(radius: float, n: int):
    h = 2.0 * radius / n
    centers = -radius + (np.arange(n) + 0.5) * h
    xx, yy = np.meshgrid(centers, centers, indexing="ij")
    return xx**2 + yy**2 < radius**2, h


def annulus_mask(r_outer: float, n: int):
    r_inner = 0.5 * r_outer
    h = 2.0 * r_outer / n
    centers = -r_outer + (np.arange(n) + 0.5) * h
    xx, yy = np.meshgrid(centers, centers, indexing="ij")
    rr = xx**2 + yy**2
    return (rr > r_inner**2) & (rr < r_outer**2), h


def rect_mask(side: float, n: int):
    return np.ones((n, n), dtype=bool), side / n


MASKS = {"rect": rect_mask, "disk": disk_mask, "annulus": annulus_mask}


@functools.lru_cache(maxsize=None)
def cell_count(shape: str, n: int) -> int:
    return int(MASKS[shape](1.0, n)[0].sum())


def write_mask(path: Path, mask, h: float):
    rows = ["".join("1" if v else "0" for v in row) for row in mask]
    path.write_text(f"2 {h!r} {mask.shape[0]} {mask.shape[1]}\n" + "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# sweeps


def _spectrum_sweep(rng, steps, fmt, raw, full):
    argv = ["spectrum", "--gamma-steps", str(steps), "--format", fmt]
    if raw:
        argv.append("--raw-units")
    if not full:
        lo, hi = sorted(_signed_log(rng, -2, 3) for _ in range(2))
        argv += [f"--gamma-min={_fmt(lo)}", f"--gamma-max={_fmt(hi)}"]
    return Op("spectrum", argv, {"format": fmt, "raw": raw, "rows": steps})


def _sweeps_round(rng, files: Path, r: int):
    ops = []
    spectrum_variants = list(itertools.product(("csv", "json"), (False, True), (False, True)))
    for steps, (fmt, raw, full) in zip(_strata(rng, 8, 50, 2002), _rotation(spectrum_variants, 8, r, step=3)):
        ops.append(_spectrum_sweep(rng, int(steps), fmt, raw, full))
    # single walls with |gamma| log-uniform up to 1e300
    for exp in _strata(rng, 2, -3, 300):
        g = rng.choice((-1.0, 1.0)) * 10.0**exp
        fmt = rng.choice(("csv", "json"))
        ops.append(Op("spectrum", ["spectrum", f"--gamma={_fmt(g)}", "--format", fmt], {"format": fmt, "raw": False, "rows": 1}))
    for steps, fmt in zip(_strata(rng, 4, 100, 10001), _rotation(("csv", "json"), 4, r)):
        k_min = rng.uniform(0.05, 1.0)
        k_max = k_min + rng.uniform(1.0, 50.0)
        argv = ["scatter", f"--gamma={_fmt(_signed_log(rng, -2, 2))}", "--k-min", _fmt(k_min),
                "--k-max", _fmt(k_max), "--k-steps", str(int(steps)), "--format", fmt]
        ops.append(Op("scatter", argv, {"format": fmt, "rows": int(steps)}))
    dirac_variants = list(itertools.product(("csv", "json"), (False, True)))
    for steps, (fmt, full) in zip(_strata(rng, 8, 50, 2002), _rotation(dirac_variants, 8, r)):
        steps = int(steps)
        argv = ["dirac", "--eta-steps", str(steps), "--format", fmt]
        if not full:
            lo, hi = sorted(_signed_log(rng, -2, 2) for _ in range(2))
            argv += [f"--eta-min={_fmt(lo)}", f"--eta-max={_fmt(hi)}"]
        sample = sorted(rng.sample(range(steps), 5))
        ops.append(Op("dirac", argv, {"format": fmt, "rows": steps, "sample": sample}))
    gamma = rng.uniform(-5.0, 5.0)
    eps0 = rng.uniform(0.01, 0.05)
    epsilons = [eps0 / 2**i for i in range(4)]
    ops.append(Op("wall", ["wall", f"--gamma={_fmt(gamma)}", "--epsilons", ",".join(_fmt(e) for e in epsilons)],
                  {"gamma": gamma, "epsilons": epsilons}))
    for i, expect in enumerate(("accepted", "rejected")):
        path = files / f"junction-{r}-{i}.json"
        path.write_text(json.dumps(_junction(rng, expect)))
        fmt = rng.choice(("csv", "json"))
        ops.append(Op("hetero", ["hetero", "--matrix", str(path), "--format", fmt], {"format": fmt, "expect": expect}))
    # uncertainty reports: one at gamma = -1e6 on a wall-bound level, then
    # UNCERTAINTY_PER_ROUND on levels 0-20 at seeded gammas, every third level
    # stratum deep below zero.  They are cheap single-thread calls, numerous
    # enough that the median latency falls in the middle of theirs.
    ops.append(Op("uncertainty", None, {"gamma": -1e6, "level": rng.choice((0, 1))}))
    for i, level in enumerate(_strata(rng, UNCERTAINTY_PER_ROUND, 0, 21)):
        gamma = -(10.0 ** rng.uniform(2, 5)) if i % 3 == 0 else _signed_log(rng, -2, 4)
        ops.append(Op("uncertainty", None, {"gamma": gamma, "level": int(level)}))
    rng.shuffle(ops)
    return ops


def _junction(rng: random.Random, expect: str) -> dict:
    """A junction matrix file: exp(i theta) M, M real with det +1 (accepted) or -1."""
    a = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 2.0)
    b, c = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
    det = 1.0 if expect == "accepted" else -1.0
    d = (det + b * c) / a
    theta = rng.uniform(-1.5, 1.5)
    entries = [[v, 0.0] for v in (a, b, c, d)]
    if rng.random() < 0.5:
        return {"entries": entries, "theta": theta}
    phase = complex(math.cos(theta), math.sin(theta))
    return {"entries": [[(v * phase).real, (v * phase).imag] for v in (a, b, c, d)]}


# ---------------------------------------------------------------------------
# dots


def _dot_op(shape, n, gamma, length, files: Path | None, tag: str):
    """One ``dot --count 5`` call; through a mask file when ``files`` is given."""
    argv = ["dot", "--count", "5", f"--gamma={_fmt(gamma)}"]
    if shape == "interval":
        argv += ["--shape", "interval", "--resolution", str(n), "--length", _fmt(length)]
        return Op("dot", argv, {"shape": shape, "gamma": gamma, "lengths": [length], "h": length / n, "cells": n})
    mask, h = MASKS[shape](length, n)
    if files is not None:
        path = files / f"mask-{tag}-{shape}-{n}.txt"
        write_mask(path, mask, h)
        argv += ["--grid", str(path)]
    else:
        argv += ["--shape", shape, "--resolution", str(n), "--length", _fmt(length)]
    lengths = [length, length] if shape == "rect" else [length]
    return Op("dot", argv, {"shape": shape, "gamma": gamma, "lengths": lengths, "h": h, "cells": int(mask.sum())})


# Cell-count bands per 2-D shape, so that every round puts grids on both sides
# of the dense cutoff: tiny and small dense grids, a costly dense grid of more
# than half the cutoff, and sparse grids above it (up to resolution 64).
DOT_BANDS = {
    "tiny": (150, 420),
    "small": (650, 760),
    "dense": (1100, 1250),
    "sparse": (DENSE_CUTOFF + 1, 2700),
}


def _resolutions(shape: str, band: str):
    lo, hi = DOT_BANDS[band]
    return [n for n in range(16, 65) if lo <= cell_count(shape, n) <= hi]


def _dot_small_round(rng, files: Path, r: int, offsets: dict):
    """2 intervals, then per 2-D shape a dense grid and two more grids.

    The two more cycle through tiny (at gamma = inf), small, sparse and
    mask-file grids, so that four rounds hold each of them twice per shape.
    The disk's small, sparse and mask-file grids always carry gamma = -3: the
    strongest binding wall is where the rasterized boundary errs most, so
    every run's worst oracle error comes from the same kind of operation.
    """
    finite = [g for g in DOT_GAMMAS if math.isfinite(g)]
    ops = [
        _dot_op("interval", int(10.0 ** rng.uniform(math.log10(200), math.log10(3000))), rng.choice(DOT_GAMMAS), 1.0, None, ""),
        _dot_op("interval", int(10.0 ** rng.uniform(math.log10(3000), 5)), rng.choice(DOT_GAMMAS), 1.0, None, ""),
    ]
    for shape in ("rect", "disk", "annulus"):
        slots = [("dense", rng.choice(finite), False)]
        for k in (2 * r + offsets[shape], 2 * r + 1 + offsets[shape]):
            kind = ("tiny", "small", "sparse", "file")[k % 4]
            if kind == "tiny":
                slots.append(("tiny", math.inf, False))
                continue
            g = -3.0 if shape == "disk" else rng.choice(finite)
            slots.append((rng.choice(("small", "sparse")) if kind == "file" else kind, g, kind == "file"))
        for band, g, via_file in slots:
            n = rng.choice(_resolutions(shape, band))
            length = 10.0 ** rng.uniform(-0.3, 0.3)
            ops.append(_dot_op(shape, n, g, length, files if via_file else None, f"{r}-{len(ops)}"))
    rng.shuffle(ops)
    return ops


def _dot_large_round(rng, files: Path, r: int):
    # gamma R = 1 on every seed: the radius sets gamma, and the dimensionless
    # problem, its accuracy and its solver path are the same for every seed.
    radius = 10.0 ** rng.uniform(-0.3, 0.3)
    argv = ["dot", "--shape", "disk", "--resolution", "256", "--count", "5",
            "--length", _fmt(radius), f"--gamma={_fmt(1.0 / radius)}"]
    mask, h = disk_mask(radius, 256)
    return [Op("dot", argv, {"shape": "disk", "gamma": 1.0 / radius, "lengths": [radius], "h": h, "cells": int(mask.sum())})]




def build(workload: str, seed: int, rounds: int, files: Path):
    """``rounds`` rounds of operations for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dot_small":
        offsets = {shape: rng.randrange(4) for shape in MASKS}
        return [_dot_small_round(rng, files, r, offsets) for r in range(rounds)]
    make = _sweeps_round if workload == "sweeps" else _dot_large_round
    return [make(rng, files, r) for r in range(rounds)]


def warmup(workload: str, files: Path):
    """A few small fixed operations that load every code path before timing."""
    if workload == "sweeps":
        path = files / "junction-warmup.json"
        path.write_text(json.dumps({"entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}))
        return [
            Op("spectrum", ["spectrum", "--gamma-steps", "50"], {"format": "csv", "raw": False, "rows": 50}),
            Op("scatter", ["scatter", "--k-steps", "100"], {"format": "csv", "rows": 100}),
            Op("dirac", ["dirac", "--eta-steps", "50"], {"format": "csv", "rows": 50, "sample": [0, 25]}),
            Op("wall", ["wall", "--gamma=2", "--epsilons", "0.02,0.01"], {"gamma": 2.0, "epsilons": [0.02, 0.01]}),
            Op("hetero", ["hetero", "--matrix", str(path)], {"format": "json", "expect": "accepted"}),
            Op("uncertainty", None, {"gamma": 1.0, "level": 3}),
        ]
    if workload == "dot_small":
        return [_dot_op("interval", 200, 1.0, 1.0, None, "w"), _dot_op("disk", 16, 1.0, 1.0, None, "w"),
                _dot_op("disk", 56, 1.0, 1.0, None, "w")]
    return [_dot_op("disk", 64, 1.0, 1.0, None, "w")]
