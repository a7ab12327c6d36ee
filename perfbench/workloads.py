"""Seeded input generators for the benchmark workloads.

Each workload writes its input files into a work directory and returns a
manifest: one entry per report, holding the argv for ``pnbounds.cli.main``
and what the generator knows about the input (table class, route, levels,
counts).  The program sees only the files.  The same seed gives
byte-identical files.

Tables are built from an integer joint count matrix Q whose rows index the
treated outcome and whose columns index the control outcome.  Every route
is written so that the identified marginal pair is exactly (row sums of Q,
column sums of Q) / total, so the table class survives identification:

* ``staircase``: mass on the diagonal and first subdiagonal only, so the
  one-level-lift (``incr``) level identifies a point;
* ``lowertri``: lower-triangular with mass two or more levels below the
  diagonal, so the gap brackets fail and ``incr`` is refused;
* ``arbitrary``: any joint whose cumulative gaps go negative, so the data
  contradict monotonicity (closed-form ``mono`` cells are LP-infeasible);
* ``zerolevel``: a staircase joint with one empty treated level, so cells
  with that evidence level are refused for zero evidence.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: Minimum violation (in probability) of the property that defines a class,
#: far above the program's comparison tolerance so no table sits on an edge.
_CLASS_MARGIN = 0.01

LALONDE_EXPERIMENTAL = [[92, 33, 135], [45, 32, 108]]
LALONDE_OBSERVATIONAL = [[115, 50, 205], [90, 64, 216]]
#: Monotone-inconsistent randomized table that makes ``--verify`` pass
#: vacuously on closed-form ``mono`` cells.
MONO_INCONSISTENT = [[10, 10, 80], [80, 10, 10]]

GRID_LEVELS = (3, 4, 5, 6, 7, 8)
GRID_ROUTES = ("experimental", "unconfounded", "pc")
#: Class mix of report_grid, repeated for every (route, levels) pair.
GRID_CLASSES = ("staircase",) * 3 + ("lowertri",) * 3 + ("arbitrary",) * 3 + ("zerolevel",)
MONO_LEVELS = (10, 15, 20)
#: custom_mono: one monotone-inconsistent table per this many tables.
MONO_ARBITRARY_EVERY = 6
MONO_TABLES = 132
MONO_EVENTS = 4


def _joint(rng: np.random.Generator, mask: np.ndarray, total: int) -> np.ndarray:
    """Integer counts on the allowed cells, with every diagonal cell >= 1."""
    weights = rng.dirichlet(np.ones(int(mask.sum())))
    counts = np.zeros(mask.shape, dtype=np.int64)
    counts[mask] = rng.multinomial(total, weights)
    counts[np.diag_indices(mask.shape[0])] += 1
    return counts


def _laws(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    total = q.sum()
    return q.sum(axis=1) / total, q.sum(axis=0) / total


def bracket_violation(treated: np.ndarray, control: np.ndarray) -> float:
    """How far the one-level-lift gap brackets fail (<= 0 when they hold)."""
    gaps = np.cumsum(control - treated)
    worst = -np.inf
    for k in range(1, treated.size):
        g = gaps[k - 1]
        lower = max(0.0, treated[k] + control[k - 1] - 1.0)
        upper = min(treated[k], control[k - 1])
        worst = max(worst, lower - g, g - upper, g - treated[k])
    return float(worst)


def monotone_violation(treated: np.ndarray, control: np.ndarray) -> float:
    """How far the cumulative gaps go negative (<= 0 when monotone-consistent)."""
    return float(-np.cumsum(control - treated)[:-1].min())


def joint_for_class(rng: np.random.Generator, cls: str, levels: int) -> np.ndarray:
    k, l = np.indices((levels, levels))
    total = int(rng.integers(40, 120)) * levels
    if cls in ("staircase", "zerolevel"):
        q = _joint(rng, (k == l) | (k == l + 1), total)
        if cls == "zerolevel":
            q[int(rng.integers(1, levels))] = 0
        return q
    for _ in range(1000):
        if cls == "lowertri":
            q = _joint(rng, k >= l, total)
            if bracket_violation(*_laws(q)) > _CLASS_MARGIN:
                return q
        else:
            q = _joint(rng, np.ones((levels, levels), dtype=bool), total)
            if monotone_violation(*_laws(q)) > _CLASS_MARGIN:
                return q
    raise RuntimeError(f"could not draw a {cls} table with {levels} levels")


def _write_table(path: Path, counts: list[list[int]]) -> str:
    """Write a 2 x J count table as long-form CSV or JSON, by suffix."""
    if path.suffix == ".json":
        path.write_text(json.dumps({"counts": counts}) + "\n")
    else:
        rows = ["z,y,count"] + [
            f"{z},{y},{c}" for z in (1, 0) for y, c in enumerate(counts[z])
        ]
        path.write_text("\n".join(rows) + "\n")
    return str(path)


def _route_files(
    rng: np.random.Generator, q: np.ndarray, route: str, stem: Path, fmt: str
) -> tuple[list[str], dict]:
    """Write the input files of one table on one route; returns argv + counts.

    Every route identifies exactly (rows of q, columns of q) / q.sum().
    """
    treated = q.sum(axis=1)
    control = q.sum(axis=0)
    levels = q.shape[0]
    if route == "pc":
        exp = [control.tolist(), treated.tolist()]
        path = _write_table(stem.with_suffix(".exp." + fmt), exp)
        return ["--mode", "pc", "--exp", path], {"experimental": exp}
    if route == "experimental":
        # the experiment's control arm mixes the observational control arm
        # with the treated units' control law in observational proportion
        other = rng.multinomial(int(rng.integers(20, 80)) * levels, rng.dirichlet(np.ones(levels)))
        other[0] += 1
        obs = [other.tolist(), treated.tolist()]
        exp_treated = rng.multinomial(int(rng.integers(20, 80)) * levels, rng.dirichlet(np.ones(levels)))
        exp_treated[-1] += 1
        exp = [(control + other).tolist(), exp_treated.tolist()]
        exp_path = _write_table(stem.with_suffix(".exp." + fmt), exp)
        obs_path = _write_table(stem.with_suffix(".obs." + fmt), obs)
        return ["--exp", exp_path, "--obs", obs_path], {"experimental": exp, "observational": obs}
    # unconfounded: split q into strata; each stratum's control arm is a
    # multiple of its own column sums, so reweighting recovers columns of q
    n_strata = int(rng.integers(2, 5))
    for _ in range(1000):
        parts = np.stack([rng.multinomial(c, np.full(n_strata, 1.0 / n_strata)) for c in q.ravel()])
        parts = parts.T.reshape(n_strata, levels, levels)
        if (parts.sum(axis=(1, 2)) > 0).all():
            break
    else:
        raise RuntimeError("could not split the table into non-empty strata")
    strata = []
    for i, part in enumerate(parts):
        scale = int(rng.integers(1, 4))
        strata.append({"id": f"s{i}", "counts": [(scale * part.sum(axis=0)).tolist(), part.sum(axis=1).tolist()]})
    path = stem.with_suffix(".strata.json")
    path.write_text(json.dumps(strata) + "\n")
    return ["--route", "unconfounded", "--strata", str(path)], {"strata": strata}


def _entry(argv: list[str], cls: str, route: str, levels: int, counts: dict, cells: int) -> dict:
    return {"argv": argv, "class": cls, "route": route, "levels": levels, "cells": cells, "counts": counts}


def report_grid(seed: int, work: Path) -> list[dict]:
    """Distinct tables on all three routes, full canonical grid, all levels."""
    combos = [(cls, route, levels) for levels in GRID_LEVELS for route in GRID_ROUTES
              for cls in GRID_CLASSES]
    combos += combos  # two tables per (class, route, levels) combination
    order = np.random.default_rng([seed, 0]).permutation(len(combos))
    manifest = []
    for i, idx in enumerate(order):
        cls, route, levels = combos[idx]
        rng = np.random.default_rng([seed, 1, i])
        q = joint_for_class(rng, cls, levels)
        fmt = "json" if i % 2 else "csv"
        argv, counts = _route_files(rng, q, route, work / f"t{i:04d}", fmt)
        cells = (levels - 1) * (levels + 2) * 3
        manifest.append(_entry(argv + ["--all-canonical", "--assume", "all"], cls, route, levels, counts, cells))
    return manifest


def monotone_supported(coeffs: list[int], y: int) -> bool:
    """Whether the monotone closed forms cover this event at evidence y."""
    head = coeffs[: y + 1]
    return (sum(head) in (0, 1, y + 1)) or head == [1] * y + [0]


def custom_mono(seed: int, work: Path) -> list[dict]:
    """Large randomized tables, custom events the monotone closed forms reject."""
    manifest = []
    for i in range(MONO_TABLES):
        rng = np.random.default_rng([seed, 2, i])
        levels = MONO_LEVELS[i % len(MONO_LEVELS)]
        cls = "arbitrary" if i % MONO_ARBITRARY_EVERY == MONO_ARBITRARY_EVERY - 1 else "lowertri"
        q = joint_for_class(rng, cls, levels)
        evidence = [levels // 2, levels - 1]
        argv, counts = _route_files(rng, q, "pc", work / f"m{i:04d}", "json")
        events: list[str] = []
        while len(events) < MONO_EVENTS:
            bits = rng.integers(0, 2, size=levels).tolist()
            if not any(monotone_supported(bits, y) for y in evidence):
                events.append("custom:" + "".join(map(str, bits)))
        for spec in events:
            argv += ["--event", spec]
        for y in evidence:
            argv += ["--evidence", str(y)]
        manifest.append(_entry(argv + ["--assume", "mono"], cls, "pc", levels, counts, MONO_EVENTS * len(evidence)))
    return manifest


def verify(seed: int, work: Path, samples: int = 10000, inject_widen: float = 0.0) -> list[dict]:
    """The README's --verify run on LaLonde, and the vacuous-pass table."""
    extra = ["--verify", "--samples", str(samples), "--seed", str(seed)]
    if inject_widen:
        extra += ["--inject-widen", repr(inject_widen)]
    bad = _write_table(work / "mono_inconsistent.exp.json", MONO_INCONSISTENT)
    exp = _write_table(work / "lalonde_experimental.csv", LALONDE_EXPERIMENTAL)
    obs = _write_table(work / "lalonde_observational.csv", LALONDE_OBSERVATIONAL)
    return [
        _entry(["--mode", "pc", "--exp", bad, "--all-canonical", "--assume", "mono"] + extra,
               "arbitrary", "pc", 3, {"experimental": MONO_INCONSISTENT}, 10),
        _entry(["--exp", exp, "--obs", obs, "--all-canonical"] + extra, "lalonde", "experimental", 3,
               {"experimental": LALONDE_EXPERIMENTAL, "observational": LALONDE_OBSERVATIONAL}, 30),
    ]


WORKLOADS = {"report_grid": report_grid, "custom_mono": custom_mono, "verify": verify}
#: Workloads whose times are scaled by the speed probe (see speed.py).  The
#: probe tracks the drift only where it runs between short reports; the two
#: long reports of verify outlast it, and scaling them widened their spread.
SCALED = ("report_grid", "custom_mono")


def generate(workload: str, seed: int, work: Path, **options) -> list[dict]:
    """Write one workload's inputs under ``work`` and return its manifest."""
    work.mkdir(parents=True, exist_ok=True)
    manifest = WORKLOADS[workload](seed, work, **options)
    (work / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest
