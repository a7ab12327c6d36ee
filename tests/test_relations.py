"""Metamorphic relations: input changes whose effect on the output is known,
so that checking them needs no reference engine.

- **Empty top levels.**  Outcome levels with zero counts in every table,
  added above the top, leave every cell the tables share as it was (its
  label aside), and every cell at an added evidence level is the
  zero-evidence refusal, on the experimental, ``--mode pc`` and strata
  routes.  Exact.
- **Complement duality.**  For an event A and its complement A^c,
  lower(A) = 1 - upper(A^c) and upper(A) = 1 - lower(A^c), in the closed
  forms and in the LP; the ``incr`` points of A and A^c sum to exactly 1.
- **Linearity.**  The ``incr`` point is linear in the event: for any split
  of A by a mask M, point(A ∩ M) + point(A ∖ M) = point(A) bit for bit.
- **Nesting.**  On custom events the ``incr`` point lies in the ``mono``
  interval, and the ``mono`` interval in the ``marginal`` one: in the
  closed forms, in the LP and in every pinned report of
  ``tests/test_report_bytes.py``.

Where rounding makes a relation inexact, the bound is absolute and holds on
the first seed of its test with room to spare.  Each bound is a ratio over
treated[y], so its rounding grows as treated[y] shrinks, and other seeds
with less evidence mass exceed it (26 and 36 in the closed forms, 2 in the
LP).  So the duality error is also bounded relative to the evidence mass,
error × treated[y] <= 1e-15, on every seed of its test: about 2 ulp of
probability.  A relation that fails is a defect to report, not a bound to
widen.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from pnbounds import (
    ATOL,
    Assumptions,
    FalsificationError,
    LpInfeasibleError,
    UnsupportedEventError,
    ZeroEvidenceError,
    make_event,
    pn_bounds_lp,
)
from pnbounds.bounds import level_bounds
from pnbounds.cli import main
from pnbounds.identify import pair_facts
from helpers import (
    LALONDE_EXP,
    LALONDE_OBS,
    arbitrary_pair,
    lower_triangular_pair,
    staircase_pair,
)

DATA = Path(__file__).parent / "data"
MARGINAL = Assumptions.MARGINAL_ONLY
MONO = Assumptions.MONOTONICITY
INCR = Assumptions.MONOTONIC_INCREMENT
PAIR_KINDS = (staircase_pair, lower_triangular_pair, arbitrary_pair)
#: The first seed of each duality test also holds its absolute bound
DUALITY_SEEDS = (29, 26, 36)
LP_DUALITY_SEEDS = (31, 2)
#: The events that LaLonde's three levels and the extended tables share
SHARED_EVENTS = ("noteq:1", "noteq:2", "eq:0", "eq:1", "eq:2", "lt:1", "lt:2")


def _padded_argv(tmp_path, route: str, added: int) -> list[str]:
    """The input flags of a route's tables with ``added`` zero-count levels
    on top of every table: LaLonde's two on the experimental route, its
    experimental one under ``--mode pc``, and the strata example."""

    def padded(name, counts):
        path = tmp_path / f"{route}-{name}-{added}.json"
        path.write_text(json.dumps({"counts": [row + [0] * added for row in counts]}))
        return str(path)

    if route == "experimental":
        return ["--exp", padded("exp", LALONDE_EXP), "--obs", padded("obs", LALONDE_OBS)]
    if route == "pc":
        return ["--mode", "pc", "--exp", padded("exp", LALONDE_EXP)]
    strata = json.loads((DATA / "strata_example.json").read_text())
    for stratum in strata:
        stratum["counts"] = [row + [0] * added for row in stratum["counts"]]
    path = tmp_path / f"strata-{added}.json"
    path.write_text(json.dumps(strata))
    return ["--route", "unconfounded", "--strata", str(path)]


def _cells(tmp_path, argv: list[str]) -> list[dict]:
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())["cells"]


@pytest.mark.parametrize("added, refused", [(1, 18), (2, 42), (6, 198)])
def test_empty_top_levels_change_no_shared_cell(tmp_path, added, refused):
    args = [arg for spec in SHARED_EVENTS for arg in ("--event", spec)]
    args += ["--evidence", "1", "--evidence", "2"]

    def unlabelled(cells):
        return [{key: value for key, value in cell.items() if key != "label"} for cell in cells]

    for route in ("experimental", "pc", "unconfounded"):
        shared = unlabelled(_cells(tmp_path, _padded_argv(tmp_path, route, 0) + args))
        assert len(shared) == 42
        padded = _padded_argv(tmp_path, route, added)
        assert unlabelled(_cells(tmp_path, padded + args)) == shared
        top = [cell for cell in _cells(tmp_path, padded + ["--all-canonical"])
               if cell["evidence"] >= 3]
        assert len(top) == refused
        for cell in top:
            expected = ("refused", str(ZeroEvidenceError.at_level(cell["evidence"])), "none")
            assert (cell["kind"], cell["note"], cell["method"]) == expected


def _random_rows(seed: int, levels_range: range, pairs: int, events: int):
    """Seeded (facts, coeffs, ys) of staircase, lower-triangular and
    arbitrary pairs: ``events`` random events at each evidence level with
    mass, the rows of one pair."""
    rng = np.random.default_rng(seed)
    for levels in levels_range:
        for kind in PAIR_KINDS:
            for _ in range(pairs):
                pair = kind(rng, levels)
                ys = np.flatnonzero(pair.treated_law.probs > ATOL).repeat(events)
                yield pair_facts(pair), rng.integers(0, 2, (len(ys), levels)), ys


def _bounds(facts, coeffs, ys, assumptions):
    """``level_bounds``, or None for a level the pair refuses."""
    try:
        return level_bounds(facts, coeffs, ys, assumptions)
    except (UnsupportedEventError, FalsificationError):
        return None


def test_complement_duality_in_the_closed_forms():
    worst = {MARGINAL: 0.0, MONO: 0.0}
    relative, points = 0.0, 0
    for seed in DUALITY_SEEDS:
        for facts, coeffs, ys in _random_rows(seed, range(2, 8), 12, 8):
            for assumptions in (MARGINAL, MONO, INCR):
                bounds = _bounds(facts, np.concatenate([coeffs, 1 - coeffs]), np.tile(ys, 2),
                                 assumptions)
                if bounds is None:
                    continue
                lower, upper = (side.reshape(2, -1) for side in bounds)
                if assumptions is INCR:
                    assert (lower[0] + lower[1] == 1.0).all()
                    points += len(ys)
                    continue
                error = np.maximum(abs(lower[0] - (1 - upper[1])), abs(upper[0] - (1 - lower[1])))
                relative = max(relative, (error * facts.pair.treated_law.probs[ys]).max())
                if seed == DUALITY_SEEDS[0]:
                    worst[assumptions] = max(worst[assumptions], error.max())
    assert worst[MARGINAL] <= 1e-13
    assert worst[MONO] <= 1e-14
    assert relative <= 1e-15
    assert points > 1000 * len(DUALITY_SEEDS)


def test_complement_duality_in_the_lp():
    worst, relative, cells = 0.0, 0.0, 0
    for seed in LP_DUALITY_SEEDS:
        for facts, coeffs, ys in _random_rows(seed, range(2, 8), 2, 2):
            levels = facts.pair.levels
            for assumptions in (MARGINAL, MONO, INCR):
                for bits, y in zip(coeffs.tolist(), ys.tolist()):
                    complement = [1 - c for c in bits]
                    try:
                        a, a_c = (pn_bounds_lp(facts.pair, make_event("custom", levels, coeffs=b),
                                               y, assumptions) for b in (bits, complement))
                    except LpInfeasibleError:
                        break  # the level's polytope is empty: every cell of it is refused
                    error = max(abs(a.lower - (1 - a_c.upper)), abs(a.upper - (1 - a_c.lower)))
                    relative = max(relative, error * facts.pair.treated_law.probs[y])
                    if seed == LP_DUALITY_SEEDS[0]:
                        worst = max(worst, error)
                    cells += 1
    assert worst <= 1e-14
    assert relative <= 1e-15
    assert cells > 500 * len(LP_DUALITY_SEEDS)


def _excess(bounds: dict) -> list[float]:
    """How far each inner level's (lower, upper) leaves an outer one's: the
    ``incr`` point inside ``mono``, ``mono`` inside ``marginal``."""
    return [max(bounds[outer][0] - bounds[inner][0], bounds[inner][1] - bounds[outer][1])
            for outer, inner in ((MARGINAL, MONO), (MONO, INCR), (MARGINAL, INCR))
            if outer in bounds and inner in bounds]


def test_incr_point_in_mono_interval_in_marginal_interval_on_custom_events():
    worst, cells = 0.0, 0
    for facts, coeffs, ys in _random_rows(37, range(2, 9), 12, 8):
        marginal, mono, incr = (_bounds(facts, coeffs, ys, a) for a in (MARGINAL, MONO, INCR))
        if mono is None:
            continue
        excess = [marginal[0] - mono[0], mono[1] - marginal[1]]
        if incr is not None:
            excess += [mono[0] - incr[0], incr[0] - mono[1]]
        worst = max(worst, np.max(excess))
        cells += len(ys)
    assert worst <= 1e-13
    assert cells > 5000


def test_the_lp_nests_its_levels_on_custom_events():
    worst, cells = 0.0, 0
    for facts, coeffs, ys in _random_rows(53, range(2, 9), 1, 2):
        for bits, y in zip(coeffs.tolist(), ys.tolist()):
            event, bounds = make_event("custom", facts.pair.levels, coeffs=bits), {}
            for assumptions in (MARGINAL, MONO, INCR):
                try:
                    result = pn_bounds_lp(facts.pair, event, y, assumptions)
                except LpInfeasibleError:
                    continue
                bounds[assumptions] = result.lower, result.upper
            if len(bounds) > 1:
                worst = max(worst, *_excess(bounds))
                cells += 1
    assert worst <= 1e-14
    assert cells > 150


def test_every_pinned_report_nests_its_levels(tmp_path, monkeypatch):
    from test_report_bytes import cases

    monkeypatch.chdir(tmp_path)
    worst, cells = 0.0, 0
    for name, argv in cases().items():
        if name.startswith("error-") or {"--table", "--help"} & set(argv):
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):  # --verify leaves the cells as they are
            assert main([arg for arg in argv if arg != "--verify"]) == 0, name
        by_cell: dict[tuple, dict] = {}
        for cell in json.loads(out.getvalue())["cells"]:
            ends = {"interval": ("lower", "upper"), "point": ("value", "value")}.get(cell["kind"])
            if ends:
                by_cell.setdefault((cell["event"], cell["evidence"]), {})[
                    Assumptions(cell["assumptions"])] = tuple(cell[end] for end in ends)
        for bounds in by_cell.values():
            if len(bounds) > 1:
                worst = max(worst, *_excess(bounds))
                cells += 1
    assert worst <= 1e-14
    assert cells > 1000


def test_the_incr_point_is_linear_in_the_event():
    # each event A split by a random mask M: point(A ∩ M) + point(A \ M) is
    # point(A) bit for bit, as the complement's is 1
    cells = 0
    for seed in (41, 43, 47):
        split = np.random.default_rng((seed, 1))
        for facts, coeffs, ys in _random_rows(seed, range(2, 31), 1, 8):
            whole = _bounds(facts, coeffs, ys, INCR)
            if whole is None:
                continue
            inside = coeffs * split.integers(0, 2, coeffs.shape)
            parts = (_bounds(facts, part, ys, INCR)[0] for part in (inside, coeffs - inside))
            assert (sum(parts) == whole[0]).all()
            cells += len(ys)
    assert cells > 10_000
