"""Metamorphic relations: input changes whose effect on the output is known,
so that checking them needs no reference engine.

- **Empty top levels.**  Outcome levels with zero counts in both tables,
  added above the top, leave every cell the tables share as it was (its
  label aside), and every cell at an added evidence level is the
  zero-evidence refusal.  Exact.
- **Complement duality.**  For an event A and its complement A^c,
  lower(A) = 1 - upper(A^c) and upper(A) = 1 - lower(A^c), in the closed
  forms and in the LP; the ``incr`` points of A and A^c sum to exactly 1.
- **Nesting.**  On custom events the ``incr`` point lies in the ``mono``
  interval, and the ``mono`` interval in the ``marginal`` one.

Where rounding makes a relation inexact, the bound is absolute and holds on
these seeds with room to spare.  Each bound is a ratio over treated[y], so
its rounding grows as treated[y] shrinks, and other seeds with less
evidence mass exceed it.  A relation that fails is a defect to report, not a
bound to widen.
"""

from __future__ import annotations

import json

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

MARGINAL = Assumptions.MARGINAL_ONLY
MONO = Assumptions.MONOTONICITY
INCR = Assumptions.MONOTONIC_INCREMENT
PAIR_KINDS = (staircase_pair, lower_triangular_pair, arbitrary_pair)
#: The events that LaLonde's three levels and the extended tables share
SHARED_EVENTS = ("noteq:1", "noteq:2", "eq:0", "eq:1", "eq:2", "lt:1", "lt:2")


def _lalonde_cells(tmp_path, added: int, args: list[str]) -> list[dict]:
    """The report cells of the LaLonde tables with ``added`` zero-count
    levels on top of both."""
    paths = []
    for name, counts in (("exp", LALONDE_EXP), ("obs", LALONDE_OBS)):
        paths.append(tmp_path / f"{name}-{added}.json")
        paths[-1].write_text(json.dumps({"counts": [row + [0] * added for row in counts]}))
    out = tmp_path / "report.json"
    assert main(["--exp", str(paths[0]), "--obs", str(paths[1]), *args, "--out", str(out)]) == 0
    return json.loads(out.read_text())["cells"]


@pytest.mark.parametrize("added, refused", [(1, 18), (2, 42), (6, 198)])
def test_empty_top_levels_change_no_shared_cell(tmp_path, added, refused):
    args = [arg for spec in SHARED_EVENTS for arg in ("--event", spec)]
    args += ["--evidence", "1", "--evidence", "2"]

    def unlabelled(cells):
        return [{key: value for key, value in cell.items() if key != "label"} for cell in cells]

    shared = unlabelled(_lalonde_cells(tmp_path, 0, args))
    assert len(shared) == 42
    assert unlabelled(_lalonde_cells(tmp_path, added, args)) == shared
    top = [cell for cell in _lalonde_cells(tmp_path, added, ["--all-canonical"])
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
    points = 0
    for facts, coeffs, ys in _random_rows(29, range(2, 8), 12, 8):
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
            worst[assumptions] = max(worst[assumptions], error.max())
    assert worst[MARGINAL] <= 1e-13
    assert worst[MONO] <= 1e-14
    assert points > 1000


def test_complement_duality_in_the_lp():
    worst, cells = 0.0, 0
    for facts, coeffs, ys in _random_rows(31, range(2, 8), 2, 2):
        levels = facts.pair.levels
        for assumptions in (MARGINAL, MONO, INCR):
            for bits, y in zip(coeffs.tolist(), ys.tolist()):
                try:
                    a, a_c = (pn_bounds_lp(facts.pair, make_event("custom", levels, coeffs=b), y,
                                           assumptions) for b in (bits, [1 - c for c in bits]))
                except LpInfeasibleError:
                    break  # the level's polytope is empty: every cell of it is refused
                worst = max(worst, abs(a.lower - (1 - a_c.upper)), abs(a.upper - (1 - a_c.lower)))
                cells += 1
    assert worst <= 1e-14
    assert cells > 500


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
