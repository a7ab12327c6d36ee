import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pnbounds import (
    Assumptions,
    BoundsResult,
    Conditioning,
    ContingencyTable,
    FalsificationError,
    InvalidDistributionError,
    JointProbabilityMatrix,
    Method,
    SamplingError,
    Source,
    UnsupportedEventError,
    ZeroEvidenceError,
    falsification_check,
    draw_samples,
    make_event,
    monotone_consistent,
    pn_bounds_marginal,
    pn_bounds_monotone,
    pn_from_joint,
    pc_bounds,
    pn_point,
    randomized_margins,
)
from pnbounds.bounds import cell_bounds, level_bounds
from pnbounds.cli import AnalysisConfig, parse_event, run_analysis
from pnbounds.core import ATOL
from pnbounds.lp import LpInfeasibleError, pn_bounds_lp
from pnbounds.identify import pair_facts
from helpers import (
    arbitrary_pair,
    assumption_levels,
    canonical_events,
    classify_monotone,
    lalonde_pair,
    lower_triangular_pair,
    pair_from_laws,
    scalar_brackets,
    scalar_cell,
    staircase_joint,
    staircase_pair,
)


# --- marginal-only bounds ------------------------------------------------------

@pytest.mark.parametrize(
    "kind,level,y,lo,hi",
    [
        ("noteq", 2, 2, 0.17, 0.88),
        ("eq", 0, 2, 0.00, 0.68),
        ("eq", 1, 2, 0.00, 0.20),
        ("eq", 2, 2, 0.12, 0.83),
        ("lt", 2, 2, 0.17, 0.88),
        ("noteq", 1, 1, 0.31, 1.00),
        ("eq", 0, 1, 0.00, 1.00),
        ("eq", 1, 1, 0.00, 0.69),
        ("eq", 2, 1, 0.00, 1.00),
        ("lt", 1, 1, 0.00, 1.00),
    ],
)
def test_lalonde_marginal_bounds_match_published_grid(kind, level, y, lo, hi):
    result = pn_bounds_marginal(lalonde_pair(), make_event(kind, 3, level=level), y)
    assert result.lower == pytest.approx(lo, abs=0.005)
    assert result.upper == pytest.approx(hi, abs=0.005)
    assert result.assumptions is Assumptions.MARGINAL_ONLY
    assert result.method is Method.CLOSED_FORM


def test_full_space_event_is_pinned_to_one():
    result = pn_bounds_marginal(
        lalonde_pair(), make_event("custom", 3, coeffs=[1, 1, 1]), 2
    )
    assert (result.lower, result.upper) == (1.0, 1.0)


def test_marginal_bounds_zero_evidence():
    pair = pair_from_laws([0.5, 0.5, 0.0], [0.2, 0.3, 0.5])
    with pytest.raises(ZeroEvidenceError):
        pn_bounds_marginal(pair, make_event("eq", 3, level=0), 2)


def test_marginal_bounds_always_proper_interval():
    rng = np.random.default_rng(4)
    for _ in range(200):
        levels = int(rng.integers(2, 7))
        pair = arbitrary_pair(rng, levels)
        y = int(rng.integers(0, levels))
        if pair.treated_law.probs[y] <= 1e-9:
            continue
        event = make_event(
            "custom", levels, coeffs=rng.integers(0, 2, size=levels).tolist()
        )
        res = pn_bounds_marginal(pair, event, y)
        assert 0.0 <= res.lower <= 1.0 and 0.0 <= res.upper <= 1.0
        assert res.lower <= res.upper + 1e-9


# --- monotone bounds ----------------------------------------------------------

@pytest.mark.parametrize(
    "kind,level,y,lo,hi",
    [
        ("noteq", 2, 2, 0.17, 0.17),
        ("eq", 0, 2, 0.00, 0.17),
        ("eq", 1, 2, 0.00, 0.17),
        ("eq", 2, 2, 0.83, 0.83),
        ("lt", 2, 2, 0.17, 0.17),
        ("noteq", 1, 1, 0.31, 0.89),
        ("eq", 0, 1, 0.31, 0.89),
        ("eq", 1, 1, 0.11, 0.69),
        ("eq", 2, 1, 0.00, 0.00),
        ("lt", 1, 1, 0.31, 0.89),
    ],
)
def test_lalonde_monotone_bounds_match_published_grid(kind, level, y, lo, hi):
    result = pn_bounds_monotone(lalonde_pair(), make_event(kind, 3, level=level), y)
    assert result.lower == pytest.approx(lo, abs=0.005)
    assert result.upper == pytest.approx(hi, abs=0.005)
    assert result.assumptions is Assumptions.MONOTONICITY


def test_single_level_above_evidence_is_degenerate_zero():
    result = pn_bounds_monotone(lalonde_pair(), make_event("eq", 3, level=2), 1)
    assert (result.lower, result.upper) == (0.0, 0.0)
    # on monotone-inconsistent data even an impossible event has no bound
    falsified = pair_from_laws([0.1, 0.1, 0.8], [0.05, 0.9, 0.05])
    with pytest.raises(UnsupportedEventError, match="k=1: gap -0.05"):
        pn_bounds_monotone(falsified, make_event("eq", 3, level=2), 1)


def test_event_certain_under_ordering_is_pinned_to_one():
    # all levels at or below the evidence are in the event
    result = pn_bounds_monotone(lalonde_pair(), make_event("lt", 3, level=2), 1)
    assert (result.lower, result.upper) == (1.0, 1.0)


def test_events_outside_the_families_get_the_general_closed_form():
    pair = lalonde_pair()
    for event in (
        make_event("noteq", 3, level=1),
        make_event("custom", 3, coeffs=[1, 0, 1]),
    ):
        result = pn_bounds_monotone(pair, event, 2)
        reference = pn_bounds_lp(pair, event, 2, Assumptions.MONOTONICITY)
        assert result.method is Method.CLOSED_FORM
        assert type(result.lower) is float and type(result.upper) is float
        assert abs(result.lower - reference.lower) <= 1e-9
        assert abs(result.upper - reference.upper) <= 1e-9
    # on monotone-inconsistent data the formula refuses, naming the cut
    inconsistent = pair_from_laws([0.1, 0.1, 0.8], [0.05, 0.9, 0.05])
    with pytest.raises(UnsupportedEventError, match="k=1: gap -0.05"):
        pn_bounds_monotone(inconsistent, make_event("custom", 3, coeffs=[1, 0, 1]), 2)


def test_less_than_at_evidence_equals_complement_of_evidence_level():
    pair = lalonde_pair()
    for y in (1, 2):
        lt = pn_bounds_monotone(pair, make_event("lt", 3, level=y), y)
        noteq = pn_bounds_monotone(pair, make_event("noteq", 3, level=y), y)
        assert lt.lower == pytest.approx(noteq.lower, abs=1e-12)
        assert lt.upper == pytest.approx(noteq.upper, abs=1e-12)


def test_crossed_interval_is_surfaced_not_clamped():
    # the family forms cross on this pair; the cell is refused, not clamped
    pair = pair_from_laws([0.1, 0.1, 0.8], [0.05, 0.9, 0.05])
    assert not monotone_consistent(pair)
    with pytest.raises(UnsupportedEventError, match="falsified"):
        pn_bounds_monotone(pair, make_event("eq", 3, level=1), 2)


def test_no_falsified_note_on_a_gap_inside_the_band():
    # gap_1 = -5e-10 is within ATOL; eq:1 at y = 3 crosses by 1.5e-9 as a
    # ratio but by only 5e-10 of probability
    third = 1.0 / 3.0
    pair = pair_from_laws(
        [third, third, 0.0, third], [third - 5e-10, third + 5e-10, 1 / 6, 1 / 6]
    )
    assert monotone_consistent(pair)
    result = pn_bounds_monotone(pair, make_event("eq", 4, level=1), 3)  # no refusal
    assert result.lower > result.upper + ATOL


def test_crossed_agrees_with_the_falsification_note():
    third = 1.0 / 3.0
    inside_band = pair_from_laws(
        [third, third, 0.0, third], [third - 5e-10, third + 5e-10, 1 / 6, 1 / 6]
    )
    falsified = pair_from_laws([0.1, 0.1, 0.8], [0.05, 0.9, 0.05])
    result = pn_bounds_monotone(inside_band, make_event("eq", 4, level=1), 3)
    assert result.lower > result.upper  # inside the band: crossed, not refused
    with pytest.raises(UnsupportedEventError) as refusal:
        pn_bounds_monotone(falsified, make_event("eq", 3, level=1), 2)
    assert str(refusal.value) == pair_facts(falsified).mono_refusal


@pytest.mark.parametrize(
    "kind,level,y,branch",
    [
        ("eq", 2, 1, "impossible"),
        ("lt", 2, 1, "certain"),
        ("noteq", 2, 2, "noteq"),
        ("eq", 0, 2, "eq"),
        ("eq", 2, 2, "eq"),
        ("custom", None, 2, "unsupported"),
    ],
)
def test_closed_forms_return_plain_floats(kind, level, y, branch):
    pair = lalonde_pair()
    if kind == "custom":
        event = make_event("custom", 3, coeffs=[1, 0, 1])
    else:
        event = make_event(kind, 3, level=level)
    assert classify_monotone(event, y)[0] == branch
    for result in (pn_bounds_monotone(pair, event, y), pn_bounds_marginal(pair, event, y)):
        assert type(result.lower) is type(result.upper) is float
        assert math.copysign(1.0, result.lower) == math.copysign(1.0, result.upper) == 1.0


# --- the array pass equals the scalar formulas ---------------------------------------

def _shifted_laws(treated, control, delta):
    """The laws with control mass delta moved from level 0 to level 1:
    gap_1 drops by delta, exactly when treated[0] == control[0]."""
    control = control.copy()
    control[0] -= delta
    control[1] += delta
    return treated, control


def _reference_pair(rng, levels, shape):
    """A marginal pair of one of the degenerate shapes the closed forms meet."""
    if shape == "inconsistent":
        return arbitrary_pair(rng, levels)
    if shape == "staircase":  # the incr brackets pass
        q = staircase_joint(rng, levels)
    else:
        q = np.tril(rng.random((levels, levels)))
        if shape in ("tied", "band-in", "band-out", "zero-gap"):
            # integer weights tie sums; a diagonal first row and column
            # makes treated[0] == control[0], so gap_1 is exactly zero
            q = np.tril(rng.integers(0, 3, q.shape)).astype(float)
            q[1:, 0] = 0.0
            q[0, 0] = 1.0 + rng.integers(0, 3)
        elif shape in ("zero-mass", "signed-zero"):
            q[int(rng.integers(levels)), :] = 0.0
            q[:, int(rng.integers(levels))] = 0.0
        q /= q.sum()
    treated, control = q.sum(axis=1), q.sum(axis=0)
    if shape == "equal":  # every gap exactly zero
        control = treated
    elif shape.startswith("band"):  # gap_1 just inside / just outside ATOL
        treated, control = _shifted_laws(treated, control, (0.5 if shape == "band-in" else 2.0) * ATOL)
    elif shape == "signed-zero":  # empty levels as -0.0, so some gaps are -0.0
        treated, control = (np.where(law == 0.0, -0.0, law) for law in (treated, control))
    return pair_from_laws(treated, control)


def _estimate_rows(facts, events, assumptions):
    """The (event, y) cells of a level that carry an estimate."""
    pair = facts.pair
    if assumptions is Assumptions.MONOTONICITY and facts.mono_refusal is not None:
        return []
    if assumptions is Assumptions.MONOTONIC_INCREMENT and not facts.brackets.passed:
        return []
    return [(event, y) for y in range(pair.levels) if pair.treated_law.probs[y] > ATOL
            for event in events(y)]


def _refuses_monotone(facts, events):
    """Whether ``level_bounds`` refuses the whole ``mono`` level of the facts,
    with their own note, when the data contradict monotonicity."""
    if facts.mono_refusal is None:
        return False
    rows = [(event, y) for y in range(facts.pair.levels) for event in events(y)]
    with pytest.raises(UnsupportedEventError) as refusal:
        level_bounds(facts, np.array([event.coeffs for event, _ in rows]),
                     np.array([y for _, y in rows]), Assumptions.MONOTONICITY)
    assert str(refusal.value) == facts.mono_refusal
    return True


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def test_level_bounds_equal_the_scalar_formulas_bit_for_bit():
    rng = np.random.default_rng(12)
    shapes = ("dense", "staircase", "tied", "zero-mass", "signed-zero", "equal", "zero-gap",
              "band-in", "band-out", "inconsistent")
    seen = set()
    for levels in range(2, 31):
        for shape in shapes if levels <= 8 else shapes[levels % len(shapes):][:2]:
            facts = pair_facts(_reference_pair(rng, levels, shape))
            if levels <= 6:  # every custom event
                customs = [make_event("custom", levels, coeffs=[(b >> l) & 1 for l in range(levels)])
                           for b in range(2 ** levels)]
            else:
                customs = [make_event("custom", levels, coeffs=rng.integers(0, 2, levels).tolist())
                           for _ in range(8)]

            def events(y):
                return canonical_events(levels, y) + customs

            if _refuses_monotone(facts, events):
                seen.add(("mono", "refused"))
            for assumptions in assumption_levels():
                rows = _estimate_rows(facts, events, assumptions)
                if not rows:
                    continue
                coeffs = np.array([event.coeffs for event, _ in rows])
                ys = np.array([y for _, y in rows])
                lower, upper = level_bounds(facts, coeffs, ys, assumptions)
                expected = [scalar_cell(facts, event, y, assumptions) for event, y in rows]
                assert _bits(lower) == _bits([lo for lo, _ in expected])
                assert _bits(upper) == _bits([up for _, up in expected])
                seen.add((assumptions.value, shape))
                seen.update((assumptions.value, classify_monotone(event, y)[0])
                            for event, y in rows if assumptions is Assumptions.MONOTONICITY)
    assert len(seen) >= 3 * len(shapes) - 5  # incr passes only on some shapes
    assert {("mono", kind) for kind in
            ("impossible", "certain", "noteq", "eq", "unsupported", "refused")} <= seen


def test_pair_facts_equal_the_numpy_scalar_bracket_loop_bit_for_bit():
    rng = np.random.default_rng(13)
    shapes = ("dense", "staircase", "tied", "zero-mass", "signed-zero", "equal", "zero-gap",
              "band-in", "band-out", "inconsistent")
    seen = set()
    for levels in range(2, 31):
        for shape in shapes:
            try:
                with np.errstate(invalid="ignore"):
                    pair = _reference_pair(rng, levels, shape)
            except InvalidDistributionError:  # zero-mass emptied a small joint
                continue
            # gap_1 moved by -ATOL and +ATOL; at J = 3 a -0.0 gap_1 and a
            # 0.0 / -0.0 tie in the upper end of bracket 1
            treated, control = pair.treated_law.probs, pair.control_law.probs
            pairs = [pair] + [pair_from_laws(*_shifted_laws(treated, control, delta))
                              for delta in (ATOL, -ATOL)]
            if levels == 3:
                pairs.append(pair_from_laws([0.0, 0.5, 0.5], [-0.0, 0.25, 0.75]))
                pairs.append(pair_from_laws([0.5, 0.0, 0.5], [-0.0, 0.5, 0.5]))
            for pair in pairs:
                facts = pair_facts(pair)
                checks, note = scalar_brackets(pair)
                assert [(c.k, c.within_bracket, c.diag_nonnegative) for c in facts.brackets.checks] \
                    == [(c.k, c.within_bracket, c.diag_nonnegative) for c in checks]
                for got, want in zip(facts.brackets.checks, checks):
                    assert _bits([got.lower, got.gap, got.upper]) == _bits([want.lower, want.gap, want.upper])
                    assert {type(got.lower), type(got.gap), type(got.upper)} == {float}
                    assert type(got.within_bracket) is type(got.diag_nonnegative) is bool
                assert facts.brackets.passed is all(c.ok for c in checks)
                assert (facts.mono_refusal or "").encode() == (note or "").encode()
                seen.update(("bracket", c.within_bracket, c.diag_nonnegative) for c in checks)
                seen.add(("facts", facts.brackets.passed, note is None))
                seen.update(math.copysign(1.0, c.gap) for c in checks if c.gap == 0.0)
    # inside its bracket a gap is at most treated[k] + ATOL, so the diagonal holds
    assert {("bracket", True, True), ("bracket", False, True), ("bracket", False, False)} <= seen
    assert {("facts", True, True), ("facts", False, True), ("facts", False, False)} <= seen
    assert {1.0, -1.0} <= seen  # gaps of +0.0 and -0.0


def test_one_stacked_call_equals_its_one_row_calls():
    rng = np.random.default_rng(5)
    for levels in (2, 3, 5, 9, 17):
        for shape in ("dense", "staircase", "inconsistent", "band-in"):
            facts = pair_facts(_reference_pair(rng, levels, shape))
            customs = [make_event("custom", levels, coeffs=rng.integers(0, 2, levels).tolist())
                       for _ in range(5)]

            def events(y):
                return canonical_events(levels, y) + customs

            if _refuses_monotone(facts, events):
                with pytest.raises(UnsupportedEventError) as refusal:
                    cell_bounds(facts, customs[0], levels - 1, Assumptions.MONOTONICITY)
                assert str(refusal.value) == facts.mono_refusal
            for assumptions in assumption_levels():
                rows = _estimate_rows(facts, events, assumptions)
                if not rows:
                    continue
                order = rng.permutation(len(rows))  # rows of every y interleaved
                coeffs = np.array([rows[i][0].coeffs for i in order])
                ys = np.array([rows[i][1] for i in order])
                lower, upper = level_bounds(facts, coeffs, ys, assumptions)
                for k, i in enumerate(order):
                    event, y = rows[i]
                    one = level_bounds(facts, coeffs[k : k + 1], ys[k : k + 1], assumptions)
                    assert _bits(one[0]) == _bits(lower[k : k + 1])
                    assert _bits(one[1]) == _bits(upper[k : k + 1])
                    cell = cell_bounds(facts, event, y, assumptions)
                    assert _bits([cell.lower, cell.upper]) == _bits([lower[k], upper[k]])


def test_level_bounds_refuses_like_the_scalar_cells():
    pair = pair_from_laws([0.1, 0.1, 0.0, 0.8], [0.05, 0.9, 0.0, 0.05])
    facts = pair_facts(pair)
    inside = make_event("eq", 4, level=1)
    outside = make_event("custom", 4, coeffs=[1, 0, 1, 0])
    with pytest.raises(ZeroEvidenceError, match="level 2"):
        level_bounds(facts, np.array([inside.coeffs] * 2), np.array([3, 2]),
                     Assumptions.MARGINAL_ONLY)
    with pytest.raises(UnsupportedEventError, match="k=1: gap -0.05"):
        level_bounds(facts, np.array([inside.coeffs, outside.coeffs]), np.array([3, 3]),
                     Assumptions.MONOTONICITY)
    # a family's forms would cross on such data; the mono refusal comes
    # before zero evidence, and zero evidence before failed incr brackets
    for y, assumptions, error in ((3, Assumptions.MONOTONICITY, UnsupportedEventError),
                                  (2, Assumptions.MONOTONICITY, UnsupportedEventError),
                                  (2, Assumptions.MONOTONIC_INCREMENT, ZeroEvidenceError),
                                  (3, Assumptions.MONOTONIC_INCREMENT, FalsificationError)):
        with pytest.raises(error):
            level_bounds(facts, np.array([inside.coeffs]), np.array([y]), assumptions)


def _mono_report_cells(facts, rng):
    """The ``mono`` cells of a report on the facts at every evidence level:
    every canonical event, and every custom event up to J = 6 (24 seeded
    ones above)."""
    levels = facts.pair.levels
    customs = ["custom:" + "".join(map(str, bits))
               for bits in itertools.product((0, 1), repeat=levels)]
    if levels > 6:
        customs = [customs[i] for i in rng.choice(len(customs), 24, replace=False)]
    cfg = AnalysisConfig(events=customs, evidence=list(range(levels)), assume="mono")
    cells = []
    for run in (cfg, replace(cfg, all_canonical=True)):
        cells += run_analysis(run, (facts, {}))["cells"]
    return [(parse_event(c["event"], levels), c["evidence"], c) for c in cells]


def test_every_engine_refuses_a_monotone_inconsistent_pair_with_the_report_note():
    rng = np.random.default_rng(21)
    falsified = [pair_from_laws([0.1, 0.1, 0.8], [0.05, 0.9, 0.05]),
                 pair_from_laws([0.1, 0.1, 0.0, 0.8], [0.05, 0.9, 0.0, 0.05])]
    band = []
    for levels in range(2, 9):
        pair = arbitrary_pair(rng, levels)
        while monotone_consistent(pair):
            pair = arbitrary_pair(rng, levels)
        falsified += [pair, _reference_pair(rng, levels, "band-out")]
        band.append(_reference_pair(rng, levels, "band-in"))
    mono = Assumptions.MONOTONICITY
    for pair, refused in [(p, True) for p in falsified] + [(p, False) for p in band]:
        facts = pair_facts(pair)
        note = facts.mono_refusal
        assert (note is not None) is refused
        assert facts.gaps.min() < 0.0  # a band pair's gap is just below zero
        pc_pair = pair_from_laws(pair.treated_law.probs, pair.control_law.probs,
                                 Conditioning.UNCONDITIONAL)
        if note is None:
            assert draw_samples(pair, mono, 10, seed=1).shape == (10, pair.levels, pair.levels)
        else:
            with pytest.raises(SamplingError) as refusal:
                draw_samples(pair, mono, 10, seed=1)
            assert str(refusal.value) == note
        for event, y, cell in _mono_report_cells(facts, rng):
            if note is None:
                if cell["kind"] == "refused":  # zero evidence
                    assert pair.treated_law.probs[y] <= ATOL
                    continue
                want = _bits([cell["lower"], cell["upper"]])
                lower, upper = level_bounds(facts, np.array([event.coeffs]), np.array([y]), mono)
                assert _bits([lower[0], upper[0]]) == want
                for result in (cell_bounds(facts, event, y, mono),
                               pn_bounds_monotone(pair, event, y),
                               pc_bounds(pc_pair, event, y, mono)):
                    assert _bits([result.lower, result.upper]) == want
                pn_bounds_lp(pair, event, y, mono)
                continue
            assert (cell["kind"], cell["note"]) == ("refused", note)
            for engine in (
                lambda: level_bounds(facts, np.array([event.coeffs]), np.array([y]), mono),
                lambda: cell_bounds(facts, event, y, mono),
                lambda: pn_bounds_monotone(pair, event, y),
                lambda: pc_bounds(pc_pair, event, y, mono),
            ):
                with pytest.raises(UnsupportedEventError) as refusal:
                    engine()
                assert str(refusal.value) == note
            # the LP checks the evidence before it solves phase one
            zero = pair.treated_law.probs[y] <= ATOL
            with pytest.raises(ZeroEvidenceError if zero else LpInfeasibleError):
                pn_bounds_lp(pair, event, y, mono)


def test_monotone_consistent_on_lalonde():
    assert monotone_consistent(lalonde_pair())


def _fuzz_pair(rng, levels, shape):
    if shape == "inconsistent":
        return arbitrary_pair(rng, levels)
    q = np.tril(rng.random((levels, levels)))
    if shape == "sparse":
        q *= rng.random(q.shape) < 0.3
    elif shape == "tied":
        q = np.tril(rng.integers(0, 3, q.shape)).astype(float)
    elif shape == "zero-mass":
        q[int(rng.integers(levels)), :] = 0.0
        q[:, int(rng.integers(levels))] = 0.0
    if q.sum() == 0.0:
        q[0, 0] = 1.0
    q /= q.sum()
    return pair_from_laws(q.sum(axis=1), q.sum(axis=0))


def test_monotone_bounds_match_lp_on_random_events():
    rng = np.random.default_rng(2024)
    shapes = ("dense", "sparse", "tied", "zero-mass", "inconsistent")
    checked = refused = 0
    for i in range(450):
        levels = 2 + i % 9
        pair = _fuzz_pair(rng, levels, shapes[i // 9 % len(shapes)])
        consistent = monotone_consistent(pair)
        for y in range(levels):
            if pair.treated_law.probs[y] <= ATOL:
                continue
            event = make_event(
                "custom", levels, coeffs=rng.integers(0, 2, size=levels).tolist()
            )
            try:
                reference = pn_bounds_lp(pair, event, y, Assumptions.MONOTONICITY)
            except LpInfeasibleError:
                reference = None
            assert (reference is None) == (not consistent)
            if reference is None:
                with pytest.raises(UnsupportedEventError):
                    pn_bounds_monotone(pair, event, y)
                refused += 1
                continue
            result = pn_bounds_monotone(pair, event, y)
            assert result.method is Method.CLOSED_FORM
            assert abs(result.lower - reference.lower) <= 1e-9
            assert abs(result.upper - reference.upper) <= 1e-9
            checked += 1
    assert checked > 1000 and refused > 100


def _shift_gap(treated, control, cut, delta):
    """Copies of the laws with gap_cut lowered by delta, moving mass between
    levels cut-1 and cut of whichever law has it; None when neither has."""
    for law in (control, treated):
        # gap_cut = sum_{l<cut} (control - treated)[l]: moving control mass
        # up, or treated mass down, across the cut lowers it
        up = (law is control) == (delta >= 0)
        source, target = (cut - 1, cut) if up else (cut, cut - 1)
        if law[source] >= abs(delta):
            moved = law.copy()
            moved[source] -= abs(delta)
            moved[target] += abs(delta)
            if law is control:
                return treated, moved
            return moved, control
    return None


@st.composite
def tied_monotone_cells(draw):
    """The marginals of a monotone joint with integer weights (zero-mass
    levels) and a gap tied at zero, with that gap then moved by a multiple
    of ATOL."""
    levels = draw(st.integers(2, 6))
    weights = draw(
        st.lists(st.integers(0, 3), min_size=levels * levels, max_size=levels * levels)
    )
    q = np.tril(np.asarray(weights, dtype=float).reshape(levels, levels))
    cut = draw(st.integers(1, levels - 1))
    q[cut:, :cut] = 0.0  # no mass crosses the cut: gap_cut is zero
    assume(q.sum() > 0)
    q /= q.sum()
    treated, control = q.sum(axis=1), q.sum(axis=0)
    delta = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])) * ATOL
    shifted = _shift_gap(treated, control, cut, delta)
    assume(shifted is not None)
    evidence = [l for l in range(levels) if min(treated[l], shifted[0][l]) > ATOL]
    y = draw(st.sampled_from(evidence))
    coeffs = draw(st.lists(st.integers(0, 1), min_size=levels, max_size=levels))
    event = make_event("custom", levels, coeffs=coeffs)
    return pair_from_laws(*shifted), event, y, delta


@settings(max_examples=150, deadline=None)
@given(tied_monotone_cells())
def test_monotone_bounds_at_zero_mass_levels_and_tolerance_ties(cell):
    pair, event, y, delta = cell
    if not monotone_consistent(pair):
        with pytest.raises(UnsupportedEventError):
            pn_bounds_monotone(pair, event, y)
        return
    result = pn_bounds_monotone(pair, event, y)  # no refusal on consistent data
    assert 0.0 <= result.lower and result.upper <= 1.0
    # a gap up to ATOL below zero is no exact polytope: each engine may
    # move a bound by |delta| of evidence mass
    reference = pn_bounds_lp(pair, event, y, Assumptions.MONOTONICITY)
    tol = 1e-9 + abs(delta) / pair.treated_law.probs[y]
    assert abs(result.lower - reference.lower) <= tol
    assert abs(result.upper - reference.upper) <= tol


def test_closed_forms_cross_only_by_rounding_at_exact_ties():
    # On monotone-consistent count tables a family's two forms can be the same
    # ratio, e.g. noteq:2 at y = 2 below, where (t - c_2) / t = gap_2 / t
    # exactly; each rounds its own way, so lower can exceed upper by a few
    # ulps.  The LP lands within rounding of both ends.
    def pair_of(counts):
        return randomized_margins(ContingencyTable(counts=counts, source=Source.EXPERIMENTAL))

    rng = np.random.default_rng(1)
    tables = [[[40, 40, 10], [10, 30, 50]]]
    for i in range(70):
        levels = 2 + i % 7
        q = np.tril(rng.integers(0, 3, (levels, levels))) * int(rng.integers(1, 14))
        q[0, 0] += 1
        tables.append([q.sum(axis=0).tolist(), q.sum(axis=1).tolist()])
    crossed = 0
    for counts in tables:
        assert max(map(sum, counts)) < 1000
        pair = pair_of(counts)
        assert monotone_consistent(pair)
        facts, levels = pair_facts(pair), pair.levels
        cells = [(event, y) for y in range(levels) if pair.treated_law.probs[y] > ATOL
                 for event in canonical_events(levels, y)]
        coeffs = np.array([event.coeffs for event, _ in cells])
        ys = np.array([y for _, y in cells])
        for assumptions in (Assumptions.MARGINAL_ONLY, Assumptions.MONOTONICITY):
            lower, upper = level_bounds(facts, coeffs, ys, assumptions)
            assert (lower - upper).max() < 1e-13
            crossed += int((lower > upper).sum())
            for (event, y), low, up in zip(cells, lower, upper):
                reference = pn_bounds_lp(pair, event, y, assumptions)
                assert abs(reference.lower - low) <= 1e-12
                assert abs(reference.upper - up) <= 1e-12
    assert crossed > 10
    noteq = pc_bounds(pair_of(tables[0]), make_event("noteq", 3, level=2), 2,
                      Assumptions.MONOTONICITY)
    assert (noteq.lower, noteq.upper) == (0.8, 0.7999999999999999)


# --- ladder and containment properties -------------------------------------------

def test_monotone_interval_nested_in_marginal_interval():
    rng = np.random.default_rng(7)
    trials = 0
    while trials < 200:
        levels = int(rng.integers(2, 7))
        pair = lower_triangular_pair(rng, levels)
        y = int(rng.integers(1, levels))
        if pair.treated_law.probs[y] <= 1e-9:
            continue
        for event in canonical_events(levels, y)[:-1]:
            outer = pn_bounds_marginal(pair, event, y)
            inner = pn_bounds_monotone(pair, event, y)
            assert inner.lower >= outer.lower - 1e-9
            assert inner.upper <= outer.upper + 1e-9
        trials += 1


def test_point_lies_in_both_intervals_when_brackets_pass():
    rng = np.random.default_rng(13)
    for _ in range(100):
        levels = int(rng.integers(2, 6))
        pair = staircase_pair(rng, levels)
        assert falsification_check(pair).passed
        y = int(rng.integers(1, levels))
        if pair.treated_law.probs[y] <= 1e-9:
            continue
        for event in canonical_events(levels, y)[:-1]:
            point = pn_point(pair, event, y)
            assert pn_bounds_marginal(pair, event, y).contains(point)
            assert pn_bounds_monotone(pair, event, y).contains(point)


def test_sampled_joints_stay_inside_marginal_interval():
    pair = lalonde_pair()
    event = make_event("noteq", 3, level=2)
    result = pn_bounds_marginal(pair, event, 2)
    for q in draw_samples(pair, Assumptions.MARGINAL_ONLY, 400, seed=5):
        assert result.contains(pn_from_joint(JointProbabilityMatrix(q), event, 2))


# --- binary reduction --------------------------------------------------------------

def test_binary_bounds_reduce_to_two_event_bracket():
    rng = np.random.default_rng(19)
    for _ in range(200):
        pair = arbitrary_pair(rng, 2)
        t1 = pair.treated_law.probs[1]
        c0 = pair.control_law.probs[0]
        if t1 <= 1e-9:
            continue
        res = pn_bounds_marginal(pair, make_event("eq", 2, level=0), 1)
        assert res.lower == pytest.approx(max(0.0, (t1 + c0 - 1) / t1), abs=1e-12)
        assert res.upper == pytest.approx(min(1.0, c0 / t1), abs=1e-12)


# --- result container ---------------------------------------------------------------

def test_bounds_result_helpers():
    res = BoundsResult(0.2, 0.6, Assumptions.MARGINAL_ONLY, Method.CLOSED_FORM)
    assert res.width == pytest.approx(0.4)
    assert res.midpoint == pytest.approx(0.4)
    assert res.contains(0.2) and res.contains(0.6) and not res.contains(0.7)
    assert [f.name for f in fields(res)] == ["lower", "upper", "assumptions", "method"]
