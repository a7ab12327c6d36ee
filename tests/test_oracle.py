import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pnbounds import (
    ATOL,
    Assumptions,
    BoundsResult,
    CausalAttributionError,
    Method,
    JointProbabilityMatrix,
    SamplingError,
    ZeroEvidenceError,
    allowed_mask,
    endpoint_witnesses,
    identify_joint,
    make_event,
    pn_bounds_lp,
    pn_bounds_marginal,
    pn_bounds_monotone,
    pn_from_joint,
    verify_bounds,
)
from pnbounds import oracle
from pnbounds.identify import EXACT_ATOL, pair_facts
from pnbounds.oracle import _sample_array, draw_samples
from helpers import (
    arbitrary_pair,
    canonical_events,
    enumerate_vertices,
    lalonde_pair,
    lower_triangular_pair,
    pair_from_laws,
    staircase_pair,
)


# --- extremal witnesses -----------------------------------------------------------

def test_upper_witness_attains_published_bound():
    pair = lalonde_pair()
    ev = make_event("noteq", 3, level=2)
    witness = endpoint_witnesses(pair, ev, 2, Assumptions.MARGINAL_ONLY)[1]
    assert pn_from_joint(witness, ev, 2) == pytest.approx(0.88, abs=0.005)


def test_full_space_event_witnesses():
    pair = lalonde_pair()
    ev = make_event("custom", 3, coeffs=[1, 1, 1])
    for witness in endpoint_witnesses(pair, ev, 2, Assumptions.MARGINAL_ONLY):
        assert pn_from_joint(witness, ev, 2) == pytest.approx(1.0, abs=1e-9)


def test_binary_lower_witness_matches_two_event_bracket():
    rng = np.random.default_rng(29)
    for _ in range(50):
        pair = arbitrary_pair(rng, 2)
        t1, c0 = pair.treated_law.probs[1], pair.control_law.probs[0]
        if t1 <= 1e-9:
            continue
        ev = make_event("eq", 2, level=0)
        witness = endpoint_witnesses(pair, ev, 1, Assumptions.MARGINAL_ONLY)[0]
        assert pn_from_joint(witness, ev, 1) == pytest.approx(
            max(0.0, (t1 + c0 - 1) / t1), abs=1e-9
        )


def test_witnesses_attain_marginal_bounds_everywhere():
    rng = np.random.default_rng(37)
    for _ in range(40):
        levels = int(rng.integers(2, 6))
        pair = arbitrary_pair(rng, levels)
        y = int(rng.integers(0, levels))
        if pair.treated_law.probs[y] <= 1e-9:
            continue
        for event in canonical_events(levels, y):
            res = pn_bounds_marginal(pair, event, y)
            low, up = endpoint_witnesses(pair, event, y, Assumptions.MARGINAL_ONLY)
            assert pn_from_joint(low, event, y) == pytest.approx(res.lower, abs=1e-9)
            assert pn_from_joint(up, event, y) == pytest.approx(res.upper, abs=1e-9)
            for witness in (low, up):
                assert np.abs(witness.row_margins() - pair.treated_law.probs).max() < 1e-9
                assert np.abs(witness.col_margins() - pair.control_law.probs).max() < 1e-9


# --- one-cell refusals --------------------------------------------------------------

_CLAIM = BoundsResult(0.0, 1.0, Assumptions.MARGINAL_ONLY, Method.CLOSED_FORM)
_ONE_CELL_ENTRIES = {
    "witnesses-marginal": lambda pair, event, y: endpoint_witnesses(
        pair, event, y, Assumptions.MARGINAL_ONLY),
    "witnesses-mono": lambda pair, event, y: endpoint_witnesses(
        pair, event, y, Assumptions.MONOTONICITY),
    "verify": lambda pair, event, y: verify_bounds(
        pair, event, y, Assumptions.MARGINAL_ONLY, _CLAIM, 100, 0),
}


@pytest.mark.parametrize("entry", _ONE_CELL_ENTRIES.values(), ids=_ONE_CELL_ENTRIES.keys())
@pytest.mark.parametrize("event,y,message", [
    (make_event("eq", 4, level=0), 0, "event has 4 levels, not 3"),
    (make_event("eq", 3, level=0), 3, "evidence level 3 out of range"),
    (make_event("eq", 3, level=0), -1, "evidence level -1 out of range"),
], ids=["4-levels", "y=3", "y=-1"])
def test_one_cell_oracle_entries_refuse_a_malformed_cell_before_drawing(
    monkeypatch, entry, event, y, message
):
    def no_draw(*args):
        raise AssertionError("drew a batch for a malformed cell")

    monkeypatch.setattr(oracle, "_draw", no_draw)
    pair = pair_from_laws([0.2, 0.3, 0.5], [0.4, 0.3, 0.3])
    with pytest.raises(CausalAttributionError) as err:
        entry(pair, event, y)
    assert type(err.value) is CausalAttributionError and str(err.value) == message


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", _ONE_CELL_ENTRIES.values(), ids=_ONE_CELL_ENTRIES.keys())
def test_one_cell_oracle_entries_refuse_zero_evidence_without_a_warning(entry):
    pair = pair_from_laws([0.2, 0.0, 0.8], [0.4, 0.3, 0.3])
    with pytest.raises(ZeroEvidenceError) as err:
        entry(pair, make_event("eq", 3, level=0), 1)
    assert str(err.value) == "treated outcome level 1 has zero probability"


# --- sampling ----------------------------------------------------------------------

def test_identical_laws_single_point_feasible_set():
    pair = pair_from_laws([0.2, 0.3, 0.5], [0.2, 0.3, 0.5])
    samples = draw_samples(pair, Assumptions.MONOTONIC_INCREMENT, 25, seed=11)
    target = np.diag([0.2, 0.3, 0.5])
    for q in samples:
        assert np.abs(q - target).max() < 1e-9


def test_samples_satisfy_margins_and_zero_pattern():
    rng = np.random.default_rng(41)
    for assumptions in Assumptions:
        pair = lower_triangular_pair(rng, 4)
        if assumptions is Assumptions.MONOTONIC_INCREMENT:
            pair = staircase_pair(rng, 4)
        samples = draw_samples(pair, assumptions, 60, seed=13)
        assert len(samples) == 60
        mask = allowed_mask(assumptions, 4)
        for q in samples:
            assert np.abs(q.sum(axis=1) - pair.treated_law.probs).max() < 1e-7
            assert np.abs(q.sum(axis=0) - pair.control_law.probs).max() < 1e-7
            assert np.all(q[~mask] == 0.0)


def test_singleton_feasible_set_has_negligible_variance():
    pair = lalonde_pair()
    ev = make_event("noteq", 3, level=2)
    samples = draw_samples(pair, Assumptions.MONOTONIC_INCREMENT, 100, seed=5)
    values = np.array([pn_from_joint(JointProbabilityMatrix(q), ev, 2) for q in samples])
    assert values.var() < 1e-10
    point = pn_from_joint(identify_joint(pair), ev, 2)
    assert np.abs(values - point).max() < 1e-6


def test_sampling_is_deterministic_in_the_seed():
    pair = lalonde_pair()
    a = draw_samples(pair, Assumptions.MARGINAL_ONLY, 10, seed=99)
    b = draw_samples(pair, Assumptions.MARGINAL_ONLY, 10, seed=99)
    for qa, qb in zip(a, b):
        assert np.array_equal(qa, qb)


def test_sampling_rejects_empty_feasible_sets():
    bad = pair_from_laws([0.1, 0.8, 0.1], [0.05, 0.05, 0.9])
    with pytest.raises(SamplingError):
        draw_samples(bad, Assumptions.MONOTONIC_INCREMENT, 5, seed=1)
    reversed_pair = pair_from_laws([0.7, 0.3], [0.2, 0.8])
    with pytest.raises(SamplingError):
        draw_samples(reversed_pair, Assumptions.MONOTONICITY, 5, seed=1)
    with pytest.raises(SamplingError):
        draw_samples(lalonde_pair(), Assumptions.MARGINAL_ONLY, 0, seed=1)


# --- exact sampler ------------------------------------------------------------------

def _assert_exact_batch(pair, assumptions, n, seed, tol=EXACT_ATOL):
    x = draw_samples(pair, assumptions, n, seed)
    assert x.shape == (n, pair.levels, pair.levels)
    assert np.abs(x.sum(axis=2) - pair.treated_law.probs).max() <= tol
    assert np.abs(x.sum(axis=1) - pair.control_law.probs).max() <= tol
    assert x.min() >= 0.0
    assert np.all(x[:, ~allowed_mask(assumptions, pair.levels)] == 0.0)
    assert np.array_equal(x, draw_samples(pair, assumptions, n, seed))


def _tied_pair(rng, levels):
    """Monotone integer joint with an empty treated level, an empty control
    level and a gap tied at zero."""
    q = np.tril(rng.integers(1, 4, (levels, levels)).astype(float))
    cut = int(rng.integers(1, levels))
    q[cut:, :cut] = 0.0
    q[int(rng.integers(0, levels))] = 0.0
    q[:, int(rng.integers(0, levels))] = 0.0
    if q.sum() == 0:
        q[-1, -1] = 1.0
    q /= q.sum()
    return pair_from_laws(q.sum(axis=1), q.sum(axis=0))


def _band_pairs():
    """Pairs whose one negative gap lies inside the ATOL band."""
    treated = np.array([3, 4, 1, 8, 3, 3]) / 22
    control = np.array([8, 3, 2, 3, 4, 2]) / 22
    control[3] -= 5e-10
    control[4] += 5e-10
    return [pair_from_laws([1.0, 0.0], [1 - 1e-9, 1e-9]), pair_from_laws(treated, control)]


def test_draws_meet_margins_and_zero_pattern_exactly():
    rng = np.random.default_rng(97)
    drawn = refused = 0
    for levels in range(2, 21):
        pairs = [lower_triangular_pair(rng, levels), staircase_pair(rng, levels)]
        pairs.append(_tied_pair(rng, levels))
        for pair in pairs:
            for assumptions in Assumptions:
                try:
                    oracle._Level(pair_facts(pair), assumptions)
                except SamplingError:
                    with pytest.raises(SamplingError):
                        draw_samples(pair, assumptions, 100, seed=levels)
                    refused += 1
                    continue
                _assert_exact_batch(pair, assumptions, 100, seed=levels)
                drawn += 1
    assert drawn >= 120 and refused >= 10


def test_band_pairs_are_sampled_within_the_band():
    two_levels, six_levels = _band_pairs()
    cases = [(two_levels, a) for a in Assumptions]
    cases += [(six_levels, Assumptions.MARGINAL_ONLY), (six_levels, Assumptions.MONOTONICITY)]
    for pair, assumptions in cases:
        _assert_exact_batch(pair, assumptions, 500, seed=3, tol=ATOL + EXACT_ATOL)


@st.composite
def ladder_pairs(draw):
    """Integer joints (zero-mass levels) that are unrestricted, lower
    triangular or staircase, with one gap tied at zero and maybe then moved
    up to ATOL below it."""
    levels = draw(st.integers(2, 20))
    size = levels * levels
    weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    q = np.asarray(weights, dtype=float).reshape(levels, levels)
    shape = draw(st.sampled_from(["full", "lower", "staircase"]))
    if shape != "full":
        q = np.tril(q) if shape == "lower" else np.tril(np.triu(q, -1))
    cut = draw(st.integers(1, levels - 1))
    q[cut:, :cut] = 0.0
    assume(q.sum() > 0)
    q /= q.sum()
    treated, control = q.sum(axis=1), q.sum(axis=0)
    delta = draw(st.sampled_from([0.0, 0.0, 0.5, 1.0])) * ATOL
    if delta and control[cut - 1] >= delta:
        # moving control mass up across the cut lowers gap_cut by delta
        control[cut - 1] -= delta
        control[cut] += delta
    return pair_from_laws(treated, control), delta


@settings(max_examples=40, deadline=None)
@given(ladder_pairs(), st.integers(0, 2**32 - 1))
def test_draws_are_exact_at_ties_zero_levels_and_the_band(case, seed):
    pair, delta = case
    for assumptions in Assumptions:
        try:
            oracle._Level(pair_facts(pair), assumptions)
        except SamplingError:
            with pytest.raises(SamplingError):
                draw_samples(pair, assumptions, 48, seed)
            continue
        banded = delta and assumptions is not Assumptions.MARGINAL_ONLY
        _assert_exact_batch(pair, assumptions, 48, seed, EXACT_ATOL + ATOL * bool(banded))


@pytest.mark.parametrize(
    "floor",
    [lambda left, rest: np.zeros_like(left), lambda left, rest: np.maximum(left - rest + 0.05, 0.0)],
    ids=["cut-dropped", "cut-overstated"],
)
def test_a_corrupted_cut_bound_fails_the_self_check(monkeypatch, floor):
    pair = lower_triangular_pair(np.random.default_rng(606), 6)
    monkeypatch.setattr(oracle, "_floor", floor)
    for assumptions in (Assumptions.MARGINAL_ONLY, Assumptions.MONOTONICITY):
        with pytest.raises(SamplingError, match="self-check"):
            draw_samples(pair, assumptions, 1000, seed=0)


@pytest.mark.parametrize("assumptions,builder,cycle", [
    (Assumptions.MONOTONICITY, lower_triangular_pair, (0, 1, 1, 0)),  # above the diagonal
    (Assumptions.MONOTONIC_INCREMENT, staircase_pair, (2, 0, 1, 1)),  # below the subdiagonal
], ids=["mono", "incr"])
def test_mass_off_the_zero_pattern_fails_the_self_check(assumptions, builder, cycle):
    # e moves onto the pinned cell (k, l) around a cycle through the allowed
    # cells (k, m), (j, m) and (j, l): every margin holds and no entry falls
    # below -tol, so only the zero-pattern test can refuse the batch
    k, l, j, m = cycle
    level = oracle._Level(pair_facts(builder(np.random.default_rng(607), 4)), assumptions)
    x = np.array(oracle._draw(level, 500, np.random.default_rng(0)))
    e = level.tol / 2
    x[k, l] += e
    x[k, m] -= e
    x[j, m] += e
    x[j, l] -= e
    with pytest.raises(SamplingError, match="zero pattern"):
        oracle._self_check(x, level)


def test_a_batch_beyond_the_budget_is_refused_unallocated(monkeypatch):
    # 2**27 entries: J = 115 at 10,000 draws fits, J = 116 does not
    assert 115**2 * 10_000 <= oracle.BATCH_BUDGET < 116**2 * 10_000
    pair = lalonde_pair()
    for assumptions in Assumptions:
        with pytest.raises(SamplingError, match="batch budget"):
            draw_samples(pair, assumptions, 10**15, seed=1)
    # the edge, at a budget small enough to run: 40 draws of 3 x 3
    monkeypatch.setattr(oracle, "BATCH_BUDGET", 40 * 9)
    for assumptions in Assumptions:
        assert draw_samples(pair, assumptions, 40, seed=1).shape == (40, 3, 3)
        with pytest.raises(SamplingError, match="batch budget"):
            draw_samples(pair, assumptions, 41, seed=1)


# Figures of the iterative proportional fitting sampler that the exact one
# replaced, measured on the same pairs, batch size and generator seeds and
# rounded down.  Coverage of a cell: sampled range over claimed width.
IPF_COVERAGE = {  # (levels, assumptions): (min, median) over canonical events
    (3, Assumptions.MARGINAL_ONLY): (0.943091, 0.999138),
    (3, Assumptions.MONOTONICITY): (0.999935, 0.999935),
    (6, Assumptions.MARGINAL_ONLY): (0.715836, 0.905505),
    (6, Assumptions.MONOTONICITY): (0.753194, 0.987381),
    (10, Assumptions.MARGINAL_ONLY): (0.172889, 0.784857),
    (10, Assumptions.MONOTONICITY): (0.594210, 0.915510),
    (20, Assumptions.MARGINAL_ONLY): (0.100382, 0.494821),
    (20, Assumptions.MONOTONICITY): (0.354961, 0.617474),
}
IPF_CAUGHT = {  # (pair, assumptions): (narrowed bounds caught, of)
    ("lalonde", Assumptions.MARGINAL_ONLY): (28, 28),
    ("lalonde", Assumptions.MONOTONICITY): (12, 12),
    (6, Assumptions.MARGINAL_ONLY): (47, 94),
    (6, Assumptions.MONOTONICITY): (39, 54),
    (10, Assumptions.MARGINAL_ONLY): (116, 238),
    (10, Assumptions.MONOTONICITY): (79, 138),
}


def _claimed_cells(pair, assumptions):
    """Canonical cells of nonzero claimed width, with their closed forms."""
    closed = pn_bounds_marginal if assumptions is Assumptions.MARGINAL_ONLY else pn_bounds_monotone
    for y in range(pair.levels):
        if pair.treated_law.probs[y] <= 1e-9:
            continue
        for event in canonical_events(pair.levels, y):
            result = closed(pair, event, y)
            if result.width > 1e-6:
                yield event, y, result


def _coverage_pair(levels):
    return lower_triangular_pair(np.random.default_rng(600 + levels), levels)


def test_coverage_is_no_worse_than_proportional_fitting():
    for (levels, assumptions), (ipf_min, ipf_median) in IPF_COVERAGE.items():
        pair = _coverage_pair(levels)
        x = _sample_array(pair, assumptions, 10_000, np.random.default_rng(0))
        ratios = []
        for event, y, result in _claimed_cells(pair, assumptions):
            values = (x[:, y, :] @ event.vector) / x[:, y, :].sum(axis=1)
            ratios.append((values.max() - values.min()) / result.width)
        assert min(ratios) >= ipf_min and np.median(ratios) >= ipf_median


def test_narrowed_bounds_are_caught_at_least_as_often_as_by_proportional_fitting():
    for (name, assumptions), (ipf_caught, claims) in IPF_CAUGHT.items():
        pair = lalonde_pair() if name == "lalonde" else _coverage_pair(name)
        cells = []
        for event, y, result in _claimed_cells(pair, assumptions):
            shift = 0.01 * result.width
            cells += [(event, y, result.lower + shift, result.upper),
                      (event, y, result.lower, result.upper - shift)]
        # one batch for every claim: draw_samples(pair, assumptions, 10_000, seed=42)
        reports = oracle.verify_cells(pair_facts(pair), assumptions, cells, 10_000, 42)
        caught = sum(not report.contained for report in reports)
        assert len(reports) == claims and caught >= ipf_caught


# --- verification -------------------------------------------------------------------

def test_verify_lalonde_marginal_bounds():
    pair = lalonde_pair()
    ev = make_event("noteq", 3, level=2)
    res = pn_bounds_marginal(pair, ev, 2)
    report = verify_bounds(pair, ev, 2, Assumptions.MARGINAL_ONLY, res, 2000, seed=42)
    assert report.contained and report.max_violation == 0.0
    assert report.sharpness_gap_lower <= 1e-8
    assert report.sharpness_gap_upper <= 1e-8


def test_verify_lalonde_monotone_bounds():
    pair = lalonde_pair()
    ev = make_event("eq", 3, level=0)
    res = pn_bounds_monotone(pair, ev, 1)
    report = verify_bounds(pair, ev, 1, Assumptions.MONOTONICITY, res, 2000, seed=42)
    assert report.contained
    assert report.sharpness_gap_lower <= 1e-8
    assert report.sharpness_gap_upper <= 1e-8


def test_verify_flags_widened_bounds_as_unsharp():
    pair = lalonde_pair()
    ev = make_event("noteq", 3, level=2)
    res = pn_bounds_marginal(pair, ev, 2)
    widened = BoundsResult(
        lower=max(0.0, res.lower - 0.05),
        upper=min(1.0, res.upper + 0.05),
        assumptions=res.assumptions,
        method=Method.CLOSED_FORM,
    )
    report = verify_bounds(pair, ev, 2, Assumptions.MARGINAL_ONLY, widened, 500, seed=1)
    assert report.contained  # widening never breaks containment
    assert report.sharpness_gap_lower > 0.01
    assert report.sharpness_gap_upper > 0.01


def test_monotone_witnesses_attain_the_closed_forms():
    rng = np.random.default_rng(43)
    cells = 0
    for _ in range(60):
        levels = int(rng.integers(2, 9))
        pair = lower_triangular_pair(rng, levels)
        mask = allowed_mask(Assumptions.MONOTONICITY, levels)
        for y in range(levels):
            if pair.treated_law.probs[y] <= 1e-9:
                continue
            custom = make_event("custom", levels, coeffs=rng.integers(0, 2, levels).tolist())
            for event in canonical_events(levels, y) + [custom]:
                res = pn_bounds_monotone(pair, event, y)
                low, up = endpoint_witnesses(pair, event, y, Assumptions.MONOTONICITY)
                assert pn_from_joint(low, event, y) == pytest.approx(res.lower, abs=1e-12)
                assert pn_from_joint(up, event, y) == pytest.approx(res.upper, abs=1e-12)
                for witness in (low, up):
                    assert np.all(witness.entries[~mask] == 0.0)
                    assert np.abs(witness.row_margins() - pair.treated_law.probs).max() <= 1e-12
                    assert np.abs(witness.col_margins() - pair.control_law.probs).max() <= 1e-12
                cells += 1
    assert cells > 1000


def test_increment_witnesses_are_the_identified_joint():
    rng = np.random.default_rng(47)
    for levels in range(2, 8):
        pair = staircase_pair(rng, levels)
        low, up = endpoint_witnesses(
            pair, canonical_events(levels, 1)[0], 1, Assumptions.MONOTONIC_INCREMENT
        )
        assert np.array_equal(low.entries, identify_joint(pair).entries)
        assert np.array_equal(up.entries, identify_joint(pair).entries)


def test_lower_witness_is_the_upper_witness_of_the_complement():
    rng = np.random.default_rng(53)
    cells = 0
    for _ in range(30):
        levels = int(rng.integers(2, 9))
        pair = lower_triangular_pair(rng, levels)
        for assumptions in (Assumptions.MARGINAL_ONLY, Assumptions.MONOTONICITY):
            for y in range(levels):
                if pair.treated_law.probs[y] <= 1e-9:
                    continue
                event = make_event("custom", levels, coeffs=rng.integers(0, 2, levels).tolist())
                # unheld, every call builds its own witnesses
                lower = endpoint_witnesses(pair, event, y, assumptions)[0]
                upper = endpoint_witnesses(pair, event.complement(), y, assumptions)[1]
                assert np.array_equal(lower.entries, upper.entries)
                # on one level, the two are one construction
                level = oracle._Level(pair_facts(pair), assumptions)
                specs = oracle._witness_specs(level, event, y)
                specs += oracle._witness_specs(level, event.complement(), y)
                witnesses = level.witnesses(specs)
                assert witnesses[0] is witnesses[3]
                cells += 1
    assert cells > 150


def test_a_passed_level_reads_the_evidence_rows_of_each_batch():
    pair = lalonde_pair()
    facts = pair_facts(pair)
    event = canonical_events(3, 2)[0]
    mid = pn_bounds_marginal(pair, event, 2).midpoint
    # a point claim: max_violation is the batch's distance from it
    claim = BoundsResult(mid, mid, Assumptions.MARGINAL_ONLY, Method.CLOSED_FORM)
    violations = []
    for seed in (1, 2, 1):
        one = verify_bounds(pair, event, 2, Assumptions.MARGINAL_ONLY, claim, 300, seed)
        # the one-cell case of verify_cells: the same batch, the same report
        cells = [(event, 2, mid, mid)]
        assert [one] == oracle.verify_cells(facts, Assumptions.MARGINAL_ONLY, cells, 300, seed)
        violations.append(one.max_violation)
    # nothing is kept between calls: each read the batch of its own seed
    assert violations[0] == violations[2] != violations[1]


def _level_cases():
    """Random pairs, J 3-8: lower triangular, staircase, tied with zero-mass
    levels, and the band pairs."""
    rng = np.random.default_rng(131)
    for levels in range(3, 9):
        yield lower_triangular_pair(rng, levels)
        yield staircase_pair(rng, levels)
        yield _tied_pair(rng, levels)
    yield from _band_pairs()


def _claims(facts, event, y, assumptions):
    """The cell's (lower, upper) bounds, and the same narrowed and shifted."""
    from pnbounds.bounds import cell_bounds

    res = cell_bounds(facts, event, y, assumptions)
    shift = 0.05 * max(res.width, 0.02)
    for lower, upper in ((res.lower, res.upper), (res.lower + shift, res.upper),
                         (res.lower, res.upper - shift), (res.lower + shift, res.upper + shift)):
        yield min(lower, upper), max(lower, upper)


def test_the_level_pass_equals_a_recomputation_from_the_drawn_samples():
    checked, verdicts = 0, set()
    for index, pair in enumerate(_level_cases()):
        facts = pair_facts(pair)
        levels = pair.levels
        for assumptions in Assumptions:
            try:
                oracle._Level(facts, assumptions)  # skip a level whose feasible set is empty
            except SamplingError:
                continue
            n, seed = 300 + 7 * index, 500 + index
            cells = []
            for y in range(levels):
                if pair.treated_law.probs[y] <= 1e-9:
                    continue
                custom = make_event("custom", levels, coeffs=[(y + l) % 2 for l in range(levels)])
                for event in canonical_events(levels, y) + [custom]:
                    cells += [(event, y, *claim) for claim in _claims(facts, event, y, assumptions)]
            reports = oracle.verify_cells(facts, assumptions, cells, n, seed)
            x = draw_samples(pair, assumptions, n, seed)
            for (event, y, lower, upper), report in zip(cells, reports, strict=True):
                values = x[:, y, :] @ event.vector / x[:, y, :].sum(1)
                violation = max(0.0, float(lower - values.min()), float(values.max() - upper))
                assert abs(report.max_violation - violation) <= 1e-15
                assert report.contained is (violation <= ATOL)
                low, up = endpoint_witnesses(pair, event, y, assumptions)
                assert report.sharpness_gap_lower == abs(pn_from_joint(low, event, y) - lower)
                assert report.sharpness_gap_upper == abs(pn_from_joint(up, event, y) - upper)
                assert (report.n_samples, report.seed) == (n, seed)
                verdicts.add((assumptions, report.contained))
                checked += 1
    assert checked > 2000
    assert verdicts == {(a, c) for a in Assumptions for c in (True, False)}


def test_batched_witnesses_equal_witnesses_built_one_at_a_time():
    built = 0
    for pair in _level_cases():
        for assumptions in (Assumptions.MARGINAL_ONLY, Assumptions.MONOTONICITY):
            try:
                level = oracle._Level(pair_facts(pair), assumptions)
            except SamplingError:
                continue
            specs = [
                spec
                for y in range(pair.levels) if pair.treated_law.probs[y] > 1e-9
                for event in canonical_events(pair.levels, y)
                for spec in oracle._witness_specs(level, event, y)
            ]
            batched = level.witnesses(specs)
            for (y, first), witness in zip(specs, batched, strict=True):
                alone = oracle._checked_witness(
                    oracle._extremal_fills(level, [(y, first)])[:, :, 0], level
                )
                assert np.array_equal(witness.entries, alone.entries)
                built += 1
    assert built > 1000


def test_concurrent_verification_matches_serial():
    from concurrent.futures import ThreadPoolExecutor

    pair = lower_triangular_pair(np.random.default_rng(103), 4)
    event = make_event("eq", 4, level=1)
    cases = [(a, seed) for a in (Assumptions.MARGINAL_ONLY, Assumptions.MONOTONICITY)
             for seed in range(24)]

    def run(case):
        assumptions, seed = case
        claim = BoundsResult(0.2, 0.6, assumptions, Method.CLOSED_FORM)
        return verify_bounds(pair, event, 2, assumptions, claim, 400, seed)

    serial = [run(c) for c in cases]
    with ThreadPoolExecutor(max_workers=6) as pool:
        threaded = list(pool.map(run, cases))
    assert serial == threaded
    # equal margins, different batches: no call may read another's rows
    assert len({r.max_violation for r in serial}) > len(cases) // 2


def test_verification_never_calls_the_lp(monkeypatch):
    import pnbounds.lp

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called the LP")

    assert not hasattr(oracle, "pn_bounds_lp")
    monkeypatch.setattr(pnbounds.lp, "pn_bounds_lp", forbidden)
    pair = lalonde_pair()
    for assumptions, closed in (
        (Assumptions.MARGINAL_ONLY, pn_bounds_marginal),
        (Assumptions.MONOTONICITY, pn_bounds_monotone),
    ):
        for event in canonical_events(3, 2):
            report = verify_bounds(pair, event, 2, assumptions, closed(pair, event, 2), 500, seed=1)
            assert report.contained
            assert max(report.sharpness_gap_lower, report.sharpness_gap_upper) <= 1e-12


def test_band_pair_cells_are_contained_and_sharp_under_mono():
    _, pair = _band_pairs()  # gap_4 = -5e-10
    for level in range(6):
        event = make_event("eq", 6, level=level)
        res = pn_bounds_monotone(pair, event, 4)
        report = verify_bounds(pair, event, 4, Assumptions.MONOTONICITY, res, 2000, seed=7)
        assert report.contained
        assert max(report.sharpness_gap_lower, report.sharpness_gap_upper) <= 1e-8


def test_verify_flags_widened_monotone_bounds_as_unsharp():
    pair = lalonde_pair()
    ev = make_event("eq", 3, level=0)
    res = pn_bounds_monotone(pair, ev, 1)
    widened = BoundsResult(
        lower=res.lower - 0.05,
        upper=res.upper + 0.05,
        assumptions=res.assumptions,
        method=Method.CLOSED_FORM,
    )
    report = verify_bounds(pair, ev, 1, Assumptions.MONOTONICITY, widened, 500, seed=1)
    assert report.contained
    assert report.sharpness_gap_lower == pytest.approx(0.05, abs=1e-12)
    assert report.sharpness_gap_upper == pytest.approx(0.05, abs=1e-12)


def test_verify_flags_narrowed_bounds_as_uncontained():
    pair = lalonde_pair()
    ev = make_event("noteq", 3, level=2)
    res = pn_bounds_marginal(pair, ev, 2)
    narrowed = BoundsResult(
        lower=res.lower + 0.1,
        upper=res.upper - 0.1,
        assumptions=res.assumptions,
        method=Method.CLOSED_FORM,
    )
    report = verify_bounds(pair, ev, 2, Assumptions.MARGINAL_ONLY, narrowed, 500, seed=1)
    assert not report.contained
    assert report.max_violation > 0.01


# --- exhaustive vertex cross-check ---------------------------------------------------

def test_vertices_reproduce_lp_bounds_for_small_levels():
    from pnbounds import LpInfeasibleError, falsification_check

    rng = np.random.default_rng(71)
    pairs = [lalonde_pair()] + [lower_triangular_pair(rng, 3) for _ in range(5)]
    pairs += [lower_triangular_pair(rng, 2) for _ in range(3)]
    for pair in pairs:
        levels = pair.levels
        for assumptions in Assumptions:
            vertices = enumerate_vertices(pair, assumptions)
            if assumptions is Assumptions.MONOTONIC_INCREMENT:
                # an empty vertex list must mean a genuinely empty polytope
                assert bool(vertices) == falsification_check(pair).passed
                if not vertices:
                    with pytest.raises(LpInfeasibleError):
                        pn_bounds_lp(
                            pair, canonical_events(levels, 1)[0], 1, assumptions
                        )
                    continue
            assert vertices
            for y in range(1, levels):
                if pair.treated_law.probs[y] <= 1e-9:
                    continue
                for event in canonical_events(levels, y)[: levels + 1]:
                    values = [pn_from_joint(v, event, y) for v in vertices]
                    res = pn_bounds_lp(pair, event, y, assumptions)
                    assert min(values) == pytest.approx(res.lower, abs=1e-8)
                    assert max(values) == pytest.approx(res.upper, abs=1e-8)


def test_vertex_enumeration_guard():
    rng = np.random.default_rng(77)
    with pytest.raises(SamplingError):
        enumerate_vertices(lower_triangular_pair(rng, 4), Assumptions.MARGINAL_ONLY)
