import numpy as np
import pytest

from pnbounds import (
    Assumptions,
    LpInfeasibleError,
    Method,
    falsification_check,
    make_event,
    monotone_consistent,
    pn_bounds_lp,
    pn_bounds_marginal,
    pn_bounds_monotone,
    pn_from_joint,
    pn_point,
)
from pnbounds import lp
from pnbounds.lp import _solve_reduced, build_lp
from helpers import (
    arbitrary_pair,
    canonical_events,
    lalonde_pair,
    lower_triangular_pair,
    pair_from_laws,
    staircase_pair,
)


# --- program construction ------------------------------------------------------

def test_row_counts_per_assumption_level():
    pair = lalonde_pair()
    ev = make_event("noteq", 3, level=2)
    a, _, _ = build_lp(pair, ev, 2, Assumptions.MARGINAL_ONLY)
    assert a.shape == (5, 9)
    a, _, _ = build_lp(pair, ev, 2, Assumptions.MONOTONICITY)
    assert a.shape == (8, 9)
    a, _, _ = build_lp(pair, ev, 2, Assumptions.MONOTONIC_INCREMENT)
    assert a.shape == (9, 9)


def test_objective_marks_event_cells_in_evidence_row():
    pair = lalonde_pair()
    _, _, c = build_lp(pair, make_event("lt", 3, level=2), 2, Assumptions.MARGINAL_ONLY)
    expected = np.zeros(9)
    expected[6] = expected[7] = 1.0  # cells (2,0) and (2,1), row-major
    assert np.array_equal(c, expected)


# --- solver on hand-built programs ------------------------------------------------

def maximize(a, b, c):
    """The one solve path of ``pn_bounds_lp``: None when infeasible, else
    (status, point, value) for maximizing c . x over Ax = b, x >= 0."""
    outcome = _solve_reduced(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                             [np.asarray(c, dtype=float)])
    return None if outcome is None else outcome[0]


def test_solve_trivial_split():
    status, point, value = maximize([[1.0, 1.0]], [1.0], [1.0, 0.0])
    assert status == "optimal"
    assert value == pytest.approx(1.0, abs=1e-12)
    assert point == pytest.approx([1.0, 0.0], abs=1e-12)


def test_solve_min_sense():
    # minimizing x0 is maximizing -x0
    status, _, value = maximize([[1.0, 1.0]], [1.0], [-1.0, 0.0])
    assert status == "optimal"
    assert -value == pytest.approx(0.0, abs=1e-12)


def test_solve_detects_infeasible():
    assert maximize([[1.0, 0.0], [1.0, 0.0]], [1.0, 2.0], [1.0, 1.0]) is None


def test_solve_detects_unbounded():
    status, _, _ = maximize([[1.0, -1.0]], [0.0], [1.0, 0.0])
    assert status == "unbounded"


def test_optimal_point_satisfies_constraints():
    pair = lalonde_pair()
    a, b, c = build_lp(pair, make_event("noteq", 3, level=2), 2, Assumptions.MONOTONICITY)
    status, point, _ = maximize(a, b, c)
    assert status == "optimal"
    assert np.abs(a @ point - b).max() < 1e-8
    assert point.min() >= -1e-9


def test_infeasible_marginals_rhs():
    # column targets exceed the total-mass row: no matrix can satisfy both
    pair = lalonde_pair()
    a, b, c = build_lp(pair, make_event("eq", 3, level=0), 2, Assumptions.MARGINAL_ONLY)
    b[2] = 1.2  # first column sum forced above the grand total
    assert maximize(a, b, c) is None


# --- bounds through the LP ---------------------------------------------------------

def test_lalonde_lp_matches_published_grid():
    pair = lalonde_pair()
    ev = make_event("noteq", 3, level=2)
    marginal = pn_bounds_lp(pair, ev, 2, Assumptions.MARGINAL_ONLY)
    assert marginal.upper == pytest.approx(0.88, abs=0.005)
    assert marginal.lower == pytest.approx(0.17, abs=0.005)
    assert marginal.method is Method.LP
    mono = pn_bounds_lp(pair, ev, 2, Assumptions.MONOTONICITY)
    assert mono.lower == pytest.approx(0.17, abs=0.005)
    assert mono.upper == pytest.approx(0.17, abs=0.005)


def test_lp_equals_marginal_closed_form_on_arbitrary_margins():
    rng = np.random.default_rng(41)
    for _ in range(40):
        levels = int(rng.integers(2, 6))
        pair = arbitrary_pair(rng, levels)
        y = int(rng.integers(0, levels))
        if pair.treated_law[y] <= 1e-9:
            continue
        event = make_event(
            "custom", levels, coeffs=rng.integers(0, 2, size=levels).tolist()
        )
        lp_res = pn_bounds_lp(pair, event, y, Assumptions.MARGINAL_ONLY)
        cf = pn_bounds_marginal(pair, event, y)
        assert lp_res.lower == pytest.approx(cf.lower, abs=1e-8)
        assert lp_res.upper == pytest.approx(cf.upper, abs=1e-8)


def test_lp_equals_monotone_closed_form_on_feasible_margins():
    rng = np.random.default_rng(43)
    for _ in range(25):
        levels = int(rng.integers(2, 6))
        pair = lower_triangular_pair(rng, levels)
        y = int(rng.integers(1, levels))
        if pair.treated_law[y] <= 1e-9:
            continue
        for event in canonical_events(levels, y)[:-1]:
            lp_res = pn_bounds_lp(pair, event, y, Assumptions.MONOTONICITY)
            cf = pn_bounds_monotone(pair, event, y)
            assert lp_res.lower == pytest.approx(cf.lower, abs=1e-8)
            assert lp_res.upper == pytest.approx(cf.upper, abs=1e-8)


def test_lp_under_one_level_lift_is_the_point():
    pair = lalonde_pair()
    for y in (1, 2):
        for event in canonical_events(3, y):
            res = pn_bounds_lp(pair, event, y, Assumptions.MONOTONIC_INCREMENT)
            assert res.width <= 1e-8
            assert res.midpoint == pytest.approx(pn_point(pair, event, y), abs=1e-8)


def test_ladder_nesting_through_the_lp():
    rng = np.random.default_rng(47)
    for _ in range(30):
        levels = int(rng.integers(2, 6))
        pair = staircase_pair(rng, levels)
        y = int(rng.integers(1, levels))
        if pair.treated_law[y] <= 1e-9:
            continue
        event = canonical_events(levels, y)[0]
        outer = pn_bounds_lp(pair, event, y, Assumptions.MARGINAL_ONLY)
        mid = pn_bounds_lp(pair, event, y, Assumptions.MONOTONICITY)
        inner = pn_bounds_lp(pair, event, y, Assumptions.MONOTONIC_INCREMENT)
        assert outer.lower - 1e-9 <= mid.lower and mid.upper <= outer.upper + 1e-9
        assert mid.lower - 1e-9 <= inner.lower and inner.upper <= mid.upper + 1e-9


def test_lp_witnesses_are_feasible_and_attain_endpoints():
    rng = np.random.default_rng(53)
    for _ in range(20):
        levels = int(rng.integers(2, 5))
        pair = lower_triangular_pair(rng, levels)
        y = int(rng.integers(1, levels))
        if pair.treated_law[y] <= 1e-9:
            continue
        event = canonical_events(levels, y)[1]
        for assumptions in (Assumptions.MARGINAL_ONLY, Assumptions.MONOTONICITY):
            res = pn_bounds_lp(pair, event, y, assumptions)
            low_w, up_w = res.witnesses
            for witness in (low_w, up_w):
                assert np.abs(witness.row_margins() - pair.treated_law.probs).max() < 1e-8
                assert np.abs(witness.col_margins() - pair.control_law.probs).max() < 1e-8
            assert pn_from_joint(low_w, event, y) == pytest.approx(res.lower, abs=1e-8)
            assert pn_from_joint(up_w, event, y) == pytest.approx(res.upper, abs=1e-8)


def test_solver_against_brute_force_vertex_search():
    # random bounded equality programs: a total-mass row keeps the feasible
    # set compact, so the optimum is attained at a basic solution and can be
    # found by exhaustive column-subset enumeration
    from itertools import combinations

    rng = np.random.default_rng(59)
    for _ in range(50):
        n = int(rng.integers(3, 7))
        extra = int(rng.integers(1, 3))
        x0 = rng.random(n)
        a = np.vstack([np.ones(n), rng.random((extra, n)) * (rng.random((extra, n)) < 0.7)])
        b = a @ x0
        c = rng.normal(size=n)
        status, _, value = maximize(a, b, c)
        assert status == "optimal"
        rank = np.linalg.matrix_rank(a)
        best = -np.inf
        for cols in combinations(range(n), rank):
            sub = a[:, cols]
            if np.linalg.matrix_rank(sub) < rank:
                continue
            xb, *_ = np.linalg.lstsq(sub, b, rcond=None)
            if np.abs(sub @ xb - b).max() > 1e-9 or xb.min() < -1e-9:
                continue
            best = max(best, float(c[list(cols)] @ xb))
        assert value == pytest.approx(best, abs=1e-8)


def test_concurrent_lp_bounds_match_serial():
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(101)
    pairs = [lower_triangular_pair(rng, 4) for _ in range(12)]
    event = make_event("eq", 4, level=1)

    def run(pair):
        res = pn_bounds_lp(pair, event, 2, Assumptions.MONOTONICITY)
        return res.lower, res.upper

    serial = [run(p) for p in pairs]
    with ThreadPoolExecutor(max_workers=6) as pool:
        threaded = list(pool.map(run, pairs))
    assert serial == threaded


def test_infeasible_one_level_lift_matches_bracket_failure():
    pair = pair_from_laws([0.1, 0.8, 0.1], [0.05, 0.05, 0.9])
    assert not falsification_check(pair).passed
    with pytest.raises(LpInfeasibleError):
        pn_bounds_lp(pair, make_event("eq", 3, level=0), 1, Assumptions.MONOTONIC_INCREMENT)


def test_infeasible_monotone_set_when_ordering_violated():
    pair = pair_from_laws([0.7, 0.3], [0.2, 0.8])
    with pytest.raises(LpInfeasibleError):
        pn_bounds_lp(pair, make_event("eq", 2, level=0), 1, Assumptions.MONOTONICITY)


def test_gap_just_below_the_band_is_refused_not_crashed():
    # cumulative gap -5e-9: outside ATOL, inside the simplex's FEAS_TOL
    pair = pair_from_laws([0.5, 0.5], [0.5 - 5e-9, 0.5 + 5e-9])
    assert not monotone_consistent(pair)
    for y in (0, 1):
        with pytest.raises(LpInfeasibleError):
            pn_bounds_lp(pair, make_event("eq", 2, level=0), y, Assumptions.MONOTONICITY)


def test_gap_at_the_band_edge_gets_bounds_and_witnesses():
    # cumulative gap -ATOL: consistent, so the LP must answer
    pair = pair_from_laws([1.0, 0.0], [1.0 - 1e-9, 1e-9])
    assert monotone_consistent(pair)
    for level, expected in ((0, 1.0), (1, 0.0)):
        event = make_event("eq", 2, level=level)
        result = pn_bounds_lp(pair, event, 0, Assumptions.MONOTONICITY)
        closed = pn_bounds_monotone(pair, event, 0)
        assert (closed.lower, closed.upper) == (expected, expected)
        assert abs(result.lower - expected) <= 1e-9
        assert abs(result.upper - expected) <= 1e-9
        for witness in result.witnesses:
            assert witness.entries.min() >= 0.0
            assert abs(witness.entries.sum() - 1.0) <= 1e-12


def test_bounds_stay_in_the_unit_interval_at_the_band():
    # gap_4 = -5e-10, inside the band: the unclamped optimum divided by
    # treated[4] = 3/22 gave lower 1.0000000037 for eq:4 and [-0.0, -3.7e-9]
    # for eq:3
    treated = np.array([3, 4, 1, 8, 3, 3]) / 22
    control = np.array([8, 3, 2, 3, 4, 2]) / 22
    control[3] -= 5e-10
    control[4] += 5e-10
    pair = pair_from_laws(treated, control)
    assert monotone_consistent(pair)
    for level, expected in ((4, 1.0), (3, 0.0)):
        event = make_event("eq", 6, level=level)
        result = pn_bounds_lp(pair, event, 4, Assumptions.MONOTONICITY)
        closed = pn_bounds_monotone(pair, event, 4)
        assert (result.lower, result.upper) == (closed.lower, closed.upper) == (
            expected, expected,
        )
        for bound in (result.lower, result.upper):
            assert type(bound) is float
            assert np.copysign(1.0, bound) == 1.0


# --- the phase-one cache ----------------------------------------------------------

def lp_outcome(pair, event, y, assumptions):
    """Bounds and witness bytes of ``pn_bounds_lp``, or its refusal message."""
    try:
        res = pn_bounds_lp(pair, event, y, assumptions)
    except LpInfeasibleError as exc:
        return str(exc)
    return res.lower, res.upper, [w.entries.tobytes() for w in res.witnesses]


def test_warm_cache_answers_equal_cold_ones():
    rng = np.random.default_rng(67)
    for builder in (arbitrary_pair, lower_triangular_pair, staircase_pair):
        for _ in range(4):
            levels = int(rng.integers(2, 6))
            pair = builder(rng, levels)
            cells = [
                (event, y, assumptions)
                for assumptions in Assumptions
                for y in range(levels)
                if pair.treated_law[y] > 1e-9
                for event in canonical_events(levels, y)
            ]
            lp._BASE_CACHE.clear()
            warm = [lp_outcome(pair, *cell) for cell in cells]
            # one phase one per assumption level, read by every later cell
            assert len(lp._BASE_CACHE) == len(Assumptions)
            cold = []
            for cell in cells:
                lp._BASE_CACHE.clear()
                cold.append(lp_outcome(pair, *cell))
            assert warm == cold


def test_an_infeasible_polytope_stays_infeasible_from_the_cache(monkeypatch):
    pair = pair_from_laws([0.7, 0.2, 0.1], [0.1, 0.2, 0.7])
    event = make_event("eq", 3, level=0)
    cells = [(1, Assumptions.MONOTONICITY), (2, Assumptions.MONOTONIC_INCREMENT)]
    lp._BASE_CACHE.clear()
    cold = [lp_outcome(pair, event, y, a) for y, a in cells]
    assert all(isinstance(outcome, str) for outcome in cold)
    assert list(lp._BASE_CACHE.values()) == [None, None]

    def uncached(*args):
        raise AssertionError("the cached answer was not used")

    monkeypatch.setattr(lp, "_presolve", uncached)
    assert [lp_outcome(pair, event, y, a) for y, a in cells] == cold


def test_a_polytope_evicted_by_the_wholesale_clear_is_solved_again():
    rng = np.random.default_rng(71)
    pairs = [staircase_pair(rng, 3) for _ in range(lp._BASE_CACHE_CAP + 1)]
    event = make_event("eq", 3, level=1)
    lp._BASE_CACHE.clear()
    first = lp_outcome(pairs[0], event, 2, Assumptions.MONOTONICITY)
    closed = pn_bounds_monotone(pairs[0], event, 2)
    assert first[:2] == pytest.approx((closed.lower, closed.upper), abs=1e-8)
    for pair in pairs[1:]:
        lp_outcome(pair, event, 2, Assumptions.MONOTONICITY)
    # the 129th polytope found the cache full and cleared it
    assert len(lp._BASE_CACHE) == 1
    assert lp_outcome(pairs[0], event, 2, Assumptions.MONOTONICITY) == first
    assert len(lp._BASE_CACHE) == 2
