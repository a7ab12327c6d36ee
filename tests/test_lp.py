import numpy as np
import pytest

from pnbounds import (
    Assumptions,
    LpError,
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
from pnbounds.lp import LinearProgram, LpStatus, Sense, build_lp, solve
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
    marginal = build_lp(pair, ev, 2, Assumptions.MARGINAL_ONLY)
    assert marginal.constraint_matrix.shape == (5, 9)
    mono = build_lp(pair, ev, 2, Assumptions.MONOTONICITY)
    assert mono.constraint_matrix.shape == (8, 9)
    incr = build_lp(pair, ev, 2, Assumptions.MONOTONIC_INCREMENT)
    assert incr.constraint_matrix.shape == (9, 9)


def test_objective_marks_event_cells_in_evidence_row():
    pair = lalonde_pair()
    program = build_lp(pair, make_event("lt", 3, level=2), 2, Assumptions.MARGINAL_ONLY)
    expected = np.zeros(9)
    expected[6] = expected[7] = 1.0  # cells (2,0) and (2,1), row-major
    assert np.array_equal(program.objective, expected)


def test_program_json_dump_round_trip(tmp_path):
    import json

    program = build_lp(
        lalonde_pair(), make_event("eq", 3, level=0), 1, Assumptions.MONOTONICITY
    )
    path = tmp_path / "lp.json"
    program.dump(path)
    payload = json.loads(path.read_text())
    assert payload["sense"] == "max"
    assert np.asarray(payload["constraint_matrix"]).shape == (8, 9)
    assert payload["rhs"][-1] == 0.0


# --- solver on hand-built programs ------------------------------------------------

def test_solve_trivial_split():
    lp = LinearProgram(
        objective=np.array([1.0, 0.0]),
        constraint_matrix=np.array([[1.0, 1.0]]),
        rhs=np.array([1.0]),
        sense=Sense.MAX,
    )
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.value == pytest.approx(1.0, abs=1e-12)
    assert sol.point == pytest.approx([1.0, 0.0], abs=1e-12)


def test_solve_min_sense():
    lp = LinearProgram(
        objective=np.array([1.0, 0.0]),
        constraint_matrix=np.array([[1.0, 1.0]]),
        rhs=np.array([1.0]),
        sense=Sense.MIN,
    )
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.value == pytest.approx(0.0, abs=1e-12)


def test_solve_detects_infeasible():
    lp = LinearProgram(
        objective=np.array([1.0, 1.0]),
        constraint_matrix=np.array([[1.0, 0.0], [1.0, 0.0]]),
        rhs=np.array([1.0, 2.0]),
        sense=Sense.MAX,
    )
    assert solve(lp).status is LpStatus.INFEASIBLE


def test_solve_detects_unbounded():
    lp = LinearProgram(
        objective=np.array([1.0, 0.0]),
        constraint_matrix=np.array([[1.0, -1.0]]),
        rhs=np.array([0.0]),
        sense=Sense.MAX,
    )
    assert solve(lp).status is LpStatus.UNBOUNDED


def test_dimension_mismatch_is_an_error():
    with pytest.raises(LpError):
        LinearProgram(
            objective=np.array([1.0, 0.0, 0.0]),
            constraint_matrix=np.array([[1.0, 1.0]]),
            rhs=np.array([1.0]),
        )


def test_optimal_point_satisfies_constraints():
    pair = lalonde_pair()
    program = build_lp(pair, make_event("noteq", 3, level=2), 2, Assumptions.MONOTONICITY)
    sol = solve(program)
    assert sol.status is LpStatus.OPTIMAL
    assert np.abs(program.constraint_matrix @ sol.point - program.rhs).max() < 1e-8
    assert sol.point.min() >= -1e-9


def test_infeasible_marginals_rhs():
    # column targets exceed the total-mass row: no matrix can satisfy both
    pair = lalonde_pair()
    program = build_lp(pair, make_event("eq", 3, level=0), 2, Assumptions.MARGINAL_ONLY)
    rhs = program.rhs.copy()
    rhs[2] = 1.2  # first column sum forced above the grand total
    broken = LinearProgram(
        objective=program.objective,
        constraint_matrix=program.constraint_matrix,
        rhs=rhs,
    )
    assert solve(broken).status is LpStatus.INFEASIBLE


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
        lp = LinearProgram(objective=c, constraint_matrix=a, rhs=b, sense=Sense.MAX)
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
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
        assert sol.value == pytest.approx(best, abs=1e-8)


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
