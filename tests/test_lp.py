from pathlib import Path

import numpy as np
import pytest

from pnbounds import (
    Assumptions,
    CertificateError,
    JointProbabilityMatrix,
    LpError,
    LpInfeasibleError,
    Method,
    allowed_mask,
    falsification_check,
    make_event,
    monotone_consistent,
    pn_bounds_lp,
    pn_bounds_marginal,
    pn_bounds_monotone,
    pn_from_joint,
    pn_point,
)
from pnbounds import counterfactual_margin_unconfounded, load_strata_json, lp
from pnbounds.bounds import cell_bounds
from pnbounds.core import ATOL, EXACT_ATOL
from pnbounds.identify import pair_facts
from pnbounds.lp import INFEAS_TOL, _Network
from helpers import (
    arbitrary_pair,
    canonical_events,
    enumerate_vertices,
    lalonde_pair,
    least_violation,
    lower_triangular_pair,
    near_feasible_pair,
    pair_from_laws,
    staircase_joint,
    staircase_pair,
    tied_staircase_joint,
)

DATA = Path(__file__).parent / "data"


def network(pair, assumptions):
    return _Network(
        pair.treated_law.probs, pair.control_law.probs, allowed_mask(assumptions, pair.levels)
    )


def optimal_points(pair, event, y, assumptions):
    """The two optima of ``pn_bounds_lp`` (least and most event mass) as
    (J, J) matrices, solved again on the cached phase-one network."""
    net = lp._feasible_base(pair, assumptions)
    c = net.objective(event.coeffs, y)
    points = []
    for cost in (c, -c):
        point = np.zeros((pair.levels, pair.levels))
        point[net.rows, net.cols] = net.solve(cost)[1]
        points.append(point)
    return points


# --- the transportation network --------------------------------------------------

def test_arc_counts_per_assumption_level():
    # one arc per allowed cell, in row-major order, and one per row and column
    # to the root
    pair = lalonde_pair()
    for assumptions, cells in ((Assumptions.MARGINAL_ONLY, 9), (Assumptions.MONOTONICITY, 6),
                               (Assumptions.MONOTONIC_INCREMENT, 5)):
        net = network(pair, assumptions)
        assert net.m == cells and net.tail.size == cells + 6
        assert np.array_equal(np.nonzero(allowed_mask(assumptions, 3)), (net.rows, net.cols))


def test_objective_marks_event_cells_in_evidence_row():
    net = network(lalonde_pair(), Assumptions.MARGINAL_ONLY)
    expected = np.zeros(9)
    expected[6] = expected[7] = 1.0  # cells (2,0) and (2,1), row-major
    assert np.array_equal(net.objective(make_event("lt", 3, level=2).coeffs, 2), expected)


# --- solver on hand-built programs ------------------------------------------------

def maximize(supply, demand, mask, c):
    """The one solve path of ``pn_bounds_lp``: None when infeasible, else
    (value, point) for maximizing c over the allowed cells, point as a matrix."""
    mask = np.asarray(mask, dtype=bool)
    net = _Network(np.asarray(supply, dtype=float), np.asarray(demand, dtype=float), mask)
    if net.deficit > INFEAS_TOL:
        return None
    value, x = net.solve(-np.asarray(c, dtype=float)[mask])
    point = np.zeros(mask.shape)
    point[mask] = x
    return -value, point


def test_solve_trivial_split():
    value, point = maximize([0.5, 0.5], [0.5, 0.5], np.ones((2, 2)), [[1.0, 0.0], [0.0, 0.0]])
    assert value == pytest.approx(0.5, abs=1e-12)
    assert point == pytest.approx(np.array([[0.5, 0.0], [0.0, 0.5]]), abs=1e-12)


def test_solve_min_sense():
    # minimizing x00 is maximizing -x00
    value, _ = maximize([0.5, 0.5], [0.5, 0.5], np.ones((2, 2)), [[-1.0, 0.0], [0.0, 0.0]])
    assert -value == pytest.approx(0.0, abs=1e-12)


def test_solve_detects_infeasible():
    assert maximize([1.0, 0.0], [0.5, 0.5], np.eye(2), np.eye(2)) is None


def test_phase_one_routes_the_root_mass_over_the_anti_diagonal():
    # the first tree carries every law over the root, and the diagonal is
    # forbidden; phase one routes all of it over the anti-diagonal
    value, point = maximize([0.5, 0.5], [0.5, 0.5], [[0, 1], [1, 0]], [[0.0, 1.0], [0.0, 0.0]])
    assert value == pytest.approx(0.5, abs=1e-12)
    assert point == pytest.approx(np.array([[0.0, 0.5], [0.5, 0.0]]), abs=1e-12)


def imbalance(net):
    """The largest difference, over the rows and columns, between a node's net
    outflow (cells at ``low + flow``, root arcs at ``flow``) and its law:
    the supply of a row, minus the demand of a column."""
    x = np.concatenate((net.low + net.flow[: net.m], net.flow[net.m:]))
    nodes = len(net.parent)
    out = np.bincount(net.tail, x, nodes) - np.bincount(net.head, x, nodes)
    return float(np.abs(out[:-1] - net.laws * net.signs).max())


def test_phase_one_conserves_flow_and_its_deficit_is_the_least_violation():
    # random pairs (mostly infeasible under mono and incr), pairs with empty
    # levels, and pairs near each level's boundary; the reference is each
    # level's O(J) least violation
    rng = np.random.default_rng(131)
    for levels in range(2, 31):
        treated, control = rng.dirichlet(np.ones(levels), size=2)
        treated[levels // 2] = control[levels // 3] = 0.0
        pairs = [arbitrary_pair(rng, levels),
                 pair_from_laws(treated / treated.sum(), control / control.sum())]
        pairs += [near_feasible_pair(rng, levels, a) for a in Assumptions]
        if levels > 2:  # a staircase needs three levels to keep two
            pairs.append(zero_level_pair(rng, levels))
        for pair in pairs:
            for assumptions in Assumptions:
                net = network(pair, assumptions)
                assert imbalance(net) <= EXACT_ATOL
                expected = least_violation(
                    pair.treated_law.probs, pair.control_law.probs, assumptions)
                assert abs(net.deficit - expected) <= EXACT_ATOL


@pytest.mark.parametrize("pair,assumptions,expected", [
    # gaps -0.5427 and -0.0112: the first cut forces the least violation
    (pair_from_laws([0.6277, 0.0781, 0.2942], [0.0850, 0.6096, 0.3054]),
     Assumptions.MONOTONICITY, 0.5427),
    # at least 5.625% of the pooled units rise two or more levels
    (counterfactual_margin_unconfounded(load_strata_json(DATA / "strata_example.json")),
     Assumptions.MONOTONIC_INCREMENT, 0.05625),
], ids=["mono", "strata-incr"])
def test_deficit_of_a_pinned_pair(pair, assumptions, expected):
    net = network(pair, assumptions)
    assert imbalance(net) <= EXACT_ATOL
    assert abs(net.deficit - expected) <= EXACT_ATOL
    laws = pair.treated_law.probs, pair.control_law.probs
    assert abs(least_violation(*laws, assumptions) - expected) <= EXACT_ATOL


def test_absorb_leaves_root_subtrees_that_no_cell_joins():
    # a block-diagonal mask whose blocks' margins differ by 4e-10: phase one
    # leaves 2e-10 at the root, inside the band, and no cell joins the two
    # blocks' subtrees, so _absorb stops with both still on the root
    supply, demand = np.array([0.5 + 2e-10, 0.5 - 2e-10]), np.array([0.5, 0.5])
    net = _Network(supply, demand, np.eye(2, dtype=bool))
    assert 0.0 < net.deficit <= INFEAS_TOL
    assert abs(net.deficit - (supply[0] - demand[0])) <= EXACT_ATOL
    assert len(net.children[-1]) == 2
    assert imbalance(net) <= EXACT_ATOL


def test_optimal_point_satisfies_constraints():
    pair = lalonde_pair()
    mask = allowed_mask(Assumptions.MONOTONICITY, 3)
    c = np.zeros((3, 3))
    c[2, :2] = 1.0  # noteq:2 in evidence row 2
    _, point = maximize(pair.treated_law.probs, pair.control_law.probs, mask, c)
    assert np.abs(point.sum(axis=1) - pair.treated_law.probs).max() < 1e-8
    assert np.abs(point.sum(axis=0) - pair.control_law.probs).max() < 1e-8
    assert point.min() >= -1e-9 and np.all(point[~mask] == 0.0)


def test_infeasible_marginals_rhs():
    # column targets exceed the row supplies: no matrix can satisfy both
    pair = lalonde_pair()
    demand = pair.control_law.probs * 1.2
    assert maximize(pair.treated_law.probs, demand, np.ones((3, 3)), np.eye(3)) is None


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
        if pair.treated_law.probs[y] <= 1e-9:
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
        if pair.treated_law.probs[y] <= 1e-9:
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
            assert res.upper - res.lower <= 1e-8
            assert [res.lower, res.upper] == pytest.approx([pn_point(pair, event, y)] * 2, abs=1e-8)


def test_ladder_nesting_through_the_lp():
    rng = np.random.default_rng(47)
    for _ in range(30):
        levels = int(rng.integers(2, 6))
        pair = staircase_pair(rng, levels)
        y = int(rng.integers(1, levels))
        if pair.treated_law.probs[y] <= 1e-9:
            continue
        event = canonical_events(levels, y)[0]
        outer = pn_bounds_lp(pair, event, y, Assumptions.MARGINAL_ONLY)
        mid = pn_bounds_lp(pair, event, y, Assumptions.MONOTONICITY)
        inner = pn_bounds_lp(pair, event, y, Assumptions.MONOTONIC_INCREMENT)
        assert outer.lower - 1e-9 <= mid.lower and mid.upper <= outer.upper + 1e-9
        assert mid.lower - 1e-9 <= inner.lower and inner.upper <= mid.upper + 1e-9


def test_lp_witnesses_are_feasible_and_attain_endpoints():
    # the witnesses are the optimal points of the two solves
    rng = np.random.default_rng(53)
    for _ in range(20):
        levels = int(rng.integers(2, 5))
        pair = lower_triangular_pair(rng, levels)
        y = int(rng.integers(1, levels))
        if pair.treated_law.probs[y] <= 1e-9:
            continue
        event = canonical_events(levels, y)[1]
        for assumptions in (Assumptions.MARGINAL_ONLY, Assumptions.MONOTONICITY):
            res = pn_bounds_lp(pair, event, y, assumptions)
            low_w, up_w = (JointProbabilityMatrix(entries=point)
                           for point in optimal_points(pair, event, y, assumptions))
            for witness in (low_w, up_w):
                assert np.abs(witness.row_margins() - pair.treated_law.probs).max() < 1e-8
                assert np.abs(witness.col_margins() - pair.control_law.probs).max() < 1e-8
            assert pn_from_joint(low_w, event, y) == pytest.approx(res.lower, abs=1e-8)
            assert pn_from_joint(up_w, event, y) == pytest.approx(res.upper, abs=1e-8)


def test_solver_against_brute_force_vertex_search():
    # the optimum of a bounded program is attained at a vertex, and
    # enumerate_vertices finds every vertex from the equality system alone
    rng = np.random.default_rng(59)
    builders = (arbitrary_pair, lower_triangular_pair, staircase_pair)
    for trial in range(60):
        levels = int(rng.integers(2, 4))
        pair = builders[trial % 3](rng, levels)
        for assumptions in Assumptions:
            c = rng.normal(size=(levels, levels))
            vertices = enumerate_vertices(pair, assumptions)
            outcome = maximize(pair.treated_law.probs, pair.control_law.probs,
                               allowed_mask(assumptions, levels), c)
            if not vertices:
                assert outcome is None
                continue
            best = max(float((c * v.entries).sum()) for v in vertices)
            assert outcome[0] == pytest.approx(best, abs=1e-8)


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
    # the sign of the deficit near each level's boundary, J = 2-30: phase one
    # refuses exactly the pairs whose facts refuse the level
    rng = np.random.default_rng(139)
    refusals = 0
    for levels in range(2, 31):
        for assumptions in (Assumptions.MONOTONICITY, Assumptions.MONOTONIC_INCREMENT):
            for _ in range(8):
                pair = near_feasible_pair(rng, levels, assumptions)
                facts = pair_facts(pair)
                refused = (facts.mono_refusal is not None
                           if assumptions is Assumptions.MONOTONICITY
                           else not facts.brackets.passed)
                refusals += refused
                y = int(pair.treated_law.probs.argmax())
                event = make_event("eq", levels, level=0)
                if refused:
                    with pytest.raises(LpInfeasibleError):
                        pn_bounds_lp(pair, event, y, assumptions)
                else:
                    pn_bounds_lp(pair, event, y, assumptions)
    assert 0 < refusals < 29 * 2 * 8


def test_infeasible_monotone_set_when_ordering_violated():
    pair = pair_from_laws([0.7, 0.3], [0.2, 0.8])
    with pytest.raises(LpInfeasibleError):
        pn_bounds_lp(pair, make_event("eq", 2, level=0), 1, Assumptions.MONOTONICITY)


@pytest.mark.parametrize("treated,control,assumptions", [
    ([0.1, 0.8, 0.1], [0.05, 0.05, 0.9], Assumptions.MONOTONIC_INCREMENT),
    ([0.7, 0.3], [0.2, 0.8], Assumptions.MONOTONICITY),
], ids=["incr", "mono"])
def test_phase_one_alone_refuses_an_empty_polytope(monkeypatch, treated, control, assumptions):
    # the LP cross-checks the gap brackets, so it must not read them
    from pnbounds import identify

    def unreachable(pair):
        raise AssertionError("the LP computed the pair facts")

    monkeypatch.setattr(identify, "pair_facts", unreachable)
    pair = pair_from_laws(treated, control)
    with pytest.raises(LpInfeasibleError) as exc:
        pn_bounds_lp(pair, make_event("eq", len(treated), level=0), 1, assumptions)
    assert str(exc.value) == (
        f"feasible set is empty under {assumptions.value!r} for these marginals")


def test_gap_just_below_the_band_is_refused_not_crashed():
    # cumulative gap -5e-9: outside ATOL, inside the certificate's FEAS_TOL
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
        # each optimum is a joint within the band, as its certificate demands
        for point in optimal_points(pair, event, 0, Assumptions.MONOTONICITY):
            assert point.min() >= -INFEAS_TOL
            assert abs(point.sum() - 1.0) <= 1e-12
    # row 0 has one allowed cell, so the margins put all of treated[0] in it
    # however small it is: the gap's -5e-10 goes to another cell, not to a
    # 1.25e-8 shortfall of the bound
    pair = pair_from_laws([0.04, 0.96], [0.04 - 5e-10, 0.96 + 5e-10])
    result = pn_bounds_lp(pair, make_event("eq", 2, level=0), 0, Assumptions.MONOTONICITY)
    assert (result.lower, result.upper) == (1.0, 1.0)


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


# --- large and degenerate programs -------------------------------------------------

def tied_staircase_pair(rng, levels):
    q = tied_staircase_joint(rng, levels)
    return pair_from_laws(q.sum(axis=1), q.sum(axis=0))


def zero_level_pair(rng, levels):
    """Staircase margins with an empty treated level and an empty control level."""
    q = staircase_joint(rng, levels)
    q[levels // 2] = 0.0
    q[:, levels // 3] = 0.0
    q /= q.sum()
    return pair_from_laws(q.sum(axis=1), q.sum(axis=0))


@pytest.mark.parametrize("builder,consistent,brackets", [
    (lower_triangular_pair, True, False),
    (staircase_pair, True, True),
    (tied_staircase_pair, True, True),
    (zero_level_pair, True, True),
    (arbitrary_pair, False, False),
], ids=["lower-triangular", "staircase", "tied", "zero-level", "arbitrary"])
def test_thirty_levels_match_the_closed_forms_at_every_level(builder, consistent, brackets):
    rng = np.random.default_rng(30)
    levels = 30
    pair = builder(rng, levels)
    # mono is feasible exactly without a negative cut, incr exactly when the
    # brackets pass
    assert monotone_consistent(pair) is consistent
    assert falsification_check(pair).passed is brackets
    for y in (1, 9, 14, 15, 22, 29):
        if pair.treated_law.probs[y] <= ATOL:
            continue
        events = [make_event(kind, levels, level=level)
                  for kind, level in (("noteq", y), ("eq", y), ("eq", y // 2), ("lt", y))]
        events += [make_event("custom", levels, coeffs=rng.integers(0, 2, levels).tolist())
                   for _ in range(2)]
        for event in events:
            lp_res = pn_bounds_lp(pair, event, y, Assumptions.MARGINAL_ONLY)
            cf = pn_bounds_marginal(pair, event, y)
            assert (lp_res.lower, lp_res.upper) == pytest.approx((cf.lower, cf.upper), abs=1e-8)
            if consistent:
                lp_res = pn_bounds_lp(pair, event, y, Assumptions.MONOTONICITY)
                cf = pn_bounds_monotone(pair, event, y)
                assert (lp_res.lower, lp_res.upper) == pytest.approx((cf.lower, cf.upper), abs=1e-8)
            else:
                with pytest.raises(LpInfeasibleError):
                    pn_bounds_lp(pair, event, y, Assumptions.MONOTONICITY)
            if brackets:
                lp_res = pn_bounds_lp(pair, event, y, Assumptions.MONOTONIC_INCREMENT)
                assert lp_res.upper - lp_res.lower <= 1e-8
                point = pn_point(pair, event, y)
                assert [lp_res.lower, lp_res.upper] == pytest.approx([point] * 2, abs=1e-8)
            else:
                with pytest.raises(LpInfeasibleError):
                    pn_bounds_lp(pair, event, y, Assumptions.MONOTONIC_INCREMENT)


def strongly_feasible(net):
    """Every tree arc without flow points away from the root."""
    return all(net.flow[net.pred[x]] > 0.0 or not net.up[x] for x in range(len(net.parent) - 1))


@pytest.mark.parametrize("levels", [10, 15, 20])
def test_degenerate_programs_end_on_strongly_feasible_certified_trees(levels, monkeypatch):
    # equal and blockwise-tied margins tie the flows around most cycles, so
    # many tree arcs carry no flow and most pivots move nothing
    uniform = np.full(levels, 1.0 / levels)
    blocks = np.repeat([3.0, 1.0], [levels // 2, levels - levels // 2])
    blocks /= blocks.sum()
    pairs = [pair_from_laws(uniform, uniform), pair_from_laws(blocks, blocks),
             pair_from_laws(blocks, blocks[::-1])]
    runs = []
    run = _Network.run

    def checked_run(self, cost, priced):
        run(self, cost, priced)
        runs.append(strongly_feasible(self))

    monkeypatch.setattr(_Network, "run", checked_run)
    lp._base_network.cache_clear()
    for pair in pairs:
        refused = {Assumptions.MARGINAL_ONLY: False,
                   Assumptions.MONOTONICITY: not monotone_consistent(pair),
                   Assumptions.MONOTONIC_INCREMENT: not falsification_check(pair).passed}
        for y in range(levels):
            for event in canonical_events(levels, y):
                # a breakdown, the iteration limit or a failed certificate
                # raises LpError; only the refusal of an empty set may
                for assumptions in Assumptions:
                    if refused[assumptions]:
                        with pytest.raises(LpInfeasibleError):
                            pn_bounds_lp(pair, event, y, assumptions)
                        continue
                    lp_res = pn_bounds_lp(pair, event, y, assumptions)
                    cf = cell_bounds(pair_facts(pair), event, y, assumptions)
                    assert lp_res.lower == pytest.approx(cf.lower, abs=1e-8)
                    assert lp_res.upper == pytest.approx(cf.upper, abs=1e-8)
    assert runs and all(runs)


# --- the phase-one cache ----------------------------------------------------------

def lp_outcome(pair, event, y, assumptions):
    """Bounds and optimal-point bytes of ``pn_bounds_lp``, or its refusal message."""
    try:
        res = pn_bounds_lp(pair, event, y, assumptions)
    except LpInfeasibleError as exc:
        return str(exc)
    return res.lower, res.upper, [p.tobytes() for p in optimal_points(pair, event, y, assumptions)]


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
                if pair.treated_law.probs[y] > 1e-9
                for event in canonical_events(levels, y)
            ]
            lp._base_network.cache_clear()
            warm = [lp_outcome(pair, *cell) for cell in cells]
            # one phase one per assumption level, read by every later cell
            assert lp._base_network.cache_info().misses == len(Assumptions)
            assert lp._base_network.cache_info().currsize == len(Assumptions)
            cold = []
            for cell in cells:
                lp._base_network.cache_clear()
                cold.append(lp_outcome(pair, *cell))
            assert warm == cold


def test_an_infeasible_polytope_stays_infeasible_from_the_cache(monkeypatch):
    pair = pair_from_laws([0.7, 0.2, 0.1], [0.1, 0.2, 0.7])
    event = make_event("eq", 3, level=0)
    cells = [(1, Assumptions.MONOTONICITY), (2, Assumptions.MONOTONIC_INCREMENT)]
    lp._base_network.cache_clear()
    cold = [lp_outcome(pair, event, y, a) for y, a in cells]
    assert all(isinstance(outcome, str) for outcome in cold)
    assert lp._base_network.cache_info().currsize == 2
    assert all(lp._feasible_base(pair, a).deficit > INFEAS_TOL for _, a in cells)
    assert lp._base_network.cache_info().misses == 2

    def uncached(*args):
        raise AssertionError("the cached answer was not used")

    monkeypatch.setattr(lp, "_Network", uncached)
    assert [lp_outcome(pair, event, y, a) for y, a in cells] == cold


def test_the_least_recently_used_polytope_is_evicted_and_solved_again():
    rng = np.random.default_rng(71)
    cap = lp._base_network.cache_info().maxsize
    pairs = [staircase_pair(rng, 3) for _ in range(cap + 1)]
    event = make_event("eq", 3, level=1)
    lp._base_network.cache_clear()
    answers = [lp_outcome(pair, event, 2, Assumptions.MONOTONICITY) for pair in pairs[:cap]]
    closed = pn_bounds_monotone(pairs[0], event, 2)
    assert answers[0][:2] == pytest.approx((closed.lower, closed.upper), abs=1e-8)
    # reading the first polytope again makes the second the least recently used
    assert lp_outcome(pairs[0], event, 2, Assumptions.MONOTONICITY) == answers[0]
    lp_outcome(pairs[cap], event, 2, Assumptions.MONOTONICITY)
    info = lp._base_network.cache_info()
    assert (info.misses, info.currsize) == (cap + 1, cap)
    # the first is still cached; the second was evicted and is solved again
    assert lp_outcome(pairs[0], event, 2, Assumptions.MONOTONICITY) == answers[0]
    assert lp._base_network.cache_info().misses == cap + 1
    assert lp_outcome(pairs[1], event, 2, Assumptions.MONOTONICITY) == answers[1]
    info = lp._base_network.cache_info()
    assert (info.misses, info.currsize) == (cap + 2, cap)


# --- the certificate's self-checks, each reached by a planted fault -----------

@pytest.fixture
def fresh_cache():
    """Clear the phase-one cache before and after a test that corrupts it."""
    lp._base_network.cache_clear()
    yield
    lp._base_network.cache_clear()


def corrupt_and_solve(plant):
    """Cache the LaLonde ``marginal`` network, hand it to ``plant``, then ask
    ``pn_bounds_lp`` for a cell whose interval is wide (0.170 to 0.883)."""
    pair = lalonde_pair()
    plant(lp._feasible_base(pair, Assumptions.MARGINAL_ONLY))
    pn_bounds_lp(pair, make_event("lt", 3, level=2), 2, Assumptions.MARGINAL_ONLY)


def test_a_pivot_that_moves_nothing_hits_the_iteration_limit(fresh_cache, monkeypatch):
    monkeypatch.setattr(_Network, "_pivot", lambda self, arc, reduced, leave=-1: None)
    with pytest.raises(LpError, match="^simplex iteration limit exceeded$"):
        corrupt_and_solve(lambda net: None)


def test_shifted_potentials_do_not_fit_the_tree(fresh_cache, monkeypatch):
    certify = _Network._certify

    def shifted(self, c):
        self.pi[np.flatnonzero(self.signs > 0)] += 1.0  # every row: every cell's slack moves
        return certify(self, c)

    monkeypatch.setattr(_Network, "_certify", shifted)
    with pytest.raises(CertificateError, match="^potentials do not fit the tree$"):
        corrupt_and_solve(lambda net: None)


def test_a_tree_left_before_its_optimum_is_dual_infeasible(fresh_cache, monkeypatch):
    # phase two prices no arc below -1e9, so it certifies the phase-one tree,
    # which cannot be optimal for both c and -c on a wide interval
    with pytest.raises(CertificateError, match="^dual infeasible: slack -"):
        corrupt_and_solve(lambda net: monkeypatch.setattr(lp, "PIVOT_TOL", 1e9))


def test_negated_dual_signs_open_a_duality_gap(fresh_cache):
    def negate(net):
        net.signs = -net.signs

    with pytest.raises(CertificateError, match="^duality gap "):
        corrupt_and_solve(negate)


def test_moved_laws_are_caught_by_the_margin_check(fresh_cache):
    def move(net):
        net.laws = net.laws + 1e-6

    with pytest.raises(CertificateError, match="^optimal point violates the margins$"):
        corrupt_and_solve(move)
