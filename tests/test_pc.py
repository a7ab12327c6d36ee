import numpy as np
import pytest

from pnbounds import (
    Assumptions,
    CausalAttributionError,
    Conditioning,
    FalsificationError,
    Method,
    falsification_check,
    make_event,
    monotone_consistent,
    pc_bounds,
    pc_point,
    pn_bounds_marginal,
    pn_point,
)
from helpers import (
    canonical_events,
    lalonde_pair,
    lalonde_pc_pair,
    pair_from_laws,
)

# Realized golden value for the experimental-only data: the cumulative gap
# at the top level equals pr(Y1=2) - pr(Y0=2), so the monotone interval for
# the complement event at y=2 is tight, not crossed.
PC_LT2_Y2 = 0.11057692307692307


def test_pc_requires_unconditional_laws():
    with pytest.raises(CausalAttributionError):
        pc_point(lalonde_pair(), make_event("lt", 3, level=2), 2)
    with pytest.raises(CausalAttributionError):
        pc_bounds(
            lalonde_pair(), make_event("lt", 3, level=2), 2, Assumptions.MARGINAL_ONLY
        )


def test_pc_point_on_experimental_arms():
    value = pc_point(lalonde_pc_pair(), make_event("lt", 3, level=2), 2)
    assert value == pytest.approx(PC_LT2_Y2, abs=1e-12)
    assert value == pytest.approx(0.110, abs=1e-3)


def test_pc_point_identical_arms_gives_zero_for_complement():
    pair = pair_from_laws(
        [0.2, 0.3, 0.5], [0.2, 0.3, 0.5], Conditioning.UNCONDITIONAL
    )
    assert pc_point(pair, make_event("noteq", 3, level=2), 2) == pytest.approx(
        0.0, abs=1e-12
    )


def test_pc_point_binary_reduction():
    pair = pair_from_laws([0.4, 0.6], [0.7, 0.3], Conditioning.UNCONDITIONAL)
    value = pc_point(pair, make_event("eq", 2, level=0), 1)
    assert value == pytest.approx((0.7 - 0.4) / 0.6, abs=1e-12)


def test_pc_marginal_bounds_on_experimental_arms():
    res = pc_bounds(
        lalonde_pc_pair(), make_event("noteq", 3, level=2), 2, Assumptions.MARGINAL_ONLY
    )
    assert res.lower == pytest.approx(0.11057692307692307, abs=1e-9)
    assert res.upper == pytest.approx(0.823539886039886, abs=1e-9)


def test_pc_monotone_bounds_are_tight_on_experimental_arms():
    res = pc_bounds(
        lalonde_pc_pair(), make_event("noteq", 3, level=2), 2, Assumptions.MONOTONICITY
    )
    assert res.lower == pytest.approx(PC_LT2_Y2, abs=1e-12)
    assert res.upper == pytest.approx(PC_LT2_Y2, abs=1e-12)
    assert monotone_consistent(lalonde_pc_pair())  # so no mono cell is refused


def test_pc_full_space_event_is_pinned_to_one():
    res = pc_bounds(
        lalonde_pc_pair(),
        make_event("custom", 3, coeffs=[1, 1, 1]),
        2,
        Assumptions.MARGINAL_ONLY,
    )
    assert (res.lower, res.upper) == (1.0, 1.0)


def test_pc_bounds_a_custom_monotone_event_in_closed_form():
    res = pc_bounds(
        lalonde_pc_pair(),
        make_event("custom", 3, coeffs=[1, 0, 1]),
        2,
        Assumptions.MONOTONICITY,
    )
    assert 0.0 <= res.lower <= res.upper <= 1.0
    assert res.method is Method.CLOSED_FORM


def test_pc_equals_pn_under_randomized_design():
    # when assignment is independent of the potential outcomes the two
    # conditioning sets carry the same laws, so every causation quantity
    # equals its necessity counterpart
    rng = np.random.default_rng(61)
    for _ in range(50):
        levels = int(rng.integers(2, 5))
        treated = rng.dirichlet(np.ones(levels))
        control = rng.dirichlet(np.ones(levels))
        pn_pair = pair_from_laws(treated, control, Conditioning.GIVEN_TREATED)
        pc_pair = pair_from_laws(treated, control, Conditioning.UNCONDITIONAL)
        y = int(rng.integers(0, levels))
        if pn_pair.treated_law.probs[y] <= 1e-9:
            continue
        for event in canonical_events(levels, y):
            res_pc = pc_bounds(pc_pair, event, y, Assumptions.MARGINAL_ONLY)
            res_pn = pn_bounds_marginal(pn_pair, event, y)
            assert res_pc.lower == pytest.approx(res_pn.lower, abs=1e-9)
            assert res_pc.upper == pytest.approx(res_pn.upper, abs=1e-9)
            if falsification_check(pn_pair).passed:
                assert pc_point(pc_pair, event, y) == pytest.approx(
                    pn_point(pn_pair, event, y), abs=1e-9
                )


def test_pc_point_refuses_when_brackets_fail():
    pair = pair_from_laws([0.7, 0.3], [0.2, 0.8], Conditioning.UNCONDITIONAL)
    with pytest.raises(FalsificationError):
        pc_point(pair, make_event("eq", 2, level=0), 1)
