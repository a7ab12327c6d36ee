import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnbounds import (
    ATOL,
    Assumptions,
    CausalAttributionError,
    EventSpec,
    EventSpecError,
    InvalidDistributionError,
    JointProbabilityMatrix,
    OrdinalDistribution,
    ZeroEvidenceError,
    allowed_mask,
    endpoint_witnesses,
    make_event,
    pn_bounds_lp,
    pn_bounds_marginal,
    pn_from_joint,
)
from helpers import loop_allowed_mask, loop_event_bits, loop_pinned_cells, pair_from_laws

from pnbounds.identify import gap_sequence


# --- strategies -----------------------------------------------------------

def joint_matrices(min_levels=2, max_levels=5):
    @st.composite
    def build(draw):
        levels = draw(st.integers(min_levels, max_levels))
        raw = draw(
            st.lists(
                st.floats(0.01, 1.0, allow_nan=False),
                min_size=levels * levels,
                max_size=levels * levels,
            )
        )
        q = np.asarray(raw).reshape(levels, levels)
        return JointProbabilityMatrix(entries=q / q.sum())

    return build()


# --- events ----------------------------------------------------------------

def test_make_event_noteq_matches_named_family():
    assert make_event("noteq", 5, level=2).coeffs == (1, 1, 0, 1, 1)


def test_make_event_eq():
    assert make_event("eq", 3, level=0).coeffs == (1, 0, 0)


def test_make_event_lt_zero_is_empty():
    assert make_event("lt", 3, level=0).coeffs == (0, 0, 0)


def test_make_event_custom_passthrough():
    ev = make_event("custom", 4, coeffs=[1, 0, 1, 1])
    assert ev.coeffs == (1, 0, 1, 1)


@pytest.mark.parametrize(
    "kind,level", [("noteq", 5), ("eq", -1), ("lt", 3), ("eq", None)]
)
def test_make_event_level_out_of_range(kind, level):
    with pytest.raises(EventSpecError):
        make_event(kind, 3, level=level)


def test_make_event_custom_rejects_nonbinary_and_wrong_length():
    with pytest.raises(EventSpecError):
        make_event("custom", 3, coeffs=[1, 2, 0])
    with pytest.raises(EventSpecError):
        make_event("custom", 3, coeffs=[1, 0])


# --- pn_from_joint ----------------------------------------------------------

def test_diagonal_joint_gives_zero_for_noteq():
    q = JointProbabilityMatrix(entries=np.diag([0.2, 0.3, 0.5]))
    for y in range(3):
        assert pn_from_joint(q, make_event("noteq", 3, level=y), y) == 0.0


def test_full_space_event_gives_one():
    rng = np.random.default_rng(3)
    q = rng.random((4, 4))
    q = JointProbabilityMatrix(entries=q / q.sum())
    ev = make_event("custom", 4, coeffs=[1, 1, 1, 1])
    for y in range(4):
        assert pn_from_joint(q, ev, y) == pytest.approx(1.0, abs=1e-12)


def test_zero_row_mass_is_an_error_not_nan():
    entries = np.zeros((3, 3))
    entries[0, 0] = 0.4
    entries[2, 2] = 0.6
    q = JointProbabilityMatrix(entries=entries)
    with pytest.raises(ZeroEvidenceError):
        pn_from_joint(q, make_event("eq", 3, level=0), 1)


def test_rescaling_invariance_of_the_ratio_form():
    rng = np.random.default_rng(11)
    raw = rng.random((3, 3))
    q = JointProbabilityMatrix(entries=raw / raw.sum())
    ev = make_event("lt", 3, level=2)
    # the ratio form depends on the row through its direction only
    for scale in (0.25, 1.0, 7.5):
        scaled = scale * raw
        direct = scaled[2] @ ev.vector / scaled[2].sum()
        assert pn_from_joint(q, ev, 2) == pytest.approx(direct, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(joint_matrices(), st.data())
def test_complementary_events_sum_to_one(q, data):
    y = data.draw(st.integers(0, q.levels - 1))
    ev = make_event("noteq", q.levels, level=data.draw(st.integers(0, q.levels - 1)))
    total = pn_from_joint(q, ev, y) + pn_from_joint(q, ev.complement(), y)
    assert total == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(joint_matrices(), st.data())
def test_single_level_events_partition_to_one(q, data):
    y = data.draw(st.integers(0, q.levels - 1))
    total = sum(
        pn_from_joint(q, make_event("eq", q.levels, level=v), y)
        for v in range(q.levels)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("event,y,message", [
    (make_event("eq", 4, level=0), 0, "event has 4 levels, not 3"),
    (make_event("eq", 3, level=0), 3, "evidence level 3 out of range"),
    (make_event("eq", 3, level=0), -1, "evidence level -1 out of range"),
], ids=["4-levels", "y=3", "y=-1"])
def test_every_one_cell_entry_refuses_a_malformed_cell_with_one_text(event, y, message):
    treated, control = [0.2, 0.3, 0.5], [0.4, 0.3, 0.3]
    pair = pair_from_laws(treated, control)
    joint = JointProbabilityMatrix(entries=np.outer(treated, control))
    marginal = Assumptions.MARGINAL_ONLY
    for entry in (
        lambda: pn_from_joint(joint, event, y),
        lambda: pn_bounds_marginal(pair, event, y),
        lambda: pn_bounds_lp(pair, event, y, marginal),
        lambda: endpoint_witnesses(pair, event, y, marginal),
    ):
        with pytest.raises(CausalAttributionError) as err:
            entry()
        assert type(err.value) is CausalAttributionError and str(err.value) == message


# --- distributions and matrices ---------------------------------------------

def test_distribution_rejects_bad_inputs():
    with pytest.raises(InvalidDistributionError):
        OrdinalDistribution(np.array([1.0]))  # J >= 2
    with pytest.raises(InvalidDistributionError):
        OrdinalDistribution(np.array([0.5, 0.6]))  # sum != 1
    with pytest.raises(InvalidDistributionError):
        OrdinalDistribution(np.array([-0.1, 1.1]))


@pytest.mark.parametrize("probs,message", [
    ([np.nan, 1.0], "entries outside [0, 1]: [nan  1.]"),
    ([np.inf, 0.0], "entries outside [0, 1]: [inf  0.]"),
    ([-np.inf, 1.0], "entries outside [0, 1]: [-inf   1.]"),
    ([-2 * ATOL, 1 + 2 * ATOL], "entries outside [0, 1]: [-2.e-09  1.e+00]"),
    ([1 + 2 * ATOL, -2 * ATOL], "entries outside [0, 1]: [ 1.e+00 -2.e-09]"),
    ([0.5, 0.5 + 2 * ATOL], "entries sum to 1.0000000020000002, not 1"),
    ([0.5, 0.5 - 2 * ATOL], "entries sum to 0.9999999980000001, not 1"),
], ids=["nan", "inf", "-inf", "below", "above", "sum-above", "sum-below"])
def test_distribution_refusals_keep_their_messages(probs, message):
    with pytest.raises(InvalidDistributionError) as err:
        OrdinalDistribution(np.array(probs))
    assert str(err.value) == message


def test_distribution_accepts_the_atol_band_edges_and_clips_them():
    for probs in ([-ATOL, 1 + ATOL], [-0.5 * ATOL, 1 + 0.5 * ATOL]):
        source = np.array(probs)
        dist = OrdinalDistribution(source)
        assert dist.probs.tolist() == [0.0, 1.0] and not dist.probs.flags.writeable
        assert source.tolist() == probs  # the caller's array is not clipped in place


@pytest.mark.parametrize("coeffs", [("1", 0), (0.5, 1), (float("nan"), 1), ([1], 0), (2, 0)],
                         ids=repr)
def test_event_spec_refuses_non_binary_coefficients(coeffs):
    with pytest.raises(EventSpecError) as err:
        EventSpec(coeffs=coeffs, label="x")
    assert type(err.value) is EventSpecError
    assert str(err.value) == f"coefficients must be 0/1, got {coeffs}"


def test_event_spec_stores_binary_coefficients_as_ints():
    event = EventSpec(coeffs=(True, 0.0, np.int64(1), np.float64(0)), label="x")
    assert event.coeffs == (1, 0, 1, 0) and {type(c) for c in event.coeffs} == {int}


def test_distribution_from_counts_normalizes_once():
    dist = OrdinalDistribution.from_counts([2, 6])
    assert dist.probs == pytest.approx([0.25, 0.75])


def test_distribution_is_immutable():
    dist = OrdinalDistribution(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        dist.probs[0] = 0.9


def test_joint_matrix_invariants():
    with pytest.raises(InvalidDistributionError):
        JointProbabilityMatrix(entries=np.full((2, 2), 0.3))  # sum 1.2
    with pytest.raises(InvalidDistributionError):
        JointProbabilityMatrix(entries=np.array([[1.1, -0.1], [0.0, 0.0]]))


def test_marginal_pair_requires_matching_levels():
    with pytest.raises(InvalidDistributionError):
        pair_from_laws([0.5, 0.5], [0.2, 0.3, 0.5])


# --- gap telescoping ---------------------------------------------------------

def test_gap_sequence_telescopes():
    rng = np.random.default_rng(5)
    for _ in range(25):
        pair = pair_from_laws(rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4)))
        gaps = gap_sequence(pair)
        control = pair.control_law.probs
        treated = pair.treated_law.probs
        assert gaps[0] == pytest.approx(control[0] - treated[0], abs=1e-12)
        for k in range(1, len(gaps)):
            assert gaps[k] - gaps[k - 1] == pytest.approx(
                control[k] - treated[k], abs=1e-12
            )


def test_gap_sequence_container():
    gaps = gap_sequence(pair_from_laws([0.2, 0.5, 0.3], [0.3, 0.2, 0.5]))
    assert len(gaps) == 2 and gaps[1] == pytest.approx(-0.2)
    assert not gaps.flags.writeable


# --- assumption ladder --------------------------------------------------------

def test_zero_pattern_counts():
    for levels in (2, 3, 5, 8):
        pinned = {a: (~allowed_mask(a, levels)).sum() for a in Assumptions}
        assert pinned[Assumptions.MARGINAL_ONLY] == 0
        assert pinned[Assumptions.MONOTONICITY] == levels * (levels - 1) // 2
        assert pinned[Assumptions.MONOTONIC_INCREMENT] == levels * levels - (2 * levels - 1)


def test_allowed_mask_is_complement_of_zero_pattern():
    mask = allowed_mask(Assumptions.MONOTONIC_INCREMENT, 4)
    assert mask.sum() == 7  # diagonal + subdiagonal
    assert mask[1, 0] and mask[2, 2] and not mask[0, 1] and not mask[3, 0]


def test_named_events_and_zero_patterns_equal_their_loop_forms():
    labels = {"noteq": "Y0 != {}", "eq": "Y0 = {}", "lt": "Y0 < {}"}
    for levels in range(2, 31):
        for kind, label in labels.items():
            for level in range(levels):
                event = make_event(kind, levels, level=level)
                assert event.coeffs == loop_event_bits(kind, levels, level)
                assert set(map(type, event.coeffs)) == {int}
                assert event.label == label.format(level)
        for assumptions in Assumptions:
            mask = allowed_mask(assumptions, levels)
            cells = list(map(tuple, np.argwhere(~mask).tolist()))
            assert cells == loop_pinned_cells(assumptions, levels)  # row-major
            assert all(type(k) is int and type(l) is int for k, l in cells)
            assert mask.dtype == bool and mask.flags.writeable
            assert np.array_equal(mask, loop_allowed_mask(assumptions, levels))


# --- package surface ------------------------------------------------------------

def test_every_exported_name_resolves():
    import pnbounds

    namespace = {}
    exec("from pnbounds import *", namespace)
    assert len(set(pnbounds.__all__)) == len(pnbounds.__all__)
    for name in pnbounds.__all__:
        assert namespace[name] is getattr(pnbounds, name)
