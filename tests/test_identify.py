import numpy as np
import pytest

from pnbounds import (
    FalsificationError,
    ZeroEvidenceError,
    falsification_check,
    gap_sequence,
    identify_joint,
    make_event,
    pn_from_joint,
    pn_point,
)
from helpers import (
    canonical_events,
    lalonde_pair,
    lalonde_pc_pair,
    pair_from_laws,
    staircase_pair,
)


# --- gap sequence -------------------------------------------------------------

def test_lalonde_gaps():
    gaps = gap_sequence(lalonde_pair())
    assert gaps[0] == pytest.approx(0.15363825363825365, abs=1e-12)
    assert gaps[1] == pytest.approx(0.09937629937629938, abs=1e-12)


def test_identical_laws_have_zero_gaps():
    pair = pair_from_laws([0.2, 0.3, 0.5], [0.2, 0.3, 0.5])
    assert np.allclose(gap_sequence(pair), 0.0, atol=1e-15)


def test_lalonde_pc_gaps():
    gaps = gap_sequence(lalonde_pc_pair())
    assert gaps[0] == pytest.approx(0.11060291060291061, abs=1e-12)
    assert gaps[1] == pytest.approx(0.06455301455301456, abs=1e-12)


# --- joint reconstruction -------------------------------------------------------

def test_lalonde_identified_joint_nonzeros():
    joint = identify_joint(lalonde_pair())
    q = joint.entries
    assert q[0, 0] == pytest.approx(0.2432, abs=1e-4)
    assert q[1, 0] == pytest.approx(0.1536, abs=1e-4)
    assert q[1, 1] == pytest.approx(0.0193, abs=1e-4)
    assert q[2, 1] == pytest.approx(0.0994, abs=1e-4)
    assert q[2, 2] == pytest.approx(0.4844, abs=1e-4)
    # column sums reproduce the identified control law
    assert np.allclose(
        joint.col_margins(),
        [0.3968814968814969, 0.11871101871101872, 0.48440748440748443],
        atol=1e-12,
    )
    # everything off the staircase is exactly zero
    mask = np.ones((3, 3), dtype=bool)
    for k, l in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]:
        mask[k, l] = False
    assert np.all(q[mask] == 0.0)


def test_identical_laws_identify_to_diagonal():
    pair = pair_from_laws([0.2, 0.3, 0.5], [0.2, 0.3, 0.5])
    joint = identify_joint(pair)
    assert np.allclose(joint.entries, np.diag([0.2, 0.3, 0.5]), atol=1e-12)


def test_binary_reconstruction_by_hand():
    pair = pair_from_laws([0.3, 0.7], [0.5, 0.5])
    q = identify_joint(pair).entries
    assert q[0, 0] == pytest.approx(0.3, abs=1e-12)
    assert q[1, 0] == pytest.approx(0.2, abs=1e-12)
    assert q[1, 1] == pytest.approx(0.5, abs=1e-12)


def test_reconstructed_margins_are_exact():
    rng = np.random.default_rng(17)
    for _ in range(100):
        levels = int(rng.integers(2, 7))
        pair = staircase_pair(rng, levels)
        joint = identify_joint(pair)
        assert np.abs(joint.row_margins() - pair.treated_law.probs).max() < 1e-12
        assert np.abs(joint.col_margins() - pair.control_law.probs).max() < 1e-12


def test_identified_joint_at_the_band_edge_is_a_probability_matrix():
    # gap_1 = -1e-9 passes the brackets; clipping the subdiagonal entry to
    # zero used to leave entries summing to 1.000000001
    pair = pair_from_laws([1.0, 0.0], [1 - 1e-9, 1e-9])
    assert falsification_check(pair).passed
    joint = identify_joint(pair)
    assert joint.entries.min() >= 0.0
    assert abs(joint.entries.sum() - 1.0) <= 1e-15
    # margins within the band the brackets allow (ATOL), plus rounding
    assert np.abs(joint.row_margins() - pair.treated_law.probs).max() <= 1e-9 + 1e-12
    assert np.abs(joint.col_margins() - pair.control_law.probs).max() <= 1e-9 + 1e-12


# --- falsification ----------------------------------------------------------------

def test_lalonde_brackets():
    report = falsification_check(lalonde_pair())
    assert report.passed
    k1, k2 = report.checks
    assert (k1.lower, k1.upper) == pytest.approx((0.0, 0.1730), abs=5e-5)
    assert (k2.lower, k2.upper) == pytest.approx((0.0, 0.1187), abs=5e-5)


def test_identical_laws_pass_trivially():
    report = falsification_check(pair_from_laws([0.4, 0.6], [0.4, 0.6]))
    assert report.passed
    assert all(c.lower <= 0.0 + 1e-12 for c in report.checks)


def test_negative_gap_fails():
    report = falsification_check(pair_from_laws([1.0, 0.0], [0.0, 1.0]))
    assert not report.passed
    assert report.violations()[0].k == 1


def test_pure_one_level_lift_passes():
    # everyone moves up exactly one level: gap equals the full mass
    report = falsification_check(pair_from_laws([0.0, 1.0], [1.0, 0.0]))
    assert report.passed


def test_marginalized_staircase_joints_always_pass():
    rng = np.random.default_rng(23)
    for _ in range(200):
        levels = int(rng.integers(2, 7))
        assert falsification_check(staircase_pair(rng, levels)).passed


# --- point values -----------------------------------------------------------------

@pytest.mark.parametrize(
    "kind,level,y,expected",
    [
        ("eq", 2, 2, 0.83),
        ("eq", 0, 1, 0.89),
        ("noteq", 2, 2, 0.17),
        ("eq", 0, 2, 0.00),
        ("eq", 1, 2, 0.17),
        ("lt", 2, 2, 0.17),
        ("noteq", 1, 1, 0.89),
        ("eq", 1, 1, 0.11),
        ("eq", 2, 1, 0.00),
        ("lt", 1, 1, 0.89),
    ],
)
def test_lalonde_points_match_published_grid(kind, level, y, expected):
    pair = lalonde_pair()
    value = pn_point(pair, make_event(kind, 3, level=level), y)
    assert value == pytest.approx(expected, abs=0.005)


def test_point_formula_agrees_with_reconstructed_joint():
    rng = np.random.default_rng(31)
    for _ in range(60):
        levels = int(rng.integers(2, 6))
        pair = staircase_pair(rng, levels)
        joint = identify_joint(pair)
        for y in range(levels):
            if pair.treated_law.probs[y] <= 1e-9:
                continue
            for event in canonical_events(levels, y):
                assert pn_point(pair, event, y) == pytest.approx(
                    pn_from_joint(joint, event, y), abs=1e-12
                )


def test_point_at_evidence_zero_is_the_first_coefficient():
    pair = staircase_pair(np.random.default_rng(2), 4)
    assert pn_point(pair, make_event("eq", 4, level=0), 0) == 1.0
    assert pn_point(pair, make_event("noteq", 4, level=0), 0) == 0.0
    assert pn_point(pair, make_event("lt", 4, level=0), 0) == 0.0


def test_point_refuses_on_falsified_assumption():
    pair = pair_from_laws([0.7, 0.3], [0.2, 0.8])
    with pytest.raises(FalsificationError) as err:
        pn_point(pair, make_event("eq", 2, level=0), 1)
    assert err.value.report.violations()


def test_point_refuses_on_zero_evidence_mass():
    pair = pair_from_laws([0.5, 0.5, 0.0], [0.6, 0.2, 0.2])
    with pytest.raises(ZeroEvidenceError):
        pn_point(pair, make_event("eq", 3, level=0), 2)


def test_identify_joint_refuses_and_reports_violating_level():
    pair = pair_from_laws([0.1, 0.8, 0.1], [0.05, 0.05, 0.9])
    with pytest.raises(FalsificationError) as err:
        identify_joint(pair)
    assert any(not c.ok for c in err.value.report.checks)
