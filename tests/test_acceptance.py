"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured figures when its assertions hold."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from pnbounds import (
    Assumptions,
    Conditioning,
    ContingencyTable,
    IncompatibleSourcesError,
    LpInfeasibleError,
    Source,
    counterfactual_margin_experimental,
    falsification_check,
    identify_joint,
    make_event,
    monotone_consistent,
    pc_bounds,
    pc_point,
    pn_bounds_lp,
    pn_bounds_marginal,
    pn_bounds_monotone,
    pn_point,
)
from pnbounds.bounds import UnsupportedEventError
from pnbounds.cli import main as cli_main
from pnbounds.oracle import _sample_array, endpoint_witnesses
from pnbounds import pn_from_joint
from helpers import (
    arbitrary_pair,
    canonical_events,
    lalonde_pair,
    lalonde_pc_pair,
    lower_triangular_pair,
    pair_from_laws,
    staircase_joint,
    staircase_pair,
)

DATA = Path(__file__).parent / "data"

# Published 2-decimal grid: evidence level -> family -> (point, marginal
# interval, monotone interval).
PUBLISHED_GRID = {
    2: {
        "noteq:2": (0.17, (0.17, 0.88), (0.17, 0.17)),
        "eq:0": (0.00, (0.00, 0.68), (0.00, 0.17)),
        "eq:1": (0.17, (0.00, 0.20), (0.00, 0.17)),
        "eq:2": (0.83, (0.12, 0.83), (0.83, 0.83)),
        "lt:2": (0.17, (0.17, 0.88), (0.17, 0.17)),
    },
    1: {
        "noteq:1": (0.89, (0.31, 1.00), (0.31, 0.89)),
        "eq:0": (0.89, (0.00, 1.00), (0.31, 0.89)),
        "eq:1": (0.11, (0.00, 0.69), (0.11, 0.69)),
        "eq:2": (0.00, (0.00, 1.00), (0.00, 0.00)),
        "lt:1": (0.89, (0.00, 1.00), (0.31, 0.89)),
    },
}

TOL = 0.005


def test_criterion_1_cli_reproduces_published_grid(tmp_path):
    out = tmp_path / "report.json"
    started = time.monotonic()
    code = cli_main(
        [
            "--exp", str(DATA / "lalonde_experimental.csv"),
            "--obs", str(DATA / "lalonde_observational.csv"),
            "--all-canonical",
            "--out", str(out),
        ]
    )
    elapsed = time.monotonic() - started
    assert code == 0
    report = json.loads(out.read_text())
    cells = {(c["event"], c["evidence"], c["assumptions"]): c for c in report["cells"]}
    checked = 0
    for y, families in PUBLISHED_GRID.items():
        for family, (point, marginal, monotone) in families.items():
            cell = cells[(family, y, "incr")]
            assert cell["kind"] == "point"
            assert cell["value"] == pytest.approx(point, abs=TOL)
            cell = cells[(family, y, "marginal")]
            assert cell["lower"] == pytest.approx(marginal[0], abs=TOL)
            assert cell["upper"] == pytest.approx(marginal[1], abs=TOL)
            cell = cells[(family, y, "mono")]
            assert cell["lower"] == pytest.approx(monotone[0], abs=TOL)
            assert cell["upper"] == pytest.approx(monotone[1], abs=TOL)
            checked += 3
    assert checked == 30
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 1 (published-grid reproduction): PASS — "
        f"30/30 cells within ±{TOL}, runtime {elapsed:.3f}s"
    )


def test_criterion_2_binary_reduction_identities():
    rng = np.random.default_rng(2024)
    checked = 0
    event = make_event("eq", 2, level=0)
    while checked < 1000:
        exp_counts = rng.integers(1, 120, size=(2, 2))
        obs_counts = rng.integers(1, 120, size=(2, 2))
        exp = ContingencyTable(counts=exp_counts, source=Source.EXPERIMENTAL)
        obs = ContingencyTable(counts=obs_counts, source=Source.OBSERVATIONAL)
        try:
            pair = counterfactual_margin_experimental(exp, obs)
        except IncompatibleSourcesError:
            continue
        if not falsification_check(pair).passed:
            continue
        # direct evaluation from the raw probabilities
        pr_exp_y0 = exp_counts[0, 0] / exp_counts[0].sum()
        pr_exp_y1 = exp_counts[0, 1] / exp_counts[0].sum()
        total = obs_counts.sum()
        pr_y0 = obs_counts[:, 0].sum() / total
        pr_y1 = obs_counts[:, 1].sum() / total
        pr_z0_y0 = obs_counts[0, 0] / total
        pr_z1_y1 = obs_counts[1, 1] / total
        if pr_z1_y1 <= 0:
            continue
        point_direct = (pr_exp_y0 - pr_y0) / pr_z1_y1
        lower_direct = max(0.0, (pr_y1 - pr_exp_y1) / pr_z1_y1)
        upper_direct = min(1.0, (pr_exp_y0 - pr_z0_y0) / pr_z1_y1)
        assert pn_point(pair, event, 1) == pytest.approx(point_direct, abs=1e-12)
        res = pn_bounds_marginal(pair, event, 1)
        assert res.lower == pytest.approx(lower_direct, abs=1e-12)
        assert res.upper == pytest.approx(upper_direct, abs=1e-12)
        checked += 1
    print(
        "\nACCEPTANCE 2 (binary reduction identities): PASS — "
        f"{checked} instances matched direct evaluation to 1e-12"
    )


def test_criterion_3_lp_equals_closed_forms():
    rng = np.random.default_rng(333)
    started = time.monotonic()
    cells = 0
    for levels in range(2, 7):
        for _ in range(200):
            pair = lower_triangular_pair(rng, levels)
            for y in range(1, levels):
                if pair.treated_law.probs[y] <= 1e-9:
                    continue
                events = canonical_events(levels, y)
                for event in events:
                    lp_res = pn_bounds_lp(pair, event, y, Assumptions.MARGINAL_ONLY)
                    cf = pn_bounds_marginal(pair, event, y)
                    assert lp_res.lower == pytest.approx(cf.lower, abs=1e-8)
                    assert lp_res.upper == pytest.approx(cf.upper, abs=1e-8)
                    cells += 1
                for event in events[:-1]:  # complement + single-level families
                    lp_res = pn_bounds_lp(pair, event, y, Assumptions.MONOTONICITY)
                    cf = pn_bounds_monotone(pair, event, y)
                    assert lp_res.lower == pytest.approx(cf.lower, abs=1e-8)
                    assert lp_res.upper == pytest.approx(cf.upper, abs=1e-8)
                    cells += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(
        "\nACCEPTANCE 3 (LP equals closed forms): PASS — "
        f"{cells} cells across J=2..6 within 1e-8, runtime {elapsed:.1f}s"
    )


def test_criterion_4_singleton_feasibility():
    rng = np.random.default_rng(44)
    passed_brackets = 0
    failed_brackets = 0
    for trial in range(500):
        levels = int(rng.integers(2, 6))
        if trial % 2 == 0:
            pair = staircase_pair(rng, levels)
        else:
            pair = arbitrary_pair(rng, levels)
        y = int(rng.integers(1, levels))
        if pair.treated_law.probs[y] <= 1e-9:
            continue
        event = canonical_events(levels, y)[int(rng.integers(0, levels + 2))]
        report = falsification_check(pair)
        if report.passed:
            res = pn_bounds_lp(pair, event, y, Assumptions.MONOTONIC_INCREMENT)
            assert res.upper - res.lower <= 1e-8
            assert [res.lower, res.upper] == pytest.approx(
                [pn_point(pair, event, y)] * 2, abs=1e-8
            )
            passed_brackets += 1
        else:
            with pytest.raises(LpInfeasibleError):
                pn_bounds_lp(pair, event, y, Assumptions.MONOTONIC_INCREMENT)
            failed_brackets += 1
    assert passed_brackets >= 100 and failed_brackets >= 100
    print(
        "\nACCEPTANCE 4 (one-level-lift singleton): PASS — "
        f"{passed_brackets} point-width trials, {failed_brackets} infeasible trials"
    )


def _criterion5_instances():
    rng = np.random.default_rng(55)
    instances = [lalonde_pair()]
    while len(instances) < 51:
        levels = 3 if len(instances) % 2 else 4
        pair = staircase_pair(rng, levels)
        gaps = np.cumsum(pair.control_law.probs - pair.treated_law.probs)[: levels - 1]
        # keep the polytope geometry healthy so fitting converges in budget
        if gaps.min() < 0.02 or pair.treated_law.probs.min() < 0.03:
            continue
        if pair.control_law.probs.min() < 0.03:
            continue
        instances.append(pair)
    return instances


def test_criterion_5_oracle_containment_and_sharpness():
    instances = _criterion5_instances()
    n_samples = 10000
    worst_violation = 0.0
    worst_gap = 0.0
    cells = 0
    for index, pair in enumerate(instances):
        levels = pair.levels
        for assumptions in Assumptions:
            samples = _sample_array(
                pair, assumptions, n_samples, np.random.default_rng(1000 + index)
            )
            assert samples.shape[0] == n_samples
            for y in range(1, levels):
                row = samples[:, y, :]
                mass = row.sum(axis=1)
                for event in canonical_events(levels, y):
                    values = (row @ event.vector) / mass
                    if assumptions is Assumptions.MARGINAL_ONLY:
                        res = pn_bounds_marginal(pair, event, y)
                    elif assumptions is Assumptions.MONOTONICITY:
                        try:
                            res = pn_bounds_monotone(pair, event, y)
                        except UnsupportedEventError:
                            res = pn_bounds_lp(pair, event, y, assumptions)
                    else:
                        res = pn_bounds_lp(pair, event, y, assumptions)
                    violation = max(
                        0.0,
                        float(res.lower - values.min()),
                        float(values.max() - res.upper),
                    )
                    worst_violation = max(worst_violation, violation)
                    assert violation <= 1e-9
                    low_w, up_w = endpoint_witnesses(pair, event, y, assumptions)
                    gap_low = abs(pn_from_joint(low_w, event, y) - res.lower)
                    gap_up = abs(pn_from_joint(up_w, event, y) - res.upper)
                    worst_gap = max(worst_gap, gap_low, gap_up)
                    assert gap_low <= 1e-8 and gap_up <= 1e-8
                    cells += 1
    print(
        "\nACCEPTANCE 5 (oracle containment and sharpness): PASS — "
        f"{cells} cells x {n_samples} samples, worst violation "
        f"{worst_violation:.2e}, worst witness gap {worst_gap:.2e}"
    )


def test_criterion_6_reconstruction_consistency():
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(1000):
        levels = int(rng.integers(2, 7))
        generator = staircase_joint(rng, levels)
        pair = pair_from_laws(generator.sum(axis=1), generator.sum(axis=0))
        report = falsification_check(pair)
        assert report.passed
        recovered = identify_joint(pair).entries
        worst = max(worst, float(np.abs(recovered - generator).max()))
        assert np.abs(recovered - generator).max() <= 1e-10
    print(
        "\nACCEPTANCE 6 (reconstruction consistency): PASS — "
        f"1000 joints recovered, worst entry error {worst:.2e}"
    )


def test_criterion_7_pc_equals_pn_under_randomization():
    rng = np.random.default_rng(77)
    compared = 0
    for _ in range(200):
        levels = int(rng.integers(2, 5))
        joint = rng.dirichlet(np.ones(levels * levels)).reshape(levels, levels)
        treated = joint.sum(axis=1)
        control = joint.sum(axis=0)
        pn_pair = pair_from_laws(treated, control, Conditioning.GIVEN_TREATED)
        pc_pair = pair_from_laws(treated, control, Conditioning.UNCONDITIONAL)
        y = int(rng.integers(1, levels))
        if treated[y] <= 1e-9:
            continue
        brackets_ok = falsification_check(pn_pair).passed
        consistent = monotone_consistent(pn_pair)
        for event in canonical_events(levels, y):
            res_pc = pc_bounds(pc_pair, event, y, Assumptions.MARGINAL_ONLY)
            res_pn = pn_bounds_marginal(pn_pair, event, y)
            assert res_pc.lower == pytest.approx(res_pn.lower, abs=1e-9)
            assert res_pc.upper == pytest.approx(res_pn.upper, abs=1e-9)
            if consistent:
                res_pc = pc_bounds(pc_pair, event, y, Assumptions.MONOTONICITY)
                res_pn = pn_bounds_monotone(pn_pair, event, y)
                assert res_pc.lower == pytest.approx(res_pn.lower, abs=1e-9)
                assert res_pc.upper == pytest.approx(res_pn.upper, abs=1e-9)
            else:  # both refuse, with one text
                with pytest.raises(UnsupportedEventError) as pc_refusal:
                    pc_bounds(pc_pair, event, y, Assumptions.MONOTONICITY)
                with pytest.raises(UnsupportedEventError) as pn_refusal:
                    pn_bounds_monotone(pn_pair, event, y)
                assert str(pc_refusal.value) == str(pn_refusal.value)
            if brackets_ok:
                assert pc_point(pc_pair, event, y) == pytest.approx(
                    pn_point(pn_pair, event, y), abs=1e-9
                )
            compared += 1
    value = pc_point(lalonde_pc_pair(), make_event("lt", 3, level=2), 2)
    assert value == pytest.approx(0.110, abs=1e-3)
    print(
        "\nACCEPTANCE 7 (causation equals necessity under randomization): PASS — "
        f"{compared} quantities compared at 1e-9; experimental-arm value "
        f"{value:.4f} within 0.110±0.001"
    )
