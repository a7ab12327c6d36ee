import numpy as np
import pytest

from pnbounds import (
    Assumptions,
    BoundsResult,
    ConstructionError,
    Endpoint,
    Method,
    SamplingError,
    allowed_mask,
    enumerate_vertices,
    extremal_witness_marginal,
    identify_joint,
    make_event,
    pn_bounds_lp,
    pn_bounds_marginal,
    pn_bounds_monotone,
    pn_from_joint,
    product_completion,
    sample_feasible,
    verify_bounds,
)
from pnbounds.oracle import (
    SAMPLE_MARGIN_TOL,
    _feasibility_precheck,
    _sample_matrices,
)
from helpers import (
    arbitrary_pair,
    canonical_events,
    lalonde_pair,
    lower_triangular_pair,
    pair_from_laws,
    staircase_joint,
    staircase_pair,
    whole_batch_sample_matrices,
)


# --- product completion ---------------------------------------------------------

def test_product_completion_examples():
    assert product_completion([1.0], [1.0]).tolist() == [[1.0]]
    assert np.allclose(product_completion([0.5, 0.5], [0.5, 0.5]), 0.25)
    expected = [[0.12, 0.08], [0.48, 0.32]]
    assert np.allclose(product_completion([0.2, 0.8], [0.6, 0.4]), expected, atol=1e-12)


def test_product_completion_margin_mismatch():
    with pytest.raises(ConstructionError):
        product_completion([0.5, 0.5], [0.3, 0.3])


def test_product_completion_zero_total():
    out = product_completion([0.0, 0.0], [0.0])
    assert out.shape == (2, 1) and np.all(out == 0.0)


def test_product_completion_margins_exact():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rows = rng.random(int(rng.integers(1, 6)))
        cols = rng.random(int(rng.integers(1, 6)))
        cols *= rows.sum() / cols.sum()
        out = product_completion(rows, cols)
        assert np.abs(out.sum(axis=1) - rows).max() < 1e-12
        assert np.abs(out.sum(axis=0) - cols).max() < 1e-12
        assert out.min() >= 0.0


# --- extremal witnesses -----------------------------------------------------------

def test_upper_witness_attains_published_bound():
    pair = lalonde_pair()
    ev = make_event("noteq", 3, level=2)
    witness = extremal_witness_marginal(pair, ev, 2, Endpoint.UPPER)
    assert pn_from_joint(witness, ev, 2) == pytest.approx(0.88, abs=0.005)


def test_full_space_event_witnesses():
    pair = lalonde_pair()
    ev = make_event("custom", 3, coeffs=[1, 1, 1])
    for endpoint in Endpoint:
        witness = extremal_witness_marginal(pair, ev, 2, endpoint)
        assert pn_from_joint(witness, ev, 2) == pytest.approx(1.0, abs=1e-9)


def test_binary_lower_witness_matches_two_event_bracket():
    rng = np.random.default_rng(29)
    for _ in range(50):
        pair = arbitrary_pair(rng, 2)
        t1, c0 = pair.treated_law[1], pair.control_law[0]
        if t1 <= 1e-9:
            continue
        ev = make_event("eq", 2, level=0)
        witness = extremal_witness_marginal(pair, ev, 1, Endpoint.LOWER)
        assert pn_from_joint(witness, ev, 1) == pytest.approx(
            max(0.0, (t1 + c0 - 1) / t1), abs=1e-9
        )


def test_witnesses_attain_marginal_bounds_everywhere():
    rng = np.random.default_rng(37)
    for _ in range(40):
        levels = int(rng.integers(2, 6))
        pair = arbitrary_pair(rng, levels)
        y = int(rng.integers(0, levels))
        if pair.treated_law[y] <= 1e-9:
            continue
        for event in canonical_events(levels, y):
            res = pn_bounds_marginal(pair, event, y)
            low = extremal_witness_marginal(pair, event, y, Endpoint.LOWER)
            up = extremal_witness_marginal(pair, event, y, Endpoint.UPPER)
            assert pn_from_joint(low, event, y) == pytest.approx(res.lower, abs=1e-9)
            assert pn_from_joint(up, event, y) == pytest.approx(res.upper, abs=1e-9)
            for witness in (low, up):
                assert np.abs(witness.row_margins() - pair.treated_law.probs).max() < 1e-9
                assert np.abs(witness.col_margins() - pair.control_law.probs).max() < 1e-9


# --- sampling ----------------------------------------------------------------------

def test_identical_laws_single_point_feasible_set():
    pair = pair_from_laws([0.2, 0.3, 0.5], [0.2, 0.3, 0.5])
    samples = sample_feasible(pair, Assumptions.MONOTONIC_INCREMENT, 25, seed=11)
    target = np.diag([0.2, 0.3, 0.5])
    for joint in samples:
        assert np.abs(joint.entries - target).max() < 1e-9


def test_samples_satisfy_margins_and_zero_pattern():
    rng = np.random.default_rng(41)
    for assumptions in Assumptions:
        pair = lower_triangular_pair(rng, 4)
        if assumptions is Assumptions.MONOTONIC_INCREMENT:
            pair = staircase_pair(rng, 4)
        samples = sample_feasible(pair, assumptions, 60, seed=13)
        assert len(samples) == 60
        mask = allowed_mask(assumptions, 4)
        for joint in samples:
            assert np.abs(joint.row_margins() - pair.treated_law.probs).max() < 1e-7
            assert np.abs(joint.col_margins() - pair.control_law.probs).max() < 1e-7
            assert np.all(joint.entries[~mask] == 0.0)


def test_singleton_feasible_set_has_negligible_variance():
    pair = lalonde_pair()
    ev = make_event("noteq", 3, level=2)
    samples = sample_feasible(pair, Assumptions.MONOTONIC_INCREMENT, 100, seed=5)
    values = np.array([pn_from_joint(q, ev, 2) for q in samples])
    assert values.var() < 1e-10
    point = pn_from_joint(identify_joint(pair), ev, 2)
    assert np.abs(values - point).max() < 1e-6


def test_sampling_is_deterministic_in_the_seed():
    pair = lalonde_pair()
    a = sample_feasible(pair, Assumptions.MARGINAL_ONLY, 10, seed=99)
    b = sample_feasible(pair, Assumptions.MARGINAL_ONLY, 10, seed=99)
    for qa, qb in zip(a, b):
        assert np.array_equal(qa.entries, qb.entries)


def test_sampling_rejects_empty_feasible_sets():
    bad = pair_from_laws([0.1, 0.8, 0.1], [0.05, 0.05, 0.9])
    with pytest.raises(SamplingError):
        sample_feasible(bad, Assumptions.MONOTONIC_INCREMENT, 5, seed=1)
    reversed_pair = pair_from_laws([0.7, 0.3], [0.2, 0.8])
    with pytest.raises(SamplingError):
        sample_feasible(reversed_pair, Assumptions.MONOTONICITY, 5, seed=1)
    with pytest.raises(SamplingError):
        sample_feasible(lalonde_pair(), Assumptions.MARGINAL_ONLY, 0, seed=1)


def _thinned_staircase_pair(seed: int, levels: int):
    """Staircase marginals with one sub-diagonal and one diagonal cell scaled
    by 1e-6; fitting is slow enough that some draws miss ``IPF_ACCEPT``."""
    rng = np.random.default_rng(seed)
    q = staircase_joint(rng, levels)
    k = int(rng.integers(1, levels))
    q[k, k - 1] *= 1e-6
    d = int(rng.integers(0, levels))
    q[d, d] *= 1e-6
    q /= q.sum()
    return pair_from_laws(q.sum(axis=1), q.sum(axis=0))


def test_per_draw_stop_matches_whole_batch_sweep():
    rng = np.random.default_rng(83)
    pairs = [lalonde_pair(), _thinned_staircase_pair(13, 6)]
    for levels in range(3, 7):
        pairs += [lower_triangular_pair(rng, levels), staircase_pair(rng, levels)]
    n = 300
    partial = all_rejected = 0
    for pair in pairs:
        for assumptions in Assumptions:
            try:
                _feasibility_precheck(pair, assumptions)
            except SamplingError:
                continue
            mask = allowed_mask(assumptions, pair.levels)
            for seed in (0, 1, 2):
                reference = whole_batch_sample_matrices(
                    pair, assumptions, n, np.random.default_rng(seed)
                )
                if reference.shape[0] == 0:
                    with pytest.raises(SamplingError):
                        _sample_matrices(pair, assumptions, n, np.random.default_rng(seed))
                    all_rejected += 1
                    continue
                x = _sample_matrices(pair, assumptions, n, np.random.default_rng(seed))
                assert x.shape == reference.shape
                assert np.abs(x - reference).max() <= 1e-10
                assert np.abs(x.sum(axis=2) - pair.treated_law.probs).max() <= SAMPLE_MARGIN_TOL
                assert np.abs(x.sum(axis=1) - pair.control_law.probs).max() <= SAMPLE_MARGIN_TOL
                assert np.all(x[:, ~mask] == 0.0)
                partial += x.shape[0] < n
    # the thinned pair exercises rejection: some draws under mono, all under incr
    assert partial >= 1 and all_rejected >= 1


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


def test_verify_can_dump_sampled_values(tmp_path):
    pair = lalonde_pair()
    ev = make_event("noteq", 3, level=2)
    res = pn_bounds_marginal(pair, ev, 2)
    csv_path = tmp_path / "values.csv"
    report = verify_bounds(
        pair, ev, 2, Assumptions.MARGINAL_ONLY, res, 50, seed=3, samples_csv=csv_path
    )
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "value" and len(lines) == 51
    values = np.array([float(v) for v in lines[1:]])
    assert values.min() >= res.lower - 1e-9 and values.max() <= res.upper + 1e-9
    import json

    payload = json.loads(report.to_json())
    assert payload["contained"] is True and payload["n_samples"] == 50


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
                if pair.treated_law[y] <= 1e-9:
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
