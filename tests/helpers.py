"""Shared builders for the test suite."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from pnbounds import (
    ATOL,
    Assumptions,
    Conditioning,
    ContingencyTable,
    EventSpec,
    JointProbabilityMatrix,
    MarginalPair,
    OrdinalDistribution,
    SamplingError,
    Source,
    allowed_mask,
    counterfactual_margin_experimental,
    make_event,
    randomized_margins,
)
from pnbounds.identify import BracketCheck, gap_sequence
from pnbounds.lp import build_lp

# Job-training study counts (experimental source and matched observational
# source); the golden fixture for the whole suite.
LALONDE_EXP = [[92, 33, 135], [45, 32, 108]]
LALONDE_OBS = [[115, 50, 205], [90, 64, 216]]


def lalonde_tables() -> tuple[ContingencyTable, ContingencyTable]:
    return (
        ContingencyTable(counts=LALONDE_EXP, source=Source.EXPERIMENTAL),
        ContingencyTable(counts=LALONDE_OBS, source=Source.OBSERVATIONAL),
    )


def lalonde_pair() -> MarginalPair:
    exp, obs = lalonde_tables()
    return counterfactual_margin_experimental(exp, obs)


def lalonde_pc_pair() -> MarginalPair:
    exp, _ = lalonde_tables()
    return randomized_margins(exp)


def pair_from_laws(
    treated, control, conditioning=Conditioning.GIVEN_TREATED
) -> MarginalPair:
    return MarginalPair(
        treated_law=OrdinalDistribution(np.asarray(treated, dtype=float)),
        control_law=OrdinalDistribution(np.asarray(control, dtype=float)),
        conditioning=conditioning,
    )


def staircase_joint(rng: np.random.Generator, levels: int) -> np.ndarray:
    """Random joint matrix supported on the diagonal plus subdiagonal."""
    q = np.zeros((levels, levels))
    for k in range(levels):
        q[k, k] = rng.random() + 0.05
        if k:
            q[k, k - 1] = rng.random()
    return q / q.sum()


def staircase_pair(rng: np.random.Generator, levels: int, conditioning=Conditioning.GIVEN_TREATED) -> MarginalPair:
    q = staircase_joint(rng, levels)
    return pair_from_laws(q.sum(axis=1), q.sum(axis=0), conditioning)


def lower_triangular_pair(
    rng: np.random.Generator, levels: int, conditioning=Conditioning.GIVEN_TREATED
) -> MarginalPair:
    """Marginals of a random monotone joint: feasible for every ladder level
    except (generically) the one-level-lift singleton."""
    q = np.tril(rng.random((levels, levels)))
    q /= q.sum()
    return pair_from_laws(q.sum(axis=1), q.sum(axis=0), conditioning)


def arbitrary_pair(
    rng: np.random.Generator, levels: int, conditioning=Conditioning.GIVEN_TREATED
) -> MarginalPair:
    return pair_from_laws(
        rng.dirichlet(np.ones(levels)), rng.dirichlet(np.ones(levels)), conditioning
    )


def canonical_events(levels: int, y: int):
    """The five canonical families at evidence y."""
    events = [make_event("noteq", levels, level=y)]
    events += [make_event("eq", levels, level=v) for v in range(levels)]
    events.append(make_event("lt", levels, level=y))
    return events


def assumption_levels():
    return [
        Assumptions.MARGINAL_ONLY,
        Assumptions.MONOTONICITY,
        Assumptions.MONOTONIC_INCREMENT,
    ]


def enumerate_vertices(
    pair: MarginalPair, assumptions: Assumptions
) -> list[JointProbabilityMatrix]:
    """All vertices of the feasible polytope; exhaustive check for J <= 3.

    Basic solutions of the equality system: every full-rank column subset
    whose solve is nonnegative.  Exponential in J, hence the guard.
    """
    if pair.levels > 3:
        raise SamplingError("vertex enumeration is only supported for J <= 3")
    a_full, b_full, _ = build_lp(pair, make_full_event(pair.levels), 0, assumptions)
    mask = allowed_mask(assumptions, pair.levels).reshape(-1)
    marginal_rows = 2 * pair.levels - 1
    a = a_full[:marginal_rows][:, mask]
    b = b_full[:marginal_rows]
    rank = np.linalg.matrix_rank(a)
    n = a.shape[1]
    vertices: list[np.ndarray] = []
    seen: set[tuple[int, ...]] = set()
    for cols in combinations(range(n), rank):
        sub = a[:, cols]
        if np.linalg.matrix_rank(sub) < rank:
            continue
        sol, *_ = np.linalg.lstsq(sub, b, rcond=None)
        if np.abs(sub @ sol - b).max() > ATOL or sol.min() < -ATOL:
            continue
        x = np.zeros(n)
        x[list(cols)] = sol
        key = tuple(np.round(x / ATOL).astype(np.int64))
        if key in seen:
            continue
        seen.add(key)
        full = np.zeros(mask.size)
        full[mask] = x
        vertices.append(full.reshape(pair.levels, pair.levels))
    return [JointProbabilityMatrix(entries=np.clip(v, 0.0, None)) for v in vertices]


def make_full_event(levels: int) -> EventSpec:
    """Whole-space event; handy as a placeholder objective."""
    return EventSpec(coeffs=(1,) * levels, label="Y0 in full space")


# --- the scalar closed forms: the reference for bounds.level_bounds -------------------

def classify_monotone(event: EventSpec, y: int) -> tuple[str, int | None]:
    """Classify an event by its coefficients at levels 0..y.

    Under monotonicity the control outcome cannot exceed the treated one, so
    only the head of the coefficient vector matters given evidence y.  Head
    patterns: all zeros (event impossible), all ones (event certain),
    (1,...,1,0) (complement of the evidence level), exactly one 1 at some
    y' <= y (single level); anything else takes the suffix-cut formula.
    """
    head = event.coeffs[: y + 1]
    if all(c == 0 for c in head):
        return "impossible", None
    if all(c == 1 for c in head):
        return "certain", None
    if head == (1,) * y + (0,):
        return "noteq", None
    if sum(head) == 1:
        return "eq", head.index(1)
    return "unsupported", None


def scalar_cell(facts, event: EventSpec, y: int, assumptions: Assumptions) -> tuple[float, float]:
    """One cell's (lower, upper) by the scalar formulas, one branch per family.

    The cell must carry an estimate: nonzero evidence, passing brackets for
    ``incr``, and under ``mono`` an event of a family or monotone-consistent
    data.
    """
    pair = facts.pair
    treated = pair.treated_law.probs
    control = pair.control_law.probs
    mass = pair.treated_law[y]
    assert mass > ATOL
    if assumptions is Assumptions.MARGINAL_ONLY:
        omega = float(event.vector @ control)
        lower = min(1.0, max(0.0, (mass - (1.0 - omega)) / mass))
        return lower, min(1.0, omega / mass)
    if assumptions is Assumptions.MONOTONIC_INCREMENT:
        assert facts.brackets.passed
        c_y = event.coeffs[y]
        if y == 0:
            return float(c_y), float(c_y)
        value = float(c_y + (event.coeffs[y - 1] - c_y) * facts.gaps[y - 1] / mass)
        return value, value
    kind, level = classify_monotone(event, y)
    if kind == "impossible":
        return 0.0, 0.0
    if kind == "certain":
        return 1.0, 1.0
    gaps = facts.gaps
    if kind == "unsupported":
        assert facts.mono_refusal is None
        head = np.array(event.coeffs[: y + 1], dtype=bool)
        reachable = control[: y + 1]
        in_s = np.cumsum(np.where(head, reachable, 0.0)[::-1])[::-1]
        in_c = np.cumsum(np.where(head, 0.0, reachable)[::-1])[::-1]
        cuts = np.concatenate(([0.0], gaps.gaps[:y]))
        lower = max(0.0, float((mass - cuts - in_c).max()) / mass)
        upper = min(1.0, float((in_s + cuts).min()) / mass)
    elif kind == "noteq":
        lower = max(0.0, (mass - control[y]) / mass)
        upper = min(1.0, gaps[y - 1] / mass)
    else:  # single level y' <= y
        y_prime = level
        lower = max(
            0.0,
            (mass + treated[:y_prime].sum() - control[: y + 1].sum() + control[y_prime])
            / mass,
        )
        terms = [1.0, control[y_prime] / mass]
        terms += [gaps[k - 1] / mass for k in range(y_prime + 1, y + 1)]
        upper = min(terms)
    return float(min(1.0, lower)), float(max(0.0, upper))


# --- the numpy-scalar bracket loop: the reference for identify.pair_facts -------------

def scalar_brackets(pair: MarginalPair) -> tuple[tuple[BracketCheck, ...], str | None]:
    """The gap brackets and the ``mono`` refusal note, one numpy scalar at a time."""
    treated = pair.treated_law.probs
    control = pair.control_law.probs
    gaps = gap_sequence(pair)
    checks = []
    for k in range(1, pair.levels):
        lower = max(0.0, treated[k] + control[k - 1] - 1.0)
        upper = min(treated[k], control[k - 1])
        gap = gaps[k - 1]
        checks.append(
            BracketCheck(
                k=k,
                lower=float(lower),
                gap=float(gap),
                upper=float(upper),
                within_bracket=bool(lower - ATOL <= gap <= upper + ATOL),
                diag_nonnegative=bool(treated[k] - gap >= -ATOL),
            )
        )
    bad = ", ".join(f"k={c.k}: gap {c.gap:.6g}" for c in checks if c.gap < -ATOL)
    note = "monotonicity falsified by the data: negative cumulative gap at " + bad
    return tuple(checks), note if bad else None
