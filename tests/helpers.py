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
    LpInfeasibleError,
    MarginalPair,
    OrdinalDistribution,
    SamplingError,
    Source,
    StratifiedTable,
    ZeroEvidenceError,
    allowed_mask,
    counterfactual_margin_experimental,
    make_event,
    pn_bounds_lp,
    randomized_margins,
)
from pnbounds import bounds as bounds_mod
from pnbounds.cli import _assumption_list, canonical_event_specs, parse_event
from pnbounds.core import evidence_mass
from pnbounds.identify import BracketCheck, FalsificationError, gap_sequence

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


def tied_staircase_joint(rng: np.random.Generator, levels: int) -> np.ndarray:
    """A staircase joint whose subdiagonal is empty at every other level, so
    those cumulative gaps tie at zero."""
    q = staircase_joint(rng, levels)
    for k in range(2, levels, 2):
        q[k, k - 1] = 0.0
    return q / q.sum()


def near_feasible_pair(rng: np.random.Generator, levels: int, assumptions: Assumptions) -> MarginalPair:
    """Marginals of a tied staircase joint, feasible at every level, after
    1e-12 to 0.1 of its mass, drawn log-uniform, moved onto one cell that
    ``assumptions`` forbids.  Where a cut tied at zero lies between the
    cell's row and column (most ``mono`` pairs, about half of ``incr``
    ones), the pair violates the level by about the share moved, so these
    pairs sweep across the ``ATOL`` band."""
    q = tied_staircase_joint(rng, levels)
    forbidden = np.argwhere(~allowed_mask(assumptions, levels))
    if forbidden.size:
        share = 10.0 ** rng.uniform(-12, -1)
        q *= 1.0 - share
        q[tuple(forbidden[rng.integers(len(forbidden))])] += share
    return pair_from_laws(q.sum(axis=1), q.sum(axis=0))


def least_violation(treated, control, assumptions: Assumptions) -> float:
    """The least mass that a joint with these margins puts off the cells the
    level allows, by its O(J) form.

    ``marginal`` allows every cell: 0.  ``mono``: the largest negative
    cumulative gap, max(0, max_k -gap_k), the least P(Y1 < Y0) (Makarov
    1981).  ``incr``: its allowed cells form the path r0-c0-r1-c1-..., and a
    greedy load from the leaf r0 carries the most a tree can (row k fills
    what column k-1 still takes, then its own column); the rest is off it.
    """
    treated = np.asarray(treated, dtype=float)
    control = np.asarray(control, dtype=float)
    if assumptions is Assumptions.MARGINAL_ONLY:
        return 0.0
    if assumptions is Assumptions.MONOTONICITY:
        return float(max(0.0, -np.cumsum(control - treated)[:-1].min(initial=0.0)))
    carried, room = 0.0, 0.0  # room: what column k-1 still takes
    for t, c in zip(treated.tolist(), control.tolist()):
        down = min(t, room)
        across = min(t - down, c)
        carried += down + across
        room = c - across
    return 1.0 - carried


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
    levels = pair.levels
    mask = allowed_mask(assumptions, levels)
    rows, cols = np.nonzero(mask)
    # the first J - 1 row sums, the first J - 1 column sums and the total
    a = np.vstack(
        [rows == k for k in range(levels - 1)]
        + [cols == l for l in range(levels - 1)]
        + [np.ones(rows.size, dtype=bool)]
    ).astype(float)
    b = np.concatenate(
        (pair.treated_law.probs[:-1], pair.control_law.probs[:-1], [1.0])
    )
    rank = np.linalg.matrix_rank(a)
    n = a.shape[1]
    vertices: list[np.ndarray] = []
    seen: set[tuple[int, ...]] = set()
    for subset in combinations(range(n), rank):
        sub = a[:, subset]
        if np.linalg.matrix_rank(sub) < rank:
            continue
        sol, *_ = np.linalg.lstsq(sub, b, rcond=None)
        if np.abs(sub @ sol - b).max() > ATOL or sol.min() < -ATOL:
            continue
        x = np.zeros(n)
        x[list(subset)] = sol
        key = tuple(np.round(x / ATOL).astype(np.int64))
        if key in seen:
            continue
        seen.add(key)
        full = np.zeros((levels, levels))
        full[rows, cols] = x
        vertices.append(full)
    return [JointProbabilityMatrix(entries=np.clip(v, 0.0, None)) for v in vertices]


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
    ``incr``, and monotone-consistent data for ``mono``.
    """
    pair = facts.pair
    treated = pair.treated_law.probs
    control = pair.control_law.probs
    mass = float(pair.treated_law.probs[y])
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
    assert facts.mono_refusal is None
    kind, level = classify_monotone(event, y)
    if kind == "impossible":
        return 0.0, 0.0
    if kind == "certain":
        return 1.0, 1.0
    gaps = facts.gaps
    if kind == "unsupported":
        head = np.array(event.coeffs[: y + 1], dtype=bool)
        reachable = control[: y + 1]
        in_s = np.cumsum(np.where(head, reachable, 0.0)[::-1])[::-1]
        in_c = np.cumsum(np.where(head, 0.0, reachable)[::-1])[::-1]
        cuts = np.concatenate(([0.0], gaps[:y]))
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


# --- the stratum loop: the reference for ingest.counterfactual_margin_unconfounded ---

def loop_unconfounded(strata: StratifiedTable) -> MarginalPair:
    """The unconfounded laws pooled one stratum at a time, in stratum order."""
    levels = strata.levels
    treated_counts = np.zeros(levels)
    control = np.zeros(levels)
    treated_totals = []
    control_laws = []
    for _, table in strata.strata:
        arms = table.counts.sum(axis=1).tolist()
        treated_counts += table.counts[1]
        treated_totals.append(arms[1])
        control_laws.append(table.counts[0] / arms[0])
    weights = np.asarray(treated_totals) / sum(treated_totals)
    for w, law in zip(weights, control_laws):
        control += w * law
    return MarginalPair(
        treated_law=OrdinalDistribution.from_counts(treated_counts),
        control_law=OrdinalDistribution(control),
        conditioning=Conditioning.GIVEN_TREATED,
    )


# --- the loop forms: the references for make_event and allowed_mask ---

def loop_event_bits(kind: str, levels: int, level: int) -> tuple[int, ...]:
    """A named family's coefficients, one level at a time."""
    if kind == "noteq":
        return tuple(0 if l == level else 1 for l in range(levels))
    if kind == "eq":
        return tuple(1 if l == level else 0 for l in range(levels))
    return tuple(1 if l < level else 0 for l in range(levels))  # lt


def loop_pinned_cells(assumptions: Assumptions, levels: int) -> list[tuple[int, int]]:
    """The pinned cells by a double loop over the J x J cells, row-major."""
    cells: list[tuple[int, int]] = []
    if assumptions is Assumptions.MARGINAL_ONLY:
        return cells
    for k in range(levels):
        for l in range(levels):
            if k < l or (assumptions is Assumptions.MONOTONIC_INCREMENT and k > l + 1):
                cells.append((k, l))
    return cells


def loop_allowed_mask(assumptions: Assumptions, levels: int) -> np.ndarray:
    mask = np.ones((levels, levels), dtype=bool)
    for k, l in loop_pinned_cells(assumptions, levels):
        mask[k, l] = False
    return mask


# --- the per-level field dicts and their merge: the reference for cli.run_analysis -------

def merged_report_cells(cfg, facts) -> list[dict]:
    """A report's cells as result fields per assumption level, one
    ``evidence_mass`` call per evidence level, merged into each cell's keys."""
    pair = facts.pair
    levels = pair.levels
    evidence = cfg.evidence or list(range(1, levels))
    if cfg.all_canonical:
        grid = [(spec, y) for y in evidence for spec in canonical_event_specs(levels, y)]
    else:
        grid = [(spec, y) for y in evidence for spec in cfg.events]
    specs = dict.fromkeys(spec for spec, _ in grid)
    events = {spec: parse_event(spec, levels) for spec in specs}
    rows = (np.array([events[spec].coeffs for spec, _ in grid]), np.array([y for _, y in grid]))
    zero = {}
    for y in evidence:
        try:
            evidence_mass(pair, y)
        except ZeroEvidenceError as exc:
            zero[y] = {"kind": "refused", "note": str(exc), "method": "none"}

    def level_fields(assumptions):
        if assumptions is Assumptions.MONOTONICITY and facts.mono_refusal is not None:
            refusal = {"kind": "refused", "note": facts.mono_refusal, "method": "closed-form"}
            return [refusal] * len(grid)
        fields = [zero.get(y) for _, y in grid]
        estimates = [i for i, refusal in enumerate(fields) if refusal is None]
        if not estimates:
            return fields
        if assumptions is Assumptions.MONOTONIC_INCREMENT and not facts.brackets.passed:
            spec, y = grid[estimates[0]]
            try:
                pn_bounds_lp(facts.pair, events[spec], y, assumptions)
                cross_check = "feasible (inconsistent)"
            except LpInfeasibleError:
                cross_check = "infeasible"
            refusal = {"kind": "refused", "note": str(FalsificationError(facts.brackets)),
                       "method": "point-identification", "lp_cross_check": cross_check}
            return [refusal if f is None else f for f in fields]
        lower, upper = bounds_mod.level_bounds(facts, *(a[estimates] for a in rows), assumptions)
        if assumptions is Assumptions.MONOTONIC_INCREMENT:
            for i, value in zip(estimates, lower.tolist()):
                fields[i] = {"kind": "point", "value": value, "method": "point-identification"}
        else:
            for i, lo, up in zip(estimates, lower.tolist(), upper.tolist()):
                fields[i] = {"kind": "interval", "lower": lo, "upper": up, "method": "closed-form"}
        return fields

    by_level = [(a.value, level_fields(a)) for a in _assumption_list(cfg.assume)]
    return [
        {"event": spec, "label": events[spec].label, "evidence": y, "assumptions": value,
         **fields[i]}
        for i, (spec, y) in enumerate(grid) for value, fields in by_level
    ]
