"""Load contingency tables and identify the counterfactual marginal pair.

Two identification routes produce the control-outcome law among treated
units: an external randomized experiment combined with the observational
treated/control split, or a stratified observational table under
unconfoundedness.  A third route reads a single randomized experiment and
returns unconditional laws for causation analyses.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any

import numpy as np

from .core import (
    ATOL,
    CausalAttributionError,
    Conditioning,
    MarginalPair,
    OrdinalDistribution,
    _readonly,
)


#: Largest count accepted: exact in a float, and any larger integer reads as >= 2**53.
MAX_COUNT = 2**53 - 1


class DataFormatError(CausalAttributionError):
    """An input file cannot be parsed; message carries file and line."""


class EmptyArmError(CausalAttributionError):
    """A treatment arm required by the computation has no observations."""


class IncompatibleSourcesError(CausalAttributionError):
    """The identification formula produced a non-probability.

    Happens when the experimental and observational sources cannot have come
    from the same population (a control-law entry lands outside [0, 1] by
    more than tolerance).
    """


class Source(Enum):
    EXPERIMENTAL = "experimental"
    OBSERVATIONAL = "observational"


@dataclass(frozen=True)
class ContingencyTable:
    """2 x J count table; row index is the treatment arm z, column the level y."""

    counts: np.ndarray
    source: Source

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=float)
        if counts.ndim != 2 or counts.shape[0] != 2 or counts.shape[1] < 2:
            raise DataFormatError(f"need a 2 x J table with J >= 2, got {counts.shape}")
        # NaN is not >= 0; +inf passes as an integer, then exceeds MAX_COUNT
        if not counts.min() >= 0 or (counts != np.floor(counts)).any():
            raise DataFormatError("counts must be nonnegative integers")
        if counts.max() > MAX_COUNT:
            raise DataFormatError(f"counts must not exceed 2**53 - 1 = {MAX_COUNT}")
        arms = counts.sum(axis=1)
        if arms.max() <= 0:
            raise DataFormatError("table is empty")
        if arms.min() <= 0:
            raise DataFormatError("each treatment arm needs at least one observation")
        object.__setattr__(self, "counts", _readonly(counts))

    @property
    def levels(self) -> int:
        return int(self.counts.shape[1])

    def arm_total(self, z: int) -> float:
        return float(self.counts[z].sum())

    @property
    def total(self) -> float:
        return float(self.counts.sum())


@dataclass(frozen=True)
class StratifiedTable:
    """Observational counts split by a discrete covariate stratum."""

    strata: tuple[tuple[str, ContingencyTable], ...]

    def __post_init__(self):
        if not self.strata:
            raise DataFormatError("no strata given")
        levels = {t.levels for _, t in self.strata}
        if len(levels) != 1:
            raise DataFormatError(f"strata disagree on level count: {sorted(levels)}")
        for name, table in self.strata:
            if table.source is not Source.OBSERVATIONAL:
                raise DataFormatError(f"stratum {name!r} is not observational")
        object.__setattr__(self, "strata", tuple(self.strata))

    @property
    def levels(self) -> int:
        return self.strata[0][1].levels


def empirical_margin(table: ContingencyTable, z: int) -> OrdinalDistribution:
    """Empirical outcome law within one treatment arm."""
    if z not in (0, 1):
        raise DataFormatError(f"treatment arm must be 0 or 1, got {z}")
    if table.arm_total(z) <= 0:
        raise EmptyArmError(f"arm z={z} has no observations")
    return OrdinalDistribution.from_counts(table.counts[z])


def counterfactual_margin_experimental(
    exp: ContingencyTable, obs: ContingencyTable
) -> MarginalPair:
    """Identify the control law among treated units from an external experiment.

    The experiment's control arm identifies the unconditional control-outcome
    law, from which the observational joint (z, y) frequencies peel off the
    control stratum:

        control_law[y] = (pr_exp(Y=y | Z=0) - pr_obs(Z=0, Y=y)) / pr_obs(Z=1)

    Entries in [-tol, 0) are clamped to zero and the law renormalized (float
    noise from count ratios); anything further outside [0, 1] means the two
    sources are incompatible and is a hard error.
    """
    if exp.source is not Source.EXPERIMENTAL:
        raise DataFormatError("first table must be experimental")
    if obs.source is not Source.OBSERVATIONAL:
        raise DataFormatError("second table must be observational")
    if exp.levels != obs.levels:
        raise DataFormatError(
            f"level counts differ: experimental {exp.levels}, observational {obs.levels}"
        )
    pr_z1 = obs.arm_total(1) / obs.total
    if pr_z1 <= 0:
        raise EmptyArmError("observational source has no treated units")
    pr_exp_control = empirical_margin(exp, 0).probs
    pr_obs_joint_z0 = obs.counts[0] / obs.total
    raw = (pr_exp_control - pr_obs_joint_z0) / pr_z1
    if raw.min() < -ATOL or raw.max() > 1 + ATOL:
        bad = int(np.argmin(raw)) if raw.min() < -ATOL else int(np.argmax(raw))
        raise IncompatibleSourcesError(
            f"control-law entry at level {bad} is {raw[bad]:.6g}, outside [0, 1]: "
            "the experimental and observational sources are incompatible"
        )
    clipped = np.clip(raw, 0.0, None)
    control = OrdinalDistribution(clipped / clipped.sum())
    return MarginalPair(
        treated_law=empirical_margin(obs, 1),
        control_law=control,
        conditioning=Conditioning.GIVEN_TREATED,
    )


def counterfactual_margin_unconfounded(strata: StratifiedTable) -> MarginalPair:
    """Identify the control law among treated units by stratum reweighting.

    control_law[y] = sum_x pr(Y=y | Z=0, x) * pr(x | Z=1).  Requires every
    stratum to contain both arms (overlap); the treated law pools treated
    counts across strata.
    """
    levels = strata.levels
    treated_counts = np.zeros(levels)
    control = np.zeros(levels)
    treated_totals = []
    control_laws = []
    for name, table in strata.strata:
        for z in (0, 1):
            if table.arm_total(z) <= 0:
                raise EmptyArmError(
                    f"stratum {name!r} has no units with z={z} (overlap violated)"
                )
        treated_counts += table.counts[1]
        treated_totals.append(table.arm_total(1))
        control_laws.append(empirical_margin(table, 0).probs)
    weights = np.asarray(treated_totals) / sum(treated_totals)
    for w, law in zip(weights, control_laws):
        control += w * law
    return MarginalPair(
        treated_law=OrdinalDistribution.from_counts(treated_counts),
        control_law=OrdinalDistribution(control),
        conditioning=Conditioning.GIVEN_TREATED,
    )


def randomized_margins(exp: ContingencyTable) -> MarginalPair:
    """Unconditional potential-outcome laws from a randomized experiment.

    Randomization makes each arm's empirical law identify the corresponding
    unconditional potential-outcome law, the inputs for causation analyses.
    """
    if exp.source is not Source.EXPERIMENTAL:
        raise DataFormatError("randomized margins need an experimental table")
    return MarginalPair(
        treated_law=empirical_margin(exp, 1),
        control_law=empirical_margin(exp, 0),
        conditioning=Conditioning.UNCONDITIONAL,
    )


# ---------------------------------------------------------------------------
# File loading.  CSV is long form with header z,y,count; JSON carries explicit
# 2 x J arrays (row 0 = control arm, row 1 = treated arm).  Strata come as a
# JSON list of {"id": ..., "counts": [[...], [...]]} objects.
# ---------------------------------------------------------------------------


def load_table_csv(path: str | Path, source: Source) -> ContingencyTable:
    path = Path(path)
    cells: dict[tuple[int, int], float] = {}
    max_y = -1
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header] != ["z", "y", "count"]:
                raise DataFormatError(f"{path}:1: expected header 'z,y,count'")
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                try:
                    z, y, count = int(row[0]), int(row[1]), int(row[2])
                except (ValueError, IndexError):
                    raise DataFormatError(
                        f"{path}:{lineno}: expected integers 'z,y,count', got {row}"
                    ) from None
                if z not in (0, 1):
                    raise DataFormatError(f"{path}:{lineno}: z must be 0 or 1, got {z}")
                if y < 0 or count < 0:
                    raise DataFormatError(f"{path}:{lineno}: negative y or count")
                if count > MAX_COUNT:
                    raise DataFormatError(
                        f"{path}:{lineno}: count exceeds 2**53 - 1 = {MAX_COUNT}"
                    )
                if (z, y) in cells:
                    raise DataFormatError(f"{path}:{lineno}: duplicate cell z={z}, y={y}")
                cells[(z, y)] = count
                max_y = max(max_y, y)
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    if max_y < 1:
        raise DataFormatError(f"{path}: need at least 2 outcome levels")
    counts = np.zeros((2, max_y + 1))
    for (z, y), count in cells.items():
        counts[z, y] = count
    return ContingencyTable(counts=counts, source=source)


def _read_json(path: str | Path) -> Any:
    """Decode one JSON file; an error names ``path`` as the caller passed it."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc


def load_table_json(path: str | Path, source: Source) -> ContingencyTable:
    path = Path(path)
    payload = _read_json(path)
    counts = payload.get("counts") if isinstance(payload, dict) else payload
    try:
        return ContingencyTable(counts=np.asarray(counts, dtype=float), source=source)
    except (TypeError, ValueError, OverflowError, DataFormatError) as exc:
        raise DataFormatError(f"{path}: bad counts layout: {exc}") from exc


def load_table(path: str | Path, source: Source) -> ContingencyTable:
    """Dispatch on extension: .json loads JSON, anything else long-form CSV."""
    if str(path).endswith(".json"):
        return load_table_json(path, source)
    return load_table_csv(path, source)


def load_strata_json(path: str | Path) -> StratifiedTable:
    path = Path(path)
    payload = _read_json(path)
    if not isinstance(payload, list):
        raise DataFormatError(f"{path}: expected a JSON list of strata")
    strata = []
    for i, item in enumerate(payload):
        if not isinstance(item, dict) or "counts" not in item:
            raise DataFormatError(f"{path}: stratum {i} lacks a 'counts' field")
        name = str(item.get("id", i))
        try:
            table = ContingencyTable(
                counts=np.asarray(item["counts"], dtype=float),
                source=Source.OBSERVATIONAL,
            )
        except (TypeError, ValueError, OverflowError, DataFormatError) as exc:
            raise DataFormatError(f"{path}: stratum {name!r}: {exc}") from exc
        strata.append((name, table))
    return StratifiedTable(strata=tuple(strata))
