"""Command line front end.

Loads count tables, runs the assumption ladder for the requested events and
evidence levels, and emits a machine-readable attribution report; with
--verify every reported cell is re-checked against sampled feasible joints
and endpoint witnesses.  Exit codes: 0 ok, 1 usage, 2 data error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import Any

import numpy as np

from . import bounds as bounds_mod
from . import identify as identify_mod
from . import ingest, oracle
from .core import (
    Assumptions,
    CausalAttributionError,
    EventSpec,
    MarginalPair,
    ZeroEvidenceError,
    evidence_mass,
    make_event,
)
from .lp import LpInfeasibleError, pn_bounds_lp

_SHARPNESS_TOL = 1e-6

USAGE_EXIT = 1
DATA_EXIT = 2
VERIFY_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_EXIT)


@dataclass
class AnalysisConfig:
    mode: str = "pn"
    route: str = "experimental"
    exp: str | None = None
    obs: str | None = None
    strata: str | None = None
    events: list[str] = field(default_factory=list)
    evidence: list[int] = field(default_factory=list)
    assume: str = "all"
    all_canonical: bool = False
    verify: bool = False
    samples: int = 10000
    seed: int = 42
    table: bool = False
    out: str | None = None
    inject_widen: float = 0.0


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="pnbounds",
        description=(
            "Point identification and sharp bounds for counterfactual event "
            "probabilities with ordinal outcomes."
        ),
    )
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--exp", help="experimental count table (csv or json)")
    parser.add_argument("--obs", help="observational count table (csv or json)")
    parser.add_argument("--strata", help="stratified observational tables (json)")
    parser.add_argument("--mode", choices=["pn", "pc"], default=None)
    parser.add_argument(
        "--route", choices=["experimental", "unconfounded"], default=None
    )
    parser.add_argument(
        "--event",
        action="append",
        dest="events",
        metavar="SPEC",
        help="noteq:y | eq:y' | lt:y | custom:<bits>; repeatable",
    )
    parser.add_argument(
        "--evidence", action="append", type=int, metavar="Y", help="repeatable"
    )
    parser.add_argument(
        "--assume", choices=["marginal", "mono", "incr", "all"], default=None
    )
    parser.add_argument(
        "--all-canonical",
        action="store_true",
        help="run the five canonical event families at every evidence level",
    )
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--table", action="store_true", help="render a plain-text grid"
    )
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument(
        "--inject-widen", type=float, default=None, help=argparse.SUPPRESS
    )
    return parser


def _merge_config(args: argparse.Namespace) -> AnalysisConfig:
    cfg = AnalysisConfig()
    if args.config:
        payload = ingest._read_json(args.config)
        if not isinstance(payload, dict):
            raise _UsageError(f"{args.config}: config must be a JSON object")
        flags = {action.dest: action for action in _build_parser()._actions}
        for key, value in payload.items():
            attr = key.replace("-", "_")
            if not hasattr(cfg, attr):
                raise _UsageError(f"unknown config key {key!r}")
            _check_config_value(key, value, flags[attr], getattr(cfg, attr))
            setattr(cfg, attr, value)
    for attr in ("mode", "route", "exp", "obs", "strata", "events", "evidence",
                 "assume", "samples", "seed", "out", "inject_widen"):
        value = getattr(args, attr)
        if value is not None:
            setattr(cfg, attr, value)
    cfg.all_canonical = cfg.all_canonical or args.all_canonical
    cfg.verify = cfg.verify or args.verify
    cfg.table = cfg.table or args.table
    return cfg


class _UsageError(Exception):
    pass


def _check_config_value(key: str, value: Any, flag: argparse.Action, default: Any) -> None:
    """Refuse a config value that its flag would refuse: one not of the
    flag's type (a list of them for a repeatable flag) or not among its
    choices.  A key left out leaves the value unset."""
    kind = bool if flag.nargs == 0 else flag.type or str
    items = value if isinstance(default, list) else [value]
    if not isinstance(items, list) or not all(
        (type(v) is kind or (kind is float and type(v) is int))
        and (flag.choices is None or v in flag.choices)
        for v in items
    ):
        raise _UsageError(f"config {key!r}: {value!r} is not valid for {flag.option_strings[0]}")


def _validate(cfg: AnalysisConfig) -> None:
    if cfg.mode == "pc":
        # causation always uses the randomized route
        if cfg.route == "unconfounded":
            raise _UsageError("--route unconfounded is a pn-mode option")
        if not cfg.exp:
            raise _UsageError("pc mode needs --exp")
    elif cfg.route == "unconfounded":
        if not cfg.strata:
            raise _UsageError("--route unconfounded needs --strata")
    else:
        if not cfg.exp or not cfg.obs:
            raise _UsageError("--route experimental needs --exp and --obs")
    if not cfg.all_canonical and not cfg.events:
        raise _UsageError("give --event (repeatable) or --all-canonical")
    if cfg.samples < 1:
        raise _UsageError("--samples must be at least 1")


def load_marginals(cfg: AnalysisConfig) -> tuple[MarginalPair, dict[str, Any]]:
    """Load input tables per the configured route; returns pair + provenance."""
    provenance: dict[str, Any] = {"route": cfg.route, "mode": cfg.mode}
    if cfg.mode == "pc":
        exp = ingest.load_table(cfg.exp, ingest.Source.EXPERIMENTAL)
        provenance["experimental_counts"] = exp.counts.astype(int).tolist()
        return ingest.randomized_margins(exp), provenance
    if cfg.route == "unconfounded":
        strata = ingest.load_strata_json(cfg.strata)
        provenance["strata_counts"] = {
            name: t.counts.astype(int).tolist() for name, t in strata.strata
        }
        return ingest.counterfactual_margin_unconfounded(strata), provenance
    exp = ingest.load_table(cfg.exp, ingest.Source.EXPERIMENTAL)
    obs = ingest.load_table(cfg.obs, ingest.Source.OBSERVATIONAL)
    provenance["experimental_counts"] = exp.counts.astype(int).tolist()
    provenance["observational_counts"] = obs.counts.astype(int).tolist()
    return ingest.counterfactual_margin_experimental(exp, obs), provenance


def parse_event(spec: str, levels: int) -> EventSpec:
    kind, _, arg = spec.partition(":")
    if kind == "custom":
        if not arg or any(ch not in "01" for ch in arg):
            raise _UsageError(f"bad custom event {spec!r}; expected custom:<bits>")
        return make_event("custom", levels, coeffs=[int(ch) for ch in arg])
    if kind not in ("noteq", "eq", "lt"):
        raise _UsageError(f"unknown event kind in {spec!r}")
    try:
        level = int(arg)
    except ValueError:
        raise _UsageError(f"bad event level in {spec!r}") from None
    return make_event(kind, levels, level=level)


def canonical_event_specs(levels: int, y: int) -> list[str]:
    """The five canonical families at evidence y (single-level one per level)."""
    return [f"noteq:{y}"] + [f"eq:{v}" for v in range(levels)] + [f"lt:{y}"]


def _assumption_list(word: str) -> list[Assumptions]:
    if word == "all":
        return [
            Assumptions.MONOTONIC_INCREMENT,
            Assumptions.MARGINAL_ONLY,
            Assumptions.MONOTONICITY,
        ]
    return [Assumptions(word)]


def run_analysis(
    cfg: AnalysisConfig,
    loaded: tuple[identify_mod.PairFacts, dict[str, Any]] | None = None,
) -> dict[str, Any]:
    """Produce the attribution report as a JSON-ready dict.

    Every numeric cell carries the method that produced it; identification
    under the one-level-lift assumption is refused (with the LP
    cross-confirmation) when the gap brackets fail, never extrapolated, and
    monotone cells are refused when a cumulative gap is negative.  Each
    assumption level takes one ``_level_cells`` pass (one LP cross-check per
    report), laid out per (event, evidence).  ``loaded`` holds the facts
    (``identify.pair_facts``) and the provenance of ``load_marginals(cfg)``
    when the caller already has them; otherwise both are computed here.
    """
    if loaded is None:
        pair, provenance = load_marginals(cfg)
        loaded = identify_mod.pair_facts(pair), provenance
    facts, provenance = loaded
    pair = facts.pair
    levels = pair.levels
    evidence = cfg.evidence or list(range(1, levels))
    for y in evidence:
        if not 0 <= y < levels:
            raise ingest.DataFormatError(
                f"evidence level {y} out of range for {levels} outcome levels"
            )
    if cfg.all_canonical:
        grid = [(spec, y) for y in evidence for spec in canonical_event_specs(levels, y)]
    else:
        grid = [(spec, y) for y in evidence for spec in cfg.events]
    report: dict[str, Any] = {
        "mode": cfg.mode,
        "route": "randomized" if cfg.mode == "pc" else cfg.route,
        "levels": levels,
        "provenance": provenance,
        "marginals": {
            "treated_law": pair.treated_law.probs.tolist(),
            "control_law": pair.control_law.probs.tolist(),
            "conditioning": pair.conditioning.value,
        },
        "gaps": facts.gaps.gaps.tolist(),
        "falsification": {
            "passed": facts.brackets.passed,
            "brackets": [
                {"k": c.k, "lower": c.lower, "gap": c.gap, "upper": c.upper, "ok": c.ok}
                for c in facts.brackets.checks
            ],
        },
        "monotone_consistent": facts.mono_refusal is None,
        "seed": cfg.seed,
        "cells": [],
    }
    specs = dict.fromkeys(spec for spec, _ in grid)
    events = {spec: parse_event(spec, levels) for spec in specs}
    rows = (np.array([events[spec].coeffs for spec, _ in grid]), np.array([y for _, y in grid]))
    zero = {}
    for y in evidence:
        try:
            evidence_mass(pair, y)
        except ZeroEvidenceError as exc:
            zero[y] = {"kind": "refused", "note": str(exc), "method": "none"}
    by_level = [(assumptions.value, _level_cells(facts, grid, events, rows, zero, assumptions))
                for assumptions in _assumption_list(cfg.assume)]
    report["cells"] = [
        {"event": spec, "label": events[spec].label, "evidence": y, "assumptions": value,
         **fields[i]}
        for i, (spec, y) in enumerate(grid) for value, fields in by_level
    ]
    return report


def _level_cells(
    facts: identify_mod.PairFacts,
    grid: list[tuple[str, int]],
    events: dict[str, EventSpec],
    rows: tuple[np.ndarray, np.ndarray],
    zero: dict[int, dict[str, str]],
    assumptions: Assumptions,
) -> list[dict[str, Any]]:
    """The result fields of one assumption level's cells, in grid order.

    ``rows`` holds the grid's event coefficients and evidence levels, and
    ``zero`` the refusal of each evidence level without treated mass.  A
    ``mono`` level on monotone-inconsistent data is refused before the
    evidence is checked; zero evidence comes before the ``incr`` refusal.
    Whether the ``incr`` polytope is empty does not depend on the event, so
    the first refused cell asks the LP and the others share its answer.
    The cells with an estimate take one ``bounds.level_bounds`` call.
    """
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
            cross_check = "feasible (inconsistent)"  # a bug: the brackets failed
        except LpInfeasibleError:
            cross_check = "infeasible"
        refusal = {"kind": "refused", "note": str(identify_mod.FalsificationError(facts.brackets)),
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


def verify_report(
    cfg: AnalysisConfig, facts: identify_mod.PairFacts, report: dict[str, Any]
) -> dict[str, Any]:
    """Re-check every cell by sampling and witness attainment.

    The samples depend only on the assumption level (the pair, the sample
    count and the seed are fixed), so one batch is drawn per level and
    shared by its cells, one level at a time.  The levels share the facts
    of the pair, those the report was built on.  A cell with an estimate
    whose level cannot be sampled fails the verification.
    """
    entries = [dict(cell) for cell in report["cells"]]
    by_level: dict[Assumptions, list[dict[str, Any]]] = {}
    for entry in entries:
        if entry["kind"] == "refused":
            entry["verification"] = "skipped: no estimate to verify"
        else:
            by_level.setdefault(Assumptions(entry["assumptions"]), []).append(entry)
    level_ok = [_verify_level(cfg, facts, a, cells) for a, cells in by_level.items()]
    return {"samples": cfg.samples, "seed": cfg.seed, "cells": entries, "passed": all(level_ok)}


def _verify_level(
    cfg: AnalysisConfig,
    facts: identify_mod.PairFacts,
    assumptions: Assumptions,
    entries: list[dict[str, Any]],
) -> bool:
    """Verify the cells of one assumption level in one pass over one batch.

    One ``oracle._Level`` draws the batch and ``oracle._check_cells``
    checks every cell on it: the level's witnesses are built in one batch,
    and the batch's rows of each evidence level are read once.
    """
    pair = facts.pair
    try:
        level = oracle._Level(facts, assumptions)
        samples = oracle._draw(level, cfg.samples, np.random.default_rng(cfg.seed))
    except oracle.SamplingError as exc:
        for entry in entries:
            entry["verification"] = f"skipped: {exc}"
        return False
    events = {s: parse_event(s, pair.levels) for s in {e["event"] for e in entries}}
    cells = []
    for entry in entries:
        if entry["kind"] == "point":
            lower = upper = entry["value"]
        else:
            lower, upper = entry["lower"], entry["upper"]
        claim = bounds_mod.BoundsResult(
            lower=max(0.0, lower - cfg.inject_widen),
            upper=min(1.0, upper + cfg.inject_widen),
            assumptions=assumptions,
            method=bounds_mod.Method.CLOSED_FORM,
        )
        cells.append((events[entry["event"]], entry["evidence"], claim))
    ok = True
    for entry, check in zip(entries, oracle._check_cells(level, samples, cells, cfg.seed)):
        sharp = (
            check.sharpness_gap_lower <= _SHARPNESS_TOL
            and check.sharpness_gap_upper <= _SHARPNESS_TOL
        )
        entry["verification"] = {
            "contained": check.contained,
            "max_violation": check.max_violation,
            "sharpness_gap_lower": check.sharpness_gap_lower,
            "sharpness_gap_upper": check.sharpness_gap_upper,
            "n_samples": check.n_samples,
            "sharp": sharp,
        }
        ok = ok and check.contained and sharp
    return ok


#: Exact types that the C encoder writes as ``json.dumps`` does
_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _layout(indent: str) -> tuple[str, str, Any]:
    inner = indent + "  "
    encode = json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
        None, ": ", "," + inner, False, False, True,
    )
    return inner, "," + inner, encode


def _dumps(obj: Any, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` byte for byte; its indent path is pure Python.

    Each container of scalars goes to the C encoder in one call, with the
    newline and indent of its depth in the item separator (an encoded value
    holds no raw newline).  So does each list of records (all non-empty
    dicts, or all non-empty lists, of scalars), at the records' depth; an
    encoded scalar never ends in '}' or ']', so the record boundaries are
    the only '}' + separator + '{' (or ']' ... '[') to re-indent.  Other
    containers are walked here.
    """
    inner, separator, encode = _layout(indent)
    is_dict = isinstance(obj, dict)
    if not (is_dict or isinstance(obj, (list, tuple))) or not obj:
        return "".join(encode(obj, 0))
    values = obj.values() if is_dict else obj
    kinds = set(map(type, values))
    if _SCALARS.issuperset(kinds):
        body = "".join(encode(obj, 0))[1:-1]
    elif not is_dict and (kinds == {dict} or kinds <= {list, tuple}) and all(obj) and (
        _SCALARS.issuperset(map(type, chain.from_iterable(
            map(dict.values, obj) if dict in kinds else obj)))
    ):
        fields, field_separator, encode = _layout(inner)
        start, end = "{}" if dict in kinds else "[]"
        records = "".join(encode(obj, 0))[2:-2].replace(
            end + field_separator + start, inner + end + separator + start + fields)
        body = start + fields + records + inner + end
    else:
        items = [_dumps(v, inner) for v in values]
        if is_dict:  # '{"key": 0}' -> '"key": '
            items = ["".join(encode({k: 0}, 0))[1:-2] + v for k, v in zip(obj, items)]
        body = separator.join(items)
    brackets = "{}" if is_dict else "[]"
    return brackets[0] + inner + body + indent + brackets[1]


def render_table(report: dict[str, Any]) -> str:
    """Plain-text grid: per evidence level, one row per assumption level."""
    levels = report["levels"]
    cells = report["cells"]
    by_key = {}
    families: dict[int, list[str]] = {}
    for cell in cells:
        y = cell["evidence"]
        families.setdefault(y, [])
        if cell["event"] not in families[y]:
            families[y].append(cell["event"])
        by_key[(cell["event"], y, cell["assumptions"])] = cell
    quantity = "PN" if report["mode"] == "pn" else "PC"
    lines = []
    row_specs = [
        (Assumptions.MONOTONIC_INCREMENT.value, "point (one-level lift)"),
        (Assumptions.MARGINAL_ONLY.value, "bounds (marginals only)"),
        (Assumptions.MONOTONICITY.value, "bounds (monotone)"),
    ]
    for y in sorted(families, reverse=True):
        fams = families[y]
        header = [f"{quantity}(w0, y={y})".ljust(24)] + [f.center(14) for f in fams]
        lines.append("  ".join(header))
        for key, title in row_specs:
            row = [title.ljust(24)]
            any_cell = False
            for fam in fams:
                cell = by_key.get((fam, y, key))
                if cell is None:
                    row.append(" " * 14)
                    continue
                any_cell = True
                if cell["kind"] == "point":
                    row.append(f"{cell['value']:.2f}".center(14))
                elif cell["kind"] == "interval":
                    row.append(
                        f"[{cell['lower']:.2f}, {cell['upper']:.2f}]".center(14)
                    )
                else:
                    row.append("refused".center(14))
            if any_cell:
                lines.append("  ".join(row))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merge_config(args)
        _validate(cfg)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ingest.DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    try:
        pair, provenance = load_marginals(cfg)
        facts = identify_mod.pair_facts(pair)
        report = run_analysis(cfg, (facts, provenance))
        if cfg.verify:
            report["verification"] = verify_report(cfg, facts, report)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except CausalAttributionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(_dumps(report) + "\n")
    if cfg.table:
        sys.stdout.write(render_table(report))
    elif not cfg.out:
        sys.stdout.write(_dumps(report) + "\n")
    if cfg.verify and not report["verification"]["passed"]:
        print("verification failed", file=sys.stderr)
        return VERIFY_EXIT
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
