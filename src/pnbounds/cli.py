"""Command line front end.

Loads count tables, runs the assumption ladder for the requested events and
evidence levels, and emits a machine-readable attribution report; with
--verify every reported cell is re-checked against sampled feasible joints
and endpoint witnesses.  Exit codes: 0 ok, 1 usage, 2 data or file error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import Any

import numpy as np

from . import bounds as bounds_mod
from . import identify as identify_mod
from . import ingest, oracle
from .core import (
    ATOL,
    Assumptions,
    CausalAttributionError,
    EventSpec,
    MarginalPair,
    ZeroEvidenceError,
    make_event,
)
from .lp import polytope_empty

USAGE_EXIT = 1
DATA_EXIT = 2
VERIFY_EXIT = 3
#: The ``oracle.VerificationReport`` attributes of a checked cell's entry, in order
_CHECK_FIELDS = ("status", "contained", "max_violation", "sharpness_gap_lower",
                 "sharpness_gap_upper", "n_samples", "sharp")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _flag(default: Any = None, **keywords: Any) -> Any:
    """An ``AnalysisConfig`` field: its default, and its flag's ``add_argument``
    keywords as metadata (a list default is a fresh list per config)."""
    if isinstance(default, list):
        return field(default_factory=list, metadata=keywords)
    return field(default=default, metadata=keywords)


@dataclass
class AnalysisConfig:
    """Every flag but ``--config``, in ``--help`` order: ``--<name>`` with ``_``
    as ``-`` (``events`` is ``--event``), the name also being its config key."""

    exp: str | None = _flag(help="experimental count table (csv or json)")
    obs: str | None = _flag(help="observational count table (csv or json)")
    strata: str | None = _flag(help="stratified observational tables (json)")
    mode: str = _flag("pn", choices=["pn", "pc"])
    route: str = _flag("experimental", choices=["experimental", "unconfounded"])
    events: list[str] = _flag([], action="append", metavar="SPEC",
                              help="noteq:y | eq:y' | lt:y | custom:<bits>; repeatable")
    evidence: list[int] = _flag([], action="append", type=int, metavar="Y", help="repeatable")
    assume: str = _flag("all", choices=[a.value for a in Assumptions] + ["all"])
    all_canonical: bool = _flag(
        False, action="store_true",
        help="run the five canonical event families at every evidence level")
    verify: bool = _flag(False, action="store_true")
    samples: int = _flag(10000, type=int)
    seed: int = _flag(42, type=int)
    table: bool = _flag(False, action="store_true", help="render a plain-text grid")
    out: str | None = _flag(help="write the JSON report here")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="pnbounds",
        description=(
            "Point identification and sharp bounds for counterfactual event "
            "probabilities with ordinal outcomes."
        ),
        argument_default=argparse.SUPPRESS,  # a flag not given sets nothing
    )
    parser.add_argument("--config", help="JSON config file; flags override it")
    for f in fields(AnalysisConfig):
        name = "event" if f.name == "events" else f.name
        parser.add_argument("--" + name.replace("_", "-"), dest=f.name, **f.metadata)
    return parser


def _merge_config(args: argparse.Namespace) -> AnalysisConfig:
    """The defaults, then the checked config file, then every flag given."""
    cfg = AnalysisConfig()
    flags_given = dict(vars(args))
    path = flags_given.pop("config", None)
    if path:
        payload = ingest._read_json(path)
        if not isinstance(payload, dict):
            raise _UsageError(f"{path}: config must be a JSON object")
        flags = {action.dest: action for action in _build_parser()._actions}
        for key, value in payload.items():
            attr = key.replace("-", "_")
            if not hasattr(cfg, attr):
                raise _UsageError(f"unknown config key {key!r}")
            _check_config_value(key, value, flags[attr], getattr(cfg, attr))
            setattr(cfg, attr, value)
    for attr, value in flags_given.items():
        setattr(cfg, attr, value)
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
        type(v) is kind and (flag.choices is None or v in flag.choices) for v in items
    ):
        raise _UsageError(f"config {key!r}: {value!r} is not valid for {flag.option_strings[0]}")


def _validate(cfg: AnalysisConfig) -> None:
    if cfg.route == "unconfounded":
        if cfg.mode == "pc":  # causation always uses the randomized route
            raise _UsageError("--route unconfounded is a pn-mode option")
        if not cfg.strata:
            raise _UsageError("--route unconfounded needs --strata")
    elif cfg.mode == "pc" and not cfg.exp:
        raise _UsageError("pc mode needs --exp")
    elif cfg.mode == "pn" and not (cfg.exp and cfg.obs):
        raise _UsageError("--route experimental needs --exp and --obs")
    if not cfg.all_canonical and not cfg.events:
        raise _UsageError("give --event (repeatable) or --all-canonical")
    if cfg.samples < 1:
        raise _UsageError("--samples must be at least 1")
    if cfg.verify and cfg.seed < 0:  # without --verify the seed is only echoed
        raise _UsageError("--seed must be nonnegative with --verify")


def load_marginals(cfg: AnalysisConfig) -> tuple[MarginalPair, dict[str, Any]]:
    """Load input tables per the configured route; returns pair + provenance."""
    provenance: dict[str, Any] = {"route": cfg.route, "mode": cfg.mode}
    if cfg.route == "unconfounded":
        strata = ingest.load_strata_json(cfg.strata)
        provenance["strata_counts"] = {
            name: t.counts.astype(int).tolist() for name, t in strata.strata
        }
        return ingest.counterfactual_margin_unconfounded(strata), provenance
    exp = ingest.load_table(cfg.exp, ingest.Source.EXPERIMENTAL)
    provenance["experimental_counts"] = exp.counts.astype(int).tolist()
    if cfg.mode == "pc":
        return ingest.randomized_margins(exp), provenance
    obs = ingest.load_table(cfg.obs, ingest.Source.OBSERVATIONAL)
    provenance["observational_counts"] = obs.counts.astype(int).tolist()
    return ingest.counterfactual_margin_experimental(exp, obs), provenance


def parse_event(spec: str, levels: int) -> EventSpec:
    kind, _, arg = spec.partition(":")
    if kind == "custom":
        if not arg or arg.strip("01"):
            raise _UsageError(f"bad custom event {spec!r}; expected custom:<bits>")
        return make_event("custom", levels, coeffs=arg)
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
    """The levels of ``--assume``; ``all`` is every level in ``_ROW_TITLES``' order."""
    return [Assumptions(v) for v in (_ROW_TITLES if word == "all" else [word])]


def run_analysis(
    cfg: AnalysisConfig, loaded: tuple[identify_mod.PairFacts, dict[str, Any]]
) -> dict[str, Any]:
    """Produce the attribution report as a JSON-ready dict.

    Every numeric cell carries the method that produced it; identification
    under the one-level-lift assumption is refused (with the LP
    cross-confirmation) when the gap brackets fail, never extrapolated, and
    monotone cells are refused when a cumulative gap is negative.  Each
    assumption level takes one ``_level_cells`` pass (one LP emptiness test
    per report), laid out per (event, evidence).  ``loaded`` holds the facts
    (``identify.pair_facts``) and the provenance of ``load_marginals(cfg)``.
    The levels share those facts and the events, each parsed once.  With
    ``cfg.verify`` the report ends in a ``verification`` object (``samples``,
    ``seed``, the checked ``cells``, and ``passed``: false when one failed or
    was skipped); a batch over ``oracle.BATCH_BUDGET`` entries is refused
    after the evidence and event checks, before any level is built.
    """
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
        "gaps": facts.gaps.tolist(),
        "falsification": {
            "passed": facts.passed,
            "brackets": [
                {"k": k, "lower": lower, "gap": gap, "upper": upper, "ok": within and diag}
                for k, lower, gap, upper, within, diag in facts.cuts
            ],
        },
        "monotone_consistent": facts.mono_refusal is None,
        "seed": cfg.seed,
        "cells": [],
    }
    events = {spec: parse_event(spec, levels) for spec in dict.fromkeys(spec for spec, _ in grid)}
    if cfg.verify and cfg.samples * levels * levels > oracle.BATCH_BUDGET:
        raise _UsageError(f"--verify: --samples {cfg.samples} draws of {levels} x {levels} joints "
                          f"exceed the batch budget of {oracle.BATCH_BUDGET} entries (2**27)")
    rows = (np.array([events[spec].coeffs for spec, _ in grid]), np.array([y for _, y in grid]))
    treated = pair.treated_law.probs.tolist()
    zero = {y: str(ZeroEvidenceError.at_level(y)) for y in evidence if treated[y] <= ATOL}
    verify = (cfg.samples, cfg.seed) if cfg.verify else None
    by_level = [_level_cells(facts, grid, events, rows, zero, assumptions, verify)
                for assumptions in _assumption_list(cfg.assume)]
    report["cells"], entries = ([cell for row in zip(*level) for cell in row]
                                for level in zip(*by_level))
    if cfg.verify:
        passed = not any(e["verification"]["status"] in ("failed", "skipped") for e in entries)
        report["verification"] = {"samples": cfg.samples, "seed": cfg.seed, "cells": entries,
                                  "passed": passed}
    return report


def _level_cells(
    facts: identify_mod.PairFacts,
    grid: list[tuple[str, int]],
    events: dict[str, EventSpec],
    rows: tuple[np.ndarray, np.ndarray],
    zero: dict[int, str],
    assumptions: Assumptions,
    verify: tuple[int, int] | None,
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """One assumption level's report cells and ``--verify`` entries, in grid order.

    ``rows`` holds the grid's event coefficients and evidence levels, and
    ``zero`` the refusal note of each evidence level without treated mass.
    The rows with evidence take one ``bounds.level_bounds`` call, and the
    cells render its bounds or its refusal: ``UnsupportedEventError`` for
    the whole level, zero evidence included, or ``FalsificationError`` for
    the cells with evidence, which share one answer of ``lp.polytope_empty``
    (emptiness depends on no event or evidence level).  Each cell is built
    once, its keys in report order.

    ``verify`` is ``--verify``'s sample count and seed.  The samples depend
    only on the level, so its estimates go to one ``oracle.verify_cells``
    call, which draws the level's batch, builds its witnesses in one batch
    and reads each evidence level's rows once.  Each claim is its row's
    bounds clamped to [0, 1] (the reported ``incr`` point is not), a point
    being both ends.  Each entry is its cell plus a ``verification`` object,
    the oracle's status first: ``ok`` or ``failed``; ``refused`` for a
    refused cell; ``skipped`` for each estimate of a level it cannot sample.
    """
    assume = assumptions.value
    incr = assumptions is Assumptions.MONOTONIC_INCREMENT
    method = "point-identification" if incr else "closed-form"

    def refused(note: str, **extra: Any) -> list[dict[str, Any]]:
        return [{"event": s, "label": events[s].label, "evidence": y, "assumptions": assume,
                 "kind": "refused", "note": note, "method": method, **extra} for s, y in grid]

    # the rows with evidence (the others are refused below); a slice copies nothing
    keep = [y not in zero for _, y in grid] if zero else slice(None)
    lower, upper = np.zeros((2, len(grid)))
    checks: dict[int, dict[str, Any]] = {}  # the --verify check of each row with an estimate
    try:
        lower[keep], upper[keep] = bounds_mod.level_bounds(
            facts, *(r[keep] for r in rows), assumptions)
    except bounds_mod.UnsupportedEventError as exc:
        cells, zero = refused(str(exc)), {}  # its note on every cell, zero evidence too
    except identify_mod.FalsificationError as exc:
        empty = polytope_empty(facts.pair, assumptions)  # not empty is a bug: the brackets failed
        cells = refused(str(exc),
                        lp_cross_check="infeasible" if empty else "feasible (inconsistent)")
    else:
        lows, ups = lower.tolist(), upper.tolist()
        if incr:
            cells = [{"event": s, "label": events[s].label, "evidence": y, "assumptions": assume,
                      "kind": "point", "value": v, "method": method}
                     for (s, y), v in zip(grid, lows)]
        else:
            cells = [{"event": s, "label": events[s].label, "evidence": y, "assumptions": assume,
                      "kind": "interval", "lower": lo, "upper": up, "method": method}
                     for (s, y), lo, up in zip(grid, lows, ups)]
        estimated = [i for i, (_, y) in enumerate(grid) if y not in zero] if verify else []
        if estimated:
            claims = [(events[grid[i][0]], grid[i][1], max(0.0, lows[i]), min(1.0, ups[i]))
                      for i in estimated]
            try:
                found = oracle.verify_cells(facts, assumptions, claims, *verify)
                checks = {i: {name: getattr(check, name) for name in _CHECK_FIELDS}
                          for i, check in zip(estimated, found)}
            except oracle.SamplingError as exc:
                checks = {i: {"status": "skipped", "reason": str(exc)} for i in estimated}
    if zero:
        for i, (s, y) in enumerate(grid):
            if y in zero:
                cells[i] = {"event": s, "label": events[s].label, "evidence": y,
                            "assumptions": assume, "kind": "refused", "note": zero[y],
                            "method": "none"}
    return cells, [{**cell, "verification": checks.get(i) or {
        "status": "refused", "reason": "no estimate to verify"}} for i, cell in enumerate(cells)
    ] if verify else []


#: Exact types that the C encoder writes as ``json.dumps`` does
_SCALARS = frozenset({str, int, float, bool, type(None)})
_encode_str = json.encoder.encode_basestring_ascii  # keys and values alike


@functools.cache
def _layout(indent: str) -> tuple[str, str, Any]:
    inner = indent + "  "
    encode = json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, _encode_str,
        None, ": ", "," + inner, False, False, True,
    )
    return inner, "," + inner, encode


def _dumps(obj: Any, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` byte for byte on what a report holds:
    dicts with str keys, lists and scalars (no tuples, subclasses or other
    keys); its indent path is pure Python.

    Each container of scalars goes to the C encoder in one call, with the
    newline and indent of its depth in the item separator (an encoded value
    holds no raw newline).  So does each list of records (all non-empty
    dicts, or all non-empty lists, of scalars), at the records' depth; an
    encoded scalar never ends in '}' or ']', so the record boundaries are
    the only '}' + separator + '{' (or ']' ... '[') to re-indent.  Other
    containers are walked here.
    """
    inner, separator, encode = _layout(indent)
    is_dict = type(obj) is dict
    if not (is_dict or type(obj) is list) or not obj:
        return "".join(encode(obj, 0))
    kinds = set(map(type, obj.values() if is_dict else obj))
    if _SCALARS.issuperset(kinds):
        body = "".join(encode(obj, 0))[1:-1]
    elif not is_dict and kinds in ({dict}, {list}) and all(obj) and (
        _SCALARS.issuperset(map(type, chain.from_iterable(
            map(dict.values, obj) if dict in kinds else obj)))
    ):
        fields, field_separator, encode = _layout(inner)
        start, end = "{}" if dict in kinds else "[]"
        records = "".join(encode(obj, 0))[2:-2].replace(
            end + field_separator + start, inner + end + separator + start + fields)
        body = start + fields + records + inner + end
    else:
        body = separator.join([_encode_str(k) + ": " + _dumps(v, inner) for k, v in obj.items()]
                              if is_dict else [_dumps(v, inner) for v in obj])
    brackets = "{}" if is_dict else "[]"
    return brackets[0] + inner + body + indent + brackets[1]


#: The ``--table`` title of each assumption level's row, in the report's order
_ROW_TITLES = {
    Assumptions.MONOTONIC_INCREMENT.value: "point (one-level lift)",
    Assumptions.MARGINAL_ONLY.value: "bounds (marginals only)",
    Assumptions.MONOTONICITY.value: "bounds (monotone)",
}
#: The ``--table`` text of a cell of each kind, filled from the cell's fields
_CELL_TEXT = {"point": "{value:.2f}", "interval": "[{lower:.2f}, {upper:.2f}]",
              "refused": "refused"}


def render_table(report: dict[str, Any]) -> str:
    """Plain-text grid: per evidence level, from the top, one column per
    event (first seen first) and one row per assumption level with a cell."""
    by_key = {}
    events: dict[int, dict[str, None]] = {}
    for cell in report["cells"]:
        by_key[cell["event"], cell["evidence"], cell["assumptions"]] = cell
        events.setdefault(cell["evidence"], {})[cell["event"]] = None
    quantity = "PN" if report["mode"] == "pn" else "PC"
    lines = []
    for y in sorted(events, reverse=True):
        lines.append("  ".join([f"{quantity}(w0, y={y})".ljust(24)]
                               + [event.center(14) for event in events[y]]))
        for assume, title in _ROW_TITLES.items():
            cells = [by_key.get((event, y, assume)) for event in events[y]]
            if any(cells):
                lines.append("  ".join([title.ljust(24)] + [  # a blank cell is 14 spaces
                    (_CELL_TEXT[c["kind"]].format_map(c) if c else "").center(14) for c in cells]))
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
        pair, provenance = load_marginals(cfg)
        report = run_analysis(cfg, (identify_mod.pair_facts(pair), provenance))
    except (_UsageError, CausalAttributionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT if isinstance(exc, _UsageError) else DATA_EXIT
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(_dumps(report) + "\n")
        except OSError as exc:
            print(f"error: {cfg.out}: {exc}", file=sys.stderr)
            return DATA_EXIT
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
