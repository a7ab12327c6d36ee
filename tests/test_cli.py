import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnbounds import (
    Assumptions,
    FalsificationError,
    LpInfeasibleError,
    Source,
    UnsupportedEventError,
    ZeroEvidenceError,
    load_table,
    make_event,
    pn_bounds_lp,
    pn_bounds_marginal,
    pn_bounds_monotone,
    pn_point,
    randomized_margins,
)
from pnbounds import cli
from pnbounds.core import ATOL
from pnbounds.identify import pair_facts
from pnbounds.cli import (
    AnalysisConfig,
    _dumps,
    load_marginals,
    main,
    parse_event,
    render_table,
    run_analysis,
)
from helpers import lalonde_pair, merged_report_cells

DATA = Path(__file__).parent / "data"
EXP = str(DATA / "lalonde_experimental.csv")
OBS = str(DATA / "lalonde_observational.csv")
STRATA = str(DATA / "strata_example.json")


def run(args):
    return main(args)


def report_from(tmp_path, args):
    out = tmp_path / "report.json"
    code = main(args + ["--out", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


def analysis(cfg):
    """``run_analysis`` on the facts and provenance that ``main`` loads for ``cfg``."""
    pair, provenance = load_marginals(cfg)
    return run_analysis(cfg, (pair_facts(pair), provenance))


def cell_index(report):
    return {
        (c["event"], c["evidence"], c["assumptions"]): c for c in report["cells"]
    }


# --- happy paths -----------------------------------------------------------------

def test_canonical_grid_exit_zero(tmp_path):
    code, report = report_from(
        tmp_path, ["--exp", EXP, "--obs", OBS, "--all-canonical"]
    )
    assert code == 0
    assert report["levels"] == 3
    assert report["falsification"]["passed"] is True
    # 2 evidence levels x 5 families x 3 assumption rows
    assert len(report["cells"]) == 30
    cells = cell_index(report)
    point = cells[("eq:2", 2, "incr")]
    assert point["kind"] == "point"
    assert point["value"] == pytest.approx(0.83, abs=0.005)
    assert point["method"] == "point-identification"
    marginal = cells[("noteq:2", 2, "marginal")]
    assert (marginal["lower"], marginal["upper"]) == (
        pytest.approx(0.17, abs=0.005),
        pytest.approx(0.88, abs=0.005),
    )
    mono = cells[("eq:0", 1, "mono")]
    assert (mono["lower"], mono["upper"]) == (
        pytest.approx(0.31, abs=0.005),
        pytest.approx(0.89, abs=0.005),
    )
    assert mono["method"] == "closed-form"


def test_json_counts_inputs_match_csv(tmp_path):
    code_csv, rep_csv = report_from(
        tmp_path, ["--exp", EXP, "--obs", OBS, "--all-canonical"]
    )
    code_json, rep_json = report_from(
        tmp_path,
        [
            "--exp", str(DATA / "lalonde_experimental.json"),
            "--obs", str(DATA / "lalonde_observational.json"),
            "--all-canonical",
        ],
    )
    assert code_csv == code_json == 0
    assert rep_csv["cells"] == rep_json["cells"]


def test_single_event_and_assumption(tmp_path):
    code, report = report_from(
        tmp_path,
        ["--exp", EXP, "--obs", OBS, "--event", "noteq:2", "--evidence", "2",
         "--assume", "marginal"],
    )
    assert code == 0
    assert len(report["cells"]) == 1
    assert report["cells"][0]["assumptions"] == "marginal"


def test_custom_event_spec(tmp_path):
    code, report = report_from(
        tmp_path,
        ["--exp", EXP, "--obs", OBS, "--event", "custom:101", "--evidence", "2",
         "--assume", "mono"],
    )
    assert code == 0
    (cell,) = report["cells"]
    assert cell["method"] == "closed-form"  # the general monotone formula
    reference = pn_bounds_lp(
        lalonde_pair(), make_event("custom", 3, coeffs=[1, 0, 1]), 2,
        Assumptions.MONOTONICITY,
    )
    assert abs(cell["lower"] - reference.lower) <= 1e-9
    assert abs(cell["upper"] - reference.upper) <= 1e-9


def test_unconfounded_route(tmp_path):
    code, report = report_from(
        tmp_path,
        ["--route", "unconfounded", "--strata", STRATA, "--all-canonical"],
    )
    assert code == 0
    assert report["route"] == "unconfounded"
    assert "strata_counts" in report["provenance"]


def test_pc_mode(tmp_path):
    code, report = report_from(
        tmp_path, ["--mode", "pc", "--exp", EXP, "--all-canonical"]
    )
    assert code == 0
    assert report["mode"] == "pc"
    assert report["marginals"]["conditioning"] == "unconditional"
    cells = cell_index(report)
    assert cells[("lt:2", 2, "incr")]["value"] == pytest.approx(0.110, abs=1e-3)


def test_table_rendering():
    cfg = AnalysisConfig(exp=EXP, obs=OBS, all_canonical=True)
    table = render_table(analysis(cfg))
    assert "PN(w0, y=2)" in table and "PN(w0, y=1)" in table
    assert "[0.17, 0.88]" in table and "0.83" in table
    assert "[0.31, 0.89]" in table


def test_report_is_deterministic(tmp_path):
    _, first = report_from(tmp_path, ["--exp", EXP, "--obs", OBS, "--all-canonical"])
    _, second = report_from(tmp_path, ["--exp", EXP, "--obs", OBS, "--all-canonical"])
    assert first == second


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"exp": EXP, "obs": OBS, "all-canonical": True, "assume": "incr"})
    )
    code, report = report_from(
        tmp_path, ["--config", str(cfg_path), "--assume", "marginal"]
    )
    assert code == 0
    assert {c["assumptions"] for c in report["cells"]} == {"marginal"}


# Per field: another value, and a value that differs from it and from the
# default.  A switch's flag can only set it, so its other value is false.
_FLAG_VALUES = {
    "mode": ("pn", "pc"),
    "route": ("experimental", "unconfounded"),
    "exp": ("a.csv", "b.csv"),
    "obs": ("a.csv", "b.csv"),
    "strata": ("a.json", "b.json"),
    "events": (["eq:0"], ["lt:1", "custom:101"]),
    "evidence": ([1], [2, 0]),
    "assume": ("mono", "incr"),
    "all_canonical": (False, True),
    "verify": (False, True),
    "samples": (10, 20),
    "seed": (1, 2),
    "table": (False, True),
    "out": ("a.json", "b.json"),
}
_SWITCHES = ("all_canonical", "verify", "table")


def _flag_argv(attr, value):
    flag = "--event" if attr == "events" else "--" + attr.replace("_", "-")
    if attr in _SWITCHES:
        return [flag]
    if isinstance(value, list):
        return [arg for v in value for arg in (flag, str(v))]
    return [flag, str(value)]


def test_every_config_field_has_a_precedence_case():
    assert set(_FLAG_VALUES) == {f.name for f in fields(AnalysisConfig)}


@pytest.mark.parametrize("attr,case", [
    (attr, case) for attr in _FLAG_VALUES
    for case in ("config", "flag", "both", "config-true")
    if case != "config-true" or attr in _SWITCHES
])
def test_a_flag_overrides_its_config_value(tmp_path, attr, case):
    other, value = _FLAG_VALUES[attr]
    payload = {"config": {attr: value}, "flag": {}, "both": {attr: other},
               "config-true": {attr: True}}[case]
    argv = _flag_argv(attr, value) if case in ("flag", "both") else []
    expected = {attr: value}  # a switch's value is true
    if case == "config-true":  # another flag leaves a switch's config value as it is
        argv, expected["samples"] = ["--samples", "7"], 7
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    args = cli._build_parser().parse_args(["--config", str(cfg_path)] + argv)
    assert cli._merge_config(args) == replace(AnalysisConfig(), **expected)


def test_table_alone_encodes_no_json(tmp_path, capsys, monkeypatch):
    encoded = []

    def counting(obj, *indent):
        if not indent:  # the whole report, not a nested value
            encoded.append(obj)
        return _dumps(obj, *indent)

    monkeypatch.setattr(cli, "_dumps", counting)
    argv = ["--exp", EXP, "--obs", OBS, "--all-canonical", "--table"]
    report = analysis(AnalysisConfig(exp=EXP, obs=OBS, all_canonical=True))
    table = render_table(report)
    assert main(argv) == 0
    assert capsys.readouterr().out == table
    assert encoded == []
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == table
    assert out.read_text() == json.dumps(report, indent=2) + "\n"
    assert len(encoded) == 1


def test_successive_main_calls_share_no_parser_state(capsys, monkeypatch):
    first = ["--exp", EXP, "--obs", OBS, "--event", "eq:0", "--event", "noteq:2",
             "--evidence", "2"]
    second = ["--exp", EXP, "--obs", OBS, "--event", "lt:1", "--evidence", "1",
              "--evidence", "2", "--assume", "mono"]
    runs = (first, second, first)
    shared = []
    for argv in runs:
        assert main(argv) == 0
        shared.append(capsys.readouterr().out)
    assert cli._build_parser() is cli._build_parser()
    assert len(json.loads(shared[0])["cells"]) == 6
    assert len(json.loads(shared[1])["cells"]) == 2
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    for argv, expected in zip(runs, shared):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


# --- JSON encoding ------------------------------------------------------------------

_STRINGS = st.one_of(
    st.text(),
    st.sampled_from(["", "\n", "a\nb", "\u00e9\u2028\U0001f600", "\x00\x1f\x7f", "\ud800"]),
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**40, -(10**40), -0.0, float("nan"), float("inf"), float("-inf")]),
    st.floats(),
    st.floats().map(np.float64),
    _STRINGS,
)
_KEYS = _STRINGS
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(_KEYS, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_dumps_is_json_dumps_with_indent_2(tree):
    assert _dumps(tree) == json.dumps(tree, indent=2)


_EDGES = st.sampled_from(["{", "}", "[", "]", "a}", "b]", "},\n  {", "],\n  ["])
_FIELDS = st.one_of(_LEAVES, _EDGES)


@st.composite
def _record_lists(draw):
    """2-6 records: dicts of scalars, lists of scalars, or both mixed;
    maybe one empty record, one holding a nested container, or all of it inside
    a dict or a list, so the records sit deeper."""
    dicts = st.dictionaries(st.one_of(_KEYS, _EDGES), _FIELDS, min_size=1, max_size=4)
    lists = st.lists(_FIELDS, min_size=1, max_size=4)
    record = draw(st.sampled_from([dicts, lists, st.one_of(dicts, lists)]))
    records = draw(st.lists(record, min_size=2, max_size=6))
    i = draw(st.integers(0, len(records) - 1))
    odd = draw(st.sampled_from(["none", "empty", "nested"]))
    if odd == "empty":
        records[i] = type(records[i])()
    elif odd == "nested":
        inner = draw(st.sampled_from([[], {}, [0], {"k": "}"}]))
        records[i] = ({**records[i], "nested": inner} if isinstance(records[i], dict)
                      else [*records[i], inner])
    return draw(st.sampled_from([records, {"records": records}, [records]]))


@settings(max_examples=300, deadline=None)
@given(_record_lists())
def test_dumps_encodes_record_lists_like_json_dumps_with_indent_2(records):
    assert _dumps(records) == json.dumps(records, indent=2)


@pytest.mark.parametrize("key", ["k", "\u00e9\n\"", ""], ids=repr)
def test_dumps_writes_str_keys_like_json_dumps(key):
    # values that are neither scalars nor records, so each dict is walked key by key
    tree = {key: [[1], {"a": [2]}], "z": {key: [[3], {key: [4]}]}, "5": {"b": [[], {}]}}
    assert _dumps(tree) == json.dumps(tree, indent=2)


def test_report_with_verify_encodes_like_json_dumps():
    cfg = AnalysisConfig(exp=EXP, obs=OBS, all_canonical=True, verify=True, samples=2000)
    report = analysis(cfg)
    assert any(c["verification"]["status"] == "ok" for c in report["verification"]["cells"])
    assert _dumps(report) == json.dumps(report, indent=2)


# --- refusal path -------------------------------------------------------------------

def falsifying_files(tmp_path):
    exp = tmp_path / "exp.csv"
    exp.write_text("z,y,count\n1,0,50\n1,1,50\n0,0,10\n0,1,90\n")
    obs = tmp_path / "obs.csv"
    obs.write_text("z,y,count\n1,0,90\n1,1,10\n0,0,10\n0,1,90\n")
    return str(exp), str(obs)


def test_refusal_with_lp_cross_check(tmp_path):
    exp, obs = falsifying_files(tmp_path)
    code, report = report_from(
        tmp_path,
        ["--exp", exp, "--obs", obs, "--event", "eq:0", "--evidence", "1",
         "--assume", "incr"],
    )
    assert code == 0
    assert report["falsification"]["passed"] is False
    (cell,) = report["cells"]
    assert cell["kind"] == "refused"
    assert cell["lp_cross_check"] == "infeasible"
    assert "value" not in cell


# --- per-report facts ----------------------------------------------------------------

def _class_counts(rng, cls, levels):
    """Integer joint counts (rows treated, columns control) of one class.

    Zero-level tables empty one treated level of a staircase joint (odd J)
    or of a monotone-inconsistent one (even J).
    """
    k, l = np.indices((levels, levels))
    mask = {
        "staircase": (k == l) | (k == l + 1),
        "zerolevel": (k == l) | (k == l + 1) if levels % 2 else k <= l,
        "lowertri": k >= l,
        "inconsistent": k <= l,  # the treatment lowers the outcome
    }[cls]
    q = rng.integers(0, 20, (levels, levels)) * mask
    q[np.diag_indices(levels)] += 1
    if cls == "zerolevel":
        q[int(rng.integers(1, levels))] = 0
    return q


def _route_configs(tmp_path, name, q, rng):
    """One config per ingest route, each identifying the margins of q."""
    treated, control = q.sum(axis=1), q.sum(axis=0)
    other = rng.integers(1, 30, q.shape[0])

    def write(suffix, payload):
        path = tmp_path / f"{name}.{suffix}.json"
        path.write_text(json.dumps(payload))
        return str(path)

    # the observational z = 0 arm peels `other` off the experiment's control
    # arm again, exactly, since q's row and column totals are equal
    exp = write("exp", {"counts": [(control + other).tolist(), treated.tolist()]})
    obs = write("obs", {"counts": [other.tolist(), treated.tolist()]})
    strata = write("strata", [{"id": "s0", "counts": [control.tolist(), treated.tolist()]}])
    pc = write("pc", {"counts": [control.tolist(), treated.tolist()]})
    return [
        AnalysisConfig(exp=exp, obs=obs, all_canonical=True),
        AnalysisConfig(route="unconfounded", strata=strata, all_canonical=True),
        AnalysisConfig(mode="pc", exp=pc, all_canonical=True),
    ]


def _library_cell(pair, event, y, assumptions):
    """A report cell's outcome from one library call per cell."""
    try:
        if assumptions is Assumptions.MONOTONIC_INCREMENT:
            try:
                return {"kind": "point", "value": pn_point(pair, event, y),
                        "method": "point-identification"}
            except FalsificationError as exc:
                try:
                    pn_bounds_lp(pair, event, y, assumptions)
                    cross_check = "feasible (inconsistent)"
                except LpInfeasibleError:
                    cross_check = "infeasible"
                return {"kind": "refused", "note": str(exc),
                        "method": "point-identification", "lp_cross_check": cross_check}
        if assumptions is Assumptions.MARGINAL_ONLY:
            result = pn_bounds_marginal(pair, event, y)
        else:
            result = pn_bounds_monotone(pair, event, y)
    except UnsupportedEventError as exc:
        return {"kind": "refused", "note": str(exc), "method": "closed-form"}
    except ZeroEvidenceError as exc:
        return {"kind": "refused", "note": str(exc), "method": "none"}
    return {"kind": "interval", "lower": result.lower, "upper": result.upper,
            "method": result.method.value}


def test_report_cells_equal_per_cell_library_calls(tmp_path):
    rng = np.random.default_rng(4)
    seen = set()
    for levels in range(3, 9):
        for cls in ("staircase", "lowertri", "inconsistent", "zerolevel"):
            q = _class_counts(rng, cls, levels)
            for cfg in _route_configs(tmp_path, f"{cls}{levels}", q, rng):
                pair, _ = load_marginals(cfg)
                report = analysis(cfg)
                assert len(report["cells"]) == (levels - 1) * (levels + 2) * 3
                for cell in report["cells"]:
                    outcome = dict(cell)
                    event = parse_event(outcome.pop("event"), levels)
                    assert outcome.pop("label") == event.label
                    y = outcome.pop("evidence")
                    assumptions = Assumptions(outcome.pop("assumptions"))
                    assert outcome == _library_cell(pair, event, y, assumptions)
                    seen.add((assumptions.value, outcome["kind"], outcome["method"]))
    assert seen == {  # every branch of the report was taken
        ("incr", "point", "point-identification"),
        ("incr", "refused", "point-identification"),
        ("incr", "refused", "none"),
        ("marginal", "interval", "closed-form"),
        ("marginal", "refused", "none"),
        ("mono", "interval", "closed-form"),
        ("mono", "refused", "closed-form"),
        ("mono", "refused", "none"),
    }


def test_report_cells_equal_the_merged_per_level_fields(tmp_path):
    """Every cell's keys, their order and their values' repr (so -0.0 and the
    last bit count) equal the per-level field dicts merged into each cell."""
    rng = np.random.default_rng(15)
    seen = set()
    for levels in range(3, 9):
        for cls in ("staircase", "lowertri", "inconsistent", "zerolevel"):
            q = _class_counts(rng, cls, levels)
            for cfg in _route_configs(tmp_path, f"{cls}{levels}", q, rng):
                bits = ["".join(map(str, rng.integers(0, 2, levels))) for _ in range(3)]
                evidence = sorted(rng.choice(levels, int(rng.integers(1, 4)), replace=False))
                custom = replace(cfg, all_canonical=False, evidence=[int(y) for y in evidence],
                                 events=[f"custom:{b}" for b in bits] + ["eq:0", f"lt:{levels - 1}"])
                runs = [cfg, custom, replace(custom, assume=str(rng.choice(
                    ["marginal", "mono", "incr"])))]
                if cls == "zerolevel":  # no evidence level with treated mass: no rows to bound
                    runs.append(replace(cfg, evidence=np.flatnonzero(q.sum(axis=1) == 0).tolist()))
                for run_cfg in runs:
                    pair, provenance = load_marginals(run_cfg)
                    facts = pair_facts(pair)
                    cells = run_analysis(run_cfg, (facts, provenance))["cells"]
                    expected = merged_report_cells(run_cfg, facts)
                    assert [repr(list(c.items())) for c in cells] == [
                        repr(list(c.items())) for c in expected]
                    seen.update((c["assumptions"], c["kind"], c["method"],
                                 c.get("lp_cross_check"), c["event"][:6]) for c in cells)
                    # rows without evidence: a mono refusal first, then zero
                    # evidence, then failed incr brackets
                    zero = [pair.treated_law.probs[c["evidence"]] <= ATOL for c in cells]
                    for c, z in zip(cells, zero):
                        if z and c["assumptions"] == "mono" and facts.mono_refusal is not None:
                            assert (c["method"], c["note"]) == ("closed-form", facts.mono_refusal)
                            seen.add(("mono", "refused", "closed-form", None, "zero, mono refused"))
                        if z and c["assumptions"] == "incr":
                            assert (c["method"], c["note"]) == (
                                "none", str(ZeroEvidenceError.at_level(c["evidence"])))
                            assert "lp_cross_check" not in c
                            if not facts.brackets.passed:
                                seen.add(("incr", "refused", "none", None, "zero, incr failed"))
                    incr = [z for c, z in zip(cells, zero) if c["assumptions"] == "incr"]
                    if incr and all(incr):
                        seen.add(("incr", "refused", "none", None, "no incr row with evidence"))
    kinds = {s[:3] for s in seen}
    assert kinds == {  # every branch of the report was taken
        ("incr", "point", "point-identification"),
        ("incr", "refused", "point-identification"),
        ("incr", "refused", "none"),
        ("marginal", "interval", "closed-form"),
        ("marginal", "refused", "none"),
        ("mono", "interval", "closed-form"),
        ("mono", "refused", "closed-form"),
        ("mono", "refused", "none"),
    }
    assert ("incr", "refused", "point-identification", "infeasible", "custom") in seen
    assert {("mono", "refused", "closed-form", None, "zero, mono refused"),
            ("incr", "refused", "none", None, "zero, incr failed"),
            ("incr", "refused", "none", None, "no incr row with evidence")} <= seen
    assert {s[0] for s in seen if s[4] == "custom" and s[1] != "refused"} == {
        "incr", "marginal", "mono"}


def test_pc_bounds_equal_the_pc_report_cells(tmp_path):
    from pnbounds import pc_bounds
    from pnbounds.bounds import Method

    rng = np.random.default_rng(8)
    refusals = {  # the error behind each refusal method of the report
        "none": ZeroEvidenceError,
        "point-identification": FalsificationError,
        "closed-form": UnsupportedEventError,
    }
    seen = set()
    for levels in range(3, 9):
        for cls in ("staircase", "lowertri", "inconsistent", "zerolevel"):
            for draw in range(3):
                q = _class_counts(rng, cls, levels)
                cfg = _route_configs(tmp_path, f"{cls}{levels}-{draw}", q, rng)[2]
                pair, _ = load_marginals(cfg)
                customs = ["custom:" + "".join(map(str, rng.integers(0, 2, levels)))
                           for _ in range(3)]
                cells = analysis(cfg)["cells"] + analysis(
                    replace(cfg, all_canonical=False, events=customs)
                )["cells"]
                for cell in cells:
                    event = parse_event(cell["event"], levels)
                    y, assumptions = cell["evidence"], Assumptions(cell["assumptions"])
                    try:
                        result = pc_bounds(pair, event, y, assumptions)
                    except tuple(refusals.values()) as exc:
                        assert cell["kind"] == "refused"
                        seen.add((cell["assumptions"], cell["method"], type(exc).__name__))
                        assert type(exc) is refusals[cell["method"]]
                        assert str(exc) == cell["note"]
                        if cell["method"] == "closed-form":
                            # both refuse before checking the evidence
                            assert cell["note"] == pair_facts(pair).mono_refusal
                            zero = pair.treated_law.probs[y] <= ATOL
                            seen.add(("mono", "closed-form", "zero evidence" if zero else "event"))
                        continue
                    assert result.method is Method.CLOSED_FORM
                    if cell["kind"] == "point":
                        assert result.lower == result.upper == cell["value"]
                    else:
                        assert cell["kind"] == "interval"
                        assert (result.lower, result.upper) == (cell["lower"], cell["upper"])
                    seen.add((cell["assumptions"], cell["kind"]))
    assert seen >= {
        ("incr", "point"),
        ("incr", "point-identification", "FalsificationError"),
        ("incr", "none", "ZeroEvidenceError"),
        ("marginal", "interval"),
        ("marginal", "none", "ZeroEvidenceError"),
        ("mono", "interval"),
        ("mono", "none", "ZeroEvidenceError"),
        ("mono", "closed-form", "UnsupportedEventError"),
        ("mono", "closed-form", "zero evidence"),
        ("mono", "closed-form", "event"),
    }


def count_every_binding(monkeypatch, *functions):
    """Record each call of the functions at every pnbounds module binding.

    A call is recorded as ``module.attribute`` of the binding it went
    through, including calls that the functions make to each other.
    """
    import importlib
    import pkgutil

    import pnbounds

    modules = [pnbounds] + [
        importlib.import_module(f"pnbounds.{info.name}")
        for info in pkgutil.iter_modules(pnbounds.__path__)
    ]
    calls = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if any(value is f for f in functions):
                def counting(*args, _binding=f"{module.__name__}.{attr}", _f=value, **kwargs):
                    calls.append(_binding)
                    return _f(*args, **kwargs)

                monkeypatch.setattr(module, attr, counting)
    return calls


def test_one_lp_cross_check_per_report(tmp_path, monkeypatch):
    from pnbounds import identify, lp

    calls = count_every_binding(
        monkeypatch, lp.polytope_empty, lp.pn_bounds_lp, identify.pair_facts,
        identify.falsification_check,
    )
    init = identify.FalsificationError.__init__

    def counting_init(self, report):
        calls.append("FalsificationError")
        init(self, report)

    monkeypatch.setattr(identify.FalsificationError, "__init__", counting_init)
    exp, obs = falsifying_files(tmp_path)
    code, report = report_from(
        tmp_path, ["--exp", exp, "--obs", obs, "--all-canonical", "--assume", "incr"]
    )
    assert code == 0
    assert len(report["cells"]) == 4
    assert all(c["lp_cross_check"] == "infeasible" for c in report["cells"])
    # one refusal note for the report, not one error per refused cell
    assert calls.count("FalsificationError") == 1
    calls.remove("FalsificationError")
    # the report's facts and one emptiness test, which reads no brackets of
    # its own and solves no program of the LP's
    assert sorted(calls) == ["pnbounds.cli.polytope_empty", "pnbounds.identify.pair_facts"]


def test_a_report_computes_each_level_in_one_array_pass(tmp_path, monkeypatch):
    from pnbounds import bounds

    levels = []
    level_bounds = bounds.level_bounds

    def counting(facts, coeffs, ys, assumptions):
        levels.append((assumptions.value, len(ys), None))
        try:
            return level_bounds(facts, coeffs, ys, assumptions)
        except (FalsificationError, UnsupportedEventError) as exc:
            levels[-1] = (assumptions.value, len(ys), type(exc))
            raise

    monkeypatch.setattr(bounds, "level_bounds", counting)
    calls = count_every_binding(monkeypatch, bounds.cell_bounds)
    code, report = report_from(tmp_path, LALONDE_ROUTES["experimental"] + ["--all-canonical"])
    assert code == 0 and len(report["cells"]) == 30
    # one call per level, over every cell of the level, and no per-cell path
    assert levels == [("incr", 10, None), ("marginal", 10, None), ("mono", 10, None)]
    assert calls == []
    # incr refused by the brackets, mono by a negative gap: each level still
    # takes its one call, and the report renders the refusal it raises
    levels.clear()
    exp, obs = falsifying_files(tmp_path)
    code, report = report_from(tmp_path, ["--exp", exp, "--obs", obs, "--all-canonical"])
    assert code == 0
    assert levels == [("incr", 4, FalsificationError), ("marginal", 4, None),
                      ("mono", 4, UnsupportedEventError)]
    assert {c["kind"] for c in report["cells"] if c["assumptions"] != "marginal"} == {"refused"}
    # a zero-evidence level leaves the other levels' rows to the one call
    levels.clear()
    zero = tmp_path / "zero.csv"
    zero.write_text("z,y,count\n1,0,10\n1,1,0\n1,2,30\n0,0,20\n0,1,10\n0,2,10\n")
    code, report = report_from(tmp_path, ["--mode", "pc", "--exp", str(zero), "--all-canonical"])
    assert code == 0 and report["falsification"]["passed"] is False
    assert levels == [("incr", 5, FalsificationError), ("marginal", 5, None), ("mono", 5, None)]
    assert calls == []


@pytest.mark.parametrize("level", ["mono", "incr"])
def test_the_report_renders_the_refusal_that_level_bounds_raises(tmp_path, monkeypatch, level):
    from pnbounds import bounds

    if level == "mono":
        refusal = UnsupportedEventError("patched")
    else:  # LaLonde's brackets with the first marked failed
        brackets = pair_facts(lalonde_pair()).brackets
        failed = replace(brackets.checks[0], within_bracket=False)
        refusal = FalsificationError(replace(brackets, passed=False, checks=(failed,)))
    args = LALONDE_ROUTES["experimental"] + ["--all-canonical"]
    _, plain = report_from(tmp_path, args)
    level_bounds = bounds.level_bounds

    def refusing(facts, coeffs, ys, assumptions):
        if assumptions.value == level:
            raise refusal
        return level_bounds(facts, coeffs, ys, assumptions)

    monkeypatch.setattr(bounds, "level_bounds", refusing)
    code, report = report_from(tmp_path, args)
    assert code == 0 and len(report["cells"]) == len(plain["cells"]) == 30
    for cell, before in zip(report["cells"], plain["cells"]):
        if cell["assumptions"] != level:
            assert cell == before
            continue
        assert before["kind"] != "refused"
        expected = {**{k: before[k] for k in ("event", "label", "evidence", "assumptions")},
                    "kind": "refused", "note": str(refusal), "method": before["method"]}
        if level == "incr":
            # LaLonde passes the brackets, so the LP flags the refusal it contradicts
            expected["lp_cross_check"] = "feasible (inconsistent)"
        assert cell == expected
    assert {c["method"] for c in report["cells"] if c["assumptions"] == level} == {
        "closed-form" if level == "mono" else "point-identification"}


LALONDE_ROUTES = {
    "experimental": ["--exp", EXP, "--obs", OBS],
    "unconfounded": ["--route", "unconfounded", "--strata", STRATA],
    "pc": ["--mode", "pc", "--exp", EXP],
}


@pytest.mark.parametrize("route", sorted(LALONDE_ROUTES))
def test_a_default_report_computes_the_pair_facts_once(tmp_path, monkeypatch, route):
    from pnbounds import bounds, identify, lp

    calls = count_every_binding(
        monkeypatch, identify.pair_facts, identify.gap_sequence,
        identify.falsification_check, bounds.monotone_consistent, lp.pn_bounds_lp,
        lp.polytope_empty,
    )
    code, report = report_from(tmp_path, LALONDE_ROUTES[route] + ["--all-canonical"])
    assert code == 0 and len(report["cells"]) == 30
    facts = ["pnbounds.identify.pair_facts", "pnbounds.identify.gap_sequence"]
    assert calls[:2] == facts
    # the strata example fails the brackets: the one LP cross-check then
    # decides from its own phase one, computing none of the facts again
    cross_check = ["pnbounds.cli.polytope_empty"]
    assert calls[2:] == ([] if report["falsification"]["passed"] else cross_check)
    assert report["falsification"]["passed"] is (route != "unconfounded")


@pytest.mark.parametrize("route", sorted(LALONDE_ROUTES))
def test_marginal_and_mono_cells_build_no_bracket_objects(tmp_path, monkeypatch, route):
    from pnbounds import bounds, identify

    built = count_every_binding(monkeypatch, identify.BracketCheck, identify.FalsificationReport)
    for assume in ("marginal", "mono"):
        code, report = report_from(
            tmp_path, LALONDE_ROUTES[route] + ["--all-canonical", "--assume", assume])
        assert code == 0 and report["falsification"]["brackets"]
    pair, _ = load_marginals(cli._merge_config(cli._build_parser().parse_args(
        LALONDE_ROUTES[route] + ["--all-canonical"])))
    facts = pair_facts(pair)
    for assumptions in (Assumptions.MARGINAL_ONLY, Assumptions.MONOTONICITY):
        for y in range(1, 3):
            for spec in cli.canonical_event_specs(3, y):
                try:
                    bounds.cell_bounds(facts, parse_event(spec, 3), y, assumptions)
                except UnsupportedEventError:
                    pass
    assert built == []


def test_an_incr_refusal_builds_its_report_once_per_raise(tmp_path, monkeypatch):
    # the strata example fails the brackets, so every incr entry is refused
    from pnbounds import bounds, identify, oracle
    from pnbounds.identify import identify_joint

    built = count_every_binding(monkeypatch, identify.FalsificationReport)
    pair, _ = load_marginals(AnalysisConfig(route="unconfounded", strata=STRATA))
    facts, event = pair_facts(pair), make_event("noteq", 3, level=2)
    incr = Assumptions.MONOTONIC_INCREMENT
    raises = [
        (FalsificationError, lambda: bounds.cell_bounds(facts, event, 2, incr)),
        (FalsificationError, lambda: pn_point(pair, event, 2)),
        (FalsificationError, lambda: identify_joint(pair)),
        (oracle.SamplingError, lambda: oracle.verify_cells(facts, incr, [(event, 2, 0.0, 1.0)],
                                                            10, 1)),
    ]
    for error, call in raises:
        before = len(built)
        with pytest.raises(error):
            call()
        assert len(built) == before + 1
    for extra in ([], ["--verify", "--samples", "10"]):
        before = len(built)
        code, report = report_from(tmp_path, ["--route", "unconfounded", "--strata", STRATA,
                                              "--all-canonical"] + extra)
        assert code == 0 and not report["falsification"]["passed"]
        assert len(built) == before + 1  # the one refused incr level


# --- verification -------------------------------------------------------------------

def test_verify_passes_on_good_data(tmp_path):
    code, report = report_from(
        tmp_path,
        ["--exp", EXP, "--obs", OBS, "--event", "noteq:2", "--evidence", "2",
         "--verify", "--samples", "300", "--seed", "7"],
    )
    assert code == 0
    assert report["verification"]["passed"] is True
    checks = [c["verification"] for c in report["verification"]["cells"]]
    assert checks and all(c["status"] == "ok" and c["contained"] for c in checks)


def test_verify_fails_when_an_estimate_cannot_be_sampled(tmp_path, monkeypatch):
    from pnbounds import oracle

    def empty(level, n, rng, size):
        raise oracle.SamplingError("no draw met the margins")

    monkeypatch.setattr(oracle, "_draw_chunks", empty)
    code, report = report_from(
        tmp_path,
        ["--exp", EXP, "--obs", OBS, "--all-canonical", "--assume", "mono",
         "--verify"],
    )
    assert code == 3
    verification = report["verification"]
    assert verification["passed"] is False
    assert len(verification["cells"]) == 10
    for entry in verification["cells"]:
        assert entry["kind"] == "interval"
        assert entry["verification"] == {"status": "skipped", "reason": "no draw met the margins"}


def test_verify_passes_on_a_gap_inside_the_band(tmp_path):
    # gap -1e-9 (the ATOL band): the report accepts the data, and every
    # level must then be sampled and pass, not be skipped
    exp = tmp_path / "exp.json"
    exp.write_text('{"counts": [[999999999, 1], [1000000000, 0]]}')
    code, report = report_from(
        tmp_path,
        ["--mode", "pc", "--exp", str(exp), "--event", "eq:0", "--event", "eq:1",
         "--evidence", "0", "--verify"],
    )
    assert code == 0
    assert report["monotone_consistent"] is True
    verification = report["verification"]
    assert verification["passed"] is True
    assert {e["assumptions"] for e in verification["cells"]} == {"marginal", "mono", "incr"}
    for entry in verification["cells"]:
        assert entry["verification"]["contained"] is True
        assert entry["verification"]["sharp"] is True


def test_mono_cells_refused_on_monotone_inconsistent_data(tmp_path):
    exp = tmp_path / "exp.json"
    exp.write_text('{"counts": [[10, 10, 80], [80, 10, 10]]}')
    code, report = report_from(
        tmp_path,
        ["--mode", "pc", "--exp", str(exp), "--all-canonical", "--assume", "mono",
         "--verify"],
    )
    assert code == 0
    assert report["monotone_consistent"] is False
    assert report["verification"]["passed"] is True
    assert len(report["cells"]) == 10
    pair = randomized_margins(load_table(str(exp), Source.EXPERIMENTAL))
    for cell, entry in zip(report["cells"], report["verification"]["cells"]):
        assert cell["kind"] == "refused"
        assert "k=1: gap -0.7, k=2: gap -0.7" in cell["note"]
        assert entry["verification"] == {"status": "refused", "reason": "no estimate to verify"}
        event = parse_event(cell["event"], 3)
        with pytest.raises(LpInfeasibleError):
            pn_bounds_lp(pair, event, cell["evidence"], Assumptions.MONOTONICITY)


def test_verify_draws_one_batch_per_assumption_level(tmp_path, monkeypatch):
    from pnbounds import oracle
    from pnbounds.bounds import BoundsResult, Method
    from pnbounds.cli import load_marginals, parse_event
    from pnbounds.core import Assumptions

    drawn = []
    draw = oracle._draw_chunks

    def counting(level, n, rng, size):
        drawn.append(level.assumptions)
        return draw(level, n, rng, size)

    monkeypatch.setattr(oracle, "_draw_chunks", counting)
    code, report = report_from(
        tmp_path,
        ["--exp", EXP, "--obs", OBS, "--all-canonical", "--verify",
         "--samples", "2000", "--seed", "42"],
    )
    assert code == 0
    assert len(report["cells"]) == 30
    assert sorted(a.value for a in drawn) == ["incr", "marginal", "mono"]
    # each shared-batch entry equals a direct per-cell oracle call
    pair, _ = load_marginals(AnalysisConfig(exp=EXP, obs=OBS))
    for entry in report["verification"]["cells"]:
        assumptions = Assumptions(entry["assumptions"])
        if entry["kind"] == "point":
            lower = upper = entry["value"]
        else:
            lower, upper = entry["lower"], entry["upper"]
        claim = BoundsResult(
            lower=lower, upper=upper, assumptions=assumptions, method=Method.CLOSED_FORM
        )
        direct = oracle.verify_bounds(
            pair, parse_event(entry["event"], 3), entry["evidence"], assumptions,
            claim, 2000, 42,
        )
        check = entry["verification"]
        assert check["sharp"] is True
        assert check["contained"] == direct.contained
        assert check["max_violation"] == direct.max_violation
        assert check["sharpness_gap_lower"] == direct.sharpness_gap_lower
        assert check["sharpness_gap_upper"] == direct.sharpness_gap_upper
        assert check["n_samples"] == direct.n_samples == 2000


def _joint_table(tmp_path, q):
    """A ``--mode pc`` count table whose laws are the margins of joint q."""
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({"counts": [q.sum(axis=0).tolist(), q.sum(axis=1).tolist()]}))
    return str(exp)


@pytest.mark.parametrize("shape", ["lower-triangular", "staircase"])
def test_verify_entries_equal_direct_oracle_calls_beyond_three_levels(tmp_path, shape):
    from pnbounds import oracle
    from pnbounds.bounds import BoundsResult, Method

    q = np.tril(np.random.default_rng(71).integers(1, 9, (7, 7)))
    if shape == "staircase":
        q = np.triu(q, -1)
    exp = _joint_table(tmp_path, q)
    pair = randomized_margins(load_table(exp, Source.EXPERIMENTAL))
    grids = [
        ["--all-canonical"],
        ["--event", "custom:1011001", "--event", "custom:0110110",
         "--evidence", "3", "--evidence", "6"],
    ]
    checked = set()
    for grid in grids:
        code, report = report_from(
            tmp_path,
            ["--mode", "pc", "--exp", exp, *grid, "--verify", "--samples", "500", "--seed", "9"],
        )
        assert code == 0
        for entry in report["verification"]["cells"]:
            if entry["kind"] == "refused":
                continue
            assumptions = Assumptions(entry["assumptions"])
            if entry["kind"] == "point":
                lower = upper = entry["value"]
            else:
                lower, upper = entry["lower"], entry["upper"]
            claim = BoundsResult(
                lower=lower, upper=upper, assumptions=assumptions, method=Method.CLOSED_FORM
            )
            direct = oracle.verify_bounds(
                pair, parse_event(entry["event"], 7), entry["evidence"], assumptions,
                claim, 500, 9,
            )
            check = entry["verification"]
            assert check["sharp"] is True and check["contained"] is direct.contained is True
            assert check["max_violation"] == direct.max_violation
            assert check["sharpness_gap_lower"] == direct.sharpness_gap_lower
            assert check["sharpness_gap_upper"] == direct.sharpness_gap_upper
            assert check["n_samples"] == direct.n_samples == 500
            checked.add((entry["event"], assumptions))
    levels = {a for _, a in checked}
    expected = {Assumptions.MARGINAL_ONLY, Assumptions.MONOTONICITY}
    if shape == "staircase":
        expected.add(Assumptions.MONOTONIC_INCREMENT)
    assert levels == expected
    assert {e for e, _ in checked} >= {"custom:1011001", "custom:0110110", "noteq:6"}


def test_verify_builds_each_distinct_witness_once(tmp_path, monkeypatch):
    from pnbounds import oracle

    built, batches, checked = [], [], []
    fill, witnesses, off_pattern = oracle._extremal_fills, oracle._Level.witnesses, oracle._off_pattern
    inside = []  # the level whose witnesses are being built

    def counting_fill(level, specs):
        batches.append(level.assumptions)
        built.extend((level.assumptions, y, first.tobytes()) for y, first in specs)
        return fill(level, specs)

    def counting_witnesses(level, cells):
        inside.append(level)
        try:
            return witnesses(level, cells)
        finally:
            inside.pop()

    def counting_check(x, level):
        if inside:  # the witness batch's check, not a draw's self-check
            checked.append((level.assumptions, x.shape[2]))
        return off_pattern(x, level)

    monkeypatch.setattr(oracle, "_extremal_fills", counting_fill)
    monkeypatch.setattr(oracle._Level, "witnesses", counting_witnesses)
    monkeypatch.setattr(oracle, "_off_pattern", counting_check)
    code, report = report_from(
        tmp_path,
        ["--exp", EXP, "--obs", OBS, "--all-canonical", "--verify", "--samples", "500"],
    )
    assert code == 0
    # the columns filled first: the event's (upper) and the others (lower)
    patterns = set()
    for entry in report["verification"]["cells"]:
        assumptions, y = Assumptions(entry["assumptions"]), entry["evidence"]
        if assumptions is Assumptions.MONOTONIC_INCREMENT:
            continue
        span = y + 1 if assumptions is Assumptions.MONOTONICITY else 3
        head = np.array(parse_event(entry["event"], 3).coeffs[:span], dtype=bool)
        patterns |= {(assumptions, y, head.tobytes()), (assumptions, y, (~head).tobytes())}
    assert sorted(built, key=repr) == sorted(patterns, key=repr)
    assert len(built) == 22  # 20 interval cells, 40 endpoints
    # one fill per sampled level, and one check of each level's whole batch;
    # the incr point was checked when its level was built, not here
    assert sorted(a.value for a in batches) == ["marginal", "mono"]
    assert sorted(a.value for a, _ in checked) == ["marginal", "mono"]
    assert sum(width for _, width in checked) == len(built)


def _verified_fields(tmp_path, args):
    """The report of ``args`` on every canonical cell, verified, without its provenance."""
    code, out = report_from(tmp_path, args + ["--all-canonical", "--verify", "--samples", "2000"])
    assert code == 0 and out["verification"]["passed"] is True
    out.pop("provenance")
    return out


def _scaled(counts, *scales):
    """A 2 x J counts array with row z multiplied by scales[z]."""
    return [[scale * c for c in row] for row, scale in zip(counts, scales)]


def test_a_count_scale_leaves_every_report_field_but_the_provenance(tmp_path):
    """Every law is a ratio of counts, and k * c / (k * T) rounds as c / T, so
    scaling a table changes no verified report figure."""
    exp, obs = (json.loads((DATA / f"lalonde_{name}.json").read_text())["counts"]
                for name in ("experimental", "observational"))

    def report(mode, exp_scale, obs_scale):
        paths = []
        for name, counts, scale in (("exp", exp, exp_scale), ("obs", obs, obs_scale)):
            paths.append(tmp_path / f"{name}-{exp_scale}-{obs_scale}.json")
            paths[-1].write_text(json.dumps({"counts": _scaled(counts, scale, scale)}))
        args = ["--mode", mode, "--exp", str(paths[0])]
        return _verified_fields(tmp_path, args + (["--obs", str(paths[1])] if mode == "pn" else []))

    unscaled = report("pn", 1, 1)
    for exp_scale, obs_scale in ((7, 7), (3, 1), (1, 1000003), (2**20, 5)):
        assert report("pn", exp_scale, obs_scale) == unscaled, (exp_scale, obs_scale)
    assert report("pc", 13, 1) == report("pc", 1, 1)


def test_a_scale_of_each_arm_leaves_every_pc_report_field_but_the_provenance(tmp_path):
    """``--mode pc`` normalizes each arm of the experiment on its own, so a
    factor per arm, one common factor included, keeps both laws bit for bit."""
    exp = json.loads((DATA / "lalonde_experimental.json").read_text())["counts"]

    def report(*scales):
        path = tmp_path / f"exp-{scales}.json"
        path.write_text(json.dumps({"counts": _scaled(exp, *scales)}))
        return _verified_fields(tmp_path, ["--mode", "pc", "--exp", str(path)])

    unscaled = report(1, 1)
    for scales in ((7, 7), (2**20, 2**20), (3, 1), (1, 1000003), (2**20, 5)):
        assert report(*scales) == unscaled, scales


def test_a_common_scale_of_every_stratum_leaves_every_report_field_but_the_provenance(tmp_path):
    """The strata route weights each stratum by its share of the treated
    units, so one factor for every stratum keeps the weights and each law
    bit for bit (a factor per stratum would move the weights).  The seeded
    table's treated totals, 1 and 4, make a weight taken as
    ``totals * (1 / sum)`` round differently: 7 * (1 / 35) != 1 * (1 / 5)."""
    rng = np.random.default_rng(32)
    seeded = [{"id": f"total-{total}",
               "counts": [rng.integers(1, 30, 3).tolist(),
                          rng.multinomial(total, [1 / 3] * 3).tolist()]}
              for total in (1, 4)]

    def report(name, strata, scale):
        path = tmp_path / f"{name}-{scale}.json"
        path.write_text(json.dumps(
            [{**stratum, "counts": _scaled(stratum["counts"], scale, scale)} for stratum in strata]))
        return _verified_fields(tmp_path, ["--route", "unconfounded", "--strata", str(path)])

    for name, strata in (("example", json.loads(Path(STRATA).read_text())), ("seeded", seeded)):
        unscaled = report(name, strata, 1)
        for scale in (7, 1000003, 2**20):
            assert report(name, strata, scale) == unscaled, (name, scale)


def test_verify_computes_the_pair_facts_once_per_report(tmp_path, monkeypatch):
    from pnbounds import identify

    calls = count_every_binding(
        monkeypatch, identify.pair_facts, identify.gap_sequence, identify.falsification_check
    )
    code, report = report_from(
        tmp_path,
        ["--exp", EXP, "--obs", OBS, "--all-canonical", "--verify", "--samples", "500"],
    )
    assert code == 0 and report["verification"]["passed"] is True
    # the report and every --verify level read the facts main computed
    assert calls == ["pnbounds.identify.pair_facts", "pnbounds.identify.gap_sequence"]


def test_verify_widened_bounds_fail(tmp_path, monkeypatch):
    from pnbounds import bounds

    level_bounds = bounds.level_bounds

    def widened(*args):  # a fault in the closed forms: each claim 0.05 too wide
        lower, upper = level_bounds(*args)
        return lower - 0.05, upper + 0.05

    monkeypatch.setattr(bounds, "level_bounds", widened)
    code = main(
        ["--exp", EXP, "--obs", OBS, "--event", "noteq:2", "--evidence", "2",
         "--assume", "marginal", "--verify", "--samples", "200", "--seed", "7",
         "--out", str(tmp_path / "r.json")]
    )
    assert code == 3
    (cell,) = json.loads((tmp_path / "r.json").read_text())["verification"]["cells"]
    assert cell["verification"]["contained"] and not cell["verification"]["sharp"]


CHECK_FIELDS = ["status", "contained", "max_violation", "sharpness_gap_lower",
                "sharpness_gap_upper", "n_samples", "sharp"]


def verify_statuses(report):
    """The status of each ``--verify`` entry, once ``passed`` is checked to be
    false exactly when some entry failed or was skipped."""
    statuses = [e["verification"]["status"] for e in report["verification"]["cells"]]
    assert report["verification"]["passed"] is (not {"failed", "skipped"} & set(statuses))
    return statuses


def test_verify_status_ok_exits_zero(tmp_path):
    code, report = report_from(tmp_path, ["--exp", EXP, "--obs", OBS, "--all-canonical", "--verify"])
    assert code == 0
    assert verify_statuses(report) == ["ok"] * 30
    for entry in report["verification"]["cells"]:
        check = entry["verification"]
        assert list(check) == CHECK_FIELDS
        assert check["contained"] is check["sharp"] is True and check["n_samples"] == 10000


def test_verify_status_refused_exits_zero(tmp_path):
    exp, obs = falsifying_files(tmp_path)
    code, report = report_from(
        tmp_path, ["--exp", exp, "--obs", obs, "--all-canonical", "--verify", "--samples", "500"])
    assert code == 0
    statuses = verify_statuses(report)
    assert set(statuses) == {"ok", "refused"}
    for cell, entry in zip(report["cells"], report["verification"]["cells"]):
        if cell["kind"] == "refused":
            assert entry["verification"] == {"status": "refused", "reason": "no estimate to verify"}
        else:
            assert entry["verification"]["status"] == "ok"
            assert list(entry["verification"]) == CHECK_FIELDS


def test_verify_status_failed_exits_three(tmp_path, monkeypatch):
    from pnbounds import bounds

    level_bounds = bounds.level_bounds

    def narrowed(facts, coeffs, ys, assumptions):  # one marginal claim 0.05 too narrow
        lower, upper = level_bounds(facts, coeffs, ys, assumptions)
        if assumptions is Assumptions.MARGINAL_ONLY:
            lower = lower.copy()
            lower[0] += 0.05
        return lower, upper

    monkeypatch.setattr(bounds, "level_bounds", narrowed)
    code, report = report_from(
        tmp_path, ["--exp", EXP, "--obs", OBS, "--event", "noteq:2", "--evidence", "2",
                   "--verify", "--samples", "500"])
    assert code == 3
    assert verify_statuses(report) == ["ok", "failed", "ok"]
    check = report["verification"]["cells"][1]["verification"]
    assert list(check) == CHECK_FIELDS
    assert check["contained"] is check["sharp"] is False
    assert check["sharpness_gap_lower"] == pytest.approx(0.05)


def test_verify_status_skipped_exits_three(tmp_path, monkeypatch):
    from pnbounds import oracle

    verify_cells = oracle.verify_cells

    def unsampled_mono(facts, assumptions, *args):
        if assumptions is Assumptions.MONOTONICITY:
            raise oracle.SamplingError("no draw met the margins")
        return verify_cells(facts, assumptions, *args)

    monkeypatch.setattr(oracle, "verify_cells", unsampled_mono)
    code, report = report_from(
        tmp_path, ["--exp", EXP, "--obs", OBS, "--event", "noteq:2", "--evidence", "2",
                   "--verify", "--samples", "500"])
    assert code == 3
    assert verify_statuses(report) == ["ok", "ok", "skipped"]
    skipped = report["verification"]["cells"][2]
    assert skipped["assumptions"] == "mono"
    assert skipped["verification"] == {"status": "skipped", "reason": "no draw met the margins"}


def test_an_oversized_verify_batch_exits_one_before_drawing(capsys, monkeypatch):
    from pnbounds import oracle

    def no_draw(*args):
        raise AssertionError("a batch was drawn")

    monkeypatch.setattr(oracle, "_draw_chunks", no_draw)
    samples = 10**15  # 9e15 entries at J = 3: no numpy build could allocate them
    assert run(["--exp", EXP, "--obs", OBS, "--all-canonical", "--verify",
                "--samples", str(samples)]) == 1
    assert capsys.readouterr() == ("", (
        f"error: --verify: --samples {samples} draws of 3 x 3 joints exceed the batch "
        f"budget of {oracle.BATCH_BUDGET} entries (2**27)\n"))


def test_an_evidence_level_out_of_range_is_refused_before_the_verify_batch_budget(
        capsys, monkeypatch):
    from pnbounds import oracle

    def no_draw(*args):
        raise AssertionError("a batch was drawn")

    monkeypatch.setattr(oracle, "_draw_chunks", no_draw)
    assert run(["--exp", EXP, "--obs", OBS, "--event", "noteq:2", "--evidence", "9",
                "--verify", "--samples", str(10**15)]) == 2
    assert capsys.readouterr() == (
        "", "error: evidence level 9 out of range for 3 outcome levels\n")


# --- error paths ----------------------------------------------------------------------

def test_usage_errors_exit_one(tmp_path):
    assert run([]) == 1                                        # no inputs at all
    assert run(["--exp", EXP]) == 1                            # missing --obs
    assert run(["--exp", EXP, "--obs", OBS]) == 1              # no events
    assert run(["--mode", "pc", "--all-canonical"]) == 1       # pc without --exp
    assert run(["--route", "unconfounded", "--all-canonical"]) == 1
    assert run(["--exp", EXP, "--obs", OBS, "--event", "bogus:1"]) == 1
    assert run(["--exp", EXP, "--obs", OBS, "--event", "custom:2x"]) == 1
    assert run(["--exp", EXP, "--obs", OBS, "--all-canonical", "--samples", "0"]) == 1
    assert run(["--exp", EXP, "--obs", OBS, "--assume", "nope"]) == 1
    assert run(
        ["--mode", "pc", "--exp", EXP, "--route", "unconfounded", "--all-canonical"]
    ) == 1


@pytest.mark.parametrize(
    "payload",
    [
        {"mode": "xx"},
        {"all_canonical": "no"},
        {"samples": "10"},
        {"evidence": 2},
        {"evidence": [1, "2"]},
        {"seed": 1.5},
        {"seed": True},
        [1, 2],
        {"assume": "bogus"},
        {"events": "eq:1"},
    ],
    ids=repr,
)
def test_config_values_are_checked_like_their_flags(tmp_path, capsys, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    assert run(["--config", str(cfg), "--exp", EXP, "--obs", OBS, "--all-canonical"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_the_config_key_of_event_is_events(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"exp": EXP, "obs": OBS, "event": ["eq:1"]}))
    assert run(["--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", "error: unknown config key 'event'\n")
    cfg.write_text(json.dumps({"exp": EXP, "obs": OBS, "events": ["eq:1"], "evidence": [2]}))
    code, report = report_from(tmp_path, ["--config", str(cfg)])
    assert code == 0
    assert {(c["event"], c["evidence"]) for c in report["cells"]} == {("eq:1", 2)}


@pytest.mark.parametrize("spec,code,message", [
    ("custom:", 1, "bad custom event 'custom:'; expected custom:<bits>"),
    ("custom:012", 1, "bad custom event 'custom:012'; expected custom:<bits>"),
    ("custom:1a", 1, "bad custom event 'custom:1a'; expected custom:<bits>"),
    ("custom:0a0", 1, "bad custom event 'custom:0a0'; expected custom:<bits>"),
    ("custom:10", 2, "custom event has 2 coefficients for 3 levels"),
    ("custom:1011", 2, "custom event has 4 coefficients for 3 levels"),
])
def test_custom_event_bits_are_checked_then_counted(capsys, spec, code, message):
    assert run(["--exp", EXP, "--obs", OBS, "--event", spec, "--evidence", "2"]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_data_errors_exit_two(tmp_path):
    missing = str(tmp_path / "nope.csv")
    assert run(["--exp", missing, "--obs", OBS, "--all-canonical"]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("z,y,count\n0,0,oops\n")
    assert run(["--exp", str(bad), "--obs", OBS, "--all-canonical"]) == 2
    two_level = tmp_path / "two.csv"
    two_level.write_text("z,y,count\n0,0,5\n0,1,5\n1,0,5\n1,1,5\n")
    assert run(["--exp", str(two_level), "--obs", OBS, "--all-canonical"]) == 2
    assert run(
        ["--exp", EXP, "--obs", OBS, "--event", "noteq:2", "--evidence", "9"]
    ) == 2
    # incompatible sources: experimental control mass below the z=0 stratum
    exp = tmp_path / "exp.csv"
    exp.write_text("z,y,count\n1,0,50\n1,1,50\n0,0,1\n0,1,99\n")
    obs = tmp_path / "obs.csv"
    obs.write_text("z,y,count\n1,0,10\n1,1,90\n0,0,80\n0,1,20\n")
    assert run(["--exp", str(exp), "--obs", str(obs), "--all-canonical"]) == 2


_TOO_LARGE = "counts must not exceed 2**53 - 1 = 9007199254740991"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("count,refusal", [
    ("Infinity", _TOO_LARGE),
    ("1e300", _TOO_LARGE),
    (str(2**53 + 1), _TOO_LARGE),
    ("1" + "0" * 400, "bad counts layout: int too large to convert to float"),  # unreadable
], ids=["infinity", "1e300", "2**53+1", "400-digits"])
def test_counts_beyond_2_to_the_53_exit_two_naming_the_file(tmp_path, capsys, count, refusal):
    exp = tmp_path / "exp.json"
    exp.write_text(f'{{"counts": [[{count}, 1, 2], [3, 4, 5]]}}')
    assert run(["--mode", "pc", "--exp", str(exp), "--all-canonical"]) == 2
    assert capsys.readouterr() == ("", f"error: {exp}: {refusal}\n")


@pytest.mark.parametrize("counts,refusal", [
    ([["3", "4"], ["5", "6"]], 'count "3" is not a number'),
    ([[True, True], [1, 2]], "count true is not a number"),
], ids=["string", "bool"])
def test_json_counts_that_are_not_numbers_exit_two_naming_the_file(tmp_path, capsys, counts,
                                                                   refusal):
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({"counts": counts}))
    assert run(["--mode", "pc", "--exp", str(exp), "--all-canonical"]) == 2
    assert capsys.readouterr() == ("", f"error: {exp}: {refusal}\n")


@pytest.mark.parametrize("level", [10**30, 10**9, 1_000], ids=["1e30", "1e9", "1000"])
def test_outcome_level_beyond_the_limit_exits_two_naming_the_line(tmp_path, capsys, level):
    exp = tmp_path / "exp.csv"
    exp.write_text(f"z,y,count\n0,0,1\n0,{level},3\n1,0,4\n1,1,5\n")
    assert run(["--mode", "pc", "--exp", str(exp), "--all-canonical"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {exp}:3: outcome level exceeds 999\n"


@pytest.mark.parametrize("kind", ["table", "strata"])
def test_tables_beyond_the_level_limit_exit_two_naming_the_file(tmp_path, capsys, kind):
    path = tmp_path / f"{kind}.json"
    counts = [[1] * 1_200, [2] * 1_200]
    if kind == "table":
        path.write_text(json.dumps({"counts": counts}))
        argv, message = ["--mode", "pc", "--exp", str(path)], ""
    else:
        path.write_text(json.dumps([{"id": "s", "counts": counts}]))
        argv, message = ["--route", "unconfounded", "--strata", str(path)], " stratum 's':"
    assert run(argv + ["--event", "eq:1", "--evidence", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}:{message} outcome level 1199 exceeds 999\n"


@pytest.mark.parametrize("strata,message", [
    ('[{"id": "a", "counts": [[3, 4], [5, 6]]}, {"id": "a", "counts": [[1, 2], [3, 4]]}]',
     "stratum id 'a' repeats"),
    ('[{"id": "s", "counts": [[0, 0], [3, 4]]}]',
     "stratum 's': each treatment arm needs at least one observation"),
    ('[{"id": "s", "counts": [[3, 4], [5, "6"]]}]', "stratum 's': count \"6\" is not a number"),
], ids=["repeated_id", "empty_arm", "string_count"])
def test_bad_strata_exit_two_naming_the_file(tmp_path, capsys, strata, message):
    path = tmp_path / "strata.json"
    path.write_text(strata)
    assert run(["--route", "unconfounded", "--strata", str(path), "--all-canonical"]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


def test_an_unwritable_out_path_exits_two_naming_it(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert run(["--exp", EXP, "--obs", OBS, "--all-canonical", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.parent.exists()
    assert captured.err.startswith(f"error: {out}: [Errno 2] No such file or directory")


def test_a_negative_seed_is_a_usage_error_only_with_verify(tmp_path, capsys):
    refusal = "error: --seed must be nonnegative with --verify\n"
    base = ["--exp", EXP, "--obs", OBS, "--all-canonical"]
    assert run(base + ["--verify", "--seed", "-1"]) == 1
    assert capsys.readouterr() == ("", refusal)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1, "verify": True}))
    assert run(["--config", str(cfg)] + base) == 1
    assert capsys.readouterr() == ("", refusal)
    # without --verify the seed is only echoed
    assert run(base + ["--seed", "-1"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == -1


def test_bad_event_level_is_a_usage_error_naming_the_spec(capsys):
    assert run(["--exp", EXP, "--obs", OBS, "--event", "eq:x"]) == 1
    assert capsys.readouterr().err == "error: bad event level in 'eq:x'\n"


@pytest.mark.parametrize("argv,code", [
    (["--exp", EXP, "--obs", OBS, "--all-canonical"], 0),
    (["--exp", EXP, "--obs", OBS, "--event", "eq:x"], 1),
    (["--help"], 0),
], ids=["report", "usage-error", "help"])
def test_the_module_entry_point_runs_main(capsys, argv, code):
    """``python -m pnbounds.cli`` prints the bytes and exits with the code of ``main``."""
    assert main(argv) == code
    captured = capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    process = subprocess.run([sys.executable, "-m", "pnbounds.cli", *argv],
                             capture_output=True, env=env, timeout=60)
    assert (process.returncode, process.stdout, process.stderr) == (
        code, captured.out.encode(), captured.err.encode())


_IMPORT_PROBE = """
import contextlib, io, json, sys
import numpy
bare = "numpy.random" in sys.modules
from pnbounds.cli import main

def run(runs):
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [main(argv) for argv in runs]
    return codes, "numpy.random" in sys.modules

routes = json.loads(sys.argv[1])
default = run([r + ["--all-canonical"] + t for r in routes for t in ([], ["--table"])])
verify = run([r + ["--all-canonical", "--verify", "--samples", "100"] for r in routes])
print(json.dumps([bare, default, verify]))
"""


def test_only_verify_imports_numpy_random():
    """A default report draws nothing, so in a fresh process it never pays
    for ``numpy.random``'s import; ``--verify`` samples and does."""
    routes = [["--exp", EXP, "--obs", OBS], ["--route", "unconfounded", "--strata", STRATA],
              ["--mode", "pc", "--exp", EXP]]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    process = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(routes)],
                             capture_output=True, env=env, timeout=60, check=True)
    bare, default, verify = json.loads(process.stdout)
    if bare:
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert default == [[0] * 6, False]
    assert verify == [[0] * 3, True]


def test_stdout_json_when_no_out(capsys):
    code = main(["--exp", EXP, "--obs", OBS, "--event", "eq:2", "--evidence", "2",
                 "--assume", "incr"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cells"][0]["value"] == pytest.approx(0.83, abs=0.005)
