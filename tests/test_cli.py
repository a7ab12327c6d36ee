import json
from dataclasses import replace
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
from pnbounds.bounds import monotone_falsified
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
    verify_report,
)
from helpers import lalonde_pair

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
    table = render_table(run_analysis(cfg))
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


def test_table_alone_encodes_no_json(tmp_path, capsys, monkeypatch):
    encoded = []

    def counting(obj, *indent):
        if not indent:  # the whole report, not a nested value
            encoded.append(obj)
        return _dumps(obj, *indent)

    monkeypatch.setattr(cli, "_dumps", counting)
    argv = ["--exp", EXP, "--obs", OBS, "--all-canonical", "--table"]
    report = run_analysis(AnalysisConfig(exp=EXP, obs=OBS, all_canonical=True))
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
_KEYS = st.one_of(_STRINGS, st.integers(), st.floats(), st.booleans(), st.none())
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
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
    """2-6 records: dicts of scalars, lists (or tuples) of scalars, or both mixed;
    maybe one empty record, one holding a nested container, or all of it inside
    a dict or a list, so the records sit deeper."""
    dicts = st.dictionaries(st.one_of(_KEYS, _EDGES), _FIELDS, min_size=1, max_size=4)
    lists = st.lists(_FIELDS, min_size=1, max_size=4)
    record = draw(st.sampled_from([dicts, lists, lists.map(tuple), st.one_of(dicts, lists)]))
    records = draw(st.lists(record, min_size=2, max_size=6))
    i = draw(st.integers(0, len(records) - 1))
    odd = draw(st.sampled_from(["none", "empty", "nested"]))
    if odd == "empty":
        records[i] = type(records[i])()
    elif odd == "nested":
        inner = draw(st.sampled_from([[], {}, [0], {"k": "}"}, ("]",)]))
        records[i] = ({**records[i], "nested": inner} if isinstance(records[i], dict)
                      else [*records[i], inner])
    return draw(st.sampled_from([records, tuple(records), {"records": records}, [records]]))


@settings(max_examples=300, deadline=None)
@given(_record_lists())
def test_dumps_encodes_record_lists_like_json_dumps_with_indent_2(records):
    assert _dumps(records) == json.dumps(records, indent=2)


def test_verify_report_encodes_like_json_dumps():
    cfg = AnalysisConfig(exp=EXP, obs=OBS, all_canonical=True, verify=True, samples=2000)
    pair, provenance = load_marginals(cfg)
    facts = pair_facts(pair)
    report = run_analysis(cfg, (facts, provenance))
    report["verification"] = verify_report(cfg, facts, report)
    assert any(isinstance(c["verification"], dict) for c in report["verification"]["cells"])
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
        elif monotone_falsified(pair) is not None:
            return {"kind": "refused", "note": monotone_falsified(pair),
                    "method": "closed-form"}
        else:
            result = pn_bounds_monotone(pair, event, y)
    except ZeroEvidenceError as exc:
        return {"kind": "refused", "note": str(exc), "method": "none"}
    expected = {"kind": "interval", "lower": result.lower, "upper": result.upper,
                "method": result.method.value}
    if result.note:
        expected["note"] = result.note
    return expected


def test_report_cells_equal_per_cell_library_calls(tmp_path):
    rng = np.random.default_rng(4)
    seen = set()
    for levels in range(3, 9):
        for cls in ("staircase", "lowertri", "inconsistent", "zerolevel"):
            q = _class_counts(rng, cls, levels)
            for cfg in _route_configs(tmp_path, f"{cls}{levels}", q, rng):
                pair, _ = load_marginals(cfg)
                report = run_analysis(cfg)
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


def test_pc_bounds_equal_the_pc_report_cells(tmp_path):
    from pnbounds import UnsupportedEventError, pc_bounds
    from pnbounds.bounds import Method

    rng = np.random.default_rng(8)
    refusals = {  # the error behind each refusal method of the report
        "none": ZeroEvidenceError,
        "point-identification": FalsificationError,
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
                cells = run_analysis(cfg)["cells"] + run_analysis(
                    replace(cfg, all_canonical=False, events=customs)
                )["cells"]
                for cell in cells:
                    event = parse_event(cell["event"], levels)
                    y, assumptions = cell["evidence"], Assumptions(cell["assumptions"])
                    try:
                        result = pc_bounds(pair, event, y, assumptions)
                    except (*refusals.values(), UnsupportedEventError) as exc:
                        assert cell["kind"] == "refused"
                        seen.add((cell["assumptions"], cell["method"], type(exc).__name__))
                        if cell["method"] == "closed-form":
                            # both refuse before checking the evidence
                            assert cell["note"] == monotone_falsified(pair)
                            assert type(exc) is UnsupportedEventError
                            assert str(exc).endswith(": " + cell["note"])
                            zero = pair.treated_law[y] <= ATOL
                            seen.add(("mono", "closed-form", "zero evidence" if zero else "event"))
                        else:
                            assert type(exc) is refusals[cell["method"]]
                            assert str(exc) == cell["note"]
                        continue
                    assert result.method is Method.CLOSED_FORM
                    if cell["kind"] == "point":
                        assert result.lower == result.upper == cell["value"]
                    elif cell["kind"] == "interval":
                        assert (result.lower, result.upper) == (cell["lower"], cell["upper"])
                        assert result.note == cell.get("note")
                    else:  # a family's forms on monotone-inconsistent data
                        assert cell["method"] == "closed-form"
                        assert cell["note"] == monotone_falsified(pair)
                    seen.add((cell["assumptions"], cell["kind"], result.note is not None))
    assert seen >= {
        ("incr", "point", False),
        ("incr", "point-identification", "FalsificationError"),
        ("incr", "none", "ZeroEvidenceError"),
        ("marginal", "interval", False),
        ("marginal", "none", "ZeroEvidenceError"),
        ("mono", "interval", False),
        ("mono", "none", "ZeroEvidenceError"),
        ("mono", "refused", True),  # crossed family forms, with their note
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
        monkeypatch, lp.pn_bounds_lp, identify.pair_facts, identify.falsification_check
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
    # the report's facts, the LP call, and the bracket check inside it with
    # the facts that check builds
    assert sorted(calls) == [
        "pnbounds.cli.pn_bounds_lp",
        "pnbounds.identify.pair_facts",
        "pnbounds.identify.pair_facts",
        "pnbounds.lp.falsification_check",
    ]


def test_a_report_computes_each_level_in_one_array_pass(tmp_path, monkeypatch):
    from pnbounds import bounds

    levels = []
    level_bounds = bounds.level_bounds

    def counting(facts, coeffs, ys, assumptions):
        levels.append((assumptions.value, len(ys)))
        return level_bounds(facts, coeffs, ys, assumptions)

    monkeypatch.setattr(bounds, "level_bounds", counting)
    calls = count_every_binding(monkeypatch, bounds.cell_bounds)
    code, report = report_from(tmp_path, LALONDE_ROUTES["experimental"] + ["--all-canonical"])
    assert code == 0 and len(report["cells"]) == 30
    # one call per level, over every cell of the level, and no per-cell path
    assert levels == [("incr", 10), ("marginal", 10), ("mono", 10)]
    assert calls == []
    # incr refused by the brackets, mono by a negative gap: no estimate, no call
    levels.clear()
    exp, obs = falsifying_files(tmp_path)
    code, report = report_from(tmp_path, ["--exp", exp, "--obs", obs, "--all-canonical"])
    assert code == 0
    assert levels == [("marginal", 4)]
    assert {c["kind"] for c in report["cells"] if c["assumptions"] != "marginal"} == {"refused"}
    # a zero-evidence level leaves the other levels' rows to the one call
    levels.clear()
    zero = tmp_path / "zero.csv"
    zero.write_text("z,y,count\n1,0,10\n1,1,0\n1,2,30\n0,0,20\n0,1,10\n0,2,10\n")
    code, report = report_from(tmp_path, ["--mode", "pc", "--exp", str(zero), "--all-canonical"])
    assert code == 0 and report["falsification"]["passed"] is False
    assert levels == [("marginal", 5), ("mono", 5)]


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
        identify.falsification_check, bounds.monotone_falsified, lp.pn_bounds_lp,
    )
    code, report = report_from(tmp_path, LALONDE_ROUTES[route] + ["--all-canonical"])
    assert code == 0 and len(report["cells"]) == 30
    facts = ["pnbounds.identify.pair_facts", "pnbounds.identify.gap_sequence"]
    assert calls[:2] == facts
    # the strata example fails the brackets: the one LP cross-check then
    # runs the LP's own bracket check, on facts of its own
    cross_check = ["pnbounds.cli.pn_bounds_lp", "pnbounds.lp.falsification_check", *facts]
    assert calls[2:] == ([] if report["falsification"]["passed"] else cross_check)
    assert report["falsification"]["passed"] is (route != "unconfounded")


# --- verification -------------------------------------------------------------------

def test_verify_passes_on_good_data(tmp_path):
    code, report = report_from(
        tmp_path,
        ["--exp", EXP, "--obs", OBS, "--event", "noteq:2", "--evidence", "2",
         "--verify", "--samples", "300", "--seed", "7"],
    )
    assert code == 0
    assert report["verification"]["passed"] is True
    checks = [
        c["verification"] for c in report["verification"]["cells"]
        if isinstance(c.get("verification"), dict)
    ]
    assert checks and all(c["contained"] for c in checks)


def test_verify_fails_when_an_estimate_cannot_be_sampled(tmp_path, monkeypatch):
    from pnbounds import oracle

    def empty(level, n, rng):
        raise oracle.SamplingError("no draw met the margins")

    monkeypatch.setattr(oracle, "_draw", empty)
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
        assert entry["verification"] == "skipped: no draw met the margins"


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
        assert entry["verification"] == "skipped: no estimate to verify"
        event = parse_event(cell["event"], 3)
        with pytest.raises(LpInfeasibleError):
            pn_bounds_lp(pair, event, cell["evidence"], Assumptions.MONOTONICITY)


def test_verify_draws_one_batch_per_assumption_level(tmp_path, monkeypatch):
    from pnbounds import oracle
    from pnbounds.bounds import BoundsResult, Method
    from pnbounds.cli import load_marginals, parse_event
    from pnbounds.core import Assumptions

    drawn = []
    draw = oracle._draw

    def counting(level, n, rng):
        drawn.append(level.assumptions)
        return draw(level, n, rng)

    monkeypatch.setattr(oracle, "_draw", counting)
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
    fill, check = oracle._extremal_fills, oracle._checked_witness

    def counting_fill(level, specs):
        batches.append(level.assumptions)
        built.extend((level.assumptions, y, first.tobytes()) for y, first in specs)
        return fill(level, specs)

    def counting_check(q, level):
        checked.append(level.assumptions)
        return check(q, level)

    monkeypatch.setattr(oracle, "_extremal_fills", counting_fill)
    monkeypatch.setattr(oracle, "_checked_witness", counting_check)
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
    # one batch per sampled level
    assert sorted(a.value for a in batches) == ["marginal", "mono"]
    assert checked.count(Assumptions.MONOTONIC_INCREMENT) == 1
    assert len(checked) == len(built) + 1


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


def test_verify_widened_bounds_fail(tmp_path):
    code = main(
        ["--exp", EXP, "--obs", OBS, "--event", "noteq:2", "--evidence", "2",
         "--assume", "marginal", "--verify", "--samples", "200", "--seed", "7",
         "--inject-widen", "0.05", "--out", str(tmp_path / "r.json")]
    )
    assert code == 3


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
        {"inject-widen": "0.1"},
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("count", ["Infinity", "1e300", str(2**53 + 1), "1" + "0" * 400],
                         ids=["infinity", "1e300", "2**53+1", "400-digits"])
def test_counts_beyond_2_to_the_53_exit_two_naming_the_file(tmp_path, capsys, count):
    exp = tmp_path / "exp.json"
    exp.write_text(f'{{"counts": [[{count}, 1, 2], [3, 4, 5]]}}')
    assert run(["--mode", "pc", "--exp", str(exp), "--all-canonical"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {exp}: bad counts layout: ")
    assert "Traceback" not in captured.err


def test_stdout_json_when_no_out(capsys):
    code = main(["--exp", EXP, "--obs", OBS, "--event", "eq:2", "--evidence", "2",
                 "--assume", "incr"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cells"][0]["value"] == pytest.approx(0.83, abs=0.005)
