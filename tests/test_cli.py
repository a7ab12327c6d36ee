import json
from pathlib import Path

import pytest

from pnbounds.cli import AnalysisConfig, main, render_table, run_analysis

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
    assert cell["method"] == "lp"  # no closed form for this family


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


def test_verify_entry_point():
    from pnbounds.cli import verify

    cfg = AnalysisConfig(
        exp=EXP, obs=OBS, events=["noteq:2"], evidence=[2], assume="marginal",
        samples=200, seed=3,
    )
    outcome = verify(cfg)
    assert outcome["passed"] is True
    assert outcome["samples"] == 200


def test_verify_fails_when_an_estimate_cannot_be_sampled(tmp_path):
    # monotone-inconsistent table: closed-form mono intervals, empty polytope
    exp = tmp_path / "exp.json"
    exp.write_text('{"counts": [[10, 10, 80], [80, 10, 10]]}')
    code, report = report_from(
        tmp_path,
        ["--mode", "pc", "--exp", str(exp), "--all-canonical", "--assume", "mono",
         "--verify"],
    )
    assert code == 3
    verification = report["verification"]
    assert verification["passed"] is False
    assert len(verification["cells"]) == 10
    for entry in verification["cells"]:
        assert entry["kind"] == "interval"
        assert entry["verification"].startswith("skipped: monotone feasible set is empty")


def test_verify_draws_one_batch_per_assumption_level(tmp_path, monkeypatch):
    from pnbounds import oracle
    from pnbounds.bounds import BoundsResult, Method
    from pnbounds.cli import load_marginals, parse_event
    from pnbounds.core import Assumptions

    drawn = []
    sample_array = oracle._sample_array

    def counting(pair, assumptions, n, rng):
        drawn.append(assumptions)
        return sample_array(pair, assumptions, n, rng)

    monkeypatch.setattr(oracle, "_sample_array", counting)
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


def test_stdout_json_when_no_out(capsys):
    code = main(["--exp", EXP, "--obs", OBS, "--event", "eq:2", "--evidence", "2",
                 "--assume", "incr"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cells"][0]["value"] == pytest.approx(0.83, abs=0.005)
