"""Self-tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path, monkeypatch):
    generated = []
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        workloads.generate(workload, 7 if name != "c" else 8, Path("work"))
        generated.append(_files(tmp_path / name / "work"))
    assert generated[0] == generated[1]
    assert generated[0] != generated[2]


def test_generated_tables_have_their_class():
    for levels in (3, 8, 20):
        for cls in ("staircase", "lowertri", "arbitrary", "zerolevel"):
            q = workloads.joint_for_class(np.random.default_rng([5, levels]), cls, levels)
            treated, control = q.sum(axis=1) / q.sum(), q.sum(axis=0) / q.sum()
            if cls in ("staircase", "zerolevel"):
                assert workloads.bracket_violation(treated, control) <= 1e-12
            if cls == "lowertri":
                assert workloads.bracket_violation(treated, control) > 0.01
                assert workloads.monotone_violation(treated, control) <= 1e-12
            if cls == "arbitrary":
                assert workloads.monotone_violation(treated, control) > 0.01
            assert (treated == 0).any() == (cls == "zerolevel")


def _spans(*rows):
    return [tracing.Span(name, start, end, parent) for name, start, end, parent in rows]


def test_self_time_is_duration_minus_child_cover():
    spans = _spans(
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("a.inner", 20, 30, 1),
        ("b", 50, 70, 0),
        ("c", 60, 80, 0),  # overlaps b: the overlap is covered once
        ("d", 95, 120, 0),  # runs past its parent: only [95, 100] is covered
    )
    assert tracing.self_times(spans) == [100 - 30 - 30 - 5, 30 - 10, 10, 20, 20, 25]


def test_self_times_of_nested_spans_add_up_to_the_root():
    spans = _spans(("root", 0, 50, -1), ("a", 5, 20, 0), ("b", 6, 9, 1), ("c", 30, 45, 0))
    assert sum(tracing.self_times(spans)) == 50


def _lalonde_argv(tmp_path: Path, *extra: str) -> list[str]:
    manifest = workloads.generate("verify", 1, tmp_path)
    return manifest[1]["argv"][:4] + list(extra)


def test_instrument_wraps_every_binding_and_restores_it(tmp_path):
    import pnbounds.cli
    import pnbounds.lp
    import pnbounds.oracle

    original = pnbounds.lp.pn_bounds_lp
    tracer = tracing.Tracer(keep_reports=1)
    with tracing.instrument(tracer):
        assert pnbounds.cli.pn_bounds_lp is pnbounds.lp.pn_bounds_lp is pnbounds.oracle.pn_bounds_lp
        assert pnbounds.lp.pn_bounds_lp is not original
        tracer.report = 0
        with contextlib.redirect_stdout(io.StringIO()):
            code = pnbounds.cli.main(_lalonde_argv(tmp_path, "--assume", "mono", "--event", "custom:101",
                                                   "--evidence", "2"))
        root = tracer.spans[0]
        tracer.end_report()
    assert code == 0
    assert pnbounds.lp.pn_bounds_lp is original and pnbounds.cli.pn_bounds_lp is original
    summary = tracer.summary()
    assert summary["functions"]["lp.pn_bounds_lp"]["calls"] == 1
    assert summary["functions"]["cli.main"]["calls"] == 1
    assert root.name == "cli.main" and summary["root_ns"] == root.end - root.start
    assert sum(f["self_ns"] for f in summary["functions"].values()) == summary["root_ns"]


def test_check_flags_a_wrong_interval(tmp_path):
    import pnbounds.cli

    entry = workloads.generate("verify", 1, tmp_path)[1]
    entry["argv"] = entry["argv"][:5]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert pnbounds.cli.main(entry["argv"]) == 0
    report = json.loads(out.getvalue())
    assert check.check_report(entry, report) == [None] * entry["cells"]
    cell = next(c for c in report["cells"] if c["kind"] == "interval")
    cell["upper"] += 1e-6
    assert check.check_report(entry, report).count("interval differs from the LP") == 1


def test_inject_widen_raises_error_ratio(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    ratios = []
    for widen in (0.0, 0.05):
        work = tmp_path / f"widen{widen}"
        manifest = workloads.generate("verify", 3, work, samples=300, inject_widen=widen)
        checked = run.check_outputs(manifest, run.run_loop(work, "pass", 0, False))
        assert checked["failed_reports"] == 0
        ratios.append(checked["cells_failed"] / checked["cells"])
    assert ratios[1] > ratios[0] > 0


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"}, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
