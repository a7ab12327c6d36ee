"""pnbounds benchmark: one workload, one closed-loop client, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The inputs are generated from the seed under ``perfbench/_work/NAME``.
With ``--trace 0`` the reports run untraced in a fresh interpreter for S
seconds (at least one pass over the inputs) and the end-to-end metrics are
printed.  With ``--trace 1`` one untraced and one traced pass over the
inputs run in two fresh interpreters and the per-layer metrics are printed.
Either way every report is checked against the exact LP afterwards.  The
last line of standard output is the JSON result; the lines before it say
the same for a reader.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# one client, one thread: no BLAS worker threads here or in the children,
# set before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_RUNS = 9
#: A latency percentile is reported only with this many reports beyond it.
TAIL_SAMPLES = 10


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH="src")


def setup_times(runs: int = SETUP_RUNS) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing pnbounds, after a warm-up.

    Returns the raw times and the times at the reference speed, each scaled
    by the speed probes run just before it.
    """
    times: list[float] = []
    scaled: list[float] = []
    for i in range(runs + 1):
        probe_ns = speed.probe_for(10**7, share=1.0)
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", "import pnbounds"], env=_child_env(),
                              capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0:
            raise BenchmarkError(f"import pnbounds failed: {done.stderr.strip()[-500:]}")
        if i:
            times.append(elapsed)
            scaled.append(elapsed * speed.scale(probe_ns))
    return times, scaled


def run_loop(work: Path, mode: str, seconds: float, probe: bool) -> dict:
    result = work / f"result-{mode}.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "loop.py"), str(work / "manifest.json"), str(result), mode,
         str(seconds), str(int(probe))],
        env=_child_env(), capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise BenchmarkError(f"{mode} loop failed: {done.stderr.strip()[-2000:]}")
    return json.loads(result.read_text())


def check_outputs(manifest: list[dict], run: dict) -> dict:
    """Check the first output of every input, then account for every report."""
    import check

    out_dir = Path(run["output_dir"])
    per_input: dict[int, tuple[list, int | None]] = {}
    lp_cells = all_cells = 0
    for key in run["output_crc"]:
        index = int(key)
        entry = manifest[index]
        try:
            report = json.loads((out_dir / f"{index}.json").read_text())
        except json.JSONDecodeError:
            per_input[index] = (["no JSON report"] * entry["cells"], None)
            continue
        per_input[index] = (check.check_report(entry, report), check.expected_exit(report))
        all_cells += len(report["cells"])
        lp_cells += sum(1 for cell in report["cells"] if cell.get("method") == "lp" or "lp_cross_check" in cell)
    reasons: Counter = Counter()
    cells = failed_reports = 0
    for rep in run["reports"]:
        failures, expected = per_input[rep["input"]]
        n = manifest[rep["input"]]["cells"]
        cells += n
        if rep["exit"] != expected or not rep["repeat_ok"]:
            failed_reports += 1
            why = "output differs from the first run" if rep["exit"] == expected else (
                f"exit {rep['exit']}, expected {expected}: {rep['stderr'][-200:]}")
            reasons[f"report failed ({why})"] += n
        else:
            reasons.update(r for r in failures if r is not None)
    return {
        "reports": len(run["reports"]),
        "failed_reports": failed_reports,
        "cells": cells,
        "cells_failed": sum(reasons.values()),
        "reasons": dict(reasons),
        "unexpected": sum(v for k, v in reasons.items() if k != check.KNOWN_DEFECT),
        "lp_cell_share": lp_cells / all_cells if all_cells else 0.0,
    }


def input_properties(manifest: list[dict], checked: dict) -> dict:
    classes = Counter(e["class"] for e in manifest)
    routes = Counter(e["route"] for e in manifest)
    return {
        "inputs": len(manifest),
        "class_share": {k: v / len(manifest) for k, v in sorted(classes.items())},
        "route_share": {k: v / len(manifest) for k, v in sorted(routes.items())},
        "levels": sorted({e["levels"] for e in manifest}),
        "lp_cell_share": checked["lp_cell_share"],
    }


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank percentile, or None without TAIL_SAMPLES values beyond it."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank < TAIL_SAMPLES:
        return None
    return ordered[rank - 1]


def scaled_ms(run: dict) -> list[float]:
    """Each report's latency in ms, scaled by the probes that followed it.

    Reports of a run without probes keep their raw latency.
    """
    return [r["ns"] / 1e6 * (speed.scale(r["probe_ns"]) if "probe_ns" in r else 1.0)
            for r in run["reports"]]


def end_to_end(work: Path, manifest: list[dict], seconds: float, probe: bool) -> tuple[dict, dict, dict]:
    setup, setup_scaled = setup_times()
    run = run_loop(work, "timed", seconds, probe)
    raw_ms = [r["ns"] / 1e6 for r in run["reports"]]
    latencies = scaled_ms(run)
    checked = check_outputs(manifest, run)
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "cells_per_s": (checked["cells"] / (sum(latencies) / 1e3), "1/s"),
        "report_ms_p50": (statistics.median(latencies), "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"raw {statistics.median(setup):.6g}; median of {len(setup)} fresh interpreters",
        "cells_per_s": f"raw {checked['cells'] / (sum(raw_ms) / 1e3):.6g}; {checked['cells']} cells "
                       f"in {sum(raw_ms) / 1e3:.3f} s inside cli.main",
        "report_ms_p50": f"raw {statistics.median(raw_ms):.6g}; {len(latencies)} reports",
        "peak_rss_mb": "loop process, not scaled",
    }
    p95 = percentile(latencies, 0.95)
    notes["report_ms_p95"] = (f"{p95:.6g} ms ({len(latencies)} reports)" if p95 is not None
                              else f"not reported: {len(latencies)} reports leave fewer than {TAIL_SAMPLES} beyond it")
    return metrics, notes, checked


def per_layer(work: Path, manifest: list[dict], seconds: float, probe: bool) -> tuple[dict, dict, dict]:
    untraced = run_loop(work, "pass", seconds, probe)
    traced = run_loop(work, "traced", seconds, probe)
    checked = check_outputs(manifest, untraced)
    if traced["output_crc"] != untraced["output_crc"]:
        checked["unexpected"] += 1
        checked["reasons"]["tracing changed an output"] = 1
    summary = traced["trace"]
    metrics = tracing.layer_metrics(summary, len(traced["reports"]), traced["wall_s"])
    overhead = sum(scaled_ms(traced)) / sum(scaled_ms(untraced))
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["check.error_ratio"] = (checked["cells_failed"] / checked["cells"], "ratio")
    metrics["check.cells_failed"] = (checked["cells_failed"], "count")
    metrics["check.cells_checked"] = (checked["cells"], "count")
    (work / "trace.json").write_text(json.dumps(summary, indent=1) + "\n")
    residual = (metrics["trace.self_sum_ms"][0] + metrics["trace.unspanned_ms"][0]
                - metrics["trace.wall_ms"][0])
    if abs(residual) > 1e-3:
        checked["unexpected"] += 1
        checked["reasons"][f"self times miss the traced wall time by {residual:.6f} ms"] = 1
    notes = {name: f"{f['calls']} calls, {f['self_ns'] / 1e6:.3f} ms self"
             for name, f in summary["functions"].items()}
    notes["trace.overhead_ratio"] = "time inside cli.main, traced over untraced"
    notes["trace.self_sum_ms + trace.unspanned_ms - trace.wall_ms"] = f"{residual:.6f} ms"
    return metrics, notes, checked


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if not (ROOT / "src" / "pnbounds" / "__init__.py").is_file():
        print(f"no pnbounds sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = Path("perfbench") / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    manifest = workloads.generate(args.workload, args.seed, work)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, notes, checked = measure(work, manifest, args.seconds, args.workload in workloads.SCALED)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    properties = input_properties(manifest, checked)
    correct = checked["failed_reports"] == 0 and checked["unexpected"] == 0
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{checked['reports']} reports over {len(manifest)} inputs, one closed-loop client")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<12} {notes.get(name, '')}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"  {name:<44} {note}")
    print(f"  error_ratio {checked['cells_failed'] / checked['cells']:.6g} "
          f"({checked['cells_failed']} of {checked['cells']} cells failed)")
    for reason, count in sorted(checked["reasons"].items()):
        print(f"    {count:>8} {reason}")
    print(f"  inputs {json.dumps(properties)}")
    print(f"  correct {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": checked["reports"],
        "failed": checked["failed_reports"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
