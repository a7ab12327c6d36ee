"""Closed loop with one client: run the manifest's reports through cli.main.

Run by run.py in a fresh interpreter, from the checkout root, with
``PYTHONPATH=src``:

    python3 perfbench/loop.py MANIFEST RESULT MODE SECONDS PROBE

MODE ``timed`` starts each report when the previous one ends, cycling over
the manifest until SECONDS have passed and every input ran once.  MODE
``pass`` runs each input once; ``traced`` does the same with spans on.
The first output of each input is written next to the manifest for the
output check; later outputs of the same input must repeat it exactly.
With PROBE 1, the speed probe from speed.py runs after each report for 2%
of the report's time (at least once), outside the report's timing.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import zlib
from pathlib import Path

import speed
import tracing


def _run_report(main, argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # a crash is a failed report, the loop goes on
            return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def run(manifest_path: Path, result_path: Path, mode: str, seconds: float, probe: bool) -> None:
    import pnbounds.cli

    manifest = json.loads(manifest_path.read_text())
    out_dir = manifest_path.parent / f"out-{mode}"
    out_dir.mkdir(exist_ok=True)
    tracer = tracing.Tracer(keep_reports=2) if mode == "traced" else None
    first_crc: dict[int, int] = {}
    reports = []
    with tracing.instrument(tracer) if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        deadline = start + seconds
        done = 0
        while done < len(manifest) or (mode == "timed" and time.perf_counter() < deadline):
            index = done % len(manifest)
            if tracer:
                tracer.report = done
            t0 = time.perf_counter_ns()
            code, output, stderr = _run_report(pnbounds.cli.main, manifest[index]["argv"])
            t1 = time.perf_counter_ns()
            if tracer:
                tracer.end_report()
            crc = zlib.crc32(output.encode())
            if index not in first_crc:
                first_crc[index] = crc
                (out_dir / f"{index}.json").write_text(output)
            reports.append({"input": index, "ns": t1 - t0, "exit": code,
                            "repeat_ok": crc == first_crc[index],
                            "stderr": stderr[-500:] if code not in (0, 3) else ""})
            if probe:
                reports[-1]["probe_ns"] = speed.probe_for(t1 - t0)
            done += 1
        wall = time.perf_counter() - start
    result = {
        "mode": mode,
        "wall_s": wall,
        "reports": reports,
        "output_crc": {str(k): v for k, v in first_crc.items()},
        "output_dir": str(out_dir),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["trace"] = tracer.summary()
    result_path.write_text(json.dumps(result) + "\n")


def main(argv: list[str]) -> int:
    manifest, result, mode, seconds, probe = argv
    if mode not in ("timed", "pass", "traced") or probe not in ("0", "1"):
        print(f"unknown mode {mode!r} or probe {probe!r}", file=sys.stderr)
        return 2
    import pnbounds

    src = (Path.cwd() / "src").resolve()
    if src not in Path(pnbounds.__file__).resolve().parents:
        print(f"pnbounds imported from {pnbounds.__file__}, not from {src}", file=sys.stderr)
        return 2
    run(Path(manifest), Path(result), mode, float(seconds), probe == "1")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
