"""Mutation census of ``--verify``: which one-change faults in the engines it catches.

Run by hand, not by pytest (about 2 minutes on one core):

    python tests/mutation_census.py [--src src] [--out census.json]

Each mutant is ``bounds.py`` or ``identify.py`` of the package under
``--src`` with one change inside a function: ``+``/``-`` or ``*``/``/``
swapped, a comparison made strict or loose (``<``/``<=``, ``>``/``>=``,
``==``/``!=``), ``max``/``min`` or ``np.maximum``/``np.minimum`` swapped, a
``_max0``/``_min1`` clip swapped, a 0/1 constant swapped, ``and``/``or``
swapped, or one ``not``/``~`` dropped.  Each mutant runs every report in one
process on its own copy of the package: LaLonde on its three routes, and
seeded ``--mode pc`` tables at J = 3-8 (one-level-lift, lower-triangular
and unrestricted joints; canonical and custom events), each with
``--verify --samples 2000``.  Against the unmutated package a mutant is:

- ``killed``: some report exits 3, that is ``--verify`` fails;
- ``raises``: some report raises past ``cli.main``, or the package does
  not import;
- ``equivalent``: every exit code and report byte is unchanged;
- a survivor: a report changes and ``--verify`` passes.  Its class is the
  first that holds of ``out-of-range`` (a printed bound or point outside
  [0, 1] by more than ``ATOL``), ``lp-disagreement`` (a refusal whose
  ``lp_cross_check`` reads ``feasible (inconsistent)``), ``refused-mono``
  (a ``mono`` cell refused where the unmutated report has an estimate),
  ``exit-code`` and ``bytes``.

It prints the outcome table and every survivor; ``--out`` also writes them
as JSON.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
from pnbounds.core import ATOL  # noqa: E402

DATA = ROOT / "tests" / "data"
TARGETS = ("bounds.py", "identify.py")
SURVIVOR_CLASSES = ("out-of-range", "lp-disagreement", "refused-mono", "exit-code", "bytes")

_OPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
        ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.And: ast.Or, ast.Or: ast.And}
_CALLS = {"max": "min", "min": "max", "maximum": "minimum", "minimum": "maximum",
          "_max0": "_min1", "_min1": "_max0"}

#: Run in a fresh interpreter on one mutant: every argv of stdin through
#: ``cli.main``, writing [exit code or "raises <name>", stdout] per report.
_RUNNER = """
import contextlib, io, json, sys
argvs = json.load(sys.stdin)
try:
    from pnbounds.cli import main
except Exception as exc:
    json.dump([["raises " + type(exc).__name__, ""]] * len(argvs), sys.stdout)
    raise SystemExit
results = []
for argv in argvs:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except Exception as exc:
        code = "raises " + type(exc).__name__
    results.append([code, out.getvalue()])
json.dump(results, sys.stdout)
"""


class _Mutator(ast.NodeTransformer):
    """Counts the mutation sites inside functions in visit order, and makes
    the change at site ``target`` (none for -1), recording it in ``change``."""

    def __init__(self, target: int = -1):
        self.target, self.sites, self.change = target, 0, None
        self._depth = 0

    def _site(self, node: ast.AST, change) -> ast.AST:
        """``change(node)`` edits the node in place, or returns its replacement."""
        if not self._depth:
            return node
        self.sites += 1
        if self.sites - 1 != self.target:
            return node
        before = ast.unparse(node)
        node = change(node) or node
        self.change = (getattr(node, "lineno", None), before, ast.unparse(node))
        return node

    def visit_FunctionDef(self, node):
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1
        return node

    def _swap_op(self, node):
        self.generic_visit(node)
        if type(node.op) not in _OPS:
            return node
        return self._site(node, lambda n: setattr(n, "op", _OPS[type(n.op)]()))

    visit_BinOp = visit_AugAssign = visit_BoolOp = _swap_op

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            if type(op) in _OPS:
                node = self._site(node, lambda n, i=i: n.ops.__setitem__(i, _OPS[type(op)]()))
        return node

    def visit_Call(self, node):
        self.generic_visit(node)
        func = node.func
        attr = {ast.Name: "id", ast.Attribute: "attr"}.get(type(func))
        if attr is None or getattr(func, attr) not in _CALLS:
            return node
        return self._site(node, lambda n: setattr(func, attr, _CALLS[getattr(func, attr)]))

    def visit_Constant(self, node):
        if type(node.value) not in (int, float) or node.value not in (0, 1):
            return node
        return self._site(node, lambda n: ast.copy_location(ast.Constant(1 - n.value), n))

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if not isinstance(node.op, (ast.Not, ast.Invert)):
            return node
        return self._site(node, lambda n: n.operand)


def mutants(package: Path):
    """Yield (file name, line, before, after, source) for every one-change mutant."""
    for name in TARGETS:
        text = (package / name).read_text()
        counter = _Mutator()
        counter.visit(ast.parse(text))
        for target in range(counter.sites):
            mutator = _Mutator(target)
            tree = ast.fix_missing_locations(mutator.visit(ast.parse(text)))
            yield (name, *mutator.change, ast.unparse(tree))


def report_argvs(work: Path) -> list[list[str]]:
    """LaLonde on its three routes, then two reports per seeded table: every
    canonical event, and three custom events, at every evidence level."""
    exp, obs = str(DATA / "lalonde_experimental.csv"), str(DATA / "lalonde_observational.csv")
    argvs = [["--exp", exp, "--obs", obs, "--all-canonical"],
             ["--route", "unconfounded", "--strata", str(DATA / "strata_example.json"),
              "--all-canonical"],
             ["--mode", "pc", "--exp", exp, "--all-canonical"]]
    rng = np.random.default_rng(19)
    for levels in range(3, 9):
        k, l = np.indices((levels, levels))  # rows treated, columns control
        for pattern, mask in (("lift", (k == l) | (k == l + 1)), ("lowertri", k >= l),
                              ("unrestricted", np.ones((levels, levels), dtype=bool))):
            joint = rng.integers(0, 20, (levels, levels)) * mask
            joint[np.diag_indices(levels)] += 1
            path = work / f"{pattern}-{levels}.json"
            path.write_text(json.dumps({"counts": [joint.sum(axis=0).tolist(),
                                                   joint.sum(axis=1).tolist()]}))
            argvs.append(["--mode", "pc", "--exp", str(path), "--all-canonical"])
            custom = ["".join(map(str, rng.integers(0, 2, levels))) for _ in range(3)]
            argvs.append(["--mode", "pc", "--exp", str(path)]
                         + [arg for bits in custom for arg in ("--event", "custom:" + bits)])
    return [argv + ["--verify", "--samples", "2000"] for argv in argvs]


def run_reports(package: Path, argvs: list[list[str]]) -> list[list]:
    """[exit code or "raises <what>", stdout] of each report, run on ``package``."""
    try:
        process = subprocess.run(
            [sys.executable, "-c", _RUNNER], input=json.dumps(argvs), capture_output=True,
            text=True, timeout=120,  # the unmutated reports take about a second
            # no cached bytecode: every mutant is written to the same path
            env=dict(os.environ, PYTHONPATH=str(package.parent), PYTHONDONTWRITEBYTECODE="1"))
    except subprocess.TimeoutExpired:
        return [["raises TimeoutExpired", ""]] * len(argvs)
    if process.returncode:
        return [["raises " + (process.stderr.strip().splitlines() or ["?"])[-1], ""]] * len(argvs)
    return json.loads(process.stdout)


def _cells(results: list[list]) -> list[list[dict]]:
    return [json.loads(out)["cells"] if code in (0, 3) and out else [] for code, out in results]


def classify(results: list[list], baseline: list[list]) -> str:
    codes, base_codes = [code for code, _ in results], [code for code, _ in baseline]
    if any(code == 3 != base for code, base in zip(codes, base_codes)):
        return "killed"
    if any(isinstance(code, str) for code in codes):
        return "raises"
    if results == baseline:
        return "equivalent"
    cells = [cell for report in _cells(results) for cell in report]
    values = [cell[key] for cell in cells for key in ("value", "lower", "upper") if key in cell]
    if any(not -ATOL <= v <= 1 + ATOL for v in values):
        return "out-of-range"
    if any(cell.get("lp_cross_check") == "feasible (inconsistent)" for cell in cells):
        return "lp-disagreement"
    for report, base in zip(_cells(results), _cells(baseline)):
        if any(cell["assumptions"] == "mono" and cell["kind"] == "refused" != was["kind"]
               for cell, was in zip(report, base)):
            return "refused-mono"
    return "exit-code" if codes != base_codes else "bytes"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="the directory holding pnbounds/")
    parser.add_argument("--out", help="also write the outcome table and survivors here (JSON)")
    args = parser.parse_args()
    source = Path(args.src).resolve() / "pnbounds"
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        package = work / "src" / "pnbounds"
        shutil.copytree(source, package, ignore=shutil.ignore_patterns("__pycache__"))
        argvs = report_argvs(work)
        baseline = run_reports(package, argvs)
        unexpected = [(argv, code) for argv, (code, _) in zip(argvs, baseline) if code != 0]
        outcomes: Counter[str] = Counter()
        survivors = []
        for name, line, before, after, text in mutants(source):
            (package / name).write_text(text)
            outcome = classify(run_reports(package, argvs), baseline)
            (package / name).write_text((source / name).read_text())
            outcomes[outcome] += 1
            if outcome in SURVIVOR_CLASSES:
                survivors.append({"class": outcome, "site": f"{name}:{line}",
                                  "before": before, "after": after})
    total = sum(outcomes.values())
    print(f"{total} mutants of {', '.join(TARGETS)}; {len(argvs)} reports each")
    for argv, code in unexpected:
        print(f"  the unmutated package exits {code}: {' '.join(argv)}")
    rows = [("killed: --verify fails (exit 3)", outcomes["killed"]),
            ("raises", outcomes["raises"]),
            ("equivalent: no output changes", outcomes["equivalent"]),
            ("survives: the report changes, --verify passes",
             sum(outcomes[c] for c in SURVIVOR_CLASSES))]
    rows += [(f"  {c}", outcomes[c]) for c in SURVIVOR_CLASSES]
    for label, count in rows:
        print(f"{label:<48} {count:>4}")
    for s in survivors:
        print(f"{s['class']:<16} {s['site']:<16} {s['before']}  ->  {s['after']}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"mutants": total, "reports_per_mutant": len(argvs),
             "outcomes": {c: outcomes[c] for c in ("killed", "raises", "equivalent",
                                                    *SURVIVOR_CLASSES)},
             "survivors": survivors}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
