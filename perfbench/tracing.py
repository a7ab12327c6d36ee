"""Spans around the public functions of every pnbounds module.

``instrument`` replaces each public function of each ``pnbounds`` module,
at every module attribute that binds it (``cli.pn_bounds_lp``,
``oracle.pn_bounds_lp`` and ``lp.pn_bounds_lp`` all get the same wrapper),
with a wrapper that records a span: name, start, end, parent span and
report id.  Spans are named after the defining module, so
``lp.falsification_check`` records as ``identify.falsification_check``.
Nothing in the program changes; private functions are not wrapped, so
their time is the self time of the public function that calls them.

Spans of one report are kept in memory and folded into per-function totals
when the report ends; ``self_times`` derives each span's self time as its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import pkgutil
import time
import types
from dataclasses import dataclass, field

#: Functions whose calls are keyed by polytope (marginal pair + assumption).
POLYTOPE_KEYED = ("lp.pn_bounds_lp", "oracle.verify_bounds")

LOAD_FUNCTIONS = ("ingest.load_table", "ingest.load_table_csv", "ingest.load_table_json",
                  "ingest.load_strata_json")
MARGIN_ROUTES = ("ingest.counterfactual_margin_experimental",
                 "ingest.counterfactual_margin_unconfounded", "ingest.randomized_margins")
MARGIN_FUNCTIONS = MARGIN_ROUTES + ("ingest.empirical_margin",)


@dataclass
class Span:
    name: str
    start: int
    end: int = 0
    parent: int = -1
    report: int = -1
    error: str | None = None


@dataclass
class FunctionStats:
    calls: int = 0
    self_ns: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    polytopes: set = field(default_factory=set)
    samples: int = 0


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for i, span in enumerate(spans):
        covered = 0
        reach = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end - span.start - covered)
    return result


class Tracer:
    """Records spans of the wrapped functions, one report at a time."""

    def __init__(self, keep_reports: int = 0):
        self.report = -1
        self.spans: list[Span] = []
        self.stats: dict[str, FunctionStats] = {}
        self.root_ns = 0
        self.kept: list[Span] = []
        self._keep_reports = keep_reports
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        keyed = name in POLYTOPE_KEYED
        signature = inspect.signature(fn) if keyed else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = Span(name, clock(), parent=stack[-1] if stack else -1, report=self.report)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                if keyed:
                    self._note_polytope(name, signature, args, kwargs)
            if name == "oracle.verify_bounds":
                self._stats(name).samples += int(getattr(result, "n_samples", 0))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _stats(self, name: str) -> FunctionStats:
        return self.stats.setdefault(name, FunctionStats())

    def _note_polytope(self, name, signature, args, kwargs) -> None:
        try:
            bound = signature.bind_partial(*args, **kwargs).arguments
            pair, assumptions = bound["pair"], bound["assumptions"]
            key = (pair.treated_law.probs.tobytes(), pair.control_law.probs.tobytes(),
                   assumptions.value)
        except (TypeError, KeyError, AttributeError):
            key = None
        self._stats(name).polytopes.add(key)

    def end_report(self) -> None:
        """Fold the current report's spans into the totals and drop them."""
        for span, self_ns in zip(self.spans, self_times(self.spans)):
            stats = self._stats(span.name)
            stats.calls += 1
            stats.self_ns += self_ns
            if span.error:
                stats.errors[span.error] = stats.errors.get(span.error, 0) + 1
            if span.parent < 0:
                self.root_ns += span.end - span.start
        if self.report < self._keep_reports:
            self.kept.extend(self.spans)
        self.spans.clear()

    def summary(self) -> dict:
        """JSON-ready totals per function, plus the spans of the kept reports."""
        return {
            "root_ns": self.root_ns,
            "functions": {name: {"calls": s.calls, "self_ns": s.self_ns, "errors": s.errors,
                                 "polytopes": len(s.polytopes), "samples": s.samples}
                          for name, s in sorted(self.stats.items())},
            "spans": [vars(span) for span in self.kept],
        }


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every public pnbounds function at every binding; undo on exit."""
    import pnbounds

    modules = [importlib.import_module(f"pnbounds.{info.name}")
               for info in pkgutil.iter_modules(pnbounds.__path__)]
    wrappers = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, value in vars(module).items():
            if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                wrappers[value] = tracer.wrap(f"{short}.{attr}", value)
    patched = []
    for module in [pnbounds, *modules]:
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                patched.append((module, attr, value))
                setattr(module, attr, wrappers[value])
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def layer_metrics(summary: dict, reports: int, traced_s: float) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    ``summary`` is ``Tracer.summary()``; times are totals over the pass.
    """
    functions = summary["functions"]

    def get(name, key):
        return functions.get(name, {}).get(key, 0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def self_ms(*names):
        return sum(get(n, "self_ns") for n in names) / 1e6

    def error_ratio(name, error):
        return ratio(functions.get(name, {}).get("errors", {}).get(error, 0), get(name, "calls"))

    metrics = {
        "cli.main.self_ms": (self_ms("cli.main"), "ms"),
        "cli.run_analysis.self_ms": (self_ms("cli.run_analysis"), "ms"),
        "cli.verify_report.self_ms": (self_ms("cli.verify_report"), "ms"),
        "ingest.load.self_ms": (self_ms(*LOAD_FUNCTIONS), "ms"),
        "ingest.margins.self_ms": (self_ms(*MARGIN_FUNCTIONS), "ms"),
        "ingest.loads_per_report": (ratio(sum(get(n, "calls") for n in MARGIN_ROUTES), reports), "count/report"),
        "identify.falsification_checks_per_report": (ratio(get("identify.falsification_check", "calls"), reports), "count/report"),
        "bounds.monotone_unsupported_ratio": (error_ratio("bounds.pn_bounds_monotone", "UnsupportedEventError"), "ratio"),
        "lp.build_lp.self_ms": (self_ms("lp.build_lp"), "ms"),
        "lp.calls_per_polytope": (ratio(get("lp.pn_bounds_lp", "calls"), get("lp.pn_bounds_lp", "polytopes")), "count"),
        "lp.infeasible_ratio": (error_ratio("lp.pn_bounds_lp", "LpInfeasibleError"), "ratio"),
        "oracle.endpoint_witnesses.self_ms": (self_ms("oracle.endpoint_witnesses"), "ms"),
        "oracle.verify_calls_per_polytope": (ratio(get("oracle.verify_bounds", "calls"), get("oracle.verify_bounds", "polytopes")), "count"),
        "oracle.samples_drawn": (get("oracle.verify_bounds", "samples"), "count"),
        "oracle.skipped_ratio": (error_ratio("oracle.verify_bounds", "SamplingError"), "ratio"),
        "trace.wall_ms": (traced_s * 1e3, "ms"),
        "trace.unspanned_ms": (traced_s * 1e3 - summary["root_ns"] / 1e6, "ms"),
        "trace.self_sum_ms": (self_ms(*functions), "ms"),
    }
    for name in ("identify.falsification_check", "identify.pn_point", "bounds.pn_bounds_marginal",
                 "bounds.pn_bounds_monotone", "lp.pn_bounds_lp", "oracle.verify_bounds"):
        metrics[f"{name}.calls"] = (get(name, "calls"), "count")
        metrics[f"{name}.self_ms"] = (self_ms(name), "ms")
    return metrics
