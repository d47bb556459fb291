"""In-memory span tracer that wraps madd's public functions from outside.

The tracer never edits madd's source. While installed it replaces each
target callable, in the namespace its caller looks it up in, with a wrapper
that records a span (name, start, end, parent span, run id) and bumps
counters; uninstalling restores every original. A span's self time is its
duration minus the durations of its direct children, which never overlap
because madd runs single-threaded. Time the benchmark spends sampling
machine speed inside a span (``exclude``) counts in neither; the raw
start and end in the span records still contain it.

Span records live in flat typed arrays (about 30 bytes a span) and are
written once, at the end of the benchmark, as a compressed ``.npz``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from collections import defaultdict

# (module, attribute, span name). Each binding is wrapped where its caller
# looks it up: ``madd.engine.update_trust`` is the name the engine calls, so
# wrapping ``madd.dynamics.update_trust`` alone would record nothing.
FUNCTION_TARGETS = (
    ("madd.rng", "substream", "rng.substream"),
    ("madd.scenario", "load_scenario", "scenario.load"),
    ("madd.cli", "load_scenario", "scenario.load"),
    ("madd.attributes", "derive_profiles", "attributes.derive_profiles"),
    ("madd.cli", "derive_profiles", "attributes.derive_profiles"),
    ("madd.engine", "activation_probability", "attributes.activation_probability"),
    ("madd.engine", "dissemination_tendency", "attributes.dissemination_tendency"),
    ("madd.network", "assign_communities", "network.assign"),
    ("madd.attributes", "assign_communities", "network.assign"),
    ("madd.cli", "assign_communities", "network.assign"),
    ("madd.network", "build_network", "network.build"),
    ("madd.cli", "build_network", "network.build"),
    ("madd.powerlaw", "fit_truncated_power_law", "powerlaw.fit"),
    ("madd.cli", "fit_truncated_power_law", "powerlaw.fit"),
    ("madd.engine", "fit_truncated_power_law", "powerlaw.fit"),
    ("madd.network", "fit_truncated_power_law", "powerlaw.fit"),
    ("madd.engine", "run", "engine.run"),
    ("madd.engine", "build_bot_schedules", "engine.build_bot_schedules"),
    ("madd.engine", "snapshot_ratios", "engine.snapshot_ratios"),
    # private engine phases: optional, so a refactor that drops them leaves
    # their metrics absent instead of breaking the benchmark
    ("madd.engine", "_deliver", "engine.deliver"),
    ("madd.engine", "_apply_trust_update", "engine.trust_update"),
    ("madd.engine", "update_trust", "dynamics.update_trust"),
    ("madd.engine", "discernment", "dynamics.discernment"),
    ("madd.engine", "believe_disinformation", "dynamics.believe_disinformation"),
    ("madd.engine", "score_plausibility", "content.score_plausibility"),
    ("madd.engine", "correction_for", "content.correction_for"),
    ("madd.engine", "is_intervention_active", "content.is_intervention_active"),
    ("madd.engine", "population_stats", "report.population_stats"),
    ("madd.report", "compare_interventions", "report.compare"),
    ("madd.cli", "compare_interventions", "report.compare"),
    ("madd.cli", "main", "cli.main"),
)

# (module, class, method, span name), wrapped on the class itself
METHOD_TARGETS = (
    ("madd.scenario", "Scenario", "digest", "scenario.digest"),
    ("madd.network", "PropagationNetwork", "neighbors", "network.neighbors"),
    ("madd.network", "PropagationNetwork", "edge_text", "network.export"),
    ("madd.network", "PropagationNetwork", "to_dict", "network.export"),
    ("madd.powerlaw", "PowerLawFit", "cdf", "powerlaw.cdf"),
    ("madd.report", "RunReport", "to_json", "report.serialize"),
    ("madd.report", "RunReport", "to_csv", "report.serialize"),
    ("madd.report", "ComparisonReport", "to_json", "report.serialize"),
    ("madd.cli", "ArtifactWriter", "write_text", "cli.write"),
    ("madd.cli", "ArtifactWriter", "write_manifest", "cli.write"),
)

# factories whose returned evaluator gets its ``evaluate`` wrapped
EVALUATOR_FACTORIES = (
    ("madd.evaluator", "make_evaluator"),
    ("madd.cli", "make_evaluator"),
)

_MISSING = object()


class Tracer:
    """Records spans and counters for the calls it wraps."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_run = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        # self time of spans nested under engine.run, by span name
        self.engine_self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        # 0 during setup; k from the k-th engine.run until the next one
        self.run_id = 0
        # [span index, name id, child seconds, excluded seconds]
        self._stack: list[list] = []
        self._engine_depth = 0
        self._engine_id = self._name_id("engine.run")
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans ---------------------------------------------------------------

    def open(self, name_id: int) -> None:
        if name_id == self._engine_id:
            if not self._engine_depth:
                self.run_id += 1
            self._engine_depth += 1
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_run.append(self.run_id)
        self.span_end.append(0.0)
        self._stack.append([index, name_id, 0.0, 0.0])
        self.span_start.append(time.perf_counter())

    def close(self) -> None:
        end = time.perf_counter()
        index, name_id, child_s, excluded_s = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index] - excluded_s
        name = self.names[name_id]
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        if self._engine_depth:
            self.engine_self_s[name] += duration - child_s
        if name_id == self._engine_id:
            self._engine_depth -= 1
        if self._stack:
            self._stack[-1][2] += duration
            self._stack[-1][3] += excluded_s

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` the benchmark spent inside the open span out of
        every enclosing span's total and self time."""
        if self._stack:
            self._stack[-1][3] += seconds

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself."""
        self.open(self._name_id(name))
        try:
            yield
        finally:
            self.close()

    def wrap(self, fn, name: str, on_call=None):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args, kwargs)
            tracer.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close()

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in FUNCTION_TARGETS:
            hook = _count_fit_samples if name == "powerlaw.fit" else None
            self._patch(module_name, attr, lambda fn, n=name, h=hook: self.wrap(fn, n, h))
        for module_name, cls_name, method, name in METHOD_TARGETS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            original = cls.__dict__.get(method, _MISSING) if cls is not None else _MISSING
            if original is _MISSING:
                self.missing.append(f"{module_name}.{cls_name}.{method}")
                continue
            setattr(cls, method, self.wrap(original, name))
            self._restore.append((cls, method, original))
        for module_name, attr in EVALUATOR_FACTORIES:
            self._patch(module_name, attr, self._wrap_factory)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, module_name, attr, make_wrapper) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, _MISSING)
        if original is _MISSING:
            self.missing.append(f"{module_name}.{attr}")
            return
        setattr(module, attr, make_wrapper(original))
        self._restore.append((module, attr, original))

    def _wrap_factory(self, factory):
        tracer = self

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            evaluator = factory(*args, **kwargs)
            evaluator.evaluate = tracer._wrap_evaluate(evaluator.evaluate)
            return evaluator

        return traced_factory

    def _wrap_evaluate(self, evaluate):
        name_id = self._name_id("evaluator.evaluate")
        tracer = self

        @functools.wraps(evaluate)
        def traced_evaluate(request, *args, **kwargs):
            tracer.counters["evaluator.calls." + str(getattr(request, "kind", "unknown"))] += 1
            tracer.open(name_id)
            try:
                return evaluate(request, *args, **kwargs)
            except Exception:
                tracer.counters["evaluator.failures"] += 1
                raise
            finally:
                tracer.close()

        return traced_evaluate

    # -- output --------------------------------------------------------------

    def save(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            run=np.frombuffer(self.span_run, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def _count_fit_samples(tracer: Tracer, args, kwargs) -> None:
    samples = args[0] if args else kwargs.get("samples", ())
    try:
        tracer.counters["powerlaw.fit.samples"] += len(samples)
    except TypeError:
        pass
