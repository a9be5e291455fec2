"""Span recorder for the traced benchmark run, installed from outside the program.

The tracer wraps each layer's public entry points wherever a ``repro.*``
module binds them (a function imported by name into five modules is patched
in all five), records one span per call in memory, and restores every
original on :meth:`Tracer.uninstall`.  Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent, op, detail]``: ``parent`` is the index
of the enclosing span (``-1`` at the top), ``op`` the id of the benchmark
operation that caused it, ``detail`` the dispatched operation name for engine
spans.  Stages run sequentially in the benchmark (``jobs=1``), so one stack
gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Layer group -> public entry points, as ``"module:function"``.  A group's
#: time is inclusive and counted once: spans nested inside another span of the
#: same group add nothing.  Engine dispatch, the stage functions, columnar
#: saves and ``SAN.freeze`` are wrapped separately below.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "synthetic.simulate": ("repro.synthetic.gplus:simulate_google_plus",),
    "crawler.crawl": ("repro.crawler.snapshots:crawl_evolution",),
    "models.estimate": ("repro.models.estimation:estimate_parameters",),
    "models.generate": (
        "repro.models.san_model:generate_san",
        "repro.models.zhel:generate_zhel_san",
    ),
    "models.likelihood": (
        "repro.models.likelihood:figure15_sweep",
        "repro.models.likelihood:evaluate_attachment_models",
        "repro.models.likelihood:evaluate_attachment_models_loop",
        "repro.models.fast_likelihood:evaluate_attachment_models_fast",
    ),
    "fitting.lognormal": ("repro.fitting.mle:fit_lognormal",),
    "fitting.other": (
        "repro.fitting.mle:fit_power_law",
        "repro.fitting.mle:fit_power_law_with_cutoff",
        "repro.fitting.mle:fit_exponential",
        "repro.fitting.mle:fit_lognormal_parameters_over_time",
        "repro.fitting.mle:fit_power_law_exponent_over_time",
        "repro.fitting.model_selection:best_fit",
        "repro.fitting.model_selection:best_fit_name",
        "repro.fitting.model_selection:compare_distributions",
        "repro.fitting.model_selection:lognormal_vs_power_law",
        "repro.fitting.goodness_of_fit:bootstrap_p_value",
        "repro.fitting.goodness_of_fit:likelihood_ratio_test",
    ),
    "algorithms.attribute_distance": ("repro.algorithms.traversal:attribute_distance",),
    "algorithms.approx_clustering": (
        "repro.algorithms.approx_clustering:approximate_average_clustering",
        "repro.algorithms.approx_clustering:approximate_social_clustering",
        "repro.algorithms.approx_clustering:approximate_attribute_clustering",
    ),
    "algorithms.triangles": ("repro.algorithms.triangles:count_directed_triangles",),
    "algorithms.clustering": (
        "repro.algorithms.clustering:average_social_clustering_coefficient",
        "repro.algorithms.clustering:average_attribute_clustering_coefficient",
        "repro.algorithms.clustering:average_clustering_for_attribute_type",
        "repro.algorithms.clustering:clustering_by_degree",
    ),
    "algorithms.hyperanf": (
        "repro.algorithms.hyperanf:neighbourhood_function",
        "repro.algorithms.hyperanf:exact_neighbourhood_function",
        "repro.algorithms.hyperanf:effective_diameter",
    ),
    "algorithms.components": (
        "repro.algorithms.components:weakly_connected_components",
        "repro.algorithms.components:strongly_connected_components",
        "repro.algorithms.components:largest_weakly_connected_component",
        "repro.algorithms.components:wcc_fraction",
    ),
    "graph.columnar_open": ("repro.graph.columnar:open_columnar",),
    "metrics.report": (
        "repro.metrics.summary:frozen_san_report",
        "repro.metrics.summary:san_metric_report",
    ),
    "applications.rank_candidates": (
        "repro.applications.link_prediction:rank_candidate_pairs",
    ),
    "applications.sybil": (
        "repro.applications.sybil:sybil_identities_vs_compromised",
        "repro.applications.sybil:acceptance_probability",
        "repro.applications.sybil:count_attack_edges",
    ),
    "applications.anonymity": (
        "repro.applications.anonymity:attack_probability_vs_compromised",
        "repro.applications.anonymity:end_to_end_attack_probability",
    ),
}

Span = List[Any]


def _load(target: str) -> Any:
    module_name, attr = target.split(":")
    return getattr(importlib.import_module(module_name), attr)


class Tracer:
    """In-memory span recorder with reversible patching of ``repro`` modules."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.op: Optional[int] = None
        self.columnar_bytes_written = 0
        #: Entry points that no longer exist; their layers read 0.
        self.missing: List[str] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._stages: List[Any] = []

    # -- recording ---------------------------------------------------------
    def _call(self, name: str, detail: str, fn: Callable[..., Any], args, kwargs) -> Any:
        record: Span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op, detail]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording one span called ``name`` per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, "", fn, args, kwargs)

        return traced

    # -- patching ----------------------------------------------------------
    def _replace(self, owner: Any, attr: str, original: Any, replacement: Any) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def _replace_everywhere(self, original: Any, replacement: Any) -> None:
        """Rebind every ``repro.*`` module attribute that *is* ``original``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, original, replacement)

    def install(self) -> None:
        """Wrap every traced layer; :meth:`uninstall` undoes it."""
        self.missing = []
        for group, targets in LAYERS.items():
            for target in targets:
                try:
                    fn = _load(target)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                self._replace_everywhere(fn, self.wrap(group, fn))
        self._install_engine()
        self._install_graph()
        self._install_stages()

    def _install_engine(self) -> None:
        from repro.engine import registry

        dispatch, resolve = registry.dispatch, registry.resolve

        @functools.wraps(dispatch)
        def traced_dispatch(op, graph, *args, **kwargs):
            try:
                tier = resolve(op, graph).backend
            except Exception:  # dispatch itself raises the real error
                tier = "unresolved"
            return self._call("engine." + tier, op, dispatch, (op, graph) + args, kwargs)

        self._replace_everywhere(dispatch, traced_dispatch)

    def _install_graph(self) -> None:
        from repro.graph.san import SAN

        save = _load("repro.graph.columnar:save_columnar")

        @functools.wraps(save)
        def traced_save(graph, path, *args, **kwargs):
            result = self._call("graph.columnar_save", "", save, (graph, path) + args, kwargs)
            self.columnar_bytes_written += os.path.getsize(path)
            return result

        self._replace_everywhere(save, traced_save)
        self._replace(SAN, "freeze", SAN.freeze, self.wrap("graph.freeze", SAN.freeze))

    def _install_stages(self) -> None:
        """Re-register every stage, in order, with a span around its function."""
        from repro.experiments import registry

        self._stages = list(registry.experiment_stages().values())
        self._register_stages(
            [(stage, self.wrap("runner.stage." + stage.name, stage.fn)) for stage in self._stages]
        )

    @staticmethod
    def _register_stages(entries: Sequence[Tuple[Any, Callable[..., Any]]]) -> None:
        from repro.experiments import registry

        for stage, _ in entries:
            registry.unregister_experiment(stage.name)
        for stage, fn in entries:
            registry.register_experiment(stage.name, fn, needs=stage.needs, title=stage.title)

    def uninstall(self) -> None:
        """Restore every patched binding and stage, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._stages:
            self._register_stages([(stage, stage.fn) for stage in self._stages])
            self._stages = []


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def _group(name: str) -> str:
    """The layer a span counts towards: its name, less the stage or tier."""
    if name.startswith("runner.stage."):
        return "runner.stage"
    if name.startswith("engine."):
        return "engine"
    return name


def layer_totals(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer times and counts of one operation's spans.

    ``<group>_s`` is inclusive wall time counted once per group (a span inside
    another span of its own group adds nothing) and ``<group>_calls`` counts
    every call.  Engine tiers partition ``engine.dispatch_s`` by the tier of
    the outermost dispatch.  ``runner.stages_self_s`` sums each stage's time
    minus the time of the spans directly inside it.  ``fitting.other_s`` excludes the
    lognormal fits that run inside the other fitting functions.
    """
    groups = [_group(span[0]) for span in spans]
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]

    def enclosing(index: int, group: str) -> bool:
        parent = spans[index][3]
        while parent >= 0:
            if groups[parent] == group:
                return True
            parent = spans[parent][3]
        return False

    totals: Dict[str, float] = defaultdict(float)
    for index, (span, group) in enumerate(zip(spans, groups)):
        name, duration = span[0], span[2] - span[1]
        if group == "engine":
            totals["engine.dispatch_calls"] += 1
            totals[name + "_calls"] += 1
            if not enclosing(index, group):
                totals["engine.dispatch_s"] += duration
                totals[name + "_s"] += duration
            continue
        totals[group + "_calls"] += 1
        if enclosing(index, group):
            continue
        totals[group + "_s"] += duration
        if group == "runner.stage":
            totals["runner.stages_self_s"] += duration - child_time[index]
        elif group == "fitting.lognormal" and enclosing(index, "fitting.other"):
            totals["fitting.other_s"] -= duration
    return dict(totals)
