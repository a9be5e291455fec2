"""The benchmark's three workloads: inputs, one timed operation, output checks.

Each workload is driven through the program's public API only.  The parent
process (``run.py``) builds a workload's inputs; the child process
(``child.py``) times operations on them and checks every output.

``pipeline-warm-small``
    One op is the full figure suite, ``run_pipeline(small, jobs=1)``, on an
    artifact cache built during set-up: the daily read path after a stage
    edit.  Time goes to stage code, fitting and graph algorithms; artifact
    loads are a few percent and no graph reaches the parallel tier's size
    threshold.
``artifacts-cold-small``
    One op materialises the pipeline's artifact plan, as the code under test
    declares it, into an empty cache directory: the write path (simulation,
    crawl, estimation, model generation, freezing, saving, hashing).  No stage
    or figure kernel runs.
``kernels-large``
    One op opens the ``large`` reference graph from a warm cache as a fresh
    mmap-backed graph, runs the full metric report and top-200 candidate
    ranking by two scores.  It is the only workload above the parallel tier's
    size threshold, and it pays a columnar open per op.

The workload seed replaces ``Scenario.seed`` and ``figure_seed``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.experiments import (
    ArtifactResolver,
    canonical_payload,
    evaluate_answer_key,
    get_scenario,
    load_answer_key,
    pipeline_artifact_plan,
    run_pipeline,
    select_stages,
)

#: Top-k of the candidate rankings in ``kernels-large``.
RANK_TOP_K = 200


def payload_digest(payload: Any) -> str:
    """sha256 of a payload's canonical JSON; numpy scalars and arrays as lists."""

    def plain(value: Any) -> Any:
        if hasattr(value, "tolist"):
            return value.tolist()
        raise TypeError(f"cannot serialise {type(value).__name__}")

    text = json.dumps(canonical_payload(payload), sort_keys=True, separators=(",", ":"), default=plain)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tree_bytes(path: Path) -> int:
    """Bytes of every file under ``path``."""
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


def entry_bytes(resolver: ArtifactResolver) -> int:
    """Bytes on disk of every cache entry this resolver read or wrote."""
    return sum(
        tree_bytes(resolver.store.entry_path(event.name, event.key))
        for event in resolver.events
        if event.persistent
    )


def _zeroed(value: Any) -> Any:
    """A payload with every number set to 0 (the self-test's perturbation)."""
    if isinstance(value, dict):
        return {key: _zeroed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_zeroed(item) for item in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return 0
    return value


#: The cores this process may run on; timed work is spread over them evenly.
CORES: Tuple[Optional[int], ...] = (
    tuple(sorted(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else (None,)
)


def start_on(core: Optional[int]) -> None:
    """Move this process to ``core``, then let it run on every core again.

    On a shared host one core can run ~30% slower than another for minutes,
    and a single-threaded process stays on the core it started on.  Starting
    the k-th op of a phase on ``CORES[k % len(CORES)]`` makes a run sample
    every core alike, whichever core the scheduler first chose.  The full
    affinity is restored before the op, so the program (and any pool worker
    it starts) can still use every core.
    """
    if core is None:
        return
    os.sched_setaffinity(0, {core})
    os.sched_setaffinity(0, CORES)


def core_median(ops: Sequence[Dict[str, Any]], key: str) -> float:
    """Median of ``op[key]`` over the ops started on each core, averaged over the cores."""
    by_core: Dict[Any, List[float]] = {}
    for op in ops:
        by_core.setdefault(op["core"], []).append(op[key])
    return sum(statistics.median(values) for values in by_core.values()) / len(by_core)


@contextlib.contextmanager
def single_core() -> Iterator[None]:
    """Disable the parallel tier (``REPRO_NO_PARALLEL=1``) inside the block.

    Set-up runs inside it: it then starts no process of its own, so the
    parent's ``RUSAGE_CHILDREN`` counts the timed child alone, and the
    ``kernels-large`` parity reference comes from the single-core tier.
    """
    saved = os.environ.get("REPRO_NO_PARALLEL")
    os.environ["REPRO_NO_PARALLEL"] = "1"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_NO_PARALLEL"]
        else:
            os.environ["REPRO_NO_PARALLEL"] = saved


@dataclasses.dataclass
class Outcome:
    """Checked result of one op: digests to compare across ops, failures.

    ``notes`` are answer-key violations at a seed the key is not calibrated
    for: reported, not failed (see :meth:`Workload.key_violations`).
    """

    digests: Dict[str, str]
    failures: List[str]
    cache_bytes: int
    resolver: ArtifactResolver
    manifest: Optional[Dict[str, Any]] = None
    notes: List[str] = dataclasses.field(default_factory=list)


class Workload:
    """One workload at one seed: set-up in the parent, ops in the child."""

    name = ""
    scenario_name = ""
    #: Set-up repetitions per run; ``setup_s`` reports their median.
    setup_reps = 1

    def __init__(self, seed: int, work_dir: Path, perturb: bool = False) -> None:
        base = get_scenario(self.scenario_name)
        self.scenario = dataclasses.replace(base, seed=seed, figure_seed=seed)
        #: Answer keys are calibrated at the preset's own seed.
        self.key_gates = seed == base.seed == base.figure_seed
        self.work_dir = Path(work_dir)
        self.perturb = perturb
        self.inputs: Dict[str, Any] = {}

    def key_violations(self, results) -> List[str]:
        """Messages for the violated assertions of an evaluated answer key.

        A key is a statistical contract calibrated at its preset's seed.  At
        other seeds an assertion near its tolerance can flip (``small`` at
        seed 22: reciprocity-regime slope -0.00216 against a flat band of
        0.002), so there the verdicts are reported as notes and compared
        across the run's ops, and :meth:`preset_key_failures` gates the
        figures at the preset's seed instead.
        """
        return [
            f"answer key {self.scenario_name}: {item.assertion.name}: {item.detail}"
            for item in results
            if not item.passed
        ]

    def pipeline_verdict(self, result, perturb: bool = False) -> Tuple[List[str], Dict[str, Any], List[str]]:
        """(stage failures, canonical payloads, key violations) of a pipeline result."""
        failures = [f"stage {name}: {error}" for name, error in sorted(result.failures().items())]
        payloads = {name: canonical_payload(stage.payload) for name, stage in result.stages.items()}
        if perturb:
            payloads["fig04"] = _zeroed(payloads["fig04"])
        violations = self.key_violations(evaluate_answer_key(load_answer_key(self.scenario_name), payloads))
        return failures, payloads, violations

    def preset_key_failures(self, perturb: bool = False) -> List[str]:
        """Failures of the key's stages, run at the preset's own seed into a fresh cache.

        Untimed.  It gates the figures' correctness at every workload seed:
        at the preset's seed the key holds, so a program that computes wrong
        figures fails here whatever seed the timed ops ran at.
        """
        preset = get_scenario(self.scenario_name)
        cache = _fresh_dir(self.work_dir, "preset-cache-")
        try:
            result = run_pipeline(
                preset,
                figures=load_answer_key(self.scenario_name).stages(),
                jobs=1,
                cache_dir=cache,
                strict=False,
            )
            failures, _, violations = self.pipeline_verdict(result, perturb)
        except Exception as exc:
            failures, violations = [f"raised {type(exc).__name__}: {exc}"], []
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return [f"at the preset seed {preset.seed}: {message}" for message in failures + violations]

    # -- parent side -------------------------------------------------------
    def build_inputs(self) -> None:
        """Build the op inputs into a fresh directory (timed as set-up)."""

    def final_check(self) -> Tuple[List[str], List[str]]:
        """Checks after the timed phase: (failure messages, notes)."""
        return [], []

    # -- child side ----------------------------------------------------------
    def prepare_op(self) -> Callable[[], Any]:
        """Untimed preparation of one op; returns the callable the clock times."""
        raise NotImplementedError

    def check(self, result: Any) -> Outcome:
        raise NotImplementedError

    def cleanup_op(self, result: Any) -> None:
        """Untimed clean-up after an op has been checked."""


def _fresh_dir(parent: Path, prefix: str) -> Path:
    parent.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=parent))


def _materialise(scenario, cache_dir: Path) -> ArtifactResolver:
    resolver = ArtifactResolver(scenario, cache_dir=cache_dir)
    for name in pipeline_artifact_plan(select_stages()):
        resolver.artifact(name)
    return resolver


class WarmPipeline(Workload):
    name = "pipeline-warm-small"
    scenario_name = "small"
    #: Cold set-up builds nothing, large's takes ~15 s; this one repeats cheaply.
    setup_reps = 2

    def build_inputs(self) -> None:
        previous = self.inputs.get("cache_dir")
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)
        cache = _fresh_dir(self.work_dir, "warm-cache-")
        _materialise(self.scenario, cache)
        self.inputs = {"cache_dir": str(cache)}

    def prepare_op(self):
        return lambda: run_pipeline(
            self.scenario, jobs=1, cache_dir=self.inputs["cache_dir"], strict=False
        )

    def check(self, result) -> Outcome:
        failures, payloads, violations = self.pipeline_verdict(result, self.perturb)
        rebuilt = result.recomputed_persistent_artifacts()
        if rebuilt:
            failures.append(f"warm run rebuilt persistent artifacts: {', '.join(rebuilt)}")
        digests = {name: payload_digest(payload) for name, payload in payloads.items()}
        digests["answer key verdicts"] = payload_digest(violations)
        return Outcome(
            digests=digests,
            failures=failures + violations if self.key_gates else failures,
            cache_bytes=entry_bytes(result.resolver),
            resolver=result.resolver,
            manifest=result.manifest(),
            notes=[] if self.key_gates else violations,
        )

    def final_check(self) -> Tuple[List[str], List[str]]:
        # At the preset's seed the ops themselves were gated on the key.
        return ([] if self.key_gates else self.preset_key_failures(self.perturb)), []


class ColdArtifacts(Workload):
    name = "artifacts-cold-small"
    scenario_name = "small"

    def build_inputs(self) -> None:
        previous = self.inputs.get("root")
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)
        self.inputs = {
            "plan": pipeline_artifact_plan(select_stages()),
            "root": str(_fresh_dir(self.work_dir, "cold-caches-")),
        }

    def prepare_op(self):
        cache = _fresh_dir(Path(self.inputs["root"]), "op-")
        resolver = ArtifactResolver(self.scenario, cache_dir=cache)

        def op():
            for name in self.inputs["plan"]:
                resolver.artifact(name)
            return resolver

        return op

    def check(self, resolver) -> Outcome:
        from repro import sanitize

        failures: List[str] = []
        digests: Dict[str, str] = {}
        persistent = [event for event in resolver.events if event.persistent]
        not_built = [event.name for event in persistent if event.status != "built"]
        if not_built:
            failures.append(f"cold op did not build: {', '.join(not_built)}")
        if not persistent:
            failures.append("cold op wrote no persistent artifact")
        for index, event in enumerate(persistent):
            entry = resolver.store.entry_path(event.name, event.key)
            if self.perturb and index == 0:
                target = next(path for path in sorted(entry.rglob("*")) if path.name != "ARTIFACT.json")
                data = bytearray(target.read_bytes())
                data[len(data) // 2] ^= 0xFF
                target.write_bytes(bytes(data))
            recorded = json.loads((entry / "ARTIFACT.json").read_text(encoding="utf-8"))["payload_sha256"]
            if sanitize.hash_payload(entry) != recorded:
                failures.append(f"artifact {event.name}: bytes on disk do not match payload_sha256")
            digests[event.name] = recorded
        return Outcome(digests=digests, failures=failures, cache_bytes=entry_bytes(resolver), resolver=resolver)

    def cleanup_op(self, resolver) -> None:
        # Keep the newest cache for the validation run in final_check.
        for path in Path(self.inputs["root"]).iterdir():
            if path != resolver.store.root:
                shutil.rmtree(path, ignore_errors=True)

    def final_check(self) -> Tuple[List[str], List[str]]:
        # The op runs no stage, so the figures are gated at the preset's seed.
        return self._reload_failures() + self.preset_key_failures(), []

    def _reload_failures(self) -> List[str]:
        """Failures of serving the last op's cache back through a fresh resolver.

        Every persistent artifact of the plan must come from the cache: the
        cold op left a complete cache that a later run can read.
        """
        caches = sorted(Path(self.inputs["root"]).iterdir())
        if len(caches) != 1:
            return [f"expected one surviving cold cache, found {len(caches)}"]
        try:
            resolver = _materialise(self.scenario, caches[0])
        except Exception as exc:
            return [f"reloading the cold cache raised {type(exc).__name__}: {exc}"]
        rebuilt = [event.name for event in resolver.events if event.persistent and event.status != "cached"]
        return [f"reloading the cold cache rebuilt: {', '.join(rebuilt)}"] if rebuilt else []


class LargeKernels(Workload):
    name = "kernels-large"
    scenario_name = "large"

    def build_inputs(self) -> None:
        # Set-up runs under single_core(), so the reference is the frozen tier's.
        cache = _fresh_dir(self.work_dir, "large-cache-")
        ArtifactResolver(self.scenario, cache_dir=cache).artifact("frozen_reference")
        self.inputs = {"cache_dir": str(cache)}
        _, result = self._kernels()
        self.inputs["reference_digest"] = payload_digest(result)

    def _kernels(self):
        from repro.applications.link_prediction import rank_candidate_pairs
        from repro.metrics.summary import frozen_san_report

        resolver = ArtifactResolver(self.scenario, cache_dir=self.inputs["cache_dir"])
        graph = resolver.artifact("frozen_reference")
        result = {
            "report": frozen_san_report(graph, include_diameter=True, rng=self.scenario.figure_seed),
            "common_neighbors": rank_candidate_pairs(graph, top_k=RANK_TOP_K, metric="common_neighbors"),
            "adamic_adar": rank_candidate_pairs(graph, top_k=RANK_TOP_K, metric="adamic_adar"),
        }
        return resolver, result

    def prepare_op(self):
        return self._kernels

    def check(self, op_result) -> Outcome:
        resolver, result = op_result
        failures: List[str] = []
        if [event.status for event in resolver.events] != ["cached"]:
            failures.append("the reference graph was not served from the warm cache")
        digest = payload_digest(result)
        reference = self.inputs["reference_digest"]
        if self.perturb:
            reference = reference[::-1]
        if digest != reference:
            failures.append("parallel-tier result differs from the single-core reference")
        return Outcome(digests={"kernels": digest}, failures=failures, cache_bytes=entry_bytes(resolver), resolver=resolver)


WORKLOADS = {cls.name: cls for cls in (WarmPipeline, ColdArtifacts, LargeKernels)}


def artifact_layer(events: Sequence[Any]) -> Dict[str, float]:
    """Per-layer artifact metrics of one op's resolver events."""
    built = [event for event in events if event.status == "built"]
    cached = [event for event in events if event.status == "cached"]
    persistent = [event for event in events if event.persistent]

    def build_time(match) -> float:
        return sum(event.seconds for event in built if match(event.name))

    return {
        "artifacts.build_s": sum(event.seconds for event in built),
        "artifacts.builds": sum(1 for event in built if event.persistent),
        "artifacts.bytes_written": sum(event.bytes for event in built if event.persistent),
        "artifacts.build.evolution_s": build_time(lambda name: name == "evolution"),
        "artifacts.build.snapshot_series_s": build_time(lambda name: name == "snapshot_series"),
        "artifacts.build.frozen_snapshots_s": build_time(lambda name: name == "frozen_snapshots"),
        "artifacts.build.models_s": build_time(
            lambda name: ("model" in name or "zhel" in name) and not name.startswith("frozen_")
        ),
        "artifacts.build.freeze_s": build_time(
            lambda name: name.startswith("frozen_") and name != "frozen_snapshots"
        ),
        "artifacts.load_s": sum(event.seconds for event in cached),
        "artifacts.hits": len(cached),
        "artifacts.hit_ratio": len(cached) / len(persistent) if persistent else 0.0,
        "artifacts.bytes_read": sum(event.bytes for event in cached),
    }
