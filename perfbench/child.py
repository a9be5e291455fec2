"""The timed phase of one benchmark run, in a process of its own.

``run.py`` builds the inputs, writes a spec and starts this script::

    python3 perfbench/child.py SPEC.json

It times ops until the spec's time budget is spent and every core has
started as many ops of each kind (see ``workloads.start_on``), checks each
op's outputs, and writes per-op records to the spec's ``result`` path.  With
``trace`` set, untraced and traced ops alternate (at least one of each per
core), so both kinds run in one process at the same stage of its life, and
their payload digests must agree.  Running in its own process lets the
parent read the CPU of this phase, pool workers included, from
``RUSAGE_CHILDREN``; the peak memory of this process and its pool workers is
read here from ``/proc`` before the pool is shut down.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
import traceback
from pathlib import Path
from statistics import mean
from typing import Any, Dict, List, Optional


def _cpu() -> float:
    times = os.times()
    return times.user + times.system


def _peak_kib(pid: int) -> int:
    """``VmHWM`` (peak resident set) of a live process, in KiB; 0 if it is gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text(encoding="utf-8").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _child_pids(parent: int) -> List[int]:
    """Live direct children of ``parent``, found by their ``/proc/PID/stat``."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text(encoding="utf-8")
        except OSError:
            continue
        # The command name may hold spaces; the parent pid follows the state.
        if int(stat.rsplit(")", 1)[1].split()[1]) == parent:
            pids.append(int(entry.name))
    return pids


def peak_rss_bytes() -> int:
    """Sum of the peak resident sets of this process and its children (pool workers).

    Each process's own peak is summed, so pages shared between processes
    (forked copy-on-write pages, shared-memory segments) count once per
    process that touched them: an upper bound of the phase's peak.
    """
    return 1024 * sum(_peak_kib(pid) for pid in [os.getpid()] + _child_pids(os.getpid()))


def _layer_metrics(workload_module, tracer_module, spans, outcome, columnar_bytes: int) -> Dict[str, float]:
    metrics = dict(tracer_module.layer_totals(spans))
    metrics["graph.columnar_bytes_written"] = columnar_bytes
    if outcome is None:
        return metrics
    metrics.update(workload_module.artifact_layer(outcome.resolver.events))
    if outcome.manifest is not None:
        stages = outcome.manifest["stages"]
        metrics["runner.stages_s"] = sum(stage["seconds"] for stage in stages)
        metrics["runner.stage_failures"] = sum(1 for stage in stages if stage["error"])
        for stage in stages:
            metrics[f"runner.stage.{stage['name']}_s"] = stage["seconds"]
    return metrics


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import tracer as tracer_module
    import workloads as workload_module

    workload = workload_module.WORKLOADS[spec["workload"]](
        spec["seed"], Path(spec["work_dir"]), perturb=spec["perturb"]
    )
    workload.inputs = spec["inputs"]
    seconds = float(spec["seconds"])
    tracer = tracer_module.Tracer()

    ready = time.time()
    ops: List[Dict[str, Any]] = []
    spans_by_op: List[list] = []
    first_digests: Optional[Dict[str, str]] = None
    started = time.perf_counter()
    while True:
        index = len(ops)
        is_traced = bool(spec["trace"]) and index % 2 == 1
        phase = "traced" if is_traced else "untraced"
        core = workload_module.CORES[sum(1 for op in ops if op["phase"] == phase) % len(workload_module.CORES)]
        record: Dict[str, Any] = {"index": index, "phase": phase, "core": core, "failures": []}
        outcome = None
        result = None
        try:
            run = workload.prepare_op()
            gc.collect()
            if is_traced:
                tracer.install()
                tracer.op, tracer.spans, tracer.columnar_bytes_written = index, [], 0
            workload_module.start_on(core)
            try:
                cpu_started, wall_started = _cpu(), time.perf_counter()
                try:
                    result = run()
                finally:
                    record["wall_s"] = time.perf_counter() - wall_started
                    record["cpu_s"] = _cpu() - cpu_started
            finally:
                if is_traced:
                    tracer.uninstall()
            outcome = workload.check(result)
            record["failures"] += outcome.failures
            record["notes"] = outcome.notes
            record["cache_bytes"] = outcome.cache_bytes
            if first_digests is None:
                first_digests = outcome.digests
            elif outcome.digests != first_digests:
                changed = sorted(
                    name
                    for name in set(first_digests) | set(outcome.digests)
                    if first_digests.get(name) != outcome.digests.get(name)
                )
                record["failures"].append(
                    "payload digests differ from the first op's: " + ", ".join(changed)
                )
            workload.cleanup_op(result)
        except Exception:
            record["failures"].append(traceback.format_exc(limit=8))
        if is_traced:
            record["layers"] = _layer_metrics(
                workload_module, tracer_module, tracer.spans, outcome, tracer.columnar_bytes_written
            )
            spans_by_op.append(tracer.spans)
        ops.append(record)
        del result, outcome
        # Stop only after whole rounds: every phase has started as many ops on each core.
        rounds_done = all(
            sum(1 for op in ops if op["phase"] == kind) % len(workload_module.CORES) == 0
            for kind in ("untraced", "traced")
        )
        if time.perf_counter() - started >= seconds and (spans_by_op or not spec["trace"]) and rounds_done:
            break

    peak_rss = peak_rss_bytes()
    try:
        from repro.engine.parallel import shutdown
    except ImportError:  # a program without the parallel tier
        pass
    else:
        shutdown()  # reap pool workers so their CPU reaches RUSAGE_CHILDREN
    summary: Dict[str, Any] = {
        "ready_time": ready,
        "peak_rss_bytes": peak_rss,
        "ops": ops,
        "missing_entry_points": tracer.missing,
    }
    traced = [op for op in ops if op["phase"] == "traced"]
    if traced:
        names = sorted({name for op in traced for name in op.get("layers", {})})
        summary["layers"] = {
            name: mean(op.get("layers", {}).get(name, 0.0) for op in traced) for name in names
        }
        Path(spec["spans"]).write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "op", "detail"], "ops": spans_by_op}),
            encoding="utf-8",
        )
    summary["self_cpu_s"] = _cpu()
    Path(spec["result"]).write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
