"""The repository benchmark: one command, three workloads, every output checked.

Run from the repository root::

    python3 perfbench/run.py --workload pipeline-warm-small --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``; ``--trace
1`` alternates untraced and traced ops and prints every per-layer metric
instead.  The last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``.  A failed output check makes ``correct``
false and the exit code 1.  ``README.md`` defines the workloads and metrics.

The parent process imports the program and builds the workload's inputs (the
set-up, repeated ``setup_reps`` times).  A child process (``child.py``) then
runs the timed ops and reports its peak memory and that of its pool workers;
the parent reads the CPU of both from ``RUSAGE_CHILDREN`` once it is reaped.
"""

from __future__ import annotations

import os
import sys

#: String hashing is seeded, so that a run's work is a function of ``--seed``
#: alone: set iteration order reaches the generated model graphs.
HASH_SEED = "0"
if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
    os.execve(sys.executable, [sys.executable] + sys.argv, dict(os.environ, PYTHONHASHSEED=HASH_SEED))

import time  # noqa: E402

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
#: The timed child must end well inside a run's 180-second limit.
RUN_LIMIT_S = 170.0
DEFAULT_SEED = 20120835
#: The self-test's perturbed runs use a seed no answer key is calibrated at.
PERTURBED_SEED = 1


def load_benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> Dict[str, Any]:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        from repro.engine import parallel

        parallel_tier = {"available": parallel.parallel_available(), "workers": parallel.max_workers()}
    except ImportError:  # a program without the parallel tier
        parallel_tier = {"available": False, "workers": 0}
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_commit": _git_commit(),
        "parallel_available": parallel_tier["available"],
        "parallel_workers": parallel_tier["workers"],
        "repro_env": {name: value for name, value in os.environ.items() if name.startswith("REPRO_")},
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program source {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    benchmark = load_benchmark()
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    WORK.mkdir(exist_ok=True)
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, run_dir, perturb=args.perturb)
        prelude_s = time.perf_counter() - STARTED
        build_s: List[float] = []
        with workloads.single_core():
            for rep in range(workload.setup_reps):
                workloads.start_on(workloads.CORES[rep % len(workloads.CORES)])
                began = time.perf_counter()
                workload.build_inputs()
                build_s.append(time.perf_counter() - began)

        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        spec = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "perturb": args.perturb,
            "inputs": workload.inputs,
            "work_dir": str(run_dir),
            "src": str(SRC),
            "result": str(run_dir / "child-result.json"),
            "spans": str(results_dir / f"{stem}.spans.json"),
        }
        spec_path = run_dir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        child_tmp = run_dir / "tmp"
        child_tmp.mkdir()
        env = dict(os.environ, TMPDIR=str(child_tmp))

        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        spawned = time.time()
        child = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
            stdout=sys.stderr.fileno(),
            env=env,
        )
        try:
            code = child.wait(timeout=max(10.0, RUN_LIMIT_S - (time.perf_counter() - STARTED)))
        except subprocess.TimeoutExpired:
            print("error: the timed phase ran out of time", file=sys.stderr)
            return 1
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if code != 0:
            print(f"error: the timed phase exited with code {code}", file=sys.stderr)
            return 1
        summary = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))

        ops = summary["ops"]
        final_failures, final_notes = workload.final_check()
        if ops:
            ops[-1]["failures"] += final_failures
            ops[-1]["notes"] = ops[-1].get("notes", []) + final_notes
        attempted = len(ops)
        failed = sum(1 for op in ops if op["failures"])
        timed = [op for op in ops if "wall_s" in op]
        untraced = [op for op in timed if op["phase"] == "untraced"]
        traced = [op for op in timed if op["phase"] == "traced"]

        child_ready_s = summary["ready_time"] - spawned
        children_cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        workers_cpu = max(0.0, children_cpu - summary["self_cpu_s"])
        values: Dict[str, float] = {"setup_s": prelude_s + statistics.median(build_s) + child_ready_s}
        if untraced:
            values.update(
                wall_s=workloads.core_median(untraced, "wall_s"),
                # Pool workers are measured only in aggregate, once reaped.
                cpu_s=workloads.core_median(untraced, "cpu_s") + workers_cpu / len(untraced),
                peak_rss_mb=summary["peak_rss_bytes"] / 1e6,
                cache_mb=statistics.median(op.get("cache_bytes", 0) for op in untraced) / 1e6,
            )
        if traced and untraced:
            values.update(summary.get("layers", {}))
            values["trace.overhead_frac"] = workloads.core_median(traced, "wall_s") / values["wall_s"] - 1.0
        group = "per_layer" if args.trace else "end_to_end"
        metrics = {
            entry["name"]: {"value": float(values.get(entry["name"], 0.0)), "unit": entry["unit"]}
            for entry in benchmark[group]
        }

        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "provenance": provenance(),
            "setup": {"prelude_s": prelude_s, "build_s": build_s, "child_ready_s": child_ready_s},
            "workers_cpu_s": workers_cpu,
            "ops": ops,
            "missing_entry_points": summary["missing_entry_points"],
            "metrics": metrics,
            "error_rate": failed / attempted if attempted else 1.0,
        }
        (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

        print(f"workload {args.workload} seed {args.seed}: {attempted} ops "
              f"({len(untraced)} untraced, {len(traced)} traced)")
        print("provenance " + json.dumps(record["provenance"], sort_keys=True))
        for name, metric in metrics.items():
            print(f"  {name} {_fmt(metric['value'])} {metric['unit']}")
        print(f"  error_rate {_fmt(record['error_rate'])} ratio")
        if summary["missing_entry_points"]:
            print("not traced (entry point gone): " + ", ".join(summary["missing_entry_points"]))
        for op in ops:
            for note in op.get("notes", []):
                print(f"note, op {op['index']}: {note} (not gated at this seed)", file=sys.stderr)
            for failure in op["failures"]:
                print(f"FAILED op {op['index']} ({op['phase']}): {failure}", file=sys.stderr)
        correct = attempted > 0 and failed == 0
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def self_test() -> int:
    """One short run per workload and trace mode, plus a perturbed run each.

    Asserts that every metric of ``BENCHMARK.json`` is emitted with its unit
    and that a perturbed payload or parity result makes the run fail.  The
    perturbed runs use a seed other than the preset's, where answer keys do
    not gate the ops, to show that the checks still fail there.
    """
    benchmark = load_benchmark()
    problems: List[str] = []
    for entry in benchmark["workloads"]:
        name = entry["name"]
        for trace, perturb in ((0, False), (1, False), (0, True)):
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(PERTURBED_SEED if perturb else DEFAULT_SEED),
                "--seconds", "1", "--trace", str(trace),
            ] + (["--perturb"] if perturb else [])
            label = f"{name} trace={trace}{' perturbed' if perturb else ''}"
            began = time.perf_counter()
            done = subprocess.run(command, capture_output=True, text=True, timeout=180)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no result line (exit {done.returncode}): {done.stderr[-400:]}")
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            expected = {m["name"]: m["unit"] for m in benchmark["per_layer" if trace else "end_to_end"]}
            emitted = {key: value.get("unit") for key, value in result["metrics"].items()}
            if emitted != expected:
                problems.append(f"{label}: metrics or units differ from BENCHMARK.json")
            if not all(isinstance(value.get("value"), (int, float)) for value in result["metrics"].values()):
                problems.append(f"{label}: a metric value is not a number")
            if perturb:
                if result["correct"] or result["failed"] < 1 or done.returncode == 0:
                    problems.append(f"{label}: the perturbation was not detected")
            elif not result["correct"] or result["failed"] or done.returncode != 0:
                problems.append(f"{label}: failed: {done.stderr[-400:]}")
            print(f"{label}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
                  f"({time.perf_counter() - began:.1f} s)")
    for problem in problems:
        print("SELF-TEST PROBLEM: " + problem, file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["pipeline-warm-small", "artifacts-cold-small", "kernels-large"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="timed phase length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true", help="short run of every workload, checks included")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
