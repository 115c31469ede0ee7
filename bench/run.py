#!/usr/bin/env python3
"""End-to-end benchmark of the eigencliques command line, with a traced run per layer.

    python3 bench/run.py --workload dense_random --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60   # each workload in its own process

A workload is a fixed job list built from --seed (see workloads.py). One
client runs it in a closed loop, the next job starting when the previous one
ends, by calling ``eigencliques.cli.main(argv)`` in process with ``--output``
to a file, for about --seconds. Every report is checked independently
(checks.py) and must be byte-identical to its first run.

With --trace 0 the batches run untraced and give the end-to-end metrics;
times are means over every batch of the run (see BATCH_STAT).
With --trace 1 untraced and traced batches alternate (tracing.py) and give
the per-layer metrics. The metric names and units are the ones listed in
BENCHMARK.json. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it name every
metric with its workload and unit, and record the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT, so reports do not vary with the checkout path

WORKLOAD_NAMES = ("dense_random", "planted_union")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # kept for checking claims; do not tune against it
MIN_PLAIN_BATCHES = 3
MIN_TRACED_BATCHES = 2  # exact counts must repeat between traced batches
MIN_SPAN_COVERAGE = 0.99  # share of each job's wall time its cli.main span must cover
SETUP_REPEATS = 7
# Batch times are averaged, not medianed: the host's speed switches between a
# fast and a slow state for tens of seconds at a time, and the median of a
# run's few batches jumps between the two where the mean moves smoothly.
BATCH_STAT = statistics.fmean
# One BLAS thread: with two, any other busy process on a 2-CPU host made
# OpenBLAS's waiting threads slow planted_union batches from ~6 s to over 60 s.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# What every CLI invocation pays before its first result: interpreter start,
# importing the package and numpy, and the first eigh.
# The child prints its own perf_counter (CLOCK_MONOTONIC, shared by all
# processes on Linux), so the parent's polling wait does not blur the time.
SETUP_CODE = "import numpy as np, eigencliques, time; np.linalg.eigh(np.ones((256, 256))); print(time.perf_counter())"


def measure_setup() -> float:
    """Median time from launch to the end of SETUP_CODE over SETUP_REPEATS fresh processes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        times.append(float(proc.stdout) - t0)
    return statistics.median(times)


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ[k] for k in BLAS_ENV},
        "platform": platform.platform(),
    }


class Runner:
    """Runs jobs through the CLI, times them and verifies every report."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, job) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(job.argv)  # looked up per call, so the tracer's wrapper applies
        except Exception as exc:  # a crash is a failed job, and the loop goes on
            rc = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        problem = self._verify(job, rc)
        if problem:
            self.failures.append(f"{job.command} {job.output.name}: {problem}")
        return elapsed

    def _verify(self, job, rc) -> str | None:
        if rc != 0:
            return rc if isinstance(rc, str) else f"exit code {rc}"
        data = job.output.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.get(str(job.output))
        if first is None:  # full check once; later runs must reproduce these bytes
            self.digests[str(job.output)] = digest
            return job.check(data)
        return None if digest == first else "report bytes differ from the first run's"

    def batch(self, jobs, tracer=None) -> dict:
        """One pass over the job list: total seconds and per-command milliseconds."""
        per_cmd: dict[str, float] = {}
        total = 0.0
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = i
            dt = self.run(job)
            total += dt
            per_cmd[job.command] = per_cmd.get(job.command, 0.0) + dt * 1e3
        return {"s": total, "cmd_ms": per_cmd}


def _median(values):
    return statistics.median(values) if values else 0.0


def timed_loop(runner: Runner, tracer, jobs, seconds: float, trace: bool):
    """Run batches until the next would end after ``seconds``.

    With ``trace`` plain and traced batches alternate, plain first. Returns the
    plain batches, the traced batches and the traced batches' spans, each span
    tagged with [traced batch, job index].
    """
    plain: list[dict] = []
    traced: list[dict] = []
    spans: list[list] = []
    deadline = time.perf_counter() + seconds
    while True:
        if trace and len(traced) < len(plain):
            tracer.reset()
            with tracer.installed():
                b = runner.batch(jobs, tracer)
            b["layers"] = tracer.aggregate()
            b["counts"] = tracer.exact_counts()
            b["coverage"] = tracer.cli_wall_s() / b["s"]
            spans += [[name, t0, t1, parent, [len(traced), job]] for name, t0, t1, parent, job in tracer.spans]
            traced.append(b)
        else:
            b = runner.batch(jobs)
            plain.append(b)
        enough = len(traced) >= MIN_TRACED_BATCHES if trace else len(plain) >= MIN_PLAIN_BATCHES
        if enough and time.perf_counter() + b["s"] > deadline:
            return plain, traced, spans


def layer_metrics(plain: list[dict], traced: list[dict], failures: list[str]) -> dict:
    """Per-layer metrics of the traced batches; appends to ``failures`` if a self-check fails."""
    metrics = {key: _median([b["layers"][key] for b in traced]) for key in traced[0]["layers"]}
    counts = traced[0]["counts"]
    for b in traced[1:]:
        if b["counts"] != counts:
            diff = sorted(k for k in counts if b["counts"][k] != counts[k])
            failures.append(f"exact counts differ between traced batches: {diff}")
    metrics.update(counts)
    calls = counts["spectral.spectrum.calls"]
    metrics["spectral.spectrum.eigh_per_call"] = counts["kernel.eigh.calls"] / calls if calls else 0.0
    metrics["bench.trace_overhead_s"] = _median([b["s"] for b in traced]) - _median([b["s"] for b in plain])
    metrics["bench.span_coverage"] = min(b["coverage"] for b in traced)
    if metrics["bench.span_coverage"] < MIN_SPAN_COVERAGE:
        failures.append(f"cli.main spans cover only {metrics['bench.span_coverage']:.4f} of job wall time")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import eigencliques

    if Path(eigencliques.__file__).resolve().parent != SRC / "eigencliques":
        sys.stderr.write(f"error: imported eigencliques from {eigencliques.__file__}, not from {SRC}\n")
        return 2
    from eigencliques import cli

    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    setup_s = measure_setup()
    work = WORK / name
    runner = Runner(cli)
    try:
        jobs, warmup = workloads.prepare(name, seed, work)
        runner.run(warmup)  # untimed: first eigh, lazy imports, page faults
        plain, traced, spans = timed_loop(runner, tracing.Tracer(), jobs, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(name, seed)
    env["reports_sha256"] = hashlib.sha256("".join(sorted(runner.digests.values())).encode()).hexdigest()
    commands = {job.command for job in jobs}
    metrics = {
        "setup_s": setup_s,
        "batch_s": BATCH_STAT([b["s"] for b in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for cmd in workloads.COMMANDS:  # 0 where the workload does not run the command
        metrics[f"{cmd}_ms"] = BATCH_STAT([b["cmd_ms"].get(cmd, 0.0) for b in plain])
    if trace:
        metrics.update(layer_metrics(plain, traced, runner.failures))
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"trace-{name}-seed{seed}.json"
        trace_path.write_text(json.dumps({"env": env, "spans": spans}) + "\n", encoding="utf-8")
        env["trace_file"] = str(trace_path)
    metrics["fail_frac"] = len(runner.failures) / runner.attempted

    print("env " + json.dumps(env, sort_keys=True))
    print(f"samples {name} jobs/batch={len(jobs)} plain_batch_s={[round(b['s'], 4) for b in plain]}"
          f" traced_batch_s={[round(b['s'], 4) for b in traced]}")
    for key, value in metrics.items():
        if key.endswith("_ms") and key[:-3] in workloads.COMMANDS and key[:-3] not in commands:
            continue
        print(f"metric {name} {key} {value!r} {units[key]}")
    for failure in runner.failures:
        print(f"FAILED {name} {failure}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in wanted},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a fresh process of its own; relays their metric lines."""
    correct, attempted, failed, merged = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        merged.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eigencliques" / "__init__.py").is_file():
        sys.stderr.write(f"error: no eigencliques sources under {SRC}; run from a full checkout\n")
        return 2
    # BLAS reads its thread count when numpy is first imported, here and in children.
    for key in BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
