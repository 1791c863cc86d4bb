"""Benchmark entry point for canonica.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics: SETUP_SAMPLES fresh
interpreters each time `import canonica` plus the first warm-up op (the
median is setup_s), then one more runs the closed loop for S seconds.
--trace 1 runs the outside-in traced passes instead and reports the
per-layer metrics.  Every workload process gets OPENBLAS_NUM_THREADS=1
(and the OpenMP/MKL equivalents), so BLAS runs single-threaded.

Output: a report line, then as the last line
{"correct", "attempted", "failed", "metrics"}, where attempted and failed
count distinct ops of the seeded pool (the report line gives op runs).  The full report, with
the environment record and every failed op, also goes to
.perfbench_out/<workload>-trace<0|1>.json.  Exits 2 without a result
when the checkout has no src/canonica, 1 when a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import envinfo  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
# Whole run, all processes included; a run must end within 180 s.
BUDGET_S = 170.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

class WorkerError(RuntimeError):
    pass


def _worker(root: Path, env: dict, args, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--root", str(root),
    ]
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], env=env, cwd=root,
            stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} process exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"{mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(setups: list[float], run: dict, failed_pool_ops: int) -> dict[str, float]:
    return {
        # Ops per second of client time spent waiting on the library;
        # answer checks between ops are not part of it.
        "throughput_ops_s": run["attempted"] / run["busy_s"],
        "latency_p50_ms": 1e3 * run["latency_p50_s"],
        "latency_tail_ms": 1e3 * run["latency_tail_s"],
        # Share of the pool's ops that failed, with add-one smoothing so
        # the ratio is never 0 and a first failure on a clean workload
        # shows as a relative change.  The loop covers the whole pool
        # and the ops are deterministic, so speed does not move it.
        "failed_ops_ratio": (failed_pool_ops + 1) / (run["pool_size"] + 1),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="canonica benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "canonica" / "__init__.py").is_file():
        print(f"no src/canonica under {root}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **PINNED_ENV)
    deadline = time.monotonic() + BUDGET_S

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                sample = _worker(root, env, args, "setup", deadline)
                setups.append(sample["setup_s"])
        run = _worker(root, env, args, "trace" if args.trace else "measure", deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(run["setup_s"])

    failures = run["failures"]
    failed_pool_ops = sorted({f["pool_index"] for f in failures if f["op"] >= 0})
    if args.trace:
        listed = layers.BENCHMARK["per_layer"]
        values = run["layers"]
    else:
        listed = layers.BENCHMARK["end_to_end"]
        values = _end_to_end(setups, run, len(failed_pool_ops))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    # The known-defect ops are counted in failed and failed_ops_ratio.
    # Any other failure, the warm-up op's included, makes the run
    # incorrect.
    correct = all(f["known_defect"] for f in failures)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": envinfo.record(root, args.seed, PINNED_ENV["OPENBLAS_NUM_THREADS"]),
        "pool_size": run["pool_size"],
        "setup_samples_s": setups,
        "latency_samples": run["attempted"],
        "op_runs": run["attempted"],
        "failed_op_runs": sum(1 for f in failures if f["op"] >= 0),
        "tail_percentile": run.get("tail_percentile"),
        "failed_pool_ops": failed_pool_ops,
        "failed_unexpected": sum(1 for f in failures if not f["known_defect"]),
        "failures": failures,
        "metrics": metrics,
    }
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    summary = {k: v for k, v in report.items() if k not in ("failures", "metrics")}
    print(json.dumps(summary))
    # attempted and failed count distinct pool ops, not op runs: every
    # pool op runs at least once, an op is failed if any of its runs
    # failed, and the ops are deterministic, so the counts depend on the
    # seed only, not on how many runs fit in the time.  The summary line
    # above gives the raw run counts.
    print(json.dumps({"correct": correct, "attempted": run["pool_size"],
                      "failed": len(failed_pool_ops), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
