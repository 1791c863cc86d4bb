"""One workload process: set up, run the closed loop, check every answer.

run.py starts this script in a fresh interpreter with BLAS pinned to one
thread and the checkout's src/ on PYTHONPATH:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --mode setup|measure|trace --t0 T --root DIR

--t0 is the launcher's time.monotonic() just before the process was
started.  Set-up time runs from there through `import canonica` and the
first warm-up op, less the time spent generating the warm-up input.

setup    stops after the warm-up op.
measure  one client, closed loop: runs the op pool round-robin for S
         seconds (and at least one whole pass and MIN_OPS ops), timing
         each op alone.
trace    alternates an untraced and a traced pass over the whole pool
         for about S seconds (whole pairs of passes, at least one), and
         derives the per-layer metrics from the traced passes.

The last line of stdout is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

TAIL_BEYOND = 10
# Enough samples that the tail percentile has TAIL_BEYOND samples
# beyond it and lies above the median.
MIN_OPS = 2 * (TAIL_BEYOND + 1)
MAX_LOGGED = 50


def run_op(op):
    """(result, None) or (None, exception) for one op."""
    try:
        return op.run(), None
    except Exception as exc:  # an unexpected raise is a failed op
        return None, exc


def _outcome(op, result, err) -> str | None:
    if err is not None:
        return f"raised {type(err).__name__}: {err}"
    try:
        return op.check(result)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed answer ({type(exc).__name__}: {exc})"


class Log:
    """Failed ops, each with the op index, workload and reason."""

    def __init__(self, workload: str):
        self.workload = workload
        self.failures: list[dict] = []

    def fail(self, index: int, op, reason: str) -> None:
        entry = {"op": index, "pool_index": op.index, "label": op.label,
                 "n": op.n, "known_defect": op.known_defect, "reason": reason}
        self.failures.append(entry)
        if len(self.failures) <= MAX_LOGGED:
            print(f"failed op: workload={self.workload} op={index} "
                  f"pool_index={op.index} label={op.label} n={op.n} "
                  f"known_defect={op.known_defect}: {reason}", file=sys.stderr)


def measure(ops, seconds: float, log: Log) -> dict:
    latencies: list[float] = []
    # Pool index -> digest of an answer that passed its check.  An answer
    # byte-identical to it is right too, and costs no second check.
    verified: dict[int, bytes] = {}
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < max(MIN_OPS, len(ops)):
        op = ops[i % len(ops)]
        t0 = time.perf_counter()
        result, err = run_op(op)
        latencies.append(time.perf_counter() - t0)
        digest = hashlib.sha256(answer_digest(op, result, err)).digest()
        if verified.get(op.index) != digest:
            reason = _outcome(op, result, err)
            if reason is None:
                verified[op.index] = digest
            else:
                log.fail(i, op, reason)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ordered = sorted(latencies)
    n = len(ordered)
    return {
        "attempted": n,
        "busy_s": sum(latencies),
        "latency_p50_s": statistics.median(ordered),
        "latency_tail_s": ordered[n - TAIL_BEYOND - 1],
        "tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "peak_rss_mb": peak_rss_mb,
    }


def answer_digest(op, result, err) -> bytes:
    if err is not None:
        return f"raised {type(err).__name__}: {err}".encode()
    return op.digest(result)


def traced_pass(tracer, ops, workload: str, first: int = 0) -> list[tuple]:
    """Run every op once with the tracer installed, op ids counting from
    first.  Returns (result, error, seconds) per op."""
    out = []
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.begin_op(first + i, op.n)
            t0 = time.perf_counter()
            result, err = run_op(op)
            out.append((result, err, time.perf_counter() - t0))
            if workload == "cli_mix" and err is None:
                tracer.count("cli.report_bytes", len(result[1]))
    finally:
        tracer.uninstall()
    return out


def trace(ops, seconds: float, log: Log, workload: str, spans_path: Path) -> dict:
    from tracer import Tracer
    import layers

    tracer = Tracer()
    untraced_s = traced_s = 0.0
    attempted = 0
    start = time.perf_counter()
    cycle_s = 0.0
    # Whole passes only, and no pass that would end past the deadline.
    while attempted == 0 or time.perf_counter() - start + cycle_s <= seconds:
        cycle_start = time.perf_counter()
        digests = []
        for op in ops:
            t0 = time.perf_counter()
            result, err = run_op(op)
            untraced_s += time.perf_counter() - t0
            digests.append(answer_digest(op, result, err))
        traced = traced_pass(tracer, ops, workload, attempted)
        # Answers are checked after the pass, with the tracer removed.
        for op, untraced, (result, err, op_s) in zip(ops, digests, traced):
            traced_s += op_s
            reason = _outcome(op, result, err)
            if reason is None and answer_digest(op, result, err) != untraced:
                reason = "traced answer differs from the untraced answer"
            if reason is not None:
                log.fail(attempted, op, reason)
            attempted += 1
        cycle_s = time.perf_counter() - cycle_start
    # The passes repeat the same ops; the first one shows them all.
    tracer.dump_spans(spans_path, len(ops))
    metrics = layers.per_layer(tracer)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    return {"attempted": attempted, "layers": metrics, "cycles": attempted // len(ops)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--root", required=True)
    args = p.parse_args(argv)
    root = Path(args.root).resolve()

    importlib.import_module("canonica.cli" if args.workload == "cli_mix" else "canonica")
    origin = Path(sys.modules["canonica"].__file__).resolve()
    if origin.parent.parent != root / "src":
        print(f"canonica was imported from {origin}, not from {root / 'src'}", file=sys.stderr)
        return 3
    import workloads

    workdir = root / ".perfbench_run" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    log = Log(args.workload)
    try:
        g0 = time.monotonic()
        warm = workloads.build(args.workload, args.seed, workdir, stream=1, limit=1)[0]
        generation = time.monotonic() - g0
        result, err = run_op(warm)
        setup_s = time.monotonic() - args.t0 - generation
        reason = _outcome(warm, result, err)
        if reason is not None:
            log.fail(-1, warm, f"warm-up: {reason}")
        out = {"setup_s": setup_s}
        if args.mode != "setup":
            ops = workloads.build(args.workload, args.seed, workdir)
            if args.mode == "measure":
                out.update(measure(ops, args.seconds, log))
            else:
                out_dir = root / ".perfbench_out"
                out_dir.mkdir(exist_ok=True)
                spans = out_dir / f"{args.workload}.spans.jsonl"
                out.update(trace(ops, args.seconds, log, args.workload, spans))
            out["pool_size"] = len(ops)
        out["failures"] = log.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another worker's directory is still there
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
