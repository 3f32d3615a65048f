"""Measured child process of the benchmark: one workload, one thread.

    python3 -S perfbench/worker.py <checkout-root>   < spec.json

The spec (workload, inputs, seconds, trace, workdir) arrives on stdin; one
JSON result line goes to stdout.  Untraced, the worker repeats rounds of the
workload's items until ``seconds`` have passed.  Traced, it runs untraced for
a third of that, then the same rounds again under the tracer, and reports
both answer digests so the caller can check that tracing changed nothing.
Every timed call is scaled to reference machine speed (``calibrate.py``).
"""

from __future__ import annotations

import os
import sys

ROOT = sys.argv[1]
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from cuntzfrac import surds  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# bound before the tracer can swap in its wrapper
squarefree_split = surds.squarefree_split


def run_rounds(workload_rounds, seconds: float | None = None, rounds: int | None = None) -> dict:
    """Cycle through whole rounds until `seconds` have passed, or for exactly
    `rounds` rounds."""
    digest = hashlib.sha256()
    scaler = calibrate.Scaler()
    latencies: list[float] = []  # scaled seconds per timed call
    attempted = failed = done = hits = lookups = 0
    errors: list[str] = []
    start = time.perf_counter()
    while True:
        for run, arg, n in workload_rounds[done % len(workload_rounds)]:
            t0 = time.perf_counter()
            try:
                answer, bad = run(arg)
            except Exception:  # an unexpected exception fails the item; keep going
                errors.append(traceback.format_exc())
                answer, bad = "exception", n
            latencies.append(scaler.scale(time.perf_counter() - t0))
            digest.update(answer.encode() + b"\n")
            attempted += n
            failed += bad
        # each round starts with the factoring cache as empty as a fresh process
        info = squarefree_split.cache_info()
        hits, lookups = hits + info.hits, lookups + info.hits + info.misses
        squarefree_split.cache_clear()
        done += 1
        elapsed = time.perf_counter() - start
        if (done >= rounds) if rounds is not None else (elapsed >= seconds):
            break
    deciles = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else latencies * 9
    return {
        "rounds": done,
        "elapsed_s": elapsed,
        "scaled_s": sum(latencies),
        "kernel_ms": statistics.median(scaler.kernel_s) * 1e3,
        "attempted": attempted,
        "failed": failed,
        "digest": digest.hexdigest(),
        "latency_samples": len(latencies),
        "item_ms_p50": statistics.median(latencies) * 1e3,
        "item_ms_p90": deciles[8] * 1e3,
        "cache_hits": hits,
        "cache_lookups": lookups,
        "errors": errors[:3],
    }


def main() -> None:
    spec = json.load(sys.stdin)
    workload_rounds = workloads.ITEMS[spec["workload"]](spec["inputs"], spec["workdir"])
    if spec["trace"]:
        plain = run_rounds(workload_rounds, seconds=spec["seconds"] / 3)
        with tracing.Tracer() as tracer:
            traced = run_rounds(workload_rounds, rounds=plain["rounds"])
        result = dict(plain, digest_traced=traced["digest"],
                      attempted=plain["attempted"] + traced["attempted"],
                      failed=plain["failed"] + traced["failed"])
        result["layers"] = tracer.metrics(
            traced["cache_hits"], traced["cache_lookups"], traced["scaled_s"] / plain["scaled_s"]
        )
    else:
        result = run_rounds(workload_rounds, seconds=spec["seconds"])
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["package"] = os.path.abspath(surds.__file__)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
