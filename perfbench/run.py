"""cuntzfrac benchmark: one workload per run, measured in a fresh child process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``./src``.
Inputs and expected answers are generated from the seed before timing.  The
workload then runs in a fresh single-threaded child (``worker.py``) for about
S seconds, checking every answer.  Untraced runs report the end-to-end
metrics, and set-up time from fresh interpreters (``setup_probe.py``).  Times
are scaled to reference machine speed (``calibrate.py``); raw wall-clock
figures are printed beside them.  Traced
runs report the per-layer metrics of ``tracing.py``.  Human-readable lines come
first; the last line of stdout is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile

import calibrate
import tracing

WORKLOADS = ("corpus-short", "long-period", "requests-mixed", "cuntz-sweep")
HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench-work"
SETUP_RUNS = 21
CHILD_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "peak_rss_mb": "MiB",
}


class BenchError(RuntimeError):
    """The benchmark could not measure: missing package, or a child that failed."""


def _python(script: str, root: str, stdin: str | None, timeout: float) -> dict:
    # -S keeps site-packages out, so only the checkout's src/ can supply cuntzfrac
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, "-S", os.path.join(HERE, script), root],
        input=stdin, capture_output=True, text=True, timeout=timeout, env=env, cwd=root,
    )
    if proc.returncode != 0:
        raise BenchError(f"{script} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _inside(path: str, root: str) -> bool:
    return os.path.abspath(path).startswith(os.path.join(os.path.abspath(root), "src") + os.sep)


def measure_setup(root: str, runs: int) -> tuple[float, float, bool]:
    """Median scaled and raw set-up time over `runs` fresh interpreters, after
    one warm-up that fills the bytecode cache; and whether every probe
    answered right."""
    scaled, raw, ok = [], [], True
    for i in range(runs + 1):
        probe = _python("setup_probe.py", root, None, PROBE_TIMEOUT_S)
        ok = ok and probe["rc"] == 0 and probe["answer"] == "P(1)\n" and _inside(probe["package"], root)
        if i:
            raw.append(probe["setup_s"])
            scaled.append(probe["setup_s"] * calibrate.REFERENCE_S / probe["kernel_s"])
    return statistics.median(scaled), statistics.median(raw), ok


def generate(root: str, workload: str, seed: int, scale: float) -> dict:
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import workloads

    if not _inside(workloads.cfe.__file__, root):
        raise BenchError(f"cuntzfrac was imported from {workloads.cfe.__file__}, not from {root}/src")
    return workloads.GENERATE[workload](random.Random(f"{workload}:{seed}"), scale)


def measure(root: str, workload: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0, setup_runs: int = SETUP_RUNS) -> dict:
    """Generate inputs, run the measured child, and assemble the result object."""
    if not os.path.isfile(os.path.join(root, "src", "cuntzfrac", "__init__.py")):
        raise BenchError(f"no cuntzfrac package under {root}/src; run from a checkout root")
    inputs = generate(root, workload, seed, scale)
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, WORK_DIR))
    try:
        spec = {"workload": workload, "inputs": inputs, "seconds": seconds,
                "trace": trace, "workdir": workdir}
        child = _python("worker.py", root, json.dumps(spec), CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass  # another run still uses it
    correct = child["failed"] == 0 and _inside(child["package"], root)
    report = {
        "child": child,
        "properties": inputs["properties"],
        "attempted": child["attempted"],
        "failed": child["failed"],
    }
    if trace:
        correct = correct and child["digest_traced"] == child["digest"]
        report["metrics"] = child["layers"]
    else:
        setup_s, report["raw_setup_s"], setup_ok = measure_setup(root, setup_runs)
        correct = correct and setup_ok
        report["metrics"] = {
            "setup_s": setup_s,
            "items_per_s": child["attempted"] / child["scaled_s"],
            "item_ms_p50": child["item_ms_p50"],
            "item_ms_p90": child["item_ms_p90"],
            "peak_rss_mb": child["peak_rss_kb"] / 1024,
        }
    report["correct"] = correct
    return report


def _print_report(args, report: dict) -> None:
    units = END_TO_END if not args.trace else dict(tracing.LAYER_METRICS)
    child = report["child"]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, value in report["properties"].items():
        print(f"  input   {name:<44} {value}")
    print(f"  run     rounds={child['rounds']} elapsed_s={child['elapsed_s']:.3f} "
          f"latency_samples={child['latency_samples']} digest={child['digest'][:16]}")
    print(f"  raw     items_per_s={child['attempted'] / child['elapsed_s']:.6g} "
          f"kernel_ms={child['kernel_ms']:.4f} (reference {calibrate.REFERENCE_S * 1e3:.4f})"
          + (f" setup_s={report['raw_setup_s']:.6g}" if "raw_setup_s" in report else ""))
    if args.trace:
        print(f"  run     digest_traced={child['digest_traced'][:16]} "
              f"match={child['digest_traced'] == child['digest']}")
    for name, value in report["metrics"].items():
        print(f"  metric  {name:<44} {value:.6g} {units[name]}")
    ratio = report["failed"] / report["attempted"] if report["attempted"] else 0.0
    print(f"  metric  {'failed_ratio':<44} {ratio:.6g} ({report['failed']}/{report['attempted']})")
    for err in child["errors"]:
        print(err, file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cuntzfrac benchmark; run from a checkout root")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = measure(os.getcwd(), args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _print_report(args, report)
    units = dict(tracing.LAYER_METRICS) if args.trace else END_TO_END
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
