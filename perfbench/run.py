"""Benchmark of the sdparse parser: parse and train throughput, with a
traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N] [--seconds S]

The first form runs one workload and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the detail (sample counts, tail latency, reference
check, run metadata). ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run. ``--report`` runs
every workload both ways and prints every metric by name and unit.

Each workload runs in its own worker process (``worker.py``) with BLAS
pinned to one thread; set-up runs in nine processes and the median is
reported. Workers read the parser from ``src/`` of this checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("parse-long-mf", "train-long-lbp", "train-short-full")
SETUP_RUNS = 9
DEADLINE_S = 170.0   # a run must finish within 180 s


def _worker(workload, seed, seconds, mode, deadline):
    """Run one worker process; returns its result dict."""
    os.makedirs(OUT, exist_ok=True)
    out = os.path.join(OUT, f"{workload}-seed{seed}-{mode}-{os.getpid()}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, "--out", out]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # the worker's console output goes to stderr, keeping stdout for the result
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker ({mode}) exited with {proc.returncode}")
    try:
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        os.remove(out)


def _tail(ops_ms):
    """(percentile, value): the highest whole percentile with at least ten
    samples above it, or None below twenty samples."""
    count = len(ops_ms)
    if count < 20:
        return None
    pct = 100 * (count - 10) // count
    ordered = sorted(ops_ms)
    return pct, ordered[max(0, -(-pct * count // 100) - 1)]


def measure(workload, seed, seconds, deadline):
    """End-to-end metrics of one untraced run."""
    # set-up is timed in separate processes before and after the measuring
    # one, so that its samples span the run rather than one moment of it
    def setup():
        return _worker(workload, seed, seconds, "setup", deadline)["setup_s"]
    before = [setup() for _ in range(SETUP_RUNS // 2)]
    result = _worker(workload, seed, seconds, "measure", deadline)
    setups = before + [result["setup_s"]] + [setup() for _ in range(SETUP_RUNS // 2)]
    ops_ms = [1000.0 * op for op in result["ops"]]
    metrics = {
        "tokens_per_s": {"value": result["tokens_per_s"], "unit": "tokens/s"},
        "op_ms_p50": {"value": result["op_ms_p50"], "unit": "ms"},
        "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    tail = _tail(ops_ms)
    detail = {
        "op_samples": len(ops_ms),
        "cycles": result["cycles"],
        "op_ms_p50_all_samples": statistics.median(ops_ms),
        "mean_tokens_per_s": result["mean_tokens_per_s"],
        "op_ms_tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "failed_ops_frac": result["failed"] / result["attempted"],
        "setup_s_runs": setups,
        "reference": result["reference"],
        "meta": result["meta"],
    }
    return result, metrics, detail


def trace(workload, seed, seconds, deadline):
    """Per-layer metrics of one traced run."""
    result = _worker(workload, seed, seconds, "trace", deadline)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["layers"].items()}
    detail = {"untraced_tokens_per_s": result["tokens_per_s"],
              "traced": result["traced"], "reference": result["reference"],
              "meta": result["meta"]}
    return result, metrics, detail


def _summary(result, metrics):
    return {"correct": result["failed"] == 0 and result["reference"]["ok"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def report(seed, seconds):
    """Every workload, untraced then traced, as a readable table."""
    for workload in WORKLOADS:
        deadline = time.monotonic() + 4 * DEADLINE_S
        result, metrics, detail = measure(workload, seed, seconds, deadline)
        print(f"== {workload} (seed {seed}, {seconds} s)")
        print(f"   correct={_summary(result, metrics)['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"failed_ops_frac={detail['failed_ops_frac']:.4f}")
        for name, m in metrics.items():
            print(f"   {name:<36} {m['value']:>14.4f} {m['unit']}")
        if detail["op_ms_tail"]:
            tail = detail["op_ms_tail"]
            name = f"op_ms_p{tail['percentile']}"
            print(f"   {name:<36} {tail['value']:>14.4f} ms ({detail['op_samples']} samples)")
        _, layers, _ = trace(workload, seed, seconds, deadline)
        print("   per-layer split (traced run):")
        shares = sorted((n[:-len(".share")] for n in layers if n.endswith(".share")),
                        key=lambda n: -layers[n + ".share"]["value"])
        for layer in shares:
            print(f"   {layer:<30} share {layers[layer + '.share']['value']:7.3f}  "
                  f"self {layers[layer + '.self_ms']['value']:10.3f} ms/op  "
                  f"calls {layers[layer + '.calls']['value']:8.2f}/op")
        for name, m in layers.items():
            if not name.endswith((".share", ".self_ms", ".calls")):
                print(f"   {name:<36} {m['value']:>14.4f} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload, untraced and traced, and print a table")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sdparse", "__init__.py")):
        print(f"no parser sources under {ROOT}/src: run from a full checkout",
              file=sys.stderr)
        return 2
    if args.report:
        report(args.seed, args.seconds)
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --report is given")
    deadline = time.monotonic() + DEADLINE_S
    run = trace if args.trace else measure
    result, metrics, detail = run(args.workload, args.seed, args.seconds, deadline)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(_summary(result, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
