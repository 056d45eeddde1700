"""phasetop benchmark: cold certificates, one fresh process each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run it from the root of a checkout.  Load model: a closed loop with one
client; each certificate runs in a new `python3` process (worker.py)
that imports phasetop from ./src, builds the seeded inputs, runs the
workload's library calls and checks every output.  Nothing carries over
from one certificate to the next, as with separate CLI calls.

--trace 0 prints the end-to-end metrics: certify_s (median certificate
time), setup_s (median of interpreter start to inputs ready, over the
certificates plus extra set-up-only processes), peak_rss_mb (median
ru_maxrss) and pass_ratio (passed / attempted operations; fail_ratio is
1 - pass_ratio and is printed beside it).  The two times are given at a
reference machine speed: a shared machine's speed moves by tens of
percent within seconds, so each wall time is scaled by REF_PROBE_S
over the time of a fixed probe measured in the same process at the
same moment (worker.py).  The wall times are
printed beside them.  --trace 1 runs one certificate untraced and two
traced, and prints the per-layer metrics of spans.py (times at the
reference speed, with probe time taken out of every span), the traced
certificate time and its overhead, and checks that the exact counts
repeated.

The last stdout line is the result object; the line before it holds the
provenance and the raw samples, which are also written under
./perfbench_out/ together with the span table of the last traced run.
--smoke shrinks every workload to a tiny size (m=2, n <= 4, few samples).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench_out"
WORKLOADS = ("grid-kernel", "sampled-geometry", "slice-ball", "sphere-homology")
DEADLINE_S = 170  # the whole run must end within 180 s
SETUP_ONLY_RUNS = 5
TRACED_RUNS = 2
REF_PROBE_S = 0.005  # probe time that defines the reference speed


class WorkerError(Exception):
    pass


def worker(args, start, *extra) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), *extra]
    if args.smoke:
        cmd.append("--smoke")
    left = DEADLINE_S - (time.monotonic() - start)
    if left <= 0:
        raise WorkerError("out of time")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded {left:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise WorkerError(f"worker printed no result: {proc.stdout[-500:]}") from exc
    res["setup_s"] = res.pop("ready") - spawned
    return res


def high_percentile(xs):
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for p in (99, 95, 90):
        if len(xs) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(xs, n=100)[p - 1]
    return None


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
        lines = top.stdout.split()
        commit = (lines[1] if top.returncode == 0 and len(lines) == 2
                  and Path(lines[0]).resolve() == ROOT.resolve() else None)
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "git_commit": commit,
            "src_sha256": digest.hexdigest()}


def at_ref(seconds: float, probe_s: float) -> float:
    """A time taken when a probe took probe_s, at the reference speed."""
    return seconds * REF_PROBE_S / probe_s


def measure(args, start) -> tuple[dict, dict]:
    """Untraced certificates for --seconds, then set-up-only processes."""
    reps = []
    while True:
        reps.append(worker(args, start))
        elapsed = time.monotonic() - start
        mean = elapsed / len(reps)
        if len(reps) >= 2 and elapsed + mean / 2 >= args.seconds:
            break
    setup_runs = reps + [worker(args, start, "--setup-only")
                         for _ in range(SETUP_ONLY_RUNS)]
    certify = [at_ref(r["certify_s"], r["probe_s"]) for r in reps]
    setups = [at_ref(r["setup_s"], r["setup_probe_s"]) for r in setup_runs]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    metrics = {
        "certify_s": (statistics.median(certify), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    samples = {
        "certify_s": certify,
        "certify_wall_s": [r["certify_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "probe_s": [r["probe_s"] for r in reps],
        "setup_s": setups,
        "setup_wall_s": [r["setup_s"] for r in setup_runs],
        "setup_probe_s": [r["setup_probe_s"] for r in setup_runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    detail = {"samples": samples,
              "sample_counts": {k: len(v) for k, v in samples.items()},
              "certify_wall_s": statistics.median(samples["certify_wall_s"]),
              "setup_wall_s": statistics.median(samples["setup_wall_s"]),
              "fail_ratio": failed / attempted,
              "attempted": attempted, "failed": failed,
              "failures": [f for r in reps for f in r["failures"]][:20]}
    hp = high_percentile(certify)
    if hp:
        detail[f"certify_s_p{hp[0]}"] = hp[1]
    return metrics, detail


def measure_traced(args, start) -> tuple[dict, dict]:
    """One untraced certificate, then traced ones; per-layer metrics."""
    import spans

    base = worker(args, start)
    path = OUT / f"trace-{args.workload}.json"
    traced = [worker(args, start, "--trace", str(path))
              for _ in range(TRACED_RUNS)]
    units = {name: unit for name, unit, _ in spans.PER_LAYER}
    layers = [{k: at_ref(v, r["probe_s"]) if units[k] == "s" else v
               for k, v in spans.layer_metrics(r["trace"]).items()}
              for r in traced]
    runs = [base] + traced
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    # exact counts must repeat between two cold processes
    for name in spans.COUNTS:
        attempted += 1
        values = {lay[name] for lay in layers}
        if len(values) != 1:
            failures.append([f"counts-repeat:{name}", sorted(values)])
    metrics = {name: (layers[0][name] if units[name] == "count" else
                      statistics.median(lay[name] for lay in layers), units[name])
               for name in units}
    traced_s = statistics.median(at_ref(r["certify_s"], r["probe_s"])
                                 for r in traced)
    metrics["trace.certify_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (
        traced_s - at_ref(base["certify_s"], base["probe_s"]), "s")
    summary = traced[-1]["trace"]
    detail = {"samples": {"untraced_certify_wall_s": [base["certify_s"]],
                          "traced_certify_wall_s": [r["certify_s"] for r in traced],
                          "probe_s": [r["probe_s"] for r in runs]},
              "sample_counts": {"per_layer": len(traced)},
              "absent_seams": summary["absent"],
              "span_count": summary["span_count"],
              "spans": summary["spans"], "pairs": summary["pairs"],
              "counters": summary["counters"],
              "attempted": attempted, "failed": len(failures),
              "failures": failures[:20]}
    return metrics, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for testing the benchmark itself")
    args = ap.parse_args()
    if not (ROOT / "src" / "phasetop" / "__init__.py").is_file():
        print("run from the root of a phasetop checkout (no src/phasetop here)",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    try:
        metrics, detail = (measure_traced if args.trace else measure)(args, start)
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    record = {"provenance": provenance(args), **detail,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
