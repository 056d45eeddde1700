"""One cold certificate in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N [--smoke]
                                [--setup-only] [--trace PATH]

The line holds the monotonic time at which the inputs were ready (the
parent subtracts its spawn time to get set-up time), the machine speed
probed right after that, the certificate's wall time with the speed
probed while it ran, the peak resident memory, every operation that
failed and, with --trace, the span summary; the span table goes to PATH.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402 - imports phasetop from the checkout

PROBE_PERIOD_S = 0.2
SETUP_PROBES = 10


def speed_probe() -> float:
    """Time a fixed piece of stdlib work shaped like phasetop's hot loops.

    It uses no phasetop code, and the cyclic collector is paused so the
    size of the program's heap does not reach it: its time follows the
    machine's speed at that moment.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(1, 1000):
            q = Fraction(i % 97, i % 89 + 1)
            acc += q
            key = frozenset((q, i % 7, (i % 13, q)))
            seen[key] = seen.get(key, 0) + (acc < 1)
        sorted(seen.values())
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class SpeedProbes:
    """Runs `speed_probe` every PROBE_PERIOD_S while a certificate runs.

    A shared machine switches between fast and slow states every few
    seconds, so wall times taken at different moments differ by tens of
    percent.  Probes taken while the certificate runs measure the speed
    it actually got.  `inside` is the probe time to take out of the
    certificate's wall time; with a tracer, each probe is also recorded
    as a pause of the span that was open, to take out of its time.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: list[float] = []
        self.inside = 0.0

    def _fire(self, signum, frame):
        at = self.tracer.innermost() if self.tracer else None
        t0 = time.perf_counter()
        dt = speed_probe()
        if self.tracer:
            self.tracer.pauses.append((at, t0, time.perf_counter()))
        self.samples.append(dt)
        self.inside += dt
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=Path, default=None)
    args = ap.parse_args()

    setup, steps = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed, args.smoke)
    out = {"ready": time.monotonic()}
    out["setup_probe_s"] = statistics.mean(
        speed_probe() for _ in range(SETUP_PROBES))
    if args.setup_only:
        print(json.dumps(out))
        return

    tracer = None
    if args.trace is not None:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    ck = workloads.Checks()
    probes = SpeedProbes(tracer)
    with probes:
        t0, c0 = time.perf_counter(), time.process_time()
        for name, fn in steps:
            with tracer.step(name) if tracer else nullcontext():
                try:
                    fn(inputs, ck)
                except Exception as exc:  # noqa: BLE001 - a crash is a failed op
                    ck.fail(f"{name}:exception", repr(exc))
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    out["certify_s"] = wall - probes.inside
    out["cpu_s"] = cpu - probes.inside
    out["probe_s"] = statistics.mean(probes.samples or [out["setup_probe_s"]])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["attempted"] = len(ck.ops)
    out["failures"] = [[n, d] for n, ok, d in ck.ops if not ok]
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.write(args.trace)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
