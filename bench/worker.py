"""One benchmark rep in a fresh interpreter.

    python3 bench/worker.py WORKLOAD --size full|tiny --seed N --trace 0|1 [--broken]

Imports bggkit from ``src/``, runs the workload's setup and timed phase, and
prints one JSON line: the monotonic time at which setup ended (run.py adds
the interpreter start it measured), the timed phase's wall and CPU time, peak
RSS, the check counts and, with ``--trace 1``, the per-layer trace summary.
Module-level caches start cold because every rep is a new process.

Every rep also runs a ``HostMeter`` from before bggkit is imported to the
end of the timed phase.  For the setup and the timed phase it reports the
probe count, the probe time and the scale ``PROBE_REF_S`` over the probe's
mean time; run.py takes the probe time out of a phase and multiplies what is
left by the scale, which gives the phase's time in reference seconds.
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
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

PERIOD_S = 0.025
STALL = 3    # host speed states differ by up to 2x; a slower probe was stalled
# The probe's time on an idle core of the 2.0 GHz Xeon vCPU the benchmark was
# tuned on; reference seconds are seconds on a host where the probe takes this.
PROBE_REF_S = 0.0006


def probe():
    """A fixed pure-Fraction loop that touches no bggkit code."""
    acc = Fraction(0)
    for k in range(120):
        acc += Fraction(k % 7 - 3, k % 5 + 1) * Fraction(k % 11 - 5, k % 3 + 1)
    return acc


class HostMeter:
    """Samples host speed while the rep runs.

    A wall-clock interval timer interrupts the rep every ``PERIOD_S`` and the
    signal handler times one ``probe()``.  On a shared host the cores' speed
    drifts by 1.5-2x within seconds; bggkit's exact arithmetic slows with the
    probe, so work time over the probe's mean time in the same interval
    cancels most of that drift.  The probe takes about 4 % of the rep.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, signum, frame):
        if self._busy:     # a tick that lands inside a probe would be timed twice
            return
        # The probe's allocations must not trigger a collection of bggkit's
        # heap, which would be timed as probe time.
        collect = gc.isenabled()
        self._busy = True
        gc.disable()
        t0 = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - t0)
        if collect:
            gc.enable()
        self._busy = False

    def phase(self, first: int, last: int | None = None) -> dict:
        """Probe count, total and reference-second scale of samples[first:last]."""
        got = self.samples[first:last]
        if not got:
            raise RuntimeError("the host meter took no sample in a phase")
        # A probe over STALL times the median was stalled (descheduled, page
        # faults).  The work's measured time already holds the stall's real
        # length; in the probes' mean it would weigh 1/duty-cycle times more.
        typical = statistics.median(got)
        speed = statistics.fmean(x for x in got if x <= STALL * typical)
        return {"probes": len(got), "probe_s": sum(got), "scale": PROBE_REF_S / speed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--size", default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--broken", action="store_true",
                        help="certify a deliberately broken diagram (self-test)")
    args = parser.parse_args(argv)

    meter = HostMeter()
    meter.start()
    import tracer
    import workloads

    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tracer.install(tr)
    setup, run = workloads.WORKLOADS[args.workload]
    extra = {"broken": True} if args.broken else {}
    ck = workloads.Checks()
    state = setup(ck, workloads.SIZES[args.size][args.workload], args.seed, **extra)
    setup_end = time.clock_gettime(time.CLOCK_MONOTONIC)
    setup_checks = ck.attempted
    mark = len(meter.samples)

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    run(ck, state, args.size)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    meter.stop()

    out = {
        "setup_end": setup_end,
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ck.attempted - setup_checks,
        "attempted": ck.attempted,
        "failures": ck.failures,
        "notes": ck.notes,
        "op_ms": ck.op_ms,
        "setup_meter": meter.phase(0, mark),
        "meter": meter.phase(mark),
    }
    if tr is not None:
        out["layers"] = tracer.summary(tr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
