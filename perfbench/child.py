"""One benchmark pass in a fresh process: build the workload's inputs, run
its operations once, and print one JSON line.

    python3 perfbench/child.py WORKLOAD SEED MODE SPAWNED_NS WORKDIR

MODE is ``setup`` (stop before the timed section), ``timed`` or ``traced``.
SPAWNED_NS is the parent's CLOCK_MONOTONIC reading just before the spawn,
so that ``setup_s`` covers interpreter start, ``import sympolar`` and input
building.  The parent sets ``PYTHONPATH`` to the checkout's ``src`` and
``SYMPOLAR_CACHE_DIR`` to an empty directory.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

#: Time of one calibration slice at the reference speed: the typical speed
#: of a shared 2-core x86-64 virtual machine under Python 3.11.7.
REF_SLICE_S = 0.75e-3
SLICE_INTERVAL_S = 0.05


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def calibration_slice() -> Fraction:
    """Fixed rational arithmetic, like the library's own inner loops."""
    x = Fraction(0)
    for i in range(1, 120):
        x = x * Fraction(i, i + 3) + Fraction(1, i)
    return x


class SpeedProbe:
    """Times a fixed pure-Python slice every 50 ms of the timed section, from
    a SIGALRM handler.

    On a shared virtual machine the speed of the vCPU drifts by 15-20 %
    within seconds as neighbours load the host, with no steal time reported.
    The slices slow down with everything else.  Each 50 ms interval of the
    section ran at speed ``REF_SLICE_S / slice``, so the section's wall
    time minus the slices, times the mean of those speeds, is its time at
    the reference speed.  Over ten repeated ``family`` passes this cut the
    spread (interquartile range over median) from 0.21 to 0.04, and over six
    ``generate`` passes from 0.16 to 0.04.  The slices cost about 2 % of the
    section, and traced layer times include the slices that land in them.

    The slices run inside the measured process, so whatever slows them
    there is taken for a slow machine and divided out.  With more than one
    thread alive the handler must win the GIL back from worker threads and
    the slices would time that contention, so ``normalize`` then gives the
    raw wall time instead.
    """

    def __init__(self):
        self.slices: list[float] = []
        self.max_threads = 1
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        self.max_threads = max(self.max_threads, threading.active_count())
        start = time.perf_counter()
        calibration_slice()
        self.slices.append(time.perf_counter() - start)
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SLICE_INTERVAL_S, SLICE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalize(self, wall: float) -> float:
        if not self.slices or self.max_threads > 1:
            return wall
        speed = sum(REF_SLICE_S / t for t in self.slices) / len(self.slices)
        return (wall - sum(self.slices)) * speed


def run_ops(ops) -> list[dict]:
    """Run each operation once; an exception, a wrong exact answer included,
    marks that operation failed and the pass goes on."""
    records = []
    for op in ops:
        start = time.perf_counter()
        try:
            facts, error = op.run(), None
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            facts, error = {}, f"{type(exc).__name__}: {exc}"
        records.append(
            {"op": op.name, "s": time.perf_counter() - start, "error": error, "facts": facts}
        )
    return records


def main(argv: list[str]) -> int:
    workload, seed, mode, spawned_ns, workdir = argv
    src = Path(__file__).resolve().parent.parent / "src"

    import sympolar

    if Path(sympolar.__file__).resolve().parent.parent != src:
        print(f"sympolar imported from {sympolar.__file__}, not {src}", file=sys.stderr)
        return 2
    import layers
    import workloads

    ops = workloads.WORKLOADS[workload](int(seed), Path(workdir))
    setup_s = (monotonic_ns() - int(spawned_ns)) / 1e9
    result = {"setup_s": setup_s}
    if mode != "setup":
        tracer = layers.Tracer() if mode == "traced" else None
        if tracer is not None:
            tracer.install(extra_modules=[workloads])
        try:
            with SpeedProbe() as probe:
                start = time.perf_counter()
                records = run_ops(ops)
                wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.restore()
        result["wall_s"] = wall
        result["wall_norm_s"] = probe.normalize(wall)
        result["slice_mean_s"] = sum(probe.slices) / max(1, len(probe.slices))
        result["probe_threads"] = probe.max_threads
        result["ops"] = records
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["layers"] = tracer.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
