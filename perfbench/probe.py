"""Set-up probe, run in a fresh interpreter by run.py; also the host-speed
readings the benchmark scales every timing by.

    python3 probe.py TAG Q WARMUP

Prints one JSON line: setup_s is the time from before `import gghecke` to a
built hecke_algebra(TAG, F_Q) (imports, field tables, basis search), and
setup_speed the mean of the speed readings taken meanwhile; when WARMUP is
1, warmup_calls holds, for each of the warm-up calls (one structure_constant
call per kind pattern, which fill every rep table), its time and the mean of
the speed readings taken during it.  Times are CPU time of the thread, like
the readings.  The probe keeps to one CPU, and a thread of its own takes a
reading every PROBE_EVERY seconds (gghecke imports `threading` too, so
starting that thread before the set-up takes nothing out of it).
"""

import contextlib
import json
import os
import statistics
import sys
import threading
import time

PROBE_EVERY = 0.02  # seconds between two speed readings in a probe


def reference_loop():
    """Fixed interpreter work on builtins only, so that running it before the
    set-up imports nothing the program would import: tuple keys, dict
    updates, integer arithmetic and a sort.  About 0.15 ms on the reference
    box at its fastest."""
    d = {}
    for i in range(600):
        k = (i % 13, i % 7)
        d[k] = d.get(k, 0) + i * i
    return sorted(d.items())


def speed_reading():
    """The reference loop's CPU time in seconds: higher when the host runs
    this interpreter slower.  CPU time of the thread, so that being
    descheduled does not count."""
    t = time.thread_time()
    reference_loop()
    return time.thread_time() - t


def pin():
    """Keep this process, and the threads and children it starts later, on
    one CPU, so that a sampling thread reads the speed of the CPU the timed
    work runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostSpeed:
    """Readings of the host's speed over a run.

    On a shared host the interpreter's speed flips between a fast and a slow
    state, up to 1.7x apart, many times a minute, with other tenants' load on
    the same physical cores; CPU time slows as much as wall time, and how much
    of a run falls in slow stretches changes from run to run.  So every timing
    is taken with readings next to or during it and reported scaled by
    REFERENCE_S / reading (run.py): as the time it would have taken had the
    host run the reference loop at REFERENCE_S throughout.  A fixed
    REFERENCE_S, rather than the run's own fastest reading, keeps that
    reading's run-to-run jitter out of the results."""

    def __init__(self):
        self.readings = []  # (perf_counter time or None, seconds)

    def read(self):
        c = speed_reading()
        self.readings.append((time.perf_counter(), c))
        return c

    def add(self, readings):
        """Readings taken in a child process, at no known time."""
        self.readings.extend((None, c) for c in readings)

    def note(self, what):
        cs = [c for _, c in self.readings]
        return (f"{what}: {len(cs)} speed readings, fastest {min(cs) * 1e3:.4f} ms, "
                f"median {statistics.median(cs) * 1e3:.4f} ms")

    def during(self, t0, t1):
        """Mean of the readings taken between perf_counter times t0 and t1;
        if there is none, of the last one before and the first one after."""
        timed = [(t, c) for t, c in self.readings if t is not None]
        inside = [c for t, c in timed if t0 <= t <= t1]
        if not inside:
            inside = [c for t, c in timed if t < t0][-1:] + [c for t, c in timed if t > t1][:1]
        if not inside:
            raise RuntimeError("no speed reading around a timed span")
        return statistics.fmean(inside)

    @contextlib.contextmanager
    def sampling(self, every, rotate=False):
        """Read the speed once now, every `every` seconds from a background
        thread while the body runs, and once more at its end.  With `rotate`
        the thread moves over the CPUs this process may use in turn, for a
        body that runs child processes on all of them."""
        stop = threading.Event()
        cpus = sorted(os.sched_getaffinity(0))

        def sample():
            k = 0
            while not stop.wait(every):
                if rotate:
                    os.sched_setaffinity(0, {cpus[k % len(cpus)]})  # this thread only
                    k += 1
                self.read()

        thread = threading.Thread(target=sample, daemon=True)
        self.read()
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()
            self.read()


def warmup_triples(H):
    """One basis triple per kind pattern, each from the sorted basis."""
    first = {}
    for b in sorted(H.basis, key=lambda b: (b.kind, b.params)):
        first.setdefault(b.kind, b)
    kinds = sorted(first)
    return [(first[a], first[b], first[c]) for a in kinds for b in kinds for c in kinds]


def warm_up(H):
    """Fill every rep table; returns (time, speed reading) for each call."""
    speed, spans = HostSpeed(), []
    with speed.sampling(PROBE_EVERY):
        for i, j, k in warmup_triples(H):
            t0, c0 = time.perf_counter(), time.thread_time()
            H.structure_constant(i, j, k)
            spans.append((t0, time.perf_counter(), time.thread_time() - c0))
    return [(dt, speed.during(t0, t1)) for t0, t1, dt in spans]


def main():
    tag, q, warm = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    pin()
    speed = HostSpeed()
    with speed.sampling(PROBE_EVERY):
        t0, c0 = time.perf_counter(), time.thread_time()
        from gghecke.gf import make_field
        from gghecke.hecke import hecke_algebra

        H = hecke_algebra(tag, make_field(q))
        t1, c1 = time.perf_counter(), time.thread_time()
    out = {"setup_s": c1 - c0, "setup_speed": speed.during(t0, t1)}
    if warm:
        out["warmup_calls"] = warm_up(H)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
