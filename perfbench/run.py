#!/usr/bin/env python3
"""Benchmark for gghecke: exact structure-constant tables, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke ...     same code paths on F_3, in seconds
    python3 perfbench/run.py --capture       rewrite perfbench/reference.json

Run from the root of a source checkout; the program is imported from src/.
Workloads (see perfbench/README.md for why each exists):

  table-a2-warm  one long-lived process: HeckeAlgebra.multiply(i, j) for all
                 basis pairs of A2 over F_7, rep tables already filled.
  table-b2-cold  fresh `gghecke constants --type B2 --q 5 --jobs 2` runs.
  verify-b2      structure_constant against table_formula for every basis
                 triple of B2 over F_5, in a warm process.

The seed only shuffles the order of the inputs, so every output, and every
reference digest, is independent of it.  Outputs are checked against the
digests in reference.json, captured on the commit that introduced the
benchmark: each CLI run's bytes, and each warm table as a whole, whose every
row must also come out the same on every pass.  A mismatch, a closed-form
disagreement, a failed CLI run or an exception counts as a failed operation,
and any failure makes the exit status 1.  The last line of stdout is one
JSON object: correct, attempted, failed and metrics (the end_to_end metrics
of BENCHMARK.json, or with --trace 1 its per_layer metrics).

Every timing is taken with a reading of the host's speed next to it (see
HostSpeed) and reported scaled to a fixed reference speed, REFERENCE_S.
"""

import argparse
import array
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from probe import HostSpeed, pin, warm_up  # this directory is sys.path[0]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

# Algebras per mode: "a2" serves table-a2-warm, "b2" the two B2 workloads.
FIELDS = {"full": {"a2": ("A2", 7), "b2": ("B2", 5)}, "smoke": {"a2": ("A2", 3), "b2": ("B2", 3)}}
# A run is a number of measuring cycles, so that its samples are spread over
# the run rather than drawn from one stretch of the host's load.  A cycle is
# one pass over the table (CLI_RUNS CLI runs on table-b2-cold) with a group of
# PROBES fresh interpreters spread through it, the last WARM_PROBES of which
# also warm up (two on B2, whose warm-up calls vary more from one warm-up to
# the next).  CYCLE_S is the nominal length of a cycle on the reference box;
# a run makes max(2, round(--seconds / CYCLE_S)) cycles, so its length
# follows --seconds while the estimators stay the same from run to run.  Only
# when the host is so slow that the next cycle would end past OVERRUN times
# --seconds does a run stop early, after at least 2 cycles, to bound its
# length.
CYCLE_S = {"table-a2-warm": 7.5, "verify-b2": 16.0, "table-b2-cold": 16.0}
OVERRUN = 1.2
PROBES = 4
WARM_PROBES = {"table-a2-warm": 1, "verify-b2": 2, "table-b2-cold": 2}
CLI_RUNS = 2
CLI_JOBS = 2  # nproc of the 2-core box the bounds were set on
TRACE_REPEATS = 2  # traced and untraced CLI runs behind the per-layer ratios
# Every timing is reported scaled by REFERENCE_S / (speed reading next to it),
# see probe.HostSpeed: REFERENCE_S is about the reference loop's fastest time
# on the reference box.
REFERENCE_S = 0.15e-3
READ_EVERY = 0.02  # seconds of operations between two speed readings
SAMPLE_EVERY = 0.05  # seconds between two speed readings during CLI runs

clock = time.perf_counter
# Operations in the benchmark process are timed in CPU time of its thread,
# like the speed readings, so that time the host's hypervisor takes the CPU
# away (steal) counts in neither.
cpu_clock = time.thread_time


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def median(xs):
    return statistics.median(xs)


def percentile(xs, p):
    """Nearest-rank percentile of a non-empty sample."""
    s = sorted(xs)
    return s[max(0, -(-len(s) * p // 100) - 1)]


def scaled(samples):
    """(time, speed reading) samples, each time scaled to REFERENCE_S."""
    return [t * REFERENCE_S / c for t, c in samples]


def pt(b):
    return f"{b.kind}:{','.join(str(p) for p in b.params)}"


def bkey(b):
    return (b.kind, b.params)


def sorted_basis(H):
    return sorted(H.basis, key=bkey)


class Ops:
    """Attempted / failed bookkeeping; the first exception is shown on stderr."""

    def __init__(self, workload=""):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1

    def error(self, what):
        self.attempted += 1
        self.failed += 1
        if self.failed == 1:
            print(f"operation failed: {what}", file=sys.stderr)
            traceback.print_exc()


# -- set-up probes ------------------------------------------------------------------


def probe(tag, q, warm):
    out = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), tag, str(q), "1" if warm else "0"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    if out.returncode != 0:
        fail(f"set-up probe failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class Probes:
    """Fresh-interpreter set-up probes, one group per cycle.  setup_s is the
    median of every probe's scaled set-up time; warmup_s sums over the
    warm-up calls each call's fastest scaled time over the warm-ups (the
    group's warm_probes, and the benchmark process's own on the warm
    workloads)."""

    def __init__(self, tag, q, warm_probes, warmups=()):
        self.tag, self.q, self.speed = tag, q, HostSpeed()
        self.warm_probes = warm_probes
        self.setups, self.warmups = [], []
        for calls in warmups:
            self.add_warmup(calls)

    def add_warmup(self, calls):
        self.warmups.append(calls)
        self.speed.add(c for _, c in calls)

    def cycle(self, units):
        """Run a cycle's units of work with the group's probes spread evenly
        between them, the warm-up probes last."""
        kinds = [False] * (PROBES - self.warm_probes) + [True] * self.warm_probes
        for r, unit in enumerate(units):
            unit()
            for warm in kinds[r * len(kinds) // len(units):(r + 1) * len(kinds) // len(units)]:
                rec = probe(self.tag, self.q, warm)
                self.setups.append((rec["setup_s"], rec["setup_speed"]))
                self.speed.add([rec["setup_speed"]])
                if warm:
                    self.add_warmup(rec["warmup_calls"])

    def metrics(self, notes):
        notes.append(self.speed.note("probes"))
        return {
            "setup_s": median(scaled(self.setups)),
            "warmup_s": sum(min(scaled(call)) for call in zip(*self.warmups)),
        }


def cycles(workload, seconds):
    """Yields the number of each cycle to run."""
    n, start = max(2, round(seconds / CYCLE_S[workload])), clock()
    for done in range(n):
        elapsed = clock() - start
        if done >= 2 and elapsed * (done + 1) / done > OVERRUN * seconds:
            return
        yield done


def warm_algebra(tag, q):
    """A built algebra with every rep table filled, and (time, speed
    reading) for each warm-up call."""
    from gghecke.gf import make_field
    from gghecke.hecke import hecke_algebra

    H = hecke_algebra(tag, make_field(q))
    return H, warm_up(H)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- tables of operations -----------------------------------------------------------


class Table:
    """A workload's operations over one algebra, items[idx] for idx in
    range(n).  Only a 16-byte digest of each operation's rendered result is
    kept: the first run's goes into the table's digest, and every later run
    must reproduce it."""

    def __init__(self, H, items, constants):
        self.H, self.items, self.constants = H, items, constants
        self.rows, self.zeros = [None] * len(items), [0] * len(items)

    def keep(self, idx, text, zeros):
        """Whether this run's result agrees with the operation's first run."""
        d = hashlib.sha256(text.encode("utf-8")).digest()[:16]
        if self.rows[idx] is None:
            self.rows[idx], self.zeros[idx] = d, zeros
        return self.rows[idx] == d

    def digest(self):
        """Of the whole table, rows in item order whatever order they ran in."""
        if None in self.rows:
            return None
        return hashlib.sha256(b"".join(self.rows)).hexdigest()

    def zero_ratio(self):
        return sum(self.zeros) / self.constants


class ProductTable(Table):
    """HeckeAlgebra.multiply(i, j) for every basis pair."""

    def __init__(self, H):
        basis = sorted_basis(H)
        super().__init__(H, [(i, j) for i in basis for j in basis], len(basis) ** 3)

    def run(self, idx):
        i, j = self.items[idx]
        t = cpu_clock()
        vec = self.H.multiply(i, j)
        dt = cpu_clock() - t
        terms = sorted(vec.items(), key=lambda kv: bkey(kv[0]))
        text = f"{pt(i)} {pt(j)}:" + "".join(f" {pt(k)}={v.render()}" for k, v in terms)
        return dt, self.keep(idx, text, len(self.H.basis) - len(vec))


class CheckTable(Table):
    """structure_constant(i, j, k) against table_formula(i, j, k) for every
    basis triple."""

    def __init__(self, H):
        basis = sorted_basis(H)
        triples = [(i, j, k) for i in basis for j in basis for k in basis]
        super().__init__(H, triples, len(triples))

    def run(self, idx):
        i, j, k = self.items[idx]
        t = cpu_clock()
        a, b = self.H.structure_constant(i, j, k), self.H.table_formula(i, j, k)
        dt = cpu_clock() - t
        text = f"{pt(i)} {pt(j)} {pt(k)} {a.render()}"
        return dt, self.keep(idx, text, int(a.is_zero())) and a == b


def run_op(table, idx, ops):
    """Run and check one operation: its time, or None if it raised."""
    try:
        dt, ok = table.run(idx)
    except Exception:
        ops.error(f"operation {table.items[idx]!r}")
        return None
    ops.record(ok)
    return dt


def one_pass(table, order, ops):
    """Every operation once, in the given order, each checked."""
    for idx in order:
        run_op(table, idx, ops)


def timed_pass(table, order, ops, speed, samples):
    """one_pass that appends each operation's time and speed reading to
    samples[idx]; the reading is the mean of the two taken around it, at most
    READ_EVERY seconds of operations apart."""
    pending, before, last = [], speed.read(), clock()

    def flush():
        nonlocal before, last
        after = speed.read()
        for idx, dt in pending:
            samples[idx].extend((dt, (before + after) / 2))
        pending.clear()
        before, last = after, clock()

    for idx in order:
        dt = run_op(table, idx, ops)
        if dt is not None:
            pending.append((idx, dt))
        if clock() - last >= READ_EVERY:
            flush()
    flush()


def time_metrics(table_s, constants, latencies):
    return {
        "table_s": table_s,
        "constants_per_s": constants / table_s,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p99_ms": percentile(latencies, 99) * 1e3,
    }


def shuffled(n, rng):
    order = list(range(n))
    rng.shuffle(order)
    return order


# -- table-a2-warm and verify-b2 -------------------------------------------------------


def warm_workload(make_table, tag, q, ref, seed, seconds, trace, ops):
    """A long-lived process with every rep table filled: one pass over the
    table per cycle, each pass in a new shuffled order; or, traced, one
    traced and one untraced pass.  An operation's time is the fastest of its
    scaled times over the passes: with a few passes a median would still
    carry a slow stretch that the readings around a sample missed."""
    pin()
    rng = random.Random(seed)
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        with tracer:
            H, _ = warm_algebra(tag, q)
            table = make_table(H)
            order = shuffled(len(table.items), rng)
            t = clock()
            one_pass(table, order, ops)
            traced = clock() - t
        t = clock()
        one_pass(table, order, ops)
        untraced = clock() - t
        ops.record(table.digest() == ref["table"])
        extra = {"hecke.zero_ratio": table.zero_ratio(), "trace.overhead_ratio": traced / untraced}
        return trace_report(tracer.report(), extra, ops, tracer.dump)
    speed = HostSpeed()
    H, warmup = warm_algebra(tag, q)
    probes = Probes(tag, q, WARM_PROBES[ops.workload], [warmup])
    table = make_table(H)
    n = len(table.items)
    samples = [array.array("d") for _ in range(n)]  # time, reading, time, reading, ...
    for _ in cycles(ops.workload, seconds):
        order = shuffled(n, rng)
        parts = [order[p * n // PROBES:(p + 1) * n // PROBES] for p in range(PROBES)]
        probes.cycle([lambda part=part: timed_pass(table, part, ops, speed, samples) for part in parts])
    ops.record(table.digest() == ref["table"])
    timed = [min(scaled(zip(s[::2], s[1::2]))) for s in samples if s]
    if not timed:
        fail("no operation completed")
    metrics = probes.metrics(ops.notes)
    ops.notes.append(speed.note("operations"))
    metrics.update(time_metrics(sum(timed), table.constants, timed), peak_rss_mb=peak_rss_mb())
    ops.notes.append(f"{ops.workload}: {len(probes.setups) // PROBES} cycles of {n} operations and {PROBES} probes")
    return metrics


def workload_a2(fields, ref, seed, seconds, trace, ops):
    return warm_workload(ProductTable, *fields["a2"], ref, seed, seconds, trace, ops)


def workload_verify(fields, ref, seed, seconds, trace, ops):
    return warm_workload(CheckTable, *fields["b2"], ref, seed, seconds, trace, ops)


# -- table-b2-cold --------------------------------------------------------------------


def cli_argv(tag, q, jobs, out, rng):
    """`constants` arguments, flag order shuffled by the seed."""
    flags = [["--type", tag], ["--q", str(q)], ["--jobs", str(jobs)], ["--out", str(out)]]
    rng.shuffle(flags)
    return ["constants"] + [a for flag in flags for a in flag]


def run_child(args):
    """Run a fresh interpreter: (wall seconds, peak RSS MB, exit code)."""
    t = clock()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = clock() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def check_output(path, ref_digest, ops, what):
    """Count one operation: the output file's bytes against the reference."""
    try:
        data = path.read_bytes()
        path.unlink()
    except OSError:
        ops.error(what)
        return None
    ops.record(hashlib.sha256(data).hexdigest() == ref_digest)
    return data


def workload_cold(fields, ref, seed, seconds, trace, ops):
    """Fresh CLI runs of the full B2 table, CLI_RUNS per cycle.  A CLI run
    lasts seconds, so its time is a mix of the host's fast and slow
    stretches: it is scaled by the mean of the speed readings a background
    thread takes while it runs, and table_s is the median scaled run.  The
    run is the workload's one operation, so both latency percentiles equal
    table_s.  Traced, the per-layer metrics come from a fresh interpreter
    running the same `--jobs 1` table under tracer.py."""
    tag, q = fields["b2"]
    rng = random.Random(seed)
    WORK.mkdir(exist_ok=True)
    out = WORK / f"constants-{os.getpid()}.json"

    def cli(jobs, what, entry=("-m", "gghecke.cli")):
        wall, peak, rc = run_child([*entry, *cli_argv(tag, q, jobs, out, rng)])
        data = check_output(out, ref["bytes"], ops, what)
        if data is not None and rc != 0:
            ops.error(f"{what} exited {rc}")
        return wall, peak, data

    if trace:
        spans = WORK / "spans" / ops.workload
        report = WORK / f"trace-{os.getpid()}.json"
        walls, data = {"traced": [], 1: [], CLI_JOBS: []}, None
        for _ in range(TRACE_REPEATS):
            entry = (str(HERE / "tracer.py"), str(spans), str(report))
            wall, _, data = cli(1, "traced constants --jobs 1", entry)
            walls["traced"].append(wall)
            for jobs in (1, CLI_JOBS):
                walls[jobs].append(cli(jobs, f"constants --jobs {jobs}")[0])
        try:
            rep = json.loads(report.read_text())
            report.unlink()
        except (OSError, ValueError):
            fail("the traced CLI run wrote no report")
        records = json.loads(data)["records"] if data else []
        extra = {
            "hecke.zero_ratio": sum(r["render"] == "0" for r in records) / max(1, len(records)),
            "cli.jobs2_speedup": min(walls[1]) / min(walls[CLI_JOBS]),
            "trace.overhead_ratio": min(walls["traced"]) / min(walls[1]),
        }
        return trace_report(rep, extra, ops, None)
    speed = HostSpeed()
    probes = Probes(tag, q, WARM_PROBES[ops.workload])
    runs, peaks = [], []

    def timed_run():
        t0 = clock()
        wall, peak, _ = cli(CLI_JOBS, "constants run")
        runs.append((wall, speed.during(t0, clock())))
        peaks.append(peak)

    with speed.sampling(SAMPLE_EVERY, rotate=True):
        for _ in cycles(ops.workload, seconds):
            probes.cycle([timed_run] * CLI_RUNS)
    metrics = probes.metrics(ops.notes)
    ops.notes.append(speed.note("constants runs") + f"; raw median run {median(w for w, _ in runs):.4f} s")
    table_s = median(scaled(runs))
    metrics.update(time_metrics(table_s, (q * q) ** 3, [table_s]), peak_rss_mb=max(peaks))  # q^2 basis elements
    ops.notes.append(f"{ops.workload}: median of {len(runs)} scaled runs of constants --jobs {CLI_JOBS}")
    return metrics


# -- traced runs ----------------------------------------------------------------------


def trace_report(rep, extra, ops, dump):
    """Per-layer metrics named in BENCHMARK.json from a Tracer.report(), and
    the spans written to disk (already written by a traced child when
    `dump` is None)."""
    layers, caches = rep["layers"], rep["caches"]

    def calls(layer):
        return layers.get(layer, (0, 0.0))[0]

    def misses(fn):
        info = caches[fn]
        return info["misses"] if info else calls(f"intersect.{fn}")

    rep_cache = caches["build_rep"]
    hits = rep_cache["hits"] if rep_cache else 0
    lookups = hits + misses("build_rep")
    metrics = {
        "cli.emit.bytes": rep["emitted_bytes"],
        "cli.jobs2_speedup": 0.0,  # measured only where the CLI runs (table-b2-cold)
        "intersect.build_rep.misses": misses("build_rep"),
        "intersect.build_rep.hit_ratio": hits / lookups if lookups else 0.0,
        "intersect.distinguished_subexprs.misses": misses("distinguished_subexprs"),
        "intersect.reps": rep_cache["currsize"] if rep_cache else misses("build_rep"),
    }
    metrics.update(extra)
    for m in BENCH["per_layer"]:
        name = m["name"]
        layer, _, stat = name.rpartition(".")
        if name in metrics:
            continue
        if stat == "calls":
            metrics[name] = calls(layer)
        elif stat == "self_s":
            metrics[name] = layers.get(layer, (0, 0.0))[1]
    path = WORK / "spans" / ops.workload
    if dump:
        dump(path)
    ops.notes.append(f"{rep['spans']} spans written to {path}.bin")
    for entry in rep["missing"]:
        ops.notes.append(f"entry point not found, not traced: {entry}")
    return metrics


# -- reference digests --------------------------------------------------------------


def capture():
    """Recompute every reference digest; run on the commit that defines them."""
    ref = {}
    for mode, fields in FIELDS.items():
        H, _ = warm_algebra(*fields["a2"])
        products = ProductTable(H)
        one_pass(products, range(len(products.items)), Ops())
        tag, q = fields["b2"]
        H, _ = warm_algebra(tag, q)
        checks, ops = CheckTable(H), Ops()
        one_pass(checks, range(len(checks.items)), ops)
        if ops.failed:
            fail(f"{mode}: {ops.failed} closed-form mismatches; not a reference")
        WORK.mkdir(exist_ok=True)
        out = WORK / "capture.json"
        _, _, rc = run_child(["-m", "gghecke.cli", *cli_argv(tag, q, 1, out, random.Random(0))])
        if rc != 0:
            fail(f"{mode}: constants run exited {rc}")
        ref[mode] = {
            "table-a2-warm": {"table": products.digest()},
            "table-b2-cold": {"bytes": hashlib.sha256(out.read_bytes()).hexdigest()},
            "verify-b2": {"table": checks.digest()},
        }
        out.unlink()
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")


# -- entry point ----------------------------------------------------------------------

WORKLOADS = {
    "table-a2-warm": workload_a2,
    "table-b2-cold": workload_cold,
    "verify-b2": workload_verify,
}
BENCH = {}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="A2/F_3 and B2/F_3 instead of A2/F_7 and B2/F_5")
    ap.add_argument("--capture", action="store_true", help="rewrite reference.json")
    args = ap.parse_args()
    if not (SRC / "gghecke" / "__init__.py").is_file():
        fail(f"no gghecke sources under {SRC}; run from the root of a source checkout")
    try:
        BENCH.update(json.loads((ROOT / "BENCHMARK.json").read_text()))
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, str(SRC))
    if args.capture:
        capture()
        return 0
    if not args.workload:
        fail("--workload is required")
    mode = "smoke" if args.smoke else "full"
    ref = json.loads(REFERENCE.read_text())[mode][args.workload]
    ops = Ops(args.workload)
    metrics = WORKLOADS[args.workload](FIELDS[mode], ref, args.seed, args.seconds, args.trace, ops)
    spec = BENCH["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        fail(f"metrics not produced: {missing}")
    for note in ops.notes:
        print(note)
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
