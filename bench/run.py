"""diffmod benchmark: one closed-loop caller, no threads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed (set-up, repeated and timed
SETUP_REPEATS times), then calls diffmod the way a script would, one item
at a time, each call waiting for its answer, until S seconds of item time
have passed.  The loop cycles over the workload's pool of inputs; before
every pass, off the clock, the previous pass is checked, the hom-basis
cache is cleared and the garbage collector is run, so every pass sees the
same cold cache as the first.  Items of the first pass the loop did not
reach are run after it, so the whole pool is always timed and checked.

An item's first output is checked against how its input was built; later
runs of it must repeat that output exactly.  outputs_sha256 digests the
first outputs in pool order, so it repeats exactly for one seed.

Latencies are per distinct item (median over its runs) and calibrated
against a reference probe (see calibrate.py; the process pins itself to
one CPU so that the probe runs where the work does); items_per_s is the pool's
items over the sum of those latencies, and p50/p90 are Harrell-Davis
quantiles of them.  Raw wall-clock figures are printed
beside them.  --trace 1 runs S/2 untraced, then one whole pass of the pool
with every layer of spans.LAYERS wrapped (a fixed amount of work, so the
per-layer counts repeat for a seed), and reports the per-layer metrics
instead.

The last stdout line is one JSON object: {"correct", "attempted",
"failed", "metrics"}; the lines before it print every metric by name and
unit, and a machine record.  Runs with the library at src/ of the
checkout this file lives in, and exits 2 when there is none.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import spans
import workloads as W
from calibrate import ARITHMETIC, INTERPRETER, Calibration

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
MIN_COVERAGE = 0.9

END_TO_END = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_p90_ms": "ms",
              "certified_rate": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
CLI_COMMANDS = ["hom", "trivial", "core", "iso", "rcf", "monoid-new", "monoid-add-module",
                "monoid-add-classes", "monoid-equal", "monoid-report"]


def per_layer_units():
    units = {}
    for name, _, _ in spans.LAYERS:
        if name not in spans.COUNT_ONLY:
            units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
    units.update({
        "modules.hom_chain.steps": "count",
        "modules.hom_space.zero_dim_share": "ratio",
        "modules.hom_cache.hit_ratio": "ratio",
        "modules.hom_cache.evictions": "count",
        "modules.iso_search.trials": "count",
        "modules.iso_search.unknown": "count",
        "cores.core.splits": "count",
        "cli.interpreter_s": "s",
        "cli.import_s": "s",
        **{f"cli.{c}.p50_ms": "ms" for c in CLI_COMMANDS},
        "monoid.ledger_io.s": "s",
        "serialize.ledger_bytes": "bytes",
        "trace.items_per_s": "1/s",
        "trace.untraced_items_per_s": "1/s",
        "trace.overhead": "ratio",
        "trace.item_span_coverage": "ratio",
    })
    return units


# ---------------------------------------------------------------------------
# set-up and the timed loop
# ---------------------------------------------------------------------------

def setup(name, seed, work, cal):
    """Import diffmod and build the inputs, SETUP_REPEATS times from a clean
    import; returns the last build and the median calibrated set-up time."""
    built, times = [], []

    def once():
        for mod in [m for m in sys.modules if m == "diffmod" or m.startswith("diffmod.")]:
            del sys.modules[mod]
        lib = W.Lib()
        built[:] = [lib, W.WORKLOADS[name](lib, seed, work)]

    for _ in range(SETUP_REPEATS):
        built.clear()
        gc.collect()
        times.append(cal.timed(once))
    return built[0], built[1], statistics.median(times)


@dataclass
class Record:
    inst: int
    item: int
    at: float           # start time, to find the calibration probes around it
    latency: float
    out: object         # out and state are dropped once the record is checked
    err: str
    state: dict


class HomCache:
    """Clears diffmod's hom-basis LRU before each pass and sums its
    statistics over the passes (cache_clear also resets them)."""

    def __init__(self, lib):
        self.cache = getattr(lib.modules, "_hom_basis_cached", None)
        if not hasattr(self.cache, "cache_info"):
            self.cache = None
        self.hits = self.misses = self.evictions = 0

    def clear(self):
        if self.cache is not None:
            self.cache.cache_clear()
        gc.collect()

    def tally(self):
        if self.cache is not None:
            info = self.cache.cache_info()
            self.hits += info.hits
            self.misses += info.misses
            self.evictions += info.misses - info.currsize


class Checker:
    """Checks records as they come.  An item's first output is checked
    against how its input was built and goes into outputs_sha256; later
    outputs of the same item must repeat it exactly."""

    def __init__(self, pool):
        self.pool = pool
        self.first = {}
        self.statuses = []
        self.failures = []
        self.digest = hashlib.sha256()

    def _canon(self, item, rec):
        if rec.err is not None:
            return "error: " + rec.err
        try:
            return json.dumps(item.canon(rec.out), sort_keys=True)
        except Exception as exc:  # an output the canonical form cannot read
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def add(self, records):
        for rec in records:
            if rec.state is None:
                continue
            item = self.pool[rec.inst][rec.item]
            canon = self._canon(item, rec)
            key = (rec.inst, rec.item)
            if key not in self.first:
                if rec.err is not None:
                    status, msg = W.FAIL, rec.err
                else:
                    try:
                        status, msg = item.check(rec.out, rec.state)
                    except Exception as exc:  # a malformed output fails its check
                        status, msg = W.FAIL, f"check raised {type(exc).__name__}: {exc}"
                self.first[key] = (canon, status, msg)
                self.digest.update(canon.encode() + b"\n")
            else:
                canon0, status, msg = self.first[key]
                if canon != canon0:
                    status, msg = W.FAIL, "output differs from the first pass"
            self.statuses.append(status)
            if status == W.FAIL:
                self.failures.append(f"instance {rec.inst} {item.key}: {msg}")
            rec.out = rec.state = None


def _run_item(item, state, tracer, cal):
    now = perf_counter()
    if cal.due(now):
        cal.probe()
        now = perf_counter()
    try:
        out = tracer.call(spans.ITEM, item.call, state) if tracer else item.call(state)
        err = None
    except Exception as exc:  # the item failed; counted, the loop goes on
        out, err = None, f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - now
    state[item.key] = out
    return Record(None, None, now, latency, out, err, state)


def run_pass(pool, cal, tracer=None, budget=math.inf):
    """Run the pool's instances in order, stopping once `budget` seconds of
    item time have passed; returns the records and that item time."""
    records, busy = [], 0.0
    for i, inst in enumerate(pool):
        state = {}
        for j, item in enumerate(inst):
            rec = _run_item(item, state, tracer, cal)
            rec.inst, rec.item = i, j
            records.append(rec)
            busy += rec.latency
            if busy >= budget:
                return records, busy
    return records, busy


def run_loop(pool, seconds, cache, cal, checker):
    """Cycle over the pool until `seconds` of item time have passed.
    Between passes (off the clock) the records of the pass are checked,
    the hom cache is cleared and the garbage collector is run."""
    records, last, busy = [], [], 0.0
    while busy < seconds:
        checker.add(last)
        cache.clear()
        last, took = run_pass(pool, cal, budget=seconds - busy)
        records += last
        busy += took
        cache.tally()
    cal.probe()
    return records


def traced_pass(pool, cache, cal, tracer):
    """One whole pass over the pool with every layer wrapped.  The work is
    fixed, so the per-layer counts repeat exactly for a seed.  Returns the
    records, the pass's wall time less the calibration probes taken in it,
    and the calibration factor of the pass."""
    cache.clear()
    tracer.on = True
    t0 = perf_counter()
    records, _ = run_pass(pool, cal, tracer)
    t1 = perf_counter()
    tracer.on = False
    cache.tally()
    cal.probe()
    probes = sum(d for a, d in zip(cal.at, cal.took) if t0 <= a < t1)
    return records, t1 - t0 - probes, cal.window_factor(t0, t1)


def finish_first_pass(pool, records, cal):
    """Run the items of the first pass that the loop did not reach, so that
    every item of the pool is timed, checked and digested."""
    if len(records) >= sum(map(len, pool)):
        return []
    last, extra = records[-1], []
    i, j, state = last.inst, last.item + 1, last.state
    while i < len(pool):
        for jj in range(j, len(pool[i])):
            rec = _run_item(pool[i][jj], state, None, cal)
            rec.inst, rec.item = i, jj
            extra.append(rec)
        i, j, state = i + 1, 0, {}
    cal.probe()
    return extra


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def item_latencies_ms(records, cal=None):
    """{item: its median latency over its runs, in ms}, calibrated when cal
    is given.  Taking one value per item keeps the mix fixed: a pass cut
    short by the deadline adds samples, not weight."""
    per = {}
    for r in records:
        per.setdefault((r.inst, r.item), []).append(
            r.latency * 1e3 * (cal.factor(r.at) if cal else 1.0))
    return {key: statistics.median(v) for key, v in per.items()}


def hd_quantile(values, q, grid=20000):
    """Harrell-Davis estimate of the q-quantile: a weighted mean of all order
    statistics with Beta((n+1)q, (n+1)(1-q)) weights.  The pool mixes item
    classes whose costs differ by orders of magnitude; where a quantile
    falls in a gap between classes, a single order statistic jumps from one
    class to the other between runs, and this estimate does not."""
    v = sorted(values)
    n = len(v)
    if n == 1:
        return v[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
            for x in ((k + 0.5) / grid for k in range(grid))]
    top = max(logs)
    cum = [0.0]
    for lg in logs:
        cum.append(cum[-1] + math.exp(lg - top))
    edge = [cum[round(i * grid / n)] for i in range(n + 1)]
    return sum(x * (edge[i + 1] - edge[i]) for i, x in enumerate(v)) / cum[-1]


def latency_stats(per_item):
    """(items per second over one pass, p50, p90, items above p90)."""
    lat = list(per_item.values())
    p90 = hd_quantile(lat, 0.9)
    return len(lat) / sum(lat) * 1e3, hd_quantile(lat, 0.5), p90, sum(v > p90 for v in lat)


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _median_raw_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def cli_layers(lib, pool, records, work, cal):
    """Per-layer figures of the CLI workload, measured from outside.  The
    interpreter, import and ledger times are raw: calibrated against an
    interpreter start, the first would read as the probe's nominal time."""
    by_kind = {}
    for r in records:
        by_kind.setdefault(pool[r.inst][r.item].kind, []).append(
            r.latency * 1e3 * cal.factor(r.at))
    out = {f"cli.{c}.p50_ms": statistics.median(by_kind[c]) if c in by_kind else 0.0
           for c in CLI_COMMANDS}
    cli = W.Cli(lib.src, work)
    interp = _median_raw_time(lambda: cli.python("pass"), 3)
    out["cli.interpreter_s"] = interp
    out["cli.import_s"] = _median_raw_time(lambda: cli.python("import diffmod.cli"), 3) - interp
    ledgers = [os.path.join(work, f) for f in os.listdir(work) if f.endswith("_ledger.json")]
    if ledgers:
        path = max(ledgers, key=os.path.getsize)
        copy = os.path.join(work, "ledger_io.json")
        ClassLedger = lib.monoid.ClassLedger
        out["monoid.ledger_io.s"] = _median_raw_time(
            lambda: ClassLedger.load(path).save(copy), 5)
        out["serialize.ledger_bytes"] = os.path.getsize(path)
    return out


def layer_metrics(tracer, cache, wall, factor, untraced_ips, traced_ips):
    """Per-layer metrics of the traced pass; span times are scaled by the
    pass's calibration factor, and wall is its wall time less probes."""
    units = per_layer_units()
    m = dict.fromkeys(units, 0.0)
    times = tracer.layer_times()
    for name, (calls, incl, self_s) in times.items():
        if f"{name}.calls" in m:
            m[f"{name}.calls"] = calls
            m[f"{name}.s"], m[f"{name}.self_s"] = incl * factor, self_s * factor
    c = tracer.counters
    hom_calls = times.get("modules.hom_space", (0,))[0]
    m["modules.hom_chain.steps"] = c["hom_chain.steps"]
    m["modules.hom_space.zero_dim_share"] = c["hom_space.zero_dim"] / hom_calls if hom_calls else 0.0
    lookups = cache.hits + cache.misses
    m["modules.hom_cache.hit_ratio"] = cache.hits / lookups if lookups else 0.0
    m["modules.hom_cache.evictions"] = cache.evictions
    m["modules.iso_search.trials"] = c["iso_search.trials"]
    m["modules.iso_search.unknown"] = c["iso_search.unknown"]
    m["cores.core.splits"] = times.get("cores.split_trivial_summand", (0,))[0]
    m["trace.items_per_s"] = traced_ips
    m["trace.untraced_items_per_s"] = untraced_ips
    m["trace.overhead"] = untraced_ips / traced_ips - 1.0
    m["trace.item_span_coverage"] = times.get(spans.ITEM, (0, 0.0))[1] / wall
    return m, times


def coverage_errors(tracer, cache, m):
    errors = []
    if cache.cache is not None and "modules.hom_space" in tracer.originals:
        lookups = cache.hits + cache.misses
        if m["modules.hom_space.calls"] != lookups:
            errors.append(f"hom_space calls {m['modules.hom_space.calls']} != "
                          f"cache hits + misses {lookups}")
    if m["trace.item_span_coverage"] < MIN_COVERAGE:
        errors.append(f"item spans cover {m['trace.item_span_coverage']:.3f} "
                      f"of the traced pass's wall time, below {MIN_COVERAGE}")
    return errors


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
    except OSError:
        return None
    return p.stdout.strip() or None


def print_table(title, values, units, notes=None):
    print(title)
    for name, value in values.items():
        note = (notes or {}).get(name, "")
        print(f"  {name:<40} {value:>16.6g} {units[name]:<6} {note}".rstrip())


def print_shares(times, wall):
    print(f"self-time shares of the traced pass (base: its wall time less "
          f"calibration probes, {wall:.3f} s)")
    for name, (calls, incl, self_s) in sorted(times.items(), key=lambda kv: -kv[1][2]):
        label = "item (outside every traced layer)" if name == spans.ITEM else name
        print(f"  {label:<40} {self_s / wall:>8.1%}  self {self_s:.3f} s  "
              f"incl {incl:.3f} s  calls {calls}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "diffmod", "__init__.py")):
        print(f"error: no diffmod sources under {SRC}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process and the children it starts, so that the
        # calibration probe measures the CPU that does the work
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


def run(args, work):
    in_process = args.workload != "cli_session"
    cal = Calibration(ARITHMETIC if in_process else INTERPRETER)
    lib, pool, setup_s = setup(args.workload, args.seed, work, cal)
    checker = Checker(pool)
    cache = HomCache(lib)
    loop_s = args.seconds / 2 if args.trace else args.seconds
    records = run_loop(pool, loop_s, cache, cal, checker)
    rss = peak_rss_mb(children=not in_process)
    records += finish_first_pass(pool, records, cal)
    checker.add(records)
    lat = item_latencies_ms(records, cal)
    ips, p50, p90, above = latency_stats(lat)
    raw_ips, raw_p50, raw_p90, _ = latency_stats(item_latencies_ms(records))

    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        cache = HomCache(lib)
        traced, wall, factor = traced_pass(pool, cache, cal, tracer)
        stale = tracer.unwrapped_bindings()
        checker.add(traced)
        tips = latency_stats(item_latencies_ms(traced, cal))[0]
        layers, times = layer_metrics(tracer, cache, wall, factor, ips, tips)
        if not in_process:
            layers.update(cli_layers(lib, pool, records + traced, work, cal))
        errors = [f"unwrapped binding {b}" for b in stale]
        errors += coverage_errors(tracer, cache, layers)
        errors += [f"layer {n} not found in diffmod" for n in tracer.missing]

    statuses, failures = checker.statuses, checker.failures
    attempted = len(statuses)
    n_unknown, n_failed = statuses.count(W.UNKNOWN), statuses.count(W.FAIL)
    e2e = {
        "items_per_s": ips,
        "item_p50_ms": p50,
        "item_p90_ms": p90,
        "certified_rate": (attempted - n_unknown - n_failed) / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    extra = {"unknown_rate": n_unknown / attempted, "failed_rate": n_failed / attempted,
             "raw_items_per_s": raw_ips, "raw_item_p50_ms": raw_p50, "raw_item_p90_ms": raw_p90}
    extra_units = {"unknown_rate": "ratio", "failed_rate": "ratio", "raw_items_per_s": "1/s",
                   "raw_item_p50_ms": "ms", "raw_item_p90_ms": "ms"}

    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}  seed {args.seed}  {mode}  {len(records)} items timed "
          f"({len(lat)} distinct), {attempted} checked, "
          f"probe median {statistics.median(cal.took) * 1e3:.2f} ms")
    print_table("end-to-end (calibrated; raw_* are wall clock)", {**e2e, **extra},
                {**END_TO_END, **extra_units},
                {"item_p50_ms": f"n={len(lat)}", "item_p90_ms": f"n={len(lat)}, {above} above",
                 "unknown_rate": f"{n_unknown} of {attempted}",
                 "failed_rate": f"{n_failed} of {attempted}"})
    correct = not failures
    if args.trace:
        print_table("per-layer (traced pass)", layers, per_layer_units())
        print_shares(times, wall)
        for e in errors:
            print(f"trace self-check failed: {e}", file=sys.stderr)
        correct = correct and not errors
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({"record": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "probe_median_ms": statistics.median(cal.took) * 1e3,
        "outputs_sha256": checker.digest.hexdigest()}}, sort_keys=True))
    metrics = layers if args.trace else e2e
    units = per_layer_units() if args.trace else END_TO_END
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": n_failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
