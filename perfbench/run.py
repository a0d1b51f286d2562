"""cremona benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: diagnose, pairing, cold_cli, ring (see perfbench/rationale.json);
--workload all runs the four in turn, each in a fresh interpreter.
With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.
Every answer is checked; the exit code is 1 when any check fails and 2
when the program's sources are missing.  Timings are scaled to a
reference speed by a calibration loop timed alongside them (CAL_REF_NS);
the summary lines print the measured and the scaled operation time.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 9
MIN_ROUNDS = 3
IMPORT_PROBES = 3
SPAN_CAP = 1_000_000


def percentile(values, pct):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


# The host is shared: identical work runs up to twice as slow in some
# minutes as in others, CPU time included, for minutes at a time.  Every
# timing is therefore scaled by the speed of a fixed calibration loop
# measured on the same CPU in the same second: a reported time is
# measured time * CAL_REF_NS / calibration time, the time the work would
# take on the reference host at the speed the calibration loop shows.
CAL_N = 4000
CAL_REF_NS = 1_130_000  # CAL_N loop, uncontended, 2-vCPU Xeon, Python 3.11.7
CAL_EVERY_NS = 50_000_000  # operation time between calibration samples


def calibration_loop(n=CAL_N):
    """Fixed pure-Python work: tuple hashing, dict stores, int arithmetic."""
    d = {}
    s = 0
    for i in range(n):
        k = (i % 97, i % 89)
        s += hash(k) & 7
        d[k] = s
    return s


def calibration_ns():
    """Median of three timed calibration loops."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        calibration_loop()
        samples.append(time.perf_counter_ns() - t0)
    return statistics.median(samples)


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so the calibration
    loop sees the speed of the CPU the timed work runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Phase:
    """What a timed phase keeps: scaled latencies per operation and round,
    answer hashes and failures.

    Outputs are not kept, so the benchmark's own memory and garbage
    collection stay out of the measurement.
    """

    def __init__(self, ops):
        self.ops = ops
        self.samples = [[] for _ in ops]
        self.raw_ns = 0
        self.scaled_ns = 0
        self.answer_hashes = []
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()

    def latencies(self):
        """Each operation's median scaled latency over the rounds, in ns."""
        return [statistics.median(x) for x in self.samples]


def execute(w, op, run=None, check=True):
    """Run one operation; returns (latency ns, answer text, ok).

    run replaces w.run (the traced replay wraps it in an operation span);
    check=False skips the checks, which call into the program.
    """
    prepare = getattr(w, "prepare", None)
    if prepare:
        prepare(op)
    t0 = time.perf_counter_ns()
    try:
        out = (run or w.run)(op)
    except Exception as e:  # a failed operation, counted by the caller
        return time.perf_counter_ns() - t0, f"raised {e!r}", False
    lat = time.perf_counter_ns() - t0
    try:
        return lat, w.answer(op, out), not check or w.check(op, out)
    except Exception as e:
        return lat, f"check raised {e!r}", False


def timed_round(w, ops, on_result, run=None, check=True, stop=None):
    """Run ops once, calibrating before, after and every CAL_EVERY_NS of
    operation time; returns the raw latencies and their scale factor.

    on_result(i, answer, ok) sees every answer; stop() ends the round early.
    """
    cals = [calibration_ns()]
    lats = []
    since = 0
    for i, op in enumerate(ops):
        lat, answer, ok = execute(w, op, run=run, check=check)
        lats.append(lat)
        on_result(i, answer, ok)
        since += lat
        if since >= CAL_EVERY_NS:
            cals.append(calibration_ns())
            since = 0
        if stop is not None and stop():
            break
    cals.append(calibration_ns())
    return lats, CAL_REF_NS / statistics.median(cals)


def timed_phase(w, seed, seconds, golden_hashes):
    """Run the seed's operation list round after round for `seconds`.

    The list is the first ``w.op_count`` operations of the seed's stream.
    Whole rounds repeat until `seconds` of operation time have been spent,
    and at least MIN_ROUNDS of them.  Only ``w.run`` is timed; every
    execution is checked between operations, and from the second round on
    its answer must also equal the first round's.  Each round's latencies
    are scaled by the calibration samples taken during it.
    """
    ph = Phase(list(itertools.islice(w.ops(seed), w.op_count)))

    def on_result(i, answer, ok):
        h = wl.short_hash(answer)
        if ph.rounds == 0:
            ph.answer_hashes.append(h)
            if i < len(golden_hashes) and h != golden_hashes[i]:
                ok = False
            if i < w.digest_ops:
                ph.digest.update(answer.encode() + b"\n")
        elif h != ph.answer_hashes[i]:
            ok = False
        ph.attempted += 1
        if not ok:
            ph.failed += 1
            print(f"FAILED {w.name} round {ph.rounds} op {i}: "
                  f"{answer[:300]}", file=sys.stderr)

    budget = seconds * 1e9
    while ph.rounds < MIN_ROUNDS or ph.raw_ns < budget:
        lats, scale = timed_round(w, ph.ops, on_result)
        for sample, lat in zip(ph.samples, lats):
            sample.append(lat * scale)
        ph.raw_ns += sum(lats)
        ph.scaled_ns += sum(lats) * scale
        ph.rounds += 1
    return ph


def setup_probe_times(args):
    """Scaled wall time of SETUP_PROBES fresh set-ups, in seconds."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_PROBES):
        before = calibration_ns()
        t0 = time.perf_counter_ns()
        proc = subprocess.run(cmd, cwd=wl.ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        elapsed = time.perf_counter_ns() - t0
        if proc.returncode != 0:
            raise RuntimeError("set-up failed:\n" + proc.stderr.decode())
        cal = (before + calibration_ns()) / 2
        times.append(elapsed * CAL_REF_NS / cal / 1e9)
    return times


def import_self_times():
    """Median -X importtime self time, in seconds, of each cremona module."""
    samples = {m: [] for m in tracer.IMPORT_MODULES}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cremona.cli"],
            cwd=wl.ROOT, env=wl.cli_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=120, check=True)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            parts = line[len("import time:"):].split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            name = parts[2].strip()
            if name.startswith("cremona.") and name[8:] in samples:
                samples[name[8:]].append(int(parts[0]) / 1e6)
    return {m: statistics.median(v) for m, v in samples.items()}


def machine():
    return f"nproc={os.cpu_count()} python={sys.version.split()[0]}"


def summarize(w, ph, seed):
    """Per-operation scaled latencies in ms, after a summary line."""
    lats = [x / 1e6 for x in ph.latencies()]
    tail = percentile(lats, w.tail_pct)
    beyond = sum(1 for x in lats if x > tail)
    print(f"{w.name}: seed={seed} ops={len(lats)} rounds={ph.rounds} "
          f"executions={ph.attempted} failed={ph.failed}; p50 over "
          f"{len(lats)} per-operation medians, tail=p{w.tail_pct:g} with "
          f"{beyond} beyond; {machine()}")
    print(f"{w.name}: operation time {ph.raw_ns / 1e9:.3f} s measured, "
          f"{ph.scaled_ns / 1e9:.3f} s scaled to the reference speed")
    print(f"{w.name}: digest of first {w.digest_ops} answers "
          f"{ph.digest.hexdigest()}")
    return lats


def golden_hashes(w, golden, seed):
    return golden["digests"][w.name] if seed == wl.DEFAULT_SEED else []


def run_untraced(args, w, golden):
    setup_times = setup_probe_times(args)
    w.setup()
    ph = timed_phase(w, args.seed, args.seconds,
                     golden_hashes(w, golden, args.seed))
    lats = summarize(w, ph, args.seed)
    who = resource.RUSAGE_CHILDREN if w.in_children else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(lats) * 1e3 / sum(lats), "1/s"),
        "latency_p50_ms": (statistics.median(lats), "ms"),
        "latency_tail_ms": (percentile(lats, w.tail_pct), "ms"),
        "ok_frac": ((ph.attempted - ph.failed) / ph.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    return ph.attempted, ph.failed, metrics


def run_traced(args, w, golden):
    """Untraced phase, then one round of the same operations replayed
    under the tracer (cut short only when the span store is full)."""
    imports = import_self_times()
    span_dir = wl.OUT / f"spans-{w.name}"
    shutil.rmtree(span_dir, ignore_errors=True)
    tr = None
    if w.in_children:
        span_dir.mkdir(parents=True)
        w.setup()
    else:
        cremona = wl.import_cremona()
        tr = tracer.Tracer(SPAN_CAP)
        tr.install(cremona)
        try:
            tr.span(tracer.OP, w.setup)
        finally:
            tr.uninstall()
    # the untraced phase takes half of the run; one traced round follows
    ph = timed_phase(w, args.seed, args.seconds / 2,
                     golden_hashes(w, golden, args.seed))
    summarize(w, ph, args.seed)
    failed = ph.failed

    def on_result(i, answer, ok):
        nonlocal failed
        if wl.short_hash(answer) != ph.answer_hashes[i]:
            failed += 1
            print(f"FAILED {w.name} traced op {i}", file=sys.stderr)

    run = stop = None
    if tr is None:
        w.launcher = ([sys.executable, str(Path(__file__).with_name(
            "cli_child.py"))], span_dir)
    else:
        op_ids = itertools.count()

        def run(op):
            tr.op_id = next(op_ids)
            return tr.span(tracer.OP, w.run, op)
        stop = tr.full
        tr.install(cremona)
    try:
        traced_lat, scale = timed_round(w, ph.ops, on_result, run=run,
                                        check=False, stop=stop)
    finally:
        if tr is not None:
            tr.uninstall()
        w.launcher = None

    if tr is None:
        parts = [tracer.load_columns(p) for p in sorted(span_dir.glob("*.json"))]
    else:
        parts = [tr.columns()]
    tracer.write_spans(parts, wl.OUT / f"spans-{w.name}.tsv.gz")
    stats, under, op_time = tracer.aggregate(parts)
    if tr is None:
        for i, lat in enumerate(traced_lat):
            op_time[i][tracer.OP] = lat
    metrics = layer_metrics(parts, stats, under, op_time, imports)
    k = len(traced_lat)
    lats = ph.latencies()[:k]
    metrics["trace.overhead_ratio"] = (
        sum(traced_lat) * scale / sum(lats), "ratio")
    metrics.update(share_metrics(lats, op_time, w.tail_pct))
    print(f"{w.name}: traced {k} of {len(ph.ops)} operations, "
          f"{sum(len(p['start']) for p in parts)} spans")
    return ph.attempted + k, failed, metrics


def layer_metrics(parts, stats, under, op_time, imports):
    out = {}
    for b in tracer.BOUNDARY_NAMES:
        calls, total, self_ns = stats.get(b, (0, 0, 0))
        out[f"{b}.calls"] = (calls, "count")
        out[f"{b}.total_s"] = (total / 1e9, "s")
        out[f"{b}.self_s"] = (self_ns / 1e9, "s")
    for m, v in imports.items():
        out[f"import.cremona.{m}.self_s"] = (v, "s")
    hits = sum(p["pnw_hits"] for p in parts)
    calls = sum(p["pnw_calls"] for p in parts)
    classes = sum(p["orbit_classes"] for p in parts)
    conflicts = sum(p["conflicts"] for p in parts)

    def ratio(a, b):
        return a / b if b else 0.0
    out["weyl.plane_normalizing_word.hit_ratio"] = (ratio(hits, calls), "ratio")
    out["weyl.plane_normalizing_word.cache_calls"] = (calls, "count")
    out["weyl.orbit.new_per_image"] = (ratio(classes, under["images"]), "ratio")
    out["weyl.orbit.images"] = (under["images"], "count")
    out["linsys.base_locus_report.conflict_per_pairing"] = (
        ratio(conflicts, under["pairings"]), "ratio")
    out["linsys.base_locus_report.pairings"] = (under["pairings"], "count")
    return out


def share_metrics(lats, op_time, tail_pct):
    """Where the time of the median and of the tail operations goes.

    Median operations are those whose untraced latency lies between the
    45th and 55th percentile; tail operations those above the tail
    percentile.  Each share is a sum of span time over the summed traced
    time of the same operations.
    """
    lo, hi = percentile(lats, 45), percentile(lats, 55)
    tail = percentile(lats, tail_pct)

    def share(pick, key):
        ids = [i for i, x in enumerate(lats) if pick(x)]
        whole = sum(op_time[i][tracer.OP] for i in ids)
        part = sum(op_time[i][key] for i in ids)
        return (part / whole if whole else 0.0, "ratio")
    return {
        "share.p50_ops.linsys.k_weyl_divisor":
            share(lambda x: lo <= x <= hi, "linsys.k_weyl_divisor"),
        "share.tail_ops.pairing_under_report":
            share(lambda x: x > tail, "pairing_under_report"),
    }


def run_all(args):
    """Every workload, each in its own fresh interpreter; the metrics are
    prefixed with the workload's name."""
    attempted = failed = 0
    metrics = {}
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=wl.ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"{name}: exit code {proc.returncode}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": (v["value"], v["unit"])
                        for k, v in res["metrics"].items()})
    return attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="only build the workload's set-up (used to time it)")
    args = ap.parse_args(argv)
    if not (wl.SRC / "cremona" / "__init__.py").is_file():
        print(f"error: no cremona sources under {wl.SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        attempted, failed, metrics = run_all(args)
    else:
        pin_to_one_cpu()
        w = wl.make(args.workload)
        if args.setup_only:
            w.setup()
            return 0
        golden = wl.load_golden()
        run = run_traced if args.trace else run_untraced
        attempted, failed, metrics = run(args, w, golden)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
