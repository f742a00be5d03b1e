"""tfan benchmark: whole fans and single cones, timed end to end or traced per layer.

Usage (from the repository root)::

    python3 bench/run.py --workload prime-fans --seed 1 --seconds 25 --trace 0

Workloads (see README.md for why each exists):

* ``prime-fans``   -- ``tfan fan`` on prime-regime ideals: parse the problem
  text, compute the fan, render it.
* ``generic-fans`` -- the same on small ideals without a declared prime.
* ``cone-queries`` -- ``tfan cone`` at seeded interior weights of the
  prime-fans cones: parse, ``groebner_cone_at``, render the cone.

One run builds the workload's operations, then repeats whole passes over
them until ``--seconds`` have elapsed.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics instead.  All output checks run after the timed passes.
Preceding lines hold one JSON row per case and one with the environment;
the last line is the result object.  The program runs in this process with
one thread; nothing else is started.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import corpus  # noqa: E402
from tracer import METRICS as LAYER_METRICS, Tracer, median_metrics  # noqa: E402

WORKLOADS = ("prime-fans", "generic-fans", "cone-queries")
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("op_gmean_ms", "ms"),
              ("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))
SETUP_REPEATS = 21
QUERIES_PER_CONE = 3
# Host speed is probed every PROBE_INTERVAL_S of wall time, inside operations
# too; each operation's time is reported as if a probe took PROBE_REFERENCE_S,
# going by the probes during it, or by the last PROBE_WINDOW if fewer.
PROBE_INTERVAL_S = 0.02
PROBE_WINDOW = 25
PROBE_REFERENCE_S = 1e-3
# One fan case in this many (at least one) is recomputed from a second,
# seeded start weight in each run; the seed rotates which.
SECOND_START_SHARE = 5
REFERENCE = BENCH / "reference.json"


class Modules:
    """Freshly imported tfan modules; calls go through module attributes so
    the tracer's wrappers are seen."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "tfan" or m.startswith("tfan.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        tfan = importlib.import_module("tfan")
        if Path(tfan.__file__).resolve().parent != SRC / "tfan":
            raise SystemExit(f"imported tfan from {tfan.__file__}, not from {SRC}")
        self.cli = importlib.import_module("tfan.cli")
        self.fan = importlib.import_module("tfan.fan")
        self.poly = importlib.import_module("tfan.poly")
        self.errors = importlib.import_module("tfan.errors")


def load_reference(args):
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if ref["params"] != corpus_params(args):
        raise SystemExit(f"reference.json was made for {ref['params']}, not "
                         f"{corpus_params(args)}; regenerate it with bench/make_reference.py")
    return ref


def corpus_params(args):
    return {"prime_corpus_seed": args.prime_corpus_seed,
            "scaling_seeds": args.scaling_seeds,
            "generic_corpus_seed": args.generic_corpus_seed,
            "generic_count": corpus.GENERIC_COUNT}


def fan_cases(workload, args, ref):
    if workload == "prime-fans":
        return corpus.prime_cases(args.prime_corpus_seed, args.scaling_seeds,
                                  ref["prime_keep"])
    return corpus.generic_cases(args.generic_corpus_seed,
                                {int(k) for k in ref["generic_excluded"]})


def fan_op(mods, text):
    def op():
        problem = mods.cli.parse_problem(text)
        fan = mods.fan.groebner_fan(problem.ideal(), tiebreak=problem.tiebreak)
        return fan, mods.cli.render_fan(fan, problem.names)
    return op


def query_op(mods, text, weight):
    def op():
        problem = mods.cli.parse_problem(text)
        ordering = mods.poly.MonomialOrdering((weight,), problem.tiebreak)
        cone = mods.fan.groebner_cone_at(ordering, problem.gens, problem.prime)
        return cone, mods.cli.render_cone(cone.hcone)
    return op


def build(workload, args, rng):
    """Import tfan and build the operations: [(case, label, op, expect)]."""
    mods = Modules()
    ref = load_reference(args)
    ops = []
    if workload == "cone-queries":
        for name, text in corpus.prime_cases(args.prime_corpus_seed, args.scaling_seeds,
                                             ref["prime_keep"]):
            for k, (rays, lin) in enumerate(ref["fans"][name]["cones"]):
                for q in range(QUERIES_PER_CONE):
                    w = checks.interior_weight(rays, lin, rng)
                    key = (tuple(map(tuple, rays)), tuple(map(tuple, lin)))
                    ops.append((name, f"{name}/cone{k}/q{q}", query_op(mods, text, w), (w, key)))
    else:
        for name, text in fan_cases(workload, args, ref):
            ops.append((name, name, fan_op(mods, text), text))
    rng.shuffle(ops)
    return mods, ref, ops


def probe() -> float:
    """Seconds a fixed pure-Python loop takes: about 1 ms on a quiet host.

    Of the stdlib probes tried (this loop; dicts, tuples and Fractions;
    dict-based polynomial products), this one's slowdown under contention
    came closest to tfan's.
    """
    start = time.perf_counter()
    s = 0
    for i in range(15000):
        s += i * i % 7
    return time.perf_counter() - start


class Prober:
    """Runs `probe` from a timer signal every PROBE_INTERVAL_S while entered.

    Probes land inside long operations as well as between them, so they see
    the host conditions the operations ran in.  `clock` is perf_counter less
    the time spent probing, so no probe is counted in a timed operation.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        self.probes.append(probe())
        self.spent += self.probes[-1]

    def clock(self) -> float:
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no probe ran between the two reads
                return now - spent

    def mark(self) -> int:
        return len(self.probes)

    def median(self, start: int, end: int) -> float:
        """Median of the probes from mark `start` to mark `end`, or of the
        last PROBE_WINDOW before `end` if fewer fell in between."""
        window = self.probes[max(0, min(start, end - PROBE_WINDOW)):end]
        return statistics.median(window or [probe()])

    def scale(self, start: int) -> float:
        """Factor to reference speed for the work since mark `start`."""
        return PROBE_REFERENCE_S / self.median(start, self.mark())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_passes(ops, seconds, errors, prober, tracer=None):
    """Whole passes until `seconds` elapse; returns per-pass data.

    With a tracer, passes alternate untraced and traced, so both kinds see
    the same host conditions; traced passes also record per-layer metrics.
    """
    passes = []
    cones = 1
    clock = prober.clock
    begin = clock()
    while len(passes) < (2 if tracer else 1) or clock() - begin < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        times, scales, results, failed = [], [], [], 0
        pass_start = prober.mark()
        try:
            for _, _, op, _ in ops:
                op_start = prober.mark()
                t0 = clock()
                try:
                    result = op()
                except errors.TfanError as exc:
                    result = exc
                    failed += 1
                times.append(clock() - t0)
                scales.append(prober.scale(op_start))
                # later passes keep only the rendered text, so memory does not
                # grow with the number of passes
                results.append(result if not passes or isinstance(result, Exception)
                               else hash(result[1]))
        finally:
            if traced:
                tracer.uninstall()
        scale = prober.scale(pass_start)
        if not passes:
            cones = max(1, sum(1 if not hasattr(r[0], "maximal_cones")
                               else len(r[0].maximal_cones)
                               for r in results if not isinstance(r, Exception)))
        layer = None
        if traced:
            layer = {k: v * scale if k.endswith("_s") else v
                     for k, v in tracer.snapshot(cones).items()}
        passes.append({"times": times, "scales": scales, "results": results,
                       "failed": failed, "probe_ms": PROBE_REFERENCE_S / scale * 1000,
                       "layer": layer})
    return passes


def check(workload, mods, ref, ops, passes, rng):
    """Output checks on the first pass; returns failure messages."""
    bad = []
    first = passes[0]["results"]
    for p in passes[1:]:
        for (_, label, _, _), a, b in zip(ops, first, p["results"]):
            if not isinstance(a, Exception) and b != hash(a[1]):
                bad.append(f"{label}: output differs between passes")
    names = sorted({name for name, _, _, _ in ops})
    restart = set(rng.sample(names, max(1, len(names) // SECOND_START_SHARE)))
    for (name, label, _, expect), result in zip(ops, first):
        if isinstance(result, Exception):
            continue
        if workload == "cone-queries":
            w, key = expect
            cone = result[0]
            if not checks.strictly_inside(cone.hcone, w):
                bad.append(f"{label}: weight {w} is not strictly inside the returned cone")
            if cone.canonical_key() != key:
                bad.append(f"{label}: cone differs from the prime-fans cone holding {w}")
            continue
        fan = result[0]
        if checks.fingerprint(fan) != ref["fans"].get(name):
            bad.append(f"{name}: fingerprint differs from reference.json")
        count = len(fan.maximal_cones)
        if count != corpus.HAND_COUNTS.get(name, count):
            bad.append(f"{name}: {count} maximal cones, hand count {corpus.HAND_COUNTS[name]}")
        bad += checks.check_fan(name, fan, rng)
        if name in restart:
            bad += second_start(mods, name, expect, fan, rng)
    return bad


def second_start(mods, name, text, fan, rng):
    """The fan from a seeded interior weight of another cone is the same."""
    problem = mods.cli.parse_problem(text)
    cones = fan.maximal_cones
    default = (-1,) + (1,) * problem.nvars
    others = [c for c in cones if not checks.in_cone(c.hcone, default)] or list(cones)
    target = rng.choice(others)
    w = checks.interior_weight(target.data.rays, target.data.lineality, rng)
    try:
        again = mods.fan.groebner_fan(problem.ideal(), tiebreak=problem.tiebreak,
                                      start_weight=w)
    except mods.errors.TfanError as exc:
        if name in corpus.KNOWN_DIVERGENT and isinstance(exc, mods.errors.InredDiverged):
            print(f"NOTE {name}: start weight {w} ends in InredDiverged", file=sys.stderr)
            return []
        return [f"{name}: start weight {w} raises {type(exc).__name__}"]
    if [c.canonical_key() for c in again.maximal_cones] != \
            [c.canonical_key() for c in cones]:
        return [f"{name}: start weight {w} gives another cone set"]
    return []


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled_ms(ops, passes):
    """Each operation's median time over the passes, in ms at reference speed.

    Other tenants of a shared host slow it by up to 1.9x, in stretches of
    seconds to minutes.  So each time is scaled by PROBE_REFERENCE_S over
    the median probe taken during the operation (see `Prober.median`): the
    time the operation would take on a host where the probe takes
    PROBE_REFERENCE_S.
    """
    return [statistics.median(p["times"][i] * p["scales"][i] for p in passes) * 1000
            for i in range(len(ops))]


def end_to_end(setup_s, ops, passes):
    per_op = scaled_ms(ops, passes)
    values = {
        "setup_s": setup_s,
        "pass_s": sum(per_op) / 1000,
        "op_gmean_ms": math.exp(statistics.fmean(math.log(t) for t in per_op)),
        "op_p50_ms": quantile(per_op, 50),
        "op_p90_ms": quantile(per_op, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def case_rows(workload, ops, passes):
    """One row per case: median scaled time of its operations and its cone count."""
    by_case = {}
    for (name, _, _, _), ms, result in zip(ops, scaled_ms(ops, passes), passes[0]["results"]):
        by_case.setdefault(name, []).append((ms, result))
    rows = []
    for name, items in sorted(by_case.items()):
        done = [r[0] for _, r in items if not isinstance(r, Exception)]
        if workload == "cone-queries":
            cones = len({cone.canonical_key() for cone in done})
        else:
            cones = sum(len(fan.maximal_cones) for fan in done)
        rows.append({"row": "case", "workload": workload, "case": name, "ops": len(items),
                     "median_ms": statistics.median(ms for ms, _ in items), "cones": cones})
    return rows


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="seeds operation order, query weights and check samples")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--prime-corpus-seed", type=int, default=2,
                    help="seed of the random_prime_ideal stream")
    ap.add_argument("--scaling-seeds", type=lambda s: [int(x) for x in s.split(",")],
                    default=[4, 5], help="n=3 scaling-corpus seeds, comma separated")
    ap.add_argument("--generic-corpus-seed", type=int, default=0,
                    help="seed of the generic-regime ideal stream")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_times = []
    with Prober() as prober:
        for _ in range(SETUP_REPEATS):
            gc.collect()  # free the previous set-up's modules before timing the next
            rng = random.Random(args.seed)
            start = prober.mark()
            t0 = prober.clock()
            mods, ref, ops = build(args.workload, args, rng)
            setup_times.append((prober.clock() - t0) * prober.scale(start))
        setup_probe_ms = prober.median(0, prober.mark()) * 1000
        passes = run_passes(ops, args.seconds, mods.errors, prober,
                            Tracer(prober.clock) if args.trace else None)
    plain = [p for p in passes if p["layer"] is None]
    if not args.trace:
        metrics = end_to_end(statistics.median(setup_times), ops, passes)
    else:
        traced = [p for p in passes if p["layer"] is not None]
        layer = median_metrics([p["layer"] for p in traced])
        busy = [sum(t * s for t, s in zip(p["times"], p["scales"])) for p in passes]
        layer["trace.overhead_s"] = (
            statistics.median(b for b, p in zip(busy, passes) if p["layer"] is not None)
            - statistics.median(b for b, p in zip(busy, passes) if p["layer"] is None))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}

    check_start = time.perf_counter()
    failures = check(args.workload, mods, ref, ops, passes, rng)
    check_s = time.perf_counter() - check_start
    for message in failures:
        print(f"CHECK FAILED {message}", file=sys.stderr)
    print(json.dumps({"row": "env", "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
                      "passes": len(passes),
                      "pass_busy_s": [sum(p["times"]) for p in passes],
                      "pass_probe_ms": [p["probe_ms"] for p in passes],
                      "setup_probe_ms": setup_probe_ms,
                      "check_s": check_s, **corpus_params(args)}))
    for row in case_rows(args.workload, ops, plain):
        print(json.dumps(row))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops) * len(passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
