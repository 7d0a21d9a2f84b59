"""tropfan benchmark: one closed-loop client, one process, no threads.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Workloads (see pools.py): ``scan`` enumerates homomorphisms and fan
morphisms, ``expand`` enumerates and then expands within small bounds, and
``certify`` decides polynomial equality and builds separating witnesses.
The client sends its next query only after the previous one returns.  The
loop runs whole cycles over the seeded suite until ``--seconds`` have
passed.  A share of the scan and certify queries goes through
``tropfan.cli.main`` in process.

Times are stated at a reference machine speed (speed.py): each is scaled by
a canary computation timed next to it, because the shared machine's speed
swings by up to 1.7x within a minute.  The raw figures are printed too.
Latency percentiles are taken over every execution's own time, and
throughput is correct executions per second of the timed phase, which is
the sum of the executions' times.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs the same suite untraced and then traced, and reports
the per-layer metrics (tracing.py) with the tracing overhead; spans are
written to perfbench/out/.  Every answer is checked after the timed phase
(oracle.py), and a checker self-test must reject deliberately corrupted
answers.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from speed import Speed, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 25      # setup_s is the median of this many set-ups
POOL_CYCLES = 64        # seeded orders of the suite; the loop wraps past the last
OVERRUN_S = 60.0        # stop mid-cycle this long after --seconds
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list: (value, samples beyond)."""
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1], len(sorted_values) - k


def tail(sorted_values):
    """The highest ladder percentile with at least 10 samples beyond it:
    (percentile, value, samples beyond)."""
    for p in TAIL_LADDER:
        value, beyond = percentile(sorted_values, p)
        if beyond >= 10:
            return p, value, beyond
    return (50.0, *percentile(sorted_values, 50.0))


def set_up(workload, seed, workdir):
    """Import tropfan afresh, build the seeded pool, run one warm-up query."""
    for name in [m for m in sys.modules if m == "tropfan" or m.startswith("tropfan.")]:
        del sys.modules[name]
    gc.collect()  # leave the previous set-up's garbage out of this one
    start = perf_counter()
    tf = importlib.import_module("tropfan")
    importlib.import_module("tropfan.cli")
    from pools import WARMUPS, build_pool
    pool = build_pool(tf, workload, seed, POOL_CYCLES, workdir)
    WARMUPS[workload](tf)
    return perf_counter() - start, tf, pool


class Phase:
    """One timed closed-loop phase over whole cycles of the pool."""

    def __init__(self, pool, seconds, speed, tracer=None):
        self.runs = []         # (qid, scaled seconds, raw seconds) per execution
        self.answers = {}      # qid -> first answer
        self.errors = {}       # qid -> reason, for raised or inconsistent answers
        begin = perf_counter()
        for i in range(10 ** 9):
            for q in pool[i % len(pool)]:
                before = speed.read()
                if tracer:
                    tracer.begin_query(q.qid)
                t0 = perf_counter()
                try:
                    answer, error = q.run(), None
                except Exception as exc:  # a raising query is a failed query
                    answer, error = None, f"raised {type(exc).__name__}: {exc}"
                t1 = perf_counter()
                if tracer:
                    tracer.end_query()
                self.runs.append((q.qid, scaled(t1 - t0, before, speed.read()), t1 - t0))
                if error:
                    self.errors.setdefault(q.qid, error)
                elif q.qid not in self.answers:
                    self.answers[q.qid] = answer
                elif self.answers[q.qid] != answer:
                    self.errors.setdefault(q.qid, "answer changed between repeats")
                if t1 - begin > seconds + OVERRUN_S:
                    break
            if perf_counter() - begin >= seconds:
                break


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("scan", "expand", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tropfan" / "__init__.py").is_file():
        print(f"error: no tropfan sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir) -> int:
    import oracle
    from tracing import COMPUTED, Tracer

    speed = Speed()
    setups = []  # (scaled seconds, raw seconds) per set-up
    for _ in range(1 if args.trace else SETUP_REPEATS):
        before = speed.read()
        elapsed, tf, pool = set_up(args.workload, args.seed, workdir)
        setups.append((scaled(elapsed, before, speed.read()), elapsed))
    gc.collect()

    phases = [Phase(pool, args.seconds, speed)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(tf)
        tracer.active = True
        phases.append(Phase(pool, args.seconds, speed, tracer))
        tracer.active = False

    # ---- correctness, outside the timed region
    by_qid = {q.qid: q for cycle in pool for q in cycle}
    verdicts, checked = {}, []
    for ph in phases:
        for qid, error in ph.errors.items():
            verdicts.setdefault(qid, error)
    for ph in phases:
        for qid, answer in ph.answers.items():
            if qid in verdicts:
                continue
            if phases[0].answers.get(qid, answer) != answer:
                verdicts[qid] = "answer changed between phases"
                continue
            verdicts[qid] = oracle.check(tf, by_qid[qid], answer)
            if verdicts[qid] is None:
                checked.append((by_qid[qid], answer))
    caught = oracle.self_test(tf, args.workload, checked)

    runs = [r for ph in phases for r in ph.runs]
    attempted = len(runs)
    failed = sum(1 for qid, _, _ in runs if verdicts.get(qid))
    for qid, reason in sorted(verdicts.items()):
        if reason:
            print(f"FAILED query {qid} ({by_qid[qid].kind}): {reason}")
    verdict = {True: "rejected", False: "NOT REJECTED", None: "NO ANSWER TO CORRUPT"}
    for name, ok in caught:
        print(f"checker self-test, {name}: {verdict[ok]}")
    correct = failed == 0 and all(ok for _, ok in caught)
    if args.workload == "expand":
        members = [oracle.cone_members(tf, q, a) for q, a in checked]
        print(f"expand answers hold {sum(members)} cone members, in "
              f"{sum(1 for n in members if n)} of {len(members)} queries")

    def times(ph, column):
        """Sorted per-execution times; a failed query misses every limit."""
        return sorted(math.inf if verdicts.get(r[0]) else r[column] for r in ph.runs)

    def throughput(ph, column):
        """Correct executions per second of the timed phase: the summed time
        of all executions, without canary readings and bookkeeping."""
        good = sum(1 for r in ph.runs if not verdicts.get(r[0]))
        return good / sum(r[column] for r in ph.runs)

    kinds = {}
    for qid, _, _ in runs:
        kinds[by_qid[qid].kind] = kinds.get(by_qid[qid].kind, 0) + 1
    print(f"workload {args.workload}, seed {args.seed}: {attempted} queries "
          f"({', '.join(f'{k} {v}' for k, v in sorted(kinds.items()))}), "
          f"failed_ratio {failed / attempted:.4f}")

    if tracer:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}.csv.gz"
        tracer.write(trace_file)
        metrics = {name: (value, UNITS.get(name.split(".", 1)[1], "1/query"))
                   for name, value in tracer.metrics(len(phases[1].runs)).items()}
        untraced, traced = (throughput(ph, 1) for ph in phases)
        metrics["trace.overhead_qps"] = (traced - untraced, "1/s")
        print(f"tracing overhead: {traced:.3f} traced - {untraced:.3f} untraced = "
              f"{traced - untraced:.3f} queries/s; {len(tracer.span_start)} spans "
              f"written to {trace_file.relative_to(ROOT)}")
        print("computed, not observed: " + ", ".join(COMPUTED))
        if tracer.counts["trace.hook_errors"]:
            print(f"counter hooks failed {tracer.counts['trace.hook_errors']} times")
        layer_self = {k: v for k, (v, _) in metrics.items() if k.endswith(".self_s")}
        print("largest self time: " + max(layer_self, key=layer_self.get))
    else:
        for column, label in ((2, "raw"), (1, "scaled")):
            lat = times(phases[0], column)
            p, value, beyond = tail(lat)
            metrics = {
                "throughput_qps": (throughput(phases[0], column), "1/s"),
                "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
                "latency_tail_ms": (value * 1000, "ms"),
                "setup_s": (statistics.median(s[column - 1] for s in setups), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "correct_ratio": (1 - failed / attempted, "ratio"),
            }
            print(f"{label}: " + json.dumps({k: v for k, (v, _) in metrics.items()}))
        print(f"latency_tail_ms is p{p:g} of {len(lat)} samples ({beyond} beyond it)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


# Units of the per-layer metrics, by the part after the layer name.
UNITS = {
    "self_s": "s/query", "scan_yield": "ratio", "expand_yield": "ratio",
    "infeasible_ratio": "ratio", "vertex_yield": "ratio",
    "hnf_max_bits": "bits", "K_max_bits": "bits", "overhead_qps": "1/s",
}

if __name__ == "__main__":
    sys.exit(main())
