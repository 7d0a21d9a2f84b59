"""Measure a baseline and write it to perfbench/baseline.json.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 1-10

Runs every workload of BENCHMARK.json once per seed (end-to-end metrics,
untraced), once more traced on the first seed (per-layer metrics and the
tracing overhead), and sanity.py.  Each run is its own process, started
after the previous one has ended.  For every end-to-end metric it records
the values, their median and quartiles, and the spread (q3 - q1) / median
that BENCHMARK.json's bounds are judged against, for the scaled values and
for the raw ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The layer expected to hold the largest self time on each workload.
EXPECTED_TOP_LAYER = {"scan": "cones", "expand": "homsearch", "certify": "exactlp"}

# Which end-to-end metrics each per-layer metric should move, and where.
PREDICTIONS = {
    "cones.calls, cones.self_s, cones.rays_out": "throughput_qps, latency_p50_ms on scan",
    "homsearch.assignments, .families, .cone_records, .scan_yield":
        "throughput_qps, latency_tail_ms on scan",
    "homsearch.self_s, .expand_candidates, .expand_yield":
        "throughput_qps, latency_tail_ms, peak_rss_mb on expand",
    "lattice.calls, .self_s, .member_calls, .span_errors, .hnf_max_bits":
        "latency_p50_ms on scan (morphism share) and expand (membership filter)",
    "exactlp.calls, .self_s, .tableau_cells, .infeasible_ratio":
        "throughput_qps, latency_p50_ms on certify",
    "tropoly.calls, .self_s, .vertex_yield": "throughput_qps on certify",
    "witness.calls, .self_s, .K_max_bits, fan.calls, .self_s": "latency_tail_ms on certify",
    "cli.calls, .self_s, .exit_<code>": "latency_p50_ms on the CLI share of scan and certify",
    "flat": "exactlp.* on scan and expand, cones.* on certify: those workloads bypass them",
}

NOTES = [
    "Times are scaled to the reference speed of speed.py (canary = 4 ms); raw_spread gives the "
    "spread of the same runs without scaling, which is why the scaling is kept.",
    "latency_p50_ms and latency_tail_ms are order statistics over every execution of the timed "
    "phase; the tail is the highest of p99.9, p99, p90, p50 with at least 10 samples beyond it.",
    "throughput_qps is correct executions per second of the timed phase, the summed time of "
    "all executions; canary readings and answer bookkeeping are left out of it.",
    "setup_s is the median of 25 set-ups in one run, each a fresh import, the pool build and "
    "one warm-up query.",
    "failed_ratio is failed / attempted from the result line; the gated metric is correct_ratio = "
    "1 - failed_ratio, because a gated metric may never be 0.",
    "maxplus is not wrapped by the tracer: TropVector is a value type, so its cost falls into "
    "its callers' self time.",
    "homsearch.assignments, homsearch.expand_candidates and exactlp.tableau_cells are computed "
    "from the inputs at the layer boundary, not observed inside the code.",
    "Per-layer self times are seconds per query from the traced phase.",
    "The expand instances are fixed fans whose boxes hold members, most of them members of "
    "cones of two or more dimensions; homsearch.expand_yield is therefore above 0.",
    "expand_cones iterates its candidates without storing them and returns at most a few "
    "hundred matrices here, so peak_rss_mb on expand is mostly the interpreter and the pool; "
    "a change that stores large candidate sets shows in it.",
]


def run(cmd):
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def spread(values):
    """(q3 - q1) / median, the spread BENCHMARK.json's bounds are judged by."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(bench["run_seconds"])
    try:
        rev = run(["git", "rev-parse", "HEAD"])[0]
    except (OSError, subprocess.CalledProcessError):
        rev = None

    result = {"rev": rev, "python": platform.python_version(), "nproc": os.cpu_count(),
              "run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        base = [sys.executable, "perfbench/run.py", "--workload", name, "--seconds", seconds]
        values, raw, notes, failed = {}, {}, set(), 0
        for seed in args.seeds:
            lines = run(base + ["--seed", str(seed), "--trace", "0"])
            res = json.loads(lines[-1])
            failed += res["failed"]
            notes.update(l for l in lines if l.startswith(("latency_tail_ms is", "expand answers",
                                                            "checker self-test")))
            for metric, v in res["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            unscaled = json.loads(next(l for l in lines if l.startswith("raw: "))[5:])
            for metric, v in unscaled.items():
                raw.setdefault(metric, []).append(v)
        end_to_end = {}
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = quartiles(v)
            end_to_end[m["name"]] = {"unit": m["unit"], "median": statistics.median(v),
                                     "q1": q1, "q3": q3, "spread": spread(v),
                                     "raw_spread": spread(raw[m["name"]]),
                                     "bound": m["bound"], "values": v, "raw_values": raw[m["name"]]}
        lines = run(base + ["--seed", str(args.seeds[0]), "--trace", "1"])
        layers = json.loads(lines[-1])["metrics"]
        top = next(l for l in lines if l.startswith("largest self time:")).split(": ")[1]
        top = top.split(".")[0]
        result["workloads"][name] = {
            "why": w["why"], "failed": failed, "run_notes": sorted(notes),
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in layers.items()},
            "largest_self_time": top,
            "largest_self_time_as_expected": top == EXPECTED_TOP_LAYER[name],
        }
        print(name, {k: (round(v["spread"], 4), round(v["raw_spread"], 4))
                     for k, v in end_to_end.items()}, flush=True)
    sanity = subprocess.run([sys.executable, "perfbench/sanity.py"], cwd=ROOT,
                            capture_output=True, text=True)
    result["reference_points"] = json.loads(sanity.stdout)
    result["reference_points_as_published"] = sanity.returncode == 0
    result["predictions"] = PREDICTIONS
    result["notes"] = NOTES
    (HERE / "baseline.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
