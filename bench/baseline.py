"""Run the benchmark on several seeds per workload and summarise it.

    python3 bench/baseline.py --seeds 1-10 [--out FILE]

For each workload of BENCHMARK.json: one run per seed (untraced), then
one traced run on the first seed.  Prints, per end-to-end metric, the
median, the quartiles and their distance as a share of the median (the
spread that BENCHMARK.json's bounds must cover), and the traced run's
per-layer self-time shares.  --out writes the same as JSON, with every run's
metrics and outputs_sha256.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds, trace):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    record = next(json.loads(l)["record"] for l in lines if l.startswith('{"record"'))
    shares = [l.strip() for l in lines[lines.index(next(
        (l for l in lines if l.startswith("self-time shares")), lines[-1])):-2]]
    return json.loads(lines[-1]), record, shares


def spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q[0], "q3": q[2], "spread": (q[2] - q[0]) / med if med else 0.0}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out")
    args = p.parse_args()
    seeds = parse_seeds(args.seeds)
    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            result, record, _ = one_run(wl, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "outputs_sha256": record["outputs_sha256"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{wl} seed {seed}: correct {result['correct']} "
                  f"attempted {result['attempted']} failed {result['failed']}", flush=True)
        traced, record, shares = one_run(wl, seeds[0], spec["run_seconds"], 1)
        stats = {m["name"]: spread([r["metrics"][m["name"]] for r in runs])
                 for m in spec["end_to_end"]}
        summary["workloads"][wl] = {
            "record": {k: record[k] for k in ("python", "nproc", "git_sha")},
            "end_to_end": stats, "runs": runs,
            "traced": {"seed": seeds[0], "correct": traced["correct"],
                       "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
                       "self_time_shares": shares}}
        for name, s in stats.items():
            bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == name)
            print(f"  {name:<16} median {s['median']:<12.5g} q1 {s['q1']:<12.5g} "
                  f"q3 {s['q3']:<12.5g} spread {s['spread']:.4f} (bound {bound})")
        print("\n".join("  " + l for l in shares), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
