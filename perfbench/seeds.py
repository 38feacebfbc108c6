"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/seeds.py --workloads markov_dense,rate_sweep --seeds 1-10
    python3 perfbench/seeds.py --seeds 1-10 --record "seed code"

For each workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to the bound in BENCHMARK.json.  ``--record LABEL`` also makes one
traced run per workload and appends both to ``perfbench/trajectory.json``,
the history later changes compare against.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(HERE, "trajectory.json")


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    entry = {"label": args.record, "date": datetime.date.today().isoformat(),
             "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        lines = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        bad = [s for s, line in zip(args.seeds, lines) if not line["correct"]]
        print(f"{workload}: {len(lines)} runs, incorrect seeds {bad or 'none'}")
        table = {}
        for name in bounds:
            table[name] = summarize([line["metrics"][name]["value"] for line in lines])
            row = table[name]
            print(f"  {name:12s} median {row['median']:.6g}  q1 {row['q1']:.6g}  "
                  f"q3 {row['q3']:.6g}  spread {row['spread']:.4f}  "
                  f"bound {bounds[name]}  spread/bound {row['spread'] / bounds[name]:.2f}")
        result = {"end_to_end": table, "incorrect_seeds": bad}
        if args.record:
            traced = run_once(workload, args.seeds[0], args.seconds, 1)
            result["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            result["per_layer_seed"] = args.seeds[0]
            with open(os.path.join(
                ROOT, ".perfbench_runs", f"{workload}-seed{args.seeds[0]}-trace1", "result.json"
            )) as fh:
                entry["provenance"] = json.load(fh)["provenance"]
        entry["workloads"][workload] = result
    if args.record:
        history = []
        if os.path.exists(TRAJECTORY):
            with open(TRAJECTORY) as fh:
                history = json.load(fh)
        history.append(entry)
        with open(TRAJECTORY, "w") as fh:
            json.dump(history, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
