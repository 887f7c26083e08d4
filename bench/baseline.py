"""Record the benchmark's baseline figures into ``bench/baseline.json``.

    python3 bench/baseline.py                      # every workload, 10 runs a set
    python3 bench/baseline.py --runs 5 --workloads solve --out /tmp/b.json

Runs, one at a time: a first set of untraced runs with seeds 1..R on each
workload, one traced run per workload (seed 1), then a second set with seeds
R+1..2R.  For each end-to-end metric it records the median, the quartiles
and the spread (interquartile range over median) of each set, each run's
value, and the second set's median over the first's.  The raw figures
behind the scaled timings (each run's median pass wall time and set-up time
as measured, and the reference slice's median time) are summarised the same
way.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"baseline: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": round(median, 6),
        "q1": round(q1, 6),
        "q3": round(q3, 6),
        "spread": round((q3 - q1) / median, 4),
        "runs": len(values),
        "values": [round(v, 6) for v in values],
    }


def raw_figures(meta: dict) -> dict:
    return {
        "raw_wall_s": statistics.median(meta["pass_walls_s"]),
        "raw_setup_s": meta["setup_raw_s"],
        "ref_slice_ms": meta["ref_slice_ms"],
    }


def set_summary(runs: list[tuple[dict, dict]]) -> dict:
    table = {}
    for name, entry in runs[0][1]["metrics"].items():
        table[name] = {"unit": entry["unit"], **summary([r["metrics"][name]["value"] for _, r in runs])}
    for name in raw_figures(runs[0][0]):
        table[name] = {"unit": "ms" if name.endswith("_ms") else "s", **summary([raw_figures(m)[name] for m, _ in runs])}
    return table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--out", type=Path, default=BENCH / "baseline.json")
    args = parser.parse_args()
    names = args.workloads.split(",")

    first = {w: [run(w, seed, args.seconds, 0) for seed in range(1, args.runs + 1)] for w in names}
    traced = {w: run(w, 1, args.seconds, 1) for w in names}
    second = {w: [run(w, seed, args.seconds, 0) for seed in range(args.runs + 1, 2 * args.runs + 1)] for w in names}

    out = {
        "commit": first[names[0]][0][0]["commit"],
        "hardware": "2 vCPUs of an Intel Xeon KVM guest on a shared host, Linux x86_64",
        "python": platform.python_version(),
        "end_to_end_runs": (
            f"python3 bench/run.py --workload W --seed S --seconds {args.seconds} --trace 0, one run at a time: "
            f"seeds 1-{args.runs} on each workload, then the traced runs, then seeds {args.runs + 1}-{2 * args.runs}"
        ),
        "per_layer_run": f"python3 bench/run.py --workload W --seed 1 --seconds {args.seconds} --trace 1",
        "workloads": {},
    }
    for w in names:
        runs = first[w] + second[w]
        a, b = set_summary(first[w]), set_summary(second[w])
        end_to_end = {}
        for name, stats in a.items():
            end_to_end[name] = {**stats, "second_set": {k: v for k, v in b[name].items() if k != "unit"}}
            end_to_end[name]["second_over_first"] = round(b[name]["median"] / stats["median"], 4)
        out["workloads"][w] = {
            "jobs": runs[0][0]["jobs"],
            "passes_per_run": sorted({m["passes"] for m, _ in runs}),
            "setup_samples_per_run": sorted({m["setup_samples"] for m, _ in runs}),
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "end_to_end": end_to_end,
            "per_layer": {
                name: {"value": round(entry["value"], 6), "unit": entry["unit"]}
                for name, entry in traced[w][1]["metrics"].items()
            },
        }
    args.out.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
