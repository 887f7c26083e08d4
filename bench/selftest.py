"""Self-test of the benchmark at tiny sizes (a few seconds).

    python3 bench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
each run passes its gate and emits exactly the metrics that BENCHMARK.json
names, with their units.  Then it corrupts expected values and checks that
the gate fails and ``error_rate`` rises.  Exits 1 on the first problem.
"""

import copy
import json
import math
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def tiny_workloads() -> list:
    return [
        workloads.Survey("survey", 8, jobs=1),
        workloads.Survey("survey_par", 8, jobs=2),
        workloads.Solve(graph_names=("gnp24_0", "gnp24_3")),
        workloads.Construct(tree_sizes=(60,), corona_base=20, seven_cycle_k=7),
    ]


def require(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    require({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS), "workload names differ")
    expected = json.loads((BENCH / "expected.json").read_text())

    for trace in (0, 1):
        for workload in tiny_workloads():
            with tempfile.TemporaryDirectory() as tmp:
                spans = Path(tmp) / "spans.jsonl" if trace else None
                result, meta = run.run_workload(workload, 7, 0.2, bool(trace), expected, spans, setup_per_pass=1)
                if trace:
                    require(spans.stat().st_size > 0, f"{workload.name}: no spans written")
            label = f"{workload.name} trace={trace}"
            require(result["correct"] and result["failed"] == 0, f"{label}: gate failed at the seed")
            require(result["attempted"] >= 1 and meta["error_rate"] == 0, f"{label}: bad counts")
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            require(got == wanted[trace], f"{label}: metrics {sorted(got)} != {sorted(wanted[trace])}")
            for name, entry in result["metrics"].items():
                value = entry["value"]
                require(isinstance(value, (int, float)) and math.isfinite(value), f"{label}: {name} = {value}")
                if not trace:
                    require(value > 0, f"{label}: end-to-end metric {name} is {value}")
            for key in ("seed", "python", "nproc", "jobs", "commit"):
                require(key in meta, f"{label}: meta lacks {key}")
            print(f"selftest: {label}: {result['attempted']} operations, all correct")

    corrupted = copy.deepcopy(expected)
    corrupted["survey"]["8"] = "0" * 16
    corrupted["solve"]["gnp24_0/gamma_id"] += 1
    corrupted["solve"]["gnp24_3/gamma_tid"] = "IsolatedVertexError"
    for workload, failures in ((tiny_workloads()[0], workloads.A000055[8]), (tiny_workloads()[2], 2)):
        result, meta = run.run_workload(workload, 7, 0.0, False, corrupted, setup_per_pass=1)
        require(not result["correct"], f"{workload.name}: corrupted expectation passed the gate")
        require(result["failed"] == failures, f"{workload.name}: {result['failed']} failures, expected {failures}")
        require(meta["error_rate"] > 0, f"{workload.name}: error_rate stayed 0")
        print(f"selftest: {workload.name}: corrupted expectation fails {failures} operations, as it should")
    print("selftest: ok")


if __name__ == "__main__":
    main()
