"""idcodes benchmark: one workload per process, end-to-end or per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload survey --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all      # every workload, one table

A run builds the workload's seeded inputs, then repeats timed passes over
them for at most ``--seconds`` seconds.  Before each pass an untraced run
times the set-up a few times (``setup_s`` is the median of all samples):
each sample is a fresh interpreter that imports ``idcodes`` from ``src/`` and
builds the inputs.  Untraced timings are scaled to a nominal host speed by
reference slices timed next to them (see ``hostspeed``).  Every pass goes
through the workload's correctness gate.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it spends half the time on untraced
passes and the rest on traced ones, and reports per-layer metrics from the
spans.  The last line of standard output is the result object; the line
before it records the seed, Python version, CPU count, jobs and git commit.
The exit code is 0 when every output passed the gate, 1 when some did not,
and 2 when the library source is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import workloads
from hostspeed import Sampler, reference_slice, scaled
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES_PER_PASS = 8
DEFAULT_SECONDS = 25
SHOWN_ERRORS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "norm_pass_s": "s",
    "peak_rss_mb": "MB",
    "code_vertices": "count",
}

PER_LAYER_UNITS = {
    "families.all_trees_s": "s",
    "families.all_trees_s.n12": "s",
    "families.all_trees_s.n13": "s",
    "families.all_trees_s.n14": "s",
    "families.trees": "count",
    "families.canonical_forms": "count",
    "families.yield_ratio": "ratio",
    "families.is_2corona_s": "s",
    "graph.profile_s": "s",
    "graph.profile_calls": "count",
    "graph.girth_s": "s",
    "graph.parse_s": "s",
    "bounds.evaluate_s": "s",
    "bounds.calls": "count",
    "solver.calls": "count",
    "solver.rejects": "count",
    "solver.solve_s": "s",
    "solver.search_s": "s",
    "solver.masks_s": "s",
    "solver.nodes": "count",
    "solver.proven_ratio": "ratio",
    "identify.verify_s": "s",
    "identify.calls": "count",
    "construct.self_s": "s",
    "construct.calls": "count",
    "survey.self_s": "s",
    "survey.worker_rss_mb": "MB",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "untraced.wall_s": "s",
    "untraced.op_latency_geomean_ms": "ms",
}


def setup_times(name: str, seed: int, samples: int) -> list[tuple[float, float]]:
    """Set-up time of ``samples`` fresh interpreters, each from its spawn until
    it has imported ``idcodes`` and built the workload's inputs: the wall time
    as measured, and the interpreter's CPU time at nominal host speed, scaled
    by its own reference slices."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-sample"]
    times = []
    for _ in range(samples):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        ready, cpu, ref = map(float, proc.stdout.split()[-3:])
        times.append((ready - t0, scaled(cpu, ref)))
    return times


def setup_sample(name: str, seed: int) -> None:
    """One set-up sample, in its own interpreter: print when the inputs were
    ready, the process's CPU time until then (from its spawn, with the exec),
    and the median of three reference slices timed right after, on the core
    that did the set-up (the parent's core may run at another speed)."""
    workloads.make(name).build(importlib.import_module("idcodes"), seed)
    ready, cpu = time.clock_gettime(time.CLOCK_MONOTONIC), time.process_time()
    print(repr(ready), repr(cpu), repr(statistics.median(reference_slice() for _ in range(3))))


def instrument(tracer: Tracer, idc) -> None:
    """Wrap the public functions at the names their callers look up."""

    def solve_info(result):
        return result.nodes_explored, result.time, result.proven_optimal

    tracer.wrap_generator(idc.survey, "all_trees", "families.all_trees")
    tracer.wrap(idc.survey, "evaluate_bounds", "bounds.evaluate_bounds")
    tracer.wrap(idc.survey, "is_2corona", "families.is_2corona")
    tracer.wrap(idc.families, "tree_canonical_form", "families.tree_canonical_form")
    tracer.wrap(idc.bounds, "profile", "graph.profile")
    tracer.wrap(idc.bounds, "gamma_id", "solver.gamma_id", keep=solve_info)
    tracer.wrap(idc.construct, "profile", "graph.profile")
    tracer.wrap(idc.construct, "parity_shift_code", "construct.parity_shift_code")
    tracer.wrap(idc.construct, "support_complement_code", "construct.support_complement_code")
    tracer.wrap(idc.graph, "girth", "graph.girth")
    # the benchmark's own call sites, which look the names up on the package
    tracer.wrap(idc, "survey_trees", "survey.survey_trees")
    tracer.wrap(idc, "gamma_id", "solver.gamma_id", keep=solve_info)
    tracer.wrap(idc, "gamma_tid", "solver.gamma_tid", keep=solve_info)
    tracer.wrap(idc, "parse_edge_list", "graph.parse_edge_list")
    tracer.wrap(idc, "evaluate_bounds", "bounds.evaluate_bounds")
    for name in workloads.CONSTRUCTIONS:
        tracer.wrap(idc, name, f"construct.{name}")
    tracer.wrap(idc, "verify_identifying", "identify.verify_identifying")
    tracer.wrap(idc, "verify_td_identifying", "identify.verify_td_identifying")


def run_passes(workload, expected: dict, budget_s: float, before_pass=None, sampled=False) -> list[workloads.PassResult]:
    """Timed passes, each checked, until another one would overrun ``budget_s``.

    ``before_pass`` runs before each pass; its time does not count against
    the budget.  A ``sampled`` pass runs under a ``Sampler``, which sets its
    ``norm_s``.
    """
    passes = []
    spent = longest = 0.0
    while True:
        if before_pass is not None:
            before_pass()
        t0 = time.perf_counter()
        if sampled:
            # a pool's workers run while the main thread waits: time it in wall time
            with Sampler(time.thread_time if workload.jobs == 1 else time.perf_counter) as sampler:
                result = workload.run_pass()
            result.wall_s, result.norm_s, result.refs = sampler.raw_s, sampler.norm_s, sampler.refs
        else:
            result = workload.run_pass()
        result.verdict = workload.check(result.outputs, expected)
        result.outputs = None
        passes.append(result)
        elapsed = time.perf_counter() - t0
        spent += elapsed
        longest = max(longest, elapsed)
        if spent + longest > budget_s:
            return passes


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(setup: list[tuple[float, float]], passes: list[workloads.PassResult]) -> dict:
    return {
        "setup_s": statistics.median(norm for _, norm in setup),
        "norm_pass_s": statistics.median(p.norm_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "code_vertices": statistics.median(p.verdict.code_vertices for p in passes),
    }


def per_layer(workload, spans, traced: list[workloads.PassResult], untraced: list[workloads.PassResult]) -> dict:
    """Per-pass layer totals from the traced passes' spans."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def layer(prefix: str) -> list:
        return [s for name, group in by_name.items() if name.startswith(prefix) for s in group]

    def duration(group) -> float:
        return sum(s.duration for s in group)

    def self_time(group) -> float:
        return sum(s.self_s for s in group)

    passes = len(traced)
    enumeration = by_name["families.all_trees"]
    trees = sum(1 for s in enumeration if s.info[1])
    canonical = len(by_name["families.tree_canonical_form"])
    solves = layer("solver.")
    rejects = [s for s in solves if isinstance(s.info, Exception)]
    solved = [s.info for s in solves if not isinstance(s.info, Exception)]
    main = threading.main_thread().ident
    top_level = sum(s.duration for s in spans if s.parent is None and s.thread == main)
    traced_wall = sum(p.wall_s for p in traced)
    totals = {
        "families.all_trees_s": duration(enumeration),
        "families.trees": trees,
        "families.canonical_forms": canonical,
        "families.is_2corona_s": duration(by_name["families.is_2corona"]),
        "graph.profile_s": self_time(by_name["graph.profile"]),
        "graph.profile_calls": len(by_name["graph.profile"]),
        "graph.girth_s": duration(by_name["graph.girth"]),
        "graph.parse_s": duration(by_name["graph.parse_edge_list"]),
        "bounds.evaluate_s": self_time(by_name["bounds.evaluate_bounds"]),
        "bounds.calls": len(by_name["bounds.evaluate_bounds"]),
        "solver.calls": len(solves),
        "solver.rejects": len(rejects),
        "solver.solve_s": duration(solves),
        "solver.search_s": sum(info[1] for info in solved),
        "solver.masks_s": duration(solves) - sum(info[1] for info in solved),
        "solver.nodes": sum(info[0] for info in solved),
        "identify.verify_s": duration(layer("identify.")),
        "identify.calls": len(layer("identify.")),
        "construct.self_s": self_time(layer("construct.")),
        "construct.calls": len(layer("construct.")),
        "survey.self_s": self_time(by_name["survey.survey_trees"]),
        "trace.unattributed_s": traced_wall - top_level,
    }
    for n in (12, 13, 14):
        totals[f"families.all_trees_s.n{n}"] = duration(s for s in enumeration if s.info[0] == n)
    metrics = {name: value / passes for name, value in totals.items()}
    metrics["families.yield_ratio"] = trees / canonical if canonical else 0.0
    metrics["solver.proven_ratio"] = sum(info[2] for info in solved) / len(solved) if solved else 0.0
    # without pool workers the children's figure is the launcher's, not ours
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics["survey.worker_rss_mb"] = children if workload.jobs > 1 else 0.0
    metrics["untraced.wall_s"] = statistics.median(p.wall_s for p in untraced)
    metrics["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - statistics.median(
        p.wall_s for p in untraced
    )
    # whole passes and operations, so measured on the untraced passes
    latencies = [t for p in untraced for t in p.latencies]
    metrics["untraced.op_latency_geomean_ms"] = 1000 * geomean(latencies) if latencies else 0.0
    return metrics


def run_workload(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    expected: dict,
    spans_path: Path | None = None,
    setup_per_pass: int = SETUP_SAMPLES_PER_PASS,
):
    """Set up, measure and check one workload.  Returns (result, meta).

    An untraced run takes its set-up samples before each pass, so that they
    see the host at the same moments as the passes do.  A traced run takes
    none: it reports no ``setup_s``, and its children's peak RSS must be the
    pool workers' alone.
    """
    setup = []

    def sample_setup():
        setup.extend(setup_times(workload.name, seed, setup_per_pass))

    idc = importlib.import_module("idcodes")
    workload.build(idc, seed)
    start = time.perf_counter()
    traced = []
    if trace:
        untraced = run_passes(workload, expected, seconds / 2)
        tracer = Tracer()
        instrument(tracer, idc)
        try:
            traced = run_passes(workload, expected, seconds - (time.perf_counter() - start))
        finally:
            tracer.restore()
        values = per_layer(workload, tracer.spans, traced, untraced)
        units = PER_LAYER_UNITS
        if spans_path is not None:
            write_spans(tracer.spans, spans_path)
    else:
        untraced = run_passes(workload, expected, seconds, sample_setup, sampled=True)
        values = end_to_end(setup, untraced)
        units = END_TO_END_UNITS
    verdicts = [p.verdict for p in untraced + traced]
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    for message in [m for v in verdicts for m in v.errors][:SHOWN_ERRORS]:
        print(f"gate: {message}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    meta = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": workloads.nproc(),
        "jobs": workload.jobs,
        "commit": git_commit(),
        "passes": len(untraced) + len(traced),
        "pass_walls_s": [round(p.wall_s, 4) for p in untraced + traced],
        "pass_norm_s": [round(p.norm_s, 4) for p in untraced if p.norm_s is not None],
        "traced_passes": len(traced),
        "ops_per_pass": len(untraced[0].latencies),
        "setup_samples": len(setup),
        "setup_raw_s": statistics.median(raw for raw, _ in setup) if setup else None,
        "ref_slice_ms": 1000 * statistics.median(r for p in untraced for r in p.refs) if not trace else None,
        "error_rate": failed / attempted,
    }
    return result, meta


def write_spans(spans, path: Path) -> None:
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w") as out:
        for s in spans:
            parent = index[id(s.parent)] if s.parent is not None else None
            out.write(json.dumps({"name": s.name, "start": s.start, "end": s.end, "parent": parent, "thread": s.thread}) + "\n")


def git_commit() -> str | None:
    """The checkout's commit, read from ``.git`` (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    ok = True
    print(f"{'workload':<11} {'metric':<24} {'value':>14}  unit")
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"{name:<11} run failed with exit code {proc.returncode}")
            ok = False
            continue
        meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
        ok = ok and result["correct"]
        for metric, entry in result["metrics"].items():
            print(f"{name:<11} {metric:<24} {entry['value']:>14.6g}  {entry['unit']}")
        rate = f"{result['failed']}/{result['attempted']}"
        print(f"{name:<11} {'error_rate':<24} {meta['error_rate']:>14.6g}  failed/attempted = {rate}")
        print(
            f"{name:<11} seed={meta['seed']} python={meta['python']} nproc={meta['nproc']} "
            f"jobs={meta['jobs']} passes={meta['passes']} commit={meta['commit']}"
        )
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="with --trace 1, write every span here as JSON lines")
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    source = ROOT / "src"
    if not (source / "idcodes" / "__init__.py").is_file():
        print(f"bench: no idcodes source under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    if args.setup_sample:
        setup_sample(args.workload, args.seed)
        return 0
    expected = json.loads((BENCH / "expected.json").read_text())
    result, meta = run_workload(
        workloads.make(args.workload), args.seed, args.seconds, bool(args.trace), expected, args.spans
    )
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
