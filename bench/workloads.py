"""The benchmark's workloads: seeded inputs, one timed pass, and the correctness gate.

Each workload builds its inputs once (``build``), then runs timed passes over
them (``run_pass``).  The gate (``check``) runs after a pass, outside the timed
region, and compares outputs with values that do not depend on row order or
on which minimum code the solver happens to return.

An operation is one tree (survey workloads), one exact solve (``solve``) or
one graph taken through the construction pipeline (``construct``).
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import random
import time
from dataclasses import dataclass, field

#: Free trees on n vertices, OEIS A000055.
A000055 = {3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551, 13: 1301, 14: 3159}

#: Survey CSV columns that hold a bound's value (blank when inapplicable).
BOUND_COLUMNS = (
    "(n+2l-2)/2",
    "(3n+2l-1)/5",
    "n-s",
    "n-s+1",
    "(n+l)/2",
    "min[(n+l)/2;n-s]",
    "2n/3",
    "(5n+2l)/7",
    "3(n-1)/7",
    "(2n-s+3)/4",
    "(3n+l-s+1)/7",
)

#: Guarantee checks for the constructions: name -> (bound name, verifier).
CONSTRUCTIONS = {
    "parity_shift_code": ("(n+l)/2", "verify_identifying"),
    "support_complement_code": ("n-s", "verify_td_identifying"),
    "twin_free_bipartite_code": ("2n/3", "verify_identifying"),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Verdict:
    """What the gate found in one pass."""

    attempted: int = 0
    failed: int = 0
    code_vertices: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.errors.append(message)


@dataclass
class PassResult:
    """One timed pass: its wall time, each operation's latency, and what the
    gate found in its outputs.  A pass timed against reference slices also
    has its time at nominal host speed and the slices' times."""

    wall_s: float
    latencies: list[float]
    outputs: object
    verdict: Verdict | None = None
    norm_s: float | None = None
    refs: list[float] = field(default_factory=list)


def _relabel(idc, g, rng: random.Random):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return idc.from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def gnp(idc, n: int, p: float, seed: int):
    """Erdős–Rényi G(n, p), built here so the inputs do not depend on the library's generators."""
    rng = random.Random(seed)
    return idc.from_edge_list(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


# ---------------------------------------------------------------------------
# survey / survey_par


class RowSink:
    """In-memory CSV sink that notes when each line arrives.

    ``csv.writer`` hands every row to ``write`` in one call, so the arrival
    times are the moments each tree's row became available to a reader.
    """

    def __init__(self) -> None:
        self.chunks: list[str] = []
        self.times: list[float] = []

    def write(self, text: str) -> int:
        self.times.append(time.perf_counter())
        self.chunks.append(text)
        return len(text)


def survey_digests(csv_text: str) -> tuple[dict[int, tuple[int, str]], int]:
    """Per tree size: (row count, digest of the sorted invariant rows), and the
    sum of gamma_id over all rows.

    A row's key is (n, leaves, supports, gamma_id, bound values): invariants of
    the tree, so the digest survives a change of enumeration order or labels.
    """
    keys: dict[int, list[str]] = {}
    gamma_total = 0
    for row in csv.DictReader(io.StringIO(csv_text)):
        n = int(row["n"])
        fields = [row["n"], row["leaves"], row["supports"], row["gamma_id"]]
        fields.extend(row[name] for name in BOUND_COLUMNS)
        keys.setdefault(n, []).append(",".join(fields))
        gamma_total += int(row["gamma_id"])
    digests = {
        n: (len(rows), hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()[:16])
        for n, rows in keys.items()
    }
    return digests, gamma_total


class Survey:
    """``survey_trees(n_max, allow_large=True)`` into an in-memory CSV sink."""

    def __init__(self, name: str, n_max: int, jobs: int):
        self.name = name
        self.n_max = n_max
        self.jobs = jobs

    def build(self, idc, seed: int) -> None:
        # the survey is exhaustive: the seed selects nothing
        self.idc = idc

    def run_pass(self) -> PassResult:
        sink = RowSink()
        error = None
        t0 = time.perf_counter()
        try:
            self.idc.survey_trees(self.n_max, out=sink, jobs=self.jobs, allow_large=True)
        except Exception as exc:  # a violation or a defect; the gate reports it
            error = exc
        wall = time.perf_counter() - t0
        # times[0] is the header line
        return PassResult(wall, [t - t0 for t in sink.times[1:]], (sink, error))

    def check(self, outputs, expected: dict) -> Verdict:
        sink, error = outputs
        verdict = Verdict()
        sizes = range(3, self.n_max + 1)
        verdict.attempted = sum(A000055[n] for n in sizes)
        if error is not None:
            verdict.fail(verdict.attempted, f"survey raised {type(error).__name__}: {error}")
            return verdict
        try:
            digests, verdict.code_vertices = survey_digests("".join(sink.chunks))
        except (KeyError, ValueError) as exc:
            verdict.fail(verdict.attempted, f"survey CSV unreadable: {exc!r}")
            return verdict
        for n in sorted(set(sizes) | set(digests)):
            count, digest = digests.get(n, (0, ""))
            if n not in sizes:
                verdict.attempted += count
                verdict.fail(count, f"n={n}: {count} rows beyond n_max={self.n_max}")
            elif count != A000055[n]:
                verdict.fail(A000055[n], f"n={n}: {count} trees, A000055 gives {A000055[n]}")
            elif digest != expected["survey"][str(n)]:
                verdict.fail(count, f"n={n}: row digest {digest} != seed digest {expected['survey'][str(n)]}")
        return verdict


# ---------------------------------------------------------------------------
# solve

#: Random trees given to the exact solver: random_tree(n, s).
SOLVE_TREES = tuple((n, s) for n in (40, 60) for s in (0, 1, 2))
#: Seeds of the G(24, 0.2) graphs given to the exact solver.
SOLVE_GNP_SEEDS = tuple(range(8))


def solve_instances(idc) -> dict:
    graphs = {f"tree{n}_{s}": idc.random_tree(n, s) for n, s in SOLVE_TREES}
    graphs["seven_cycle_star3"] = idc.families.seven_cycle_star(3)
    graphs.update((f"gnp24_{s}", gnp(idc, 24, 0.2, s)) for s in SOLVE_GNP_SEEDS)
    return graphs


class Solve:
    """``gamma_id`` and ``gamma_tid`` on a fixed set of graphs.

    The graphs are fixed so that node counts repeat exactly and every value
    can be compared with the seed's; the workload seed sets the order in
    which the solves run.
    """

    name = "solve"
    jobs = 1

    def __init__(self, graph_names: tuple[str, ...] | None = None):
        self.graph_names = graph_names

    def build(self, idc, seed: int) -> None:
        self.idc = idc
        # the gate's witness check is untimed and must stay out of the trace
        self.verifiers = {"gamma_id": idc.verify_identifying, "gamma_tid": idc.verify_td_identifying}
        graphs = solve_instances(idc)
        names = self.graph_names or tuple(graphs)
        self.ops = [(f"{name}/{fn}", graphs[name], fn) for name in names for fn in ("gamma_id", "gamma_tid")]
        random.Random(seed).shuffle(self.ops)

    def run_pass(self) -> PassResult:
        latencies, results = [], []
        for _, g, fn in self.ops:
            solve = getattr(self.idc, fn)
            t0 = time.perf_counter()
            try:
                result = solve(g)
            except Exception as exc:  # expected rejections and defects; the gate tells them apart
                result = exc
            latencies.append(time.perf_counter() - t0)
            results.append(result)
        return PassResult(sum(latencies), latencies, results)

    def check(self, outputs, expected: dict) -> Verdict:
        verdict = Verdict(attempted=len(self.ops))
        for (op, g, fn), result in zip(self.ops, outputs):
            want = expected["solve"][op]
            if isinstance(result, Exception):
                if type(result).__name__ != want:
                    verdict.fail(1, f"{op}: raised {type(result).__name__}: {result}, expected {want}")
                continue
            verdict.code_vertices += result.value
            if result.value != want:
                verdict.fail(1, f"{op}: value {result.value}, seed value {want}")
            elif not result.proven_optimal:
                verdict.fail(1, f"{op}: not proven optimal within the default budget")
            elif len(result.witness) != result.value:
                verdict.fail(1, f"{op}: witness size {len(result.witness)} != value {result.value}")
            elif not self.verifiers[fn](g, result.witness).is_valid:
                verdict.fail(1, f"{op}: witness does not verify")
        return verdict


# ---------------------------------------------------------------------------
# construct


@dataclass
class ConstructInput:
    name: str
    text: str
    n: int
    guarantees: dict[str, int]  # bound name -> value, computed here from degrees
    methods: tuple[str, ...]


def _guarantees(g) -> dict[str, int]:
    leaves = {v for v in range(g.n) if g.degree(v) == 1}
    supports = {v for v in range(g.n) if any(w in leaves for w in g.adj[v])}
    return {
        "(n+l)/2": (g.n + len(leaves)) // 2,
        "n-s": g.n - len(supports),
        "2n/3": (2 * g.n) // 3,
    }


def _tree_twin_free(g) -> bool:
    # in a tree on >= 3 vertices the only twins are leaves sharing a support
    return all(sum(g.degree(w) == 1 for w in g.adj[v]) <= 1 for v in range(g.n))


class Construct:
    """Edge-list text -> parse -> evaluate_bounds -> constructions -> verify.

    The inputs are random trees, a 2-corona of a random tree and the star of
    7-cycles, each with a seeded vertex relabelling.  The constructions run
    are those whose guarantee applies to the input's class.
    """

    name = "construct"
    jobs = 1

    def __init__(self, tree_sizes=(1000, 2000), corona_base=500, seven_cycle_k=125):
        self.tree_sizes = tree_sizes
        self.corona_base = corona_base
        self.seven_cycle_k = seven_cycle_k

    def build(self, idc, seed: int) -> None:
        self.idc = idc
        rng = random.Random(seed)
        tree_methods = ("parity_shift_code", "support_complement_code")
        specs = []
        for n in self.tree_sizes:
            t = idc.random_tree(n, rng.randrange(2**32))
            methods = tree_methods + (("twin_free_bipartite_code",) if _tree_twin_free(t) else ())
            specs.append((f"tree{n}", t, methods))
        base = idc.random_tree(self.corona_base, rng.randrange(2**32))
        specs.append((f"corona2_{self.corona_base}", idc.corona(base, 2), tuple(CONSTRUCTIONS)))
        specs.append(
            (f"seven_cycle_star{self.seven_cycle_k}", idc.families.seven_cycle_star(self.seven_cycle_k), ("support_complement_code",))
        )
        self.inputs = []
        for name, g, methods in specs:
            g = _relabel(idc, g, rng)
            self.inputs.append(ConstructInput(name, idc.format_edge_list(g), g.n, _guarantees(g), methods))

    def run_pass(self) -> PassResult:
        idc = self.idc
        latencies, outputs = [], []
        for item in self.inputs:
            t0 = time.perf_counter()
            try:
                g = idc.parse_edge_list(item.text)
                report = idc.evaluate_bounds(g)
                codes = {}
                for method in item.methods:
                    code = getattr(idc, method)(g)
                    codes[method] = code[0] if method == "parity_shift_code" else code
                certs = {
                    method: getattr(idc, CONSTRUCTIONS[method][1])(g, code)
                    for method, code in codes.items()
                }
                result = (g, report, codes, certs)
            except Exception as exc:  # a defect; the gate reports it
                result = exc
            latencies.append(time.perf_counter() - t0)
            outputs.append(result)
        return PassResult(sum(latencies), latencies, outputs)

    def check(self, outputs, expected: dict) -> Verdict:
        verdict = Verdict(attempted=len(self.inputs))
        for item, result in zip(self.inputs, outputs):
            problems = self._problems(item, result)
            if isinstance(result, tuple):
                verdict.code_vertices += sum(len(code) for code in result[2].values())
            if problems:
                verdict.fail(1, f"{item.name}: " + "; ".join(problems))
        return verdict

    @staticmethod
    def _problems(item: ConstructInput, result) -> list[str]:
        if isinstance(result, Exception):
            return [f"raised {type(result).__name__}: {result}"]
        g, report, codes, certs = result
        if g.n != item.n:
            return [f"parsed {g.n} vertices, expected {item.n}"]
        problems = []
        for method, (bound, _) in CONSTRUCTIONS.items():
            entry = report.entry(bound)
            applies = method in item.methods
            if entry.applicable != applies:
                problems.append(f"bound {bound} applicable={entry.applicable}, expected {applies}")
            elif applies and entry.value != item.guarantees[bound]:
                problems.append(f"bound {bound} = {entry.value}, expected {item.guarantees[bound]}")
        for method, code in codes.items():
            bound = CONSTRUCTIONS[method][0]
            limit = item.guarantees[bound]
            if not certs[method].is_valid:
                problems.append(f"{method} code fails verification ({certs[method].verdict})")
            if bound == "n-s" and len(code) != limit:
                problems.append(f"{method} size {len(code)} != n-s = {limit}")
            elif len(code) > limit:
                problems.append(f"{method} size {len(code)} > {bound} = {limit}")
        return problems


def make(name: str):
    """The full-size workload of this name."""
    if name == "survey":
        return Survey("survey", 14, jobs=1)
    if name == "survey_par":
        return Survey("survey_par", 14, jobs=nproc())
    if name == "solve":
        return Solve()
    if name == "construct":
        return Construct()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("survey", "survey_par", "solve", "construct")
