"""Exhaustive tree surveys: certify every bound on every tree up to a size.

One row is emitted per tree, in the canonical enumeration order.  Any tree
violating an applicable bound aborts the survey with its edge list; this is
the primary falsification channel for the bound suite.  A tree whose exact
solve runs out of budget aborts it too, with a distinct error.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from multiprocessing import Pool
from typing import IO, Iterable

from . import bounds as bnd
from .bounds import BoundReport, evaluate_bounds
from .families import all_trees, is_2corona
from .graph import Graph, format_edge_list
from .solver import DEFAULT_BUDGET

SURVEY_MAX_DEFAULT = 12
SURVEY_MAX_OPT_IN = 14

CSV_COLUMNS = (
    "index",
    "n",
    "edges",
    "leaves",
    "supports",
    "girth",
    "gamma_id",
    *bnd.UPPER_NAMES,
    *bnd.LOWER_NAMES,
    f"tight_{bnd.TREE_2L}",
    f"tight_{bnd.HALF_LEAF}",
    "two_corona",
)


class BoundViolation(AssertionError):
    """A certified bound failed on a concrete tree (edge list included)."""

    def __init__(self, message: str, tree: Graph):
        super().__init__(message + "\noffending tree:\n" + format_edge_list(tree))
        self.tree = tree


class SurveyBudgetError(RuntimeError):
    """The exact solve ran out of its node budget on a concrete tree."""

    def __init__(self, tree: Graph):
        super().__init__(
            "exact solve exceeded the node budget on tree:\n" + format_edge_list(tree)
        )
        self.tree = tree


@dataclass(frozen=True)
class SurveySummary:
    n_max: int
    trees_checked: int
    violations: int  # always 0: a violation aborts instead
    tight_half_leaf: int
    tight_tree_2l: int
    two_coronas: int

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "trees_checked": self.trees_checked,
            "violations": self.violations,
            "tight_(n+l)/2": self.tight_half_leaf,
            "tight_(n+2l-2)/2": self.tight_tree_2l,
            "two_coronas": self.two_coronas,
        }


def _survey_one(args: tuple[Graph, int]) -> tuple[Graph, BoundReport, bool]:
    tree, budget = args
    report = evaluate_bounds(tree, with_exact=True, budget=budget)
    return tree, report, is_2corona(tree) is not None


def _check_tree(tree: Graph, report: BoundReport, two_corona: bool) -> None:
    """Assert every applicable bound and the 2n/3 extremal equivalence."""
    gamma = report.exact
    if report.exact_status == bnd.EXACT_BUDGET_EXCEEDED:
        raise SurveyBudgetError(tree)
    if gamma is None:
        raise BoundViolation(
            f"exact solve unavailable ({report.exact_status})", tree
        )
    for entry in report.bounds:
        if not entry.applicable:
            continue
        if entry.kind == "upper" and gamma > entry.value:
            raise BoundViolation(
                f"upper bound {entry.name} = {entry.value} violated by gamma_id = {gamma}",
                tree,
            )
        if entry.kind == "lower" and gamma < entry.value:
            raise BoundViolation(
                f"lower bound {entry.name} = {entry.value} violated by gamma_id = {gamma}",
                tree,
            )
    prof = report.profile
    n = tree.n
    is_p4 = n == 4 and prof.leaf_count == 2
    if prof.twin_free and not is_p4:
        attains = (n % 3 == 0) and gamma == (2 * n) // 3
        if attains != two_corona:
            raise BoundViolation(
                f"2n/3 extremal equivalence failed: gamma_id={gamma}, "
                f"two_corona={two_corona}",
                tree,
            )


def _row(index: int, tree: Graph, report: BoundReport, two_corona: bool) -> dict:
    prof = report.profile
    row: dict[str, object] = {
        "index": index,
        "n": tree.n,
        "edges": ";".join(f"{u}-{v}" for u, v in tree.edges()),
        "leaves": prof.leaf_count,
        "supports": prof.support_count,
        "girth": "inf",  # trees only
        "gamma_id": report.exact,
    }
    for entry in report.bounds:
        row[entry.name] = entry.value if entry.applicable else ""
    row[f"tight_{bnd.TREE_2L}"] = _tight_flag(report, bnd.TREE_2L)
    row[f"tight_{bnd.HALF_LEAF}"] = _tight_flag(report, bnd.HALF_LEAF)
    row["two_corona"] = int(two_corona)
    return row


def _tight_flag(report: BoundReport, name: str) -> object:
    entry = report.entry(name)
    if not entry.applicable or entry.tight is None:
        return ""
    return int(entry.tight)


def survey_trees(
    n_max: int,
    out: IO[str] | None = None,
    jobs: int = 1,
    budget: int = DEFAULT_BUDGET,
    allow_large: bool = False,
) -> SurveySummary:
    """Survey every tree with 3 <= n <= n_max against all applicable bounds.

    Writes one CSV row per tree to ``out`` (when given) and returns a
    summary.  Sizes 13 and 14 must be opted into with ``allow_large``.
    With ``jobs > 1``, trees are processed by a worker pool; rows are still
    emitted in canonical order.  Raises :class:`BoundViolation` on a failed
    bound and :class:`SurveyBudgetError` when an exact solve runs out of
    ``budget``.
    """
    limit = SURVEY_MAX_OPT_IN if allow_large else SURVEY_MAX_DEFAULT
    if not (3 <= n_max <= limit):
        raise ValueError(
            f"n_max must be in 3..{limit}"
            + ("" if allow_large else " (13-14 need allow_large=True)")
        )
    writer = None
    if out is not None:
        writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS)
        writer.writeheader()

    tasks = (
        (tree, budget)
        for n in range(3, n_max + 1)
        for tree in all_trees(n)
    )
    checked = 0
    tight_half = 0
    tight_2l = 0
    coronas = 0
    results: Iterable[tuple[Graph, BoundReport, bool]]
    if jobs > 1:
        with Pool(jobs) as pool:
            results = list(pool.imap(_survey_one, tasks, chunksize=16))
    else:
        results = map(_survey_one, tasks)
    for index, (tree, report, two_corona) in enumerate(results):
        _check_tree(tree, report, two_corona)
        if writer is not None:
            writer.writerow(_row(index, tree, report, two_corona))
        checked += 1
        tight_half += _tight_flag(report, bnd.HALF_LEAF) == 1
        tight_2l += _tight_flag(report, bnd.TREE_2L) == 1
        coronas += two_corona
    return SurveySummary(
        n_max=n_max,
        trees_checked=checked,
        violations=0,
        tight_half_leaf=tight_half,
        tight_tree_2l=tight_2l,
        two_coronas=coronas,
    )
