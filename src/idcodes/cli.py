"""Command-line interface.

Exit codes: 0 success (and code Valid for ``verify``); 1 verification failed
or a survey found a violation; 2 construction/solver precondition violated;
3 parse or parameter error; 4 solver budget exceeded (also during a survey).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import construct, families
from .bounds import EXACT_BUDGET_EXCEEDED, evaluate_bounds
from .graph import Graph, GraphError, format_edge_list, load_graph
from .identify import CodeCertificate, verify_identifying, verify_td_identifying
from .solver import (
    DEFAULT_BUDGET,
    IsolatedVertexError,
    NotIdentifiableError,
    gamma_id,
    gamma_tid,
)
from .survey import BoundViolation, SurveyBudgetError, survey_trees

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PRECONDITION = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4

BUDGET_ENV = "IDCODE_BUDGET"


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _cert_dict(cert: CodeCertificate) -> dict:
    return {
        "code": sorted(cert.code),
        "size": len(cert.code),
        "verdict": cert.verdict,
        "witness": list(cert.witness) if cert.witness is not None else None,
        "iset_table": [sorted(s) for s in cert.iset_table],
    }


def _parse_code(text: str) -> frozenset[int]:
    text = text.strip()
    if not text:
        return frozenset()
    try:
        return frozenset(int(part) for part in text.split(","))
    except ValueError as exc:
        raise GraphError(f"bad code list {text!r}; expected comma-separated ids") from exc


def _budget(args: argparse.Namespace) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get(BUDGET_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise GraphError(f"bad {BUDGET_ENV} value {env!r}") from exc
    return DEFAULT_BUDGET


def _cmd_verify(args: argparse.Namespace) -> int:
    g = load_graph(args.file)
    code = _parse_code(args.code)
    bad = sorted(v for v in code if not (0 <= v < g.n))
    if bad:
        raise GraphError(f"code vertices out of range 0..{g.n - 1}: {bad}")
    verifier = verify_td_identifying if args.total else verify_identifying
    cert = verifier(g, code)
    _emit({"command": "verify", "n": g.n, "total": args.total, **_cert_dict(cert)})
    return EXIT_OK if cert.is_valid else EXIT_INVALID


def _cmd_solve(args: argparse.Namespace) -> int:
    g = load_graph(args.file)
    solve = gamma_tid if args.total else gamma_id
    result = solve(g, budget=_budget(args))
    _emit(
        {
            "command": "solve",
            "n": g.n,
            "total": args.total,
            "value": result.value,
            "witness": sorted(result.witness),
            "nodes_explored": result.nodes_explored,
            "time": result.time,
            "proven_optimal": result.proven_optimal,
        }
    )
    return EXIT_OK if result.proven_optimal else EXIT_BUDGET


def _trace_dict(trace: construct.ShiftTrace) -> dict:
    return {
        "root": trace.root,
        "parity": trace.parity,
        "base_code": sorted(trace.base_code),
        "shifts": [list(s) for s in trace.shifts],
        "final_code": sorted(trace.final_code),
    }


def _cmd_construct(args: argparse.Namespace) -> int:
    g = load_graph(args.file)
    traces = None
    if args.method == "parity-shift":
        code, (trace_e, trace_o) = construct.parity_shift_code(g)
        traces = [_trace_dict(trace_e), _trace_dict(trace_o)]
    elif args.method == "support-complement":
        code = construct.support_complement_code(g)
    else:  # auto: best applicable construction
        candidates = []
        errors = []
        for name, builder in (
            ("parity-shift", lambda: construct.parity_shift_code(g)[0]),
            ("support-complement", lambda: construct.support_complement_code(g)),
        ):
            try:
                candidates.append((name, builder()))
            except construct.PreconditionError as exc:
                errors.append(f"{name}: {exc}")
        if not candidates:
            raise construct.PreconditionError(
                "no_method", "no construction applies: " + "; ".join(errors)
            )
        candidates.sort(key=lambda item: len(item[1]))
        _, code = candidates[0]
    cert = verify_identifying(g, code)
    payload = {
        "command": "construct",
        "method": args.method,
        "n": g.n,
        **_cert_dict(cert),
    }
    if traces is not None:
        payload["traces"] = traces
    _emit(payload)
    return EXIT_OK if cert.is_valid else EXIT_INVALID


def _cmd_gen(args: argparse.Namespace) -> int:
    inner = load_graph(args.inner) if args.inner else None
    try:
        spec = families.FamilySpec(
            family=args.family, params=tuple(args.params), inner=inner
        )
        g = families.gen(spec)
    except ValueError as exc:
        raise GraphError(str(exc)) from exc
    text = format_edge_list(g)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    g = load_graph(args.file)
    report = evaluate_bounds(g, with_exact=args.exact, budget=_budget(args))
    _emit({"command": "bounds", **report.to_json_dict()})
    if args.exact and report.exact_status == EXACT_BUDGET_EXCEEDED:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_survey(args: argparse.Namespace) -> int:
    if args.what != "trees":
        raise GraphError(f"unknown survey target {args.what!r}")
    limit = 14 if args.large else 12
    if not (3 <= args.max_n <= limit):
        raise GraphError(f"--max-n must be in 3..{limit} (13-14 need --large)")
    budget = _budget(args)
    if args.out:
        with open(args.out, "w", newline="") as sink:
            summary = survey_trees(
                args.max_n,
                out=sink,
                jobs=args.jobs,
                budget=budget,
                allow_large=args.large,
            )
    else:
        summary = survey_trees(
            args.max_n,
            out=sys.stdout,
            jobs=args.jobs,
            budget=budget,
            allow_large=args.large,
        )
    print(json.dumps(summary.to_json_dict(), sort_keys=True), file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idcodes",
        description="Identifying codes in graphs: verify, solve, construct, survey.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a candidate identifying code")
    p.add_argument("file", help="edge-list file")
    p.add_argument("--code", required=True, help="comma-separated vertex ids")
    p.add_argument("--total", action="store_true", help="require total domination too")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", help="exact minimum identifying code")
    p.add_argument("file")
    p.add_argument("--total", action="store_true")
    p.add_argument("--budget", type=int, default=None, help="search node budget")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("construct", help="run a polynomial construction")
    p.add_argument("file")
    p.add_argument(
        "--method",
        choices=("parity-shift", "support-complement", "auto"),
        default="auto",
    )
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("gen", help="emit a named family member as an edge list")
    p.add_argument("family", choices=families.FAMILY_NAMES)
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--inner", default=None, help="edge-list file for corona's inner graph")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bounds", help="evaluate all applicable bounds")
    p.add_argument("file")
    p.add_argument("--exact", action="store_true", help="also compute the exact value")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("survey", help="exhaustive bound certification")
    p.add_argument("what", choices=("trees",))
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--large", action="store_true", help="allow max-n of 13 or 14")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_survey)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BoundViolation as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SurveyBudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (
        construct.PreconditionError,
        NotIdentifiableError,
        IsolatedVertexError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
