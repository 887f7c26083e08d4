"""Record the values the correctness gate compares against, from the current library.

    python3 bench/record_expected.py

Writes ``bench/expected.json``: for each tree size of the n <= 14 survey, the
digest of its sorted invariant rows, and for each solve operation its exact
value or the name of the typed error it must raise.  Both come from one pass
of the ``survey`` and ``solve`` workloads.  Run it only on a commit whose
outputs are trusted; the committed file was recorded at the seed.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import idcodes  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    survey = workloads.make("survey")
    survey.build(idcodes, 0)
    sink, error = survey.run_pass().outputs
    if error is not None:
        raise error
    digests, _ = workloads.survey_digests("".join(sink.chunks))

    solve_workload = workloads.make("solve")
    solve_workload.build(idcodes, 0)
    solve = {}
    for (op, _, _), result in zip(solve_workload.ops, solve_workload.run_pass().outputs):
        if isinstance(result, (idcodes.NotIdentifiableError, idcodes.IsolatedVertexError)):
            solve[op] = type(result).__name__
        elif isinstance(result, Exception):
            raise result
        else:
            solve[op] = result.value

    expected = {"survey": {str(n): digest for n, (_, digest) in sorted(digests.items())}, "solve": dict(sorted(solve.items()))}
    (BENCH / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
