#!/usr/bin/env python3
"""Run the full reduction-chain verifier over a corpus of instances.

Generates the exhaustive family of small simple connected graphs, from one
vertex up, with every threshold assignment in a range.  Emits one JSON line
per checked quantity, so the output can be filtered with standard tools
(e.g. jq 'select(.agree|not)'), and ends with one summary line on stderr:
instances checked, disagreements per quantity and the slowest instance.  A
directory of paired files (x.graph with x.thr) is checked by the CLI, which
prints the same JSON lines.

Example:
    python3 scripts/verify_corpus.py --family 3 --max-tau-offset 0
    chipfiring verify-chain instances/ --format json > reports.jsonl
"""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chipfiring.families import connected_simple_graphs, threshold_assignments
from chipfiring.oracles import verify_reduction_chain


class Tally:
    """Instances checked, disagreements per quantity and the slowest instance."""

    def __init__(self):
        self.instances = 0
        self.disagreements = Counter()
        self.slowest = (0.0, "none")

    def check(self, g, tau) -> None:
        start = time.perf_counter()
        reports = verify_reduction_chain(g, tau)
        seconds = time.perf_counter() - start
        self.instances += 1
        self.slowest = max(self.slowest, (seconds, reports[0].fingerprint))
        for report in reports:
            print(report.json_line())
            self.disagreements[report.quantity] += 0 if report.agree else 1

    def bad(self) -> int:
        return sum(self.disagreements.values())

    def summary(self) -> str:
        per_quantity = ", ".join(f"{q}: {k}" for q, k in self.disagreements.items())
        seconds, fingerprint = self.slowest
        return (f"{self.instances} instances checked; disagreements: {per_quantity or 'none'}; "
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
        # all 43,966 five-vertex instances, tau in [0, deg + 1], agree in
        # about 17 s on a 2-core machine
        parser.error("family sizes above 5 are refused: the apex gadget of K6 at tau 5 "
                     "raises MemoryError under 1 GiB, since dist_nonhalt builds each "
                     "level's candidate table whole")
    tally = Tally()
    run_family(args.family, args.min_tau, args.max_tau_offset, tally)
    print(tally.summary(), file=sys.stderr)
    return 1 if tally.bad() else 0


if __name__ == "__main__":
    raise SystemExit(main())
