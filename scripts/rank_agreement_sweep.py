#!/usr/bin/env python3
"""Random sweep comparing the game-pipeline rank against the definitional one.

Draws random connected multigraphs and random divisors, computes the rank
both ways, and reports any disagreement.  Useful for longer soak runs beyond
the exhaustive acceptance family.  The summary counts trials per branch of
the pipeline's `rank` (negative degree, Riemann-Roch, searched; see
`chipfiring.distance`), so a run shows how much of it reached the search.

Example:
    python3 scripts/rank_agreement_sweep.py --trials 5000 --seed 7 --max-n 5
"""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chipfiring.distance import rank
from chipfiring.families import random_connected_multigraph, random_divisor
from chipfiring.multigraph import graph_to_text
from chipfiring.oracles import rank_definitional

REGIMES = ("negative degree", "Riemann-Roch", "searched")
# divisor entries are drawn from [LOW, degree + HIGH_OFFSET]
LOW, HIGH_OFFSET = -2, 1


def _regime(g, f) -> str:
    """Which branch of `rank` answers f, by its degree against the genus."""
    d, genus = sum(f), g.genus()
    if d < 0:
        return "negative degree"
    if d > genus - 1:
        return "Riemann-Roch"
    return "searched"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-n", type=int, default=4)
    args = parser.parse_args()
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    if args.max_n < 1:
        parser.error("--max-n must be at least 1")

    rng = Random(args.seed)
    start = time.monotonic()
    mismatches = 0
    regimes = Counter()
    for trial in range(args.trials):
        g = random_connected_multigraph(rng, max_n=args.max_n, max_extra_edges=2)
        f = random_divisor(rng, g, low=LOW, high_offset=HIGH_OFFSET)
        regimes[_regime(g, f)] += 1
        via_pipeline = rank(g, f)
        via_definition = rank_definitional(g, f)
        if via_pipeline != via_definition:
            mismatches += 1
            print(f"MISMATCH on trial {trial}: pipeline={via_pipeline} definition={via_definition}")
            print(graph_to_text(g), f)
    elapsed = time.monotonic() - start
    by_regime = ", ".join(f"{regimes[name]} {name}" for name in REGIMES)
    print(f"{args.trials} trials ({by_regime}), {mismatches} mismatches, {elapsed:.1f}s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
