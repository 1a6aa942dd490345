"""Command-line front end.

COMMANDS is the single place a subcommand is declared: build_parser builds
every subparser from it, main loads each subcommand's inputs from it, and a
handler only computes and emits its result.

Exit codes: 0 success, 1 a computational verification failed (an --oracle
cross-check or a verify-chain leg disagreed), 2 input or usage error, or
memory ran out.  Text output is human-oriented and may change; JSON output
is the stable surface and is byte-identical across identical invocations.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb, factorial
from pathlib import Path
from random import Random

from . import chipfire, distance, multigraph, oracles, reductions, tss
from .errors import ChipFiringError, SizeGuardError
from .multigraph import Multigraph, graph_to_json, graph_to_text

GUARDS = {"game": 16, "tss": 20, "verify-chain": 6}
# the most top-ups or subsets an --oracle cross-check may scan, see _check_scan
ORACLE_SCAN = 100_000
# the most firing orders dist-rec's --oracle may try, see _cmd_dist_rec
ORACLE_ORDERS = 10_000_000
# the most lowerings its winnability descent may make, see _check_descent
ORACLE_DESCENT = 100_000
# the most vertices subdivide may build, one per vertex and edge copy
SUBDIVISION = 100_000


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ChipFiringError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ChipFiringError(f"cannot write {path}: {exc}") from None


def _load_graph(args, path: str, kind: str) -> Multigraph:
    """Decode a graph file and check its declared vertex count against the
    size guard before building it, so an oversized graph is never built."""
    obj = multigraph._graph_object(_read(path))
    n = obj.get("n") if isinstance(obj, dict) else None
    limit = args.max_n if args.max_n is not None else GUARDS[kind]
    if multigraph._is_int(n) and n > limit:
        raise ChipFiringError(
            f"graph has {n} vertices, above the size guard {limit} "
            "(override with --max-n at your own risk)"
        )
    return multigraph.graph_from_json(obj)


def _load_second(second: str, path: str, g: Multigraph):
    """Read and validate the input that follows the graph: a divisor or thresholds."""
    if second == "divisor":
        return chipfire.validate_divisor(g, chipfire.parse_divisor(_read(path)))
    return tss.validate_thresholds(g, tss.parse_thresholds(_read(path)))


def _emit(args, obj, text: str, value=None, oracle=None) -> int:
    """Print one result: obj as JSON (a dict, or lines already rendered) or
    text.  A subcommand that takes --oracle passes oracle, and under --oracle
    the result is first cross-checked: oracle() returns its own value to
    compare with value, or, when value is None, whether the result checks out.
    The exit code is 1 when the two disagree."""
    agree = True
    if oracle is not None and args.oracle:
        other = oracle()
        if value is None:
            agree, shown = other, ""
        else:
            agree, shown = other == value, f"{other}: "
            obj["oracle"] = other
        obj["agree"] = agree
        text += f" (oracle {shown}{'agree' if agree else 'DISAGREE'})"
    if args.format == "json":
        print(obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True))
    else:
        print(text)
    return 0 if agree else 1


def _check_scan(count: int, what: str = "top-ups") -> None:
    """Refuse an oracle that would scan more than ORACLE_SCAN top-ups or
    subsets, before it starts.  The count comes from the pipeline's answer,
    so if that answer is too high, the CLI refuses with exit 2 rather than
    reporting a disagreement."""
    if count > ORACLE_SCAN:
        raise SizeGuardError(f"the oracle would scan {count} {what}, above its bound of "
                             f"{ORACLE_SCAN}; run without --oracle")


def _check_descent(g: Multigraph, f) -> None:
    """Refuse an oracle whose winnability descent on f could make more than
    ORACLE_DESCENT lowerings, before it starts: each lowers one of n counts
    that start at the bound and stay at least 0, so there are at most
    n * (bound + 1), and the bound grows with the chips of f."""
    lowerings = g.n * (oracles.default_winnability_bound(g, f) + 1)
    if lowerings > ORACLE_DESCENT:
        raise SizeGuardError(f"the oracle's descent could make {lowerings} lowerings, above its "
                             f"bound of {ORACLE_DESCENT}; run without --oracle")


def _cmd_rank(args, g: Multigraph, f) -> int:
    value = distance.rank(g, f)

    def check() -> int:
        _check_scan(comb(value + 1 + g.n, g.n))  # every top-up of degree <= rank + 1
        _check_descent(g, f)  # once per top-up
        return oracles.rank_definitional(g, f)

    return _emit(args, {"rank": value}, f"rank {value}", value, check)


def _cmd_winnable(args, g: Multigraph, f) -> int:
    value = chipfire.is_winnable(g, f)

    def check() -> bool:
        _check_descent(g, f)
        return oracles.winnable_within_bound(g, f, oracles.default_winnability_bound(g, f))

    return _emit(args, {"winnable": value}, "winnable" if value else "not winnable", value, check)


def _cmd_halting(args, g: Multigraph, f) -> int:
    rng = Random(args.seed) if args.seed is not None else None
    verdict = chipfire.classify_halting(g, f, rng=rng)
    obj: dict = {"kind": verdict.kind}
    if verdict.is_halting:
        obj["stable"] = list(verdict.stable)
        text = f"halting, stable {' '.join(map(str, verdict.stable))}"
    else:
        text = "non-halting"
        if args.witness:
            obj["witness"] = chipfire.trace_to_json(verdict.witness)
            text += f", witness order {' '.join(map(str, verdict.witness.firing_order))}"
    return _emit(args, obj, text)


def _cmd_recurrent(args, g: Multigraph, f) -> int:
    ok, trace = chipfire.is_recurrent(g, f)
    obj: dict = {"recurrent": ok}
    text = "recurrent" if ok else "not recurrent"
    if ok and args.witness:
        obj["witness"] = chipfire.trace_to_json(trace)
        text += f", witness order {' '.join(map(str, trace.firing_order))}"
    return _emit(args, obj, text, ok, lambda: oracles.recurrent_permutation(g, f))


def _emit_distance(args, result, oracle=None, value=None) -> int:
    obj = result.to_json()
    text = f"distance {result.value}"
    if args.witness:
        text += f", witness {' '.join(map(str, result.witness))}"
    else:
        obj.pop("witness")
    return _emit(args, obj, text, value, oracle)


def _cmd_dist_rec(args, g: Multigraph, f) -> int:
    result = distance.dist_rec(g, f)

    def check() -> bool:
        value = result.value  # the top-ups of degree value - 1 alone
        top_ups = comb(value - 2 + g.n, g.n - 1) if value else 0
        _check_scan(top_ups)
        # each top-up's permutation search may try every order of the vertices
        orders = top_ups * factorial(g.n)
        if orders > ORACLE_ORDERS:
            raise SizeGuardError(f"the oracle could try {orders} firing orders, above its "
                                 f"bound of {ORACLE_ORDERS}; run without --oracle")
        return oracles.is_least_recurrent_top_up(g, f, result.witness)

    return _emit_distance(args, result, check)


def _cmd_dist_nonhalt(args, g: Multigraph, f) -> int:
    result = distance.dist_nonhalt(g, f)

    def check() -> int:
        # f + g halts exactly when deg - 1 - f - g is winnable, so the
        # distance is one more than the rank of deg - 1 - f
        _check_scan(comb(result.value + g.n, g.n))  # every top-up of degree <= distance
        complement = chipfire.winnability_complement(g, f)
        _check_descent(g, complement)  # once per top-up
        return oracles.rank_definitional(g, complement) + 1

    return _emit_distance(args, result, check, result.value)


def _cmd_tss(args, g: Multigraph, tau) -> int:
    best = tss.min_target_set(g, tau)
    obj: dict = {"size": best.size, "members": list(best.members)}
    text = f"minimum target set size {best.size}: {' '.join(map(str, best.members))}"

    def check() -> int:
        # every subset of size <= the pipeline's
        _check_scan(sum(comb(g.n, k) for k in range(best.size + 1)), "subsets")
        return oracles.ts_subset_enumeration(g, tau)

    return _emit(args, obj, text, best.size, check)


def _cmd_trace(args, g: Multigraph, f) -> int:
    rng = Random(args.seed) if args.seed is not None else None
    halted, order, counts, final = chipfire._game(g, f, rng)
    if halted and rng is not None:
        # a halting game is logged in the canonical order; its end is the same
        _halted, order, counts, final = chipfire._game(g, f)
    kind = chipfire.HALTING if halted else chipfire.NON_HALTING
    obj = {"kind": kind, "order": order, "counts": counts, "final": final}
    if halted:
        text = f"halting after {len(order)} firings: {' '.join(map(str, order))}\n" \
               f"stable {' '.join(map(str, final))}"
    else:
        text = (
            f"non-halting; every vertex fired within {len(order)} firings: "
            f"{' '.join(map(str, order))}"
        )
    return _emit(args, obj, text)


def _write_bundle(args, g: Multigraph, f, N, M, roles) -> int:
    """Print a built instance, or write it to --out: the graph, its divisor,
    and a sidecar with the bundle multiplicity N, the apex multiplicity M
    and the role of each vertex."""
    sidecar = {"N": N, "M": M, "roles": list(roles)}
    if args.out:
        _write(args.out + ".graph", graph_to_text(g))
        _write(args.out + ".div", chipfire.divisor_to_text(f))
        _write(args.out + ".json", json.dumps(sidecar, sort_keys=True) + "\n")
        print(f"wrote {args.out}.graph, {args.out}.div, {args.out}.json")
    elif args.format == "json":
        bundle = {"graph": graph_to_json(g), "divisor": chipfire.divisor_to_json(f),
                  "sidecar": sidecar}
        print(json.dumps(bundle, sort_keys=True))
    else:
        print(graph_to_text(g) + chipfire.divisor_to_text(f) + json.dumps(sidecar, sort_keys=True))
    return 0


# reduce's second input and size guard, by the kind of instance it builds
REDUCE = {
    "tss-to-rec": ("thresholds", "verify-chain"),
    "rec-to-nonhalt": ("divisor", "game"),
    "tss-to-nonhalt": ("thresholds", "verify-chain"),
}


def _cmd_reduce(args, g: Multigraph, x) -> int:
    if args.kind == "tss-to-rec":
        inst = reductions.reduce_tss_to_rec(g, x)
        return _write_bundle(args, inst.gprime, inst.x, inst.N, None, reductions.bundle_roles(g))
    if args.kind == "rec-to-nonhalt":
        inst = reductions.reduce_rec_to_nonhalt(g, x)
        roles = [f"orig:{v}" for v in range(g.n)] + ["new"]
        return _write_bundle(args, inst.gpp, inst.fpp, None, inst.M, roles)
    apex_inst, bundle_inst = reductions.reduce_tss_to_nonhalt(g, x)
    return _write_bundle(args, apex_inst.gpp, apex_inst.fpp, bundle_inst.N, apex_inst.M,
                         reductions.bundle_roles(g) + ("new",))


def _cmd_subdivide(args, g: Multigraph, f) -> int:
    # a guard on n alone admits two vertices joined by 10^12 edges
    size = g.n + g.edge_count
    if size > SUBDIVISION:
        raise SizeGuardError(f"the subdivision would have {size} vertices, above its bound of "
                             f"{SUBDIVISION}")
    g2, f2 = reductions.subdivide_to_simple(g, f)
    return _write_bundle(args, g2, f2, None, None, reductions.subdivision_roles(g))


def _cmd_verify_chain(args, g: Multigraph, tau, name=None) -> int:
    reports = oracles.verify_reduction_chain(g, tau)
    ok = all(r.agree for r in reports)
    lines = [f"# {name}"] if name else []
    for r in reports:
        mark = "ok" if r.agree else "MISMATCH"
        lines.append(f"{r.quantity}: pipeline={r.pipeline} oracle={r.oracle} [{mark}]")
    lines.append("OK" if ok else "FAILED")
    _emit(args, "\n".join(r.json_line() for r in reports), "\n".join(lines))
    return 0 if ok else 1


def _load_directory(args) -> list:
    """Every *.graph/*.thr pair of a directory, read and checked before the
    first report, so an exit 2 prints none."""
    if args.second is not None:
        raise ChipFiringError("verify-chain reads a directory's thresholds from its "
                              f"*.thr files, not from {args.second}")
    first = Path(args.graph)
    pairs = sorted(first.glob("*.graph"))
    if not pairs:
        raise ChipFiringError(f"no *.graph files in {first}")
    instances = []
    for gpath in pairs:
        tpath = gpath.with_suffix(".thr")
        if not tpath.exists():
            raise ChipFiringError(f"missing thresholds file {tpath}")
        g = _load_graph(args, str(gpath), "verify-chain")
        instances.append((gpath.name, g, _load_second("thresholds", str(tpath), g)))
    return instances


# Every subcommand: its handler, its second input (read after the graph;
# reduce's depends on its kind, see REDUCE), the GUARDS entry that bounds the
# graph, the options it takes besides --format and --max-n, and its help.
COMMANDS = {
    "rank": (_cmd_rank, "divisor", "game", ("--oracle",), "divisor rank"),
    "winnable": (_cmd_winnable, "divisor", "game", ("--oracle",),
                 "is the divisor linearly equivalent to an effective one"),
    "halting": (_cmd_halting, "divisor", "game", ("--witness", "--seed"),
                "does the game from this divisor halt"),
    "recurrent": (_cmd_recurrent, "divisor", "game", ("--witness", "--oracle"),
                  "does some game fire every vertex exactly once"),
    "dist-nonhalt": (_cmd_dist_nonhalt, "divisor", "game", ("--witness", "--oracle"),
                     "distance to a non-halting divisor"),
    "dist-rec": (_cmd_dist_rec, "divisor", "game", ("--witness", "--oracle"),
                 "distance to a recurrent divisor"),
    "tss": (_cmd_tss, "thresholds", "tss", ("--oracle",), "minimum target set"),
    "trace": (_cmd_trace, "divisor", "game", ("--seed",), "canonical lowest-index game log"),
    "reduce": (_cmd_reduce, None, None, ("--out",), "build a gadget instance"),
    "subdivide": (_cmd_subdivide, "divisor", "game", ("--out",),
                  "subdivide every edge; rank is preserved"),
    "verify-chain": (_cmd_verify_chain, "thresholds", "verify-chain", (),
                     "run every reduction leg and cross-check"),
}

# every option, in the order a subcommand's --help lists those it takes
OPTIONS = {
    "--out": dict(help="write PREFIX.graph/.div/.json instead of stdout"),
    "--format": dict(choices=["text", "json"], default="text"),
    "--max-n": dict(type=int, help="override the size guard (solvers are exponential)"),
    "--witness": dict(action="store_true", help="include the witness"),
    "--oracle": dict(action="store_true",
                     help="cross-check against the independent brute-force oracle"),
    "--seed": dict(type=int, help="randomize the firing policy (verdict is policy-independent)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chipfiring",
        description="Chip-firing games, divisor rank, target set selection, "
                    "and verified reductions between them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, second, _kind, options, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if name == "reduce":
            p.add_argument("kind", choices=list(REDUCE))
            p.add_argument("graph")
            p.add_argument("second",
                           help="thresholds file (tss-*) or divisor file (rec-to-nonhalt)")
        elif name == "verify-chain":
            p.add_argument("graph", help="graph file, or a directory of *.graph/*.thr pairs")
            p.add_argument("second", nargs="?", help="thresholds file")
        else:
            p.add_argument("graph")
            p.add_argument("second", metavar=second)
        for flag, spec in OPTIONS.items():
            if flag in ("--format", "--max-n", *options):
                p.add_argument(flag, **spec)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, second, kind, _options, _help = COMMANDS[args.command]
    directory = args.command == "verify-chain" and Path(args.graph).is_dir()
    try:
        if args.max_n is not None and args.max_n < 1:
            raise ChipFiringError(f"--max-n must be a positive integer, got {args.max_n}")
        if args.command == "reduce":
            second, kind = REDUCE[args.kind]
        if args.command == "verify-chain" and not directory and not args.second:
            raise ChipFiringError(
                "verify-chain needs a graph and a thresholds file, or a directory")
        if args.max_n is not None and args.max_n > GUARDS[kind]:
            print(f"warning: raising the size guard to {args.max_n}; "
                  "these solvers take exponential time in the worst case", file=sys.stderr)
        if directory:
            return max([handler(args, g, tau, name) for name, g, tau in _load_directory(args)])
        g = _load_graph(args, args.graph, kind)
        return handler(args, g, _load_second(second, args.second, g))
    except ChipFiringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        pass  # reported below, once the traceback no longer holds the computation
    print("error: out of memory; the solvers take exponential space in the worst case, "
          "try a smaller input", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
