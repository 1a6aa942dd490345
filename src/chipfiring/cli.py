"""Command-line front end.

Exit codes: 0 success, 1 a computational verification failed (an --oracle
cross-check or a verify-chain leg disagreed), 2 input or usage error.  Text
output is human-oriented and may change; JSON output is the stable surface
and is byte-identical across identical invocations.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from random import Random

from . import chipfire, distance, multigraph, oracles, reductions, tss
from .errors import ChipFiringError
from .multigraph import Multigraph, graph_to_json, graph_to_text

GUARDS = {
    "game": 16,  # rank / halting / recurrent / winnable / dist-* / trace / subdivide
    "tss": 20,
    "verify-chain": 6,
}


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ChipFiringError(f"cannot read {path}: {exc}") from None


def _load_graph(args, path: str, kind: str) -> Multigraph:
    """Decode a graph file and check its declared vertex count against the
    size guard before building it, so an oversized graph is never built."""
    obj = multigraph._graph_object(_read(path))
    n = obj.get("n") if isinstance(obj, dict) else None
    if multigraph._is_int(n):
        _check_guard(args, n, kind)
    return multigraph.graph_from_json(obj)


def _load_divisor(path: str, g: Multigraph):
    return chipfire.validate_divisor(g, chipfire.parse_divisor(_read(path)))


def _load_thresholds(path: str, g: Multigraph):
    return tss.validate_thresholds(g, tss.parse_thresholds(_read(path)))


def _check_guard(args, n: int, kind: str) -> None:
    """Refuse a graph above the size guard; warn once per run if --max-n raises it."""
    limit = args.max_n if args.max_n is not None else GUARDS[kind]
    if limit > GUARDS[kind] and not args.warned:
        args.warned = True
        print(
            f"warning: raising the size guard to {args.max_n}; "
            "these solvers take exponential time in the worst case",
            file=sys.stderr,
        )
    if n > limit:
        raise ChipFiringError(
            f"graph has {n} vertices, above the size guard {limit} "
            "(override with --max-n at your own risk)"
        )


def _emit(args, obj: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        print(text)


def _emit_checked(args, obj: dict, text: str, value, oracle) -> int:
    """Emit a result, first cross-checked against oracle() under --oracle;
    the exit code is 1 when the two disagree."""
    agree = True
    if args.oracle:
        other = oracle()
        agree = other == value
        obj["oracle"] = other
        obj["agree"] = agree
        text += f" (oracle {other}: {'agree' if agree else 'DISAGREE'})"
    _emit(args, obj, text)
    return 0 if agree else 1


def _cmd_rank(args) -> int:
    g = _load_graph(args, args.graph, "game")
    f = _load_divisor(args.divisor, g)
    value = distance.rank(g, f)
    return _emit_checked(
        args, {"rank": value}, f"rank {value}", value,
        lambda: oracles.rank_definitional(g, f),
    )


def _cmd_winnable(args) -> int:
    g = _load_graph(args, args.graph, "game")
    f = _load_divisor(args.divisor, g)
    value = chipfire.is_winnable(g, f)
    _emit(args, {"winnable": value}, "winnable" if value else "not winnable")
    return 0


def _cmd_halting(args) -> int:
    g = _load_graph(args, args.graph, "game")
    f = _load_divisor(args.divisor, g)
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
    _emit(args, obj, text)
    return 0


def _cmd_recurrent(args) -> int:
    g = _load_graph(args, args.graph, "game")
    f = _load_divisor(args.divisor, g)
    ok, trace = chipfire.is_recurrent(g, f)
    obj: dict = {"recurrent": ok}
    text = "recurrent" if ok else "not recurrent"
    if ok and args.witness:
        obj["witness"] = chipfire.trace_to_json(trace)
        text += f", witness order {' '.join(map(str, trace.firing_order))}"
    return _emit_checked(args, obj, text, ok, lambda: oracles.recurrent_permutation(g, f))


def _dist_command(args, solver, oracle_predicate) -> int:
    g = _load_graph(args, args.graph, "game")
    f = _load_divisor(args.divisor, g)
    result = solver(g, f)
    obj = result.to_json()
    if not args.witness:
        obj.pop("witness")
    text = f"distance {result.value}"
    if args.witness:
        text += f", witness {' '.join(map(str, result.witness))}"
    if getattr(args, "oracle", False):
        agree = oracle_predicate(g, f, result)
        obj["agree"] = agree
        text += f" (oracle {'agree' if agree else 'DISAGREE'})"
        _emit(args, obj, text)
        return 0 if agree else 1
    _emit(args, obj, text)
    return 0


def _cmd_dist_rec(args) -> int:
    def check(g, f, result) -> bool:
        # independent scan: permutation-search recurrence over all smaller degrees
        reached = tuple(a + b for a, b in zip(f, result.witness))
        if not oracles.recurrent_permutation(g, reached):
            return False
        for k in range(result.value):
            for cand in distance.effective_divisors(k, g.n):
                if oracles.recurrent_permutation(g, tuple(a + b for a, b in zip(f, cand))):
                    return False
        return True

    return _dist_command(args, distance.dist_rec, check)


def _cmd_dist_nonhalt(args) -> int:
    return _dist_command(args, distance.dist_nonhalt, None)


def _cmd_tss(args) -> int:
    g = _load_graph(args, args.graph, "tss")
    tau = _load_thresholds(args.thresholds, g)
    best = tss.min_target_set(g, tau)
    obj: dict = {"size": best.size, "members": list(best.members)}
    text = f"minimum target set size {best.size}: {' '.join(map(str, best.members))}"
    return _emit_checked(
        args, obj, text, best.size, lambda: oracles.ts_subset_enumeration(g, tau)
    )


def _cmd_trace(args) -> int:
    g = _load_graph(args, args.graph, "game")
    f = _load_divisor(args.divisor, g)
    g.require_connected()
    rng = Random(args.seed) if args.seed is not None else None
    degs = g.degrees
    slack = [d - x for d, x in zip(degs, f)]
    halted, order, counts = chipfire._play(degs, g.nbrs, slack, rng)
    if halted and rng is not None:
        # a halting game is logged in the canonical order; its end is the same
        slack = [d - x for d, x in zip(degs, f)]
        _halted, order, counts = chipfire._play(degs, g.nbrs, slack)
    chips = [d - s for d, s in zip(degs, slack)]
    kind = chipfire.HALTING if halted else chipfire.NON_HALTING
    obj = {"kind": kind, "order": order, "counts": counts, "final": chips}
    if halted:
        text = f"halting after {len(order)} firings: {' '.join(map(str, order))}\n" \
               f"stable {' '.join(map(str, chips))}"
    else:
        text = (
            f"non-halting; every vertex fired within {len(order)} firings: "
            f"{' '.join(map(str, order))}"
        )
    _emit(args, obj, text)
    return 0


def _write_bundle(args, g: Multigraph, f, sidecar: dict) -> None:
    bundle = {
        "graph": graph_to_json(g),
        "divisor": chipfire.divisor_to_json(f),
        "sidecar": sidecar,
    }
    if args.out:
        Path(args.out + ".graph").write_text(graph_to_text(g))
        Path(args.out + ".div").write_text(chipfire.divisor_to_text(f))
        Path(args.out + ".json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")
        print(f"wrote {args.out}.graph, {args.out}.div, {args.out}.json")
    elif args.format == "json":
        print(json.dumps(bundle, sort_keys=True))
    else:
        print(graph_to_text(g), end="")
        print(chipfire.divisor_to_text(f), end="")
        print(json.dumps(sidecar, sort_keys=True))


def _cmd_reduce(args) -> int:
    if args.m is not None and args.kind != "rec-to-nonhalt":
        raise ChipFiringError(f"--m applies only to rec-to-nonhalt, not {args.kind}")
    g = _load_graph(args, args.graph, "game" if args.kind == "rec-to-nonhalt" else "verify-chain")
    if args.kind == "tss-to-rec":
        tau = _load_thresholds(args.second, g)
        inst = reductions.reduce_tss_to_rec(g, tau)
        _write_bundle(args, inst.gprime, inst.x, reductions.bundle_sidecar(inst))
    elif args.kind == "rec-to-nonhalt":
        f = _load_divisor(args.second, g)
        inst = reductions.reduce_rec_to_nonhalt(g, f, M=args.m)
        _write_bundle(args, inst.gpp, inst.fpp, reductions.bundle_sidecar(inst))
    else:  # tss-to-nonhalt
        tau = _load_thresholds(args.second, g)
        apex_inst, bundle_inst = reductions.reduce_tss_to_nonhalt(g, tau)
        _write_bundle(
            args, apex_inst.gpp, apex_inst.fpp,
            reductions.bundle_sidecar(apex_inst, inner=bundle_inst),
        )
    return 0


def _cmd_subdivide(args) -> int:
    g = _load_graph(args, args.graph, "game")
    f = _load_divisor(args.divisor, g)
    g2, f2 = reductions.subdivide_to_simple(g, f)
    sidecar = {"N": None, "M": None, "roles": list(reductions.subdivision_roles(g))}
    _write_bundle(args, g2, f2, sidecar)
    return 0


def _verify_one(args, g: Multigraph, tau) -> bool:
    reports = oracles.verify_reduction_chain(g, tau)
    ok = all(r.agree for r in reports)
    if args.format == "json":
        for r in reports:
            print(r.json_line())
    else:
        for r in reports:
            mark = "ok" if r.agree else "MISMATCH"
            print(f"{r.quantity}: pipeline={r.pipeline} oracle={r.oracle} [{mark}]")
        print("OK" if ok else "FAILED")
    return ok


def _cmd_verify_chain(args) -> int:
    first = Path(args.graph)
    if first.is_dir():
        pairs = sorted(first.glob("*.graph"))
        if not pairs:
            raise ChipFiringError(f"no *.graph files in {first}")
        instances = []
        for gpath in pairs:  # every input before the first report, so an exit 2 prints none
            tpath = gpath.with_suffix(".thr")
            if not tpath.exists():
                raise ChipFiringError(f"missing thresholds file {tpath}")
            g = _load_graph(args, str(gpath), "verify-chain")
            instances.append((gpath.name, g, _load_thresholds(str(tpath), g)))
        ok = True
        for name, g, tau in instances:
            if args.format != "json":
                print(f"# {name}")
            ok = _verify_one(args, g, tau) and ok
        return 0 if ok else 1
    if not args.second:
        raise ChipFiringError("verify-chain needs a graph and a thresholds file, or a directory")
    g = _load_graph(args, args.graph, "verify-chain")
    tau = _load_thresholds(args.second, g)
    return 0 if _verify_one(args, g, tau) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chipfiring",
        description="Chip-firing games, divisor rank, target set selection, "
                    "and verified reductions between them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, witness=False, oracle=False, seed=False):
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--max-n", type=int, default=None,
                       help="override the size guard (solvers are exponential)")
        p.set_defaults(warned=False)
        if witness:
            p.add_argument("--witness", action="store_true", help="include the witness")
        if oracle:
            p.add_argument("--oracle", action="store_true",
                           help="cross-check against the independent brute-force oracle")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="randomize the firing policy (verdict is policy-independent)")

    p = sub.add_parser("rank", help="divisor rank")
    p.add_argument("graph")
    p.add_argument("divisor")
    common(p, oracle=True)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("winnable", help="is the divisor linearly equivalent to an effective one")
    p.add_argument("graph")
    p.add_argument("divisor")
    common(p)
    p.set_defaults(func=_cmd_winnable)

    p = sub.add_parser("halting", help="does the game from this divisor halt")
    p.add_argument("graph")
    p.add_argument("divisor")
    common(p, witness=True, seed=True)
    p.set_defaults(func=_cmd_halting)

    p = sub.add_parser("recurrent", help="does some game fire every vertex exactly once")
    p.add_argument("graph")
    p.add_argument("divisor")
    common(p, witness=True, oracle=True)
    p.set_defaults(func=_cmd_recurrent)

    p = sub.add_parser("dist-nonhalt", help="distance to a non-halting divisor")
    p.add_argument("graph")
    p.add_argument("divisor")
    common(p, witness=True)
    p.set_defaults(func=_cmd_dist_nonhalt)

    p = sub.add_parser("dist-rec", help="distance to a recurrent divisor")
    p.add_argument("graph")
    p.add_argument("divisor")
    common(p, witness=True, oracle=True)
    p.set_defaults(func=_cmd_dist_rec)

    p = sub.add_parser("tss", help="minimum target set")
    p.add_argument("graph")
    p.add_argument("thresholds")
    common(p, oracle=True)
    p.set_defaults(func=_cmd_tss)

    p = sub.add_parser("trace", help="canonical lowest-index game log")
    p.add_argument("graph")
    p.add_argument("divisor")
    common(p, seed=True)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("reduce", help="build a gadget instance")
    p.add_argument("kind", choices=["tss-to-rec", "rec-to-nonhalt", "tss-to-nonhalt"])
    p.add_argument("graph")
    p.add_argument("second", help="thresholds file (tss-*) or divisor file (rec-to-nonhalt)")
    p.add_argument("--m", type=int, default=None,
                   help="apex multiplicity override for rec-to-nonhalt (verified)")
    p.add_argument("--out", default=None, help="write PREFIX.graph/.div/.json instead of stdout")
    common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("subdivide", help="subdivide every edge; rank is preserved")
    p.add_argument("graph")
    p.add_argument("divisor")
    p.add_argument("--out", default=None, help="write PREFIX.graph/.div/.json instead of stdout")
    common(p)
    p.set_defaults(func=_cmd_subdivide)

    p = sub.add_parser("verify-chain", help="run every reduction leg and cross-check")
    p.add_argument("graph", help="graph file, or a directory of *.graph/*.thr pairs")
    p.add_argument("second", nargs="?", default=None, help="thresholds file")
    common(p)
    p.set_defaults(func=_cmd_verify_chain)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ChipFiringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
