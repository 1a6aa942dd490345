"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import queries as qmod  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

POOL = workloads.load_pool()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.select(workload, 11, POOL)
    assert first == workloads.select(workload, 11, POOL)
    assert first != workloads.select(workload, 12, POOL)
    for kind, index in first[:5]:
        assert workloads.make_item(workload, kind, index) == workloads.make_item(workload, kind, index)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pass_holds_one_item_per_stratum(workload):
    order = workloads.select(workload, 3, POOL)
    assert len(order) == len(set(order)) == sum(d for _s, d in workloads.POOLS[workload].values())


def _slice(workload, kind, count=3):
    out = []
    for i in range(count):
        out.extend(qmod.prepare(workload, kind, i, workloads.make_item(workload, kind, i)))
    return out


def _digests(qs):
    out = []
    for q in qs:
        try:
            out.append(qmod.digest(qmod.answer(q.op, q.call())))
        except qmod.ChipFiringError as exc:
            out.append(type(exc).__name__)
    return out


def test_traced_answers_equal_untraced():
    qs = (_slice("game", "big", 1) + _slice("solve", "rank") + _slice("solve", "tss")
          + _slice("chain", "n4", 6))
    plain = _digests(qs)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _digests(qs)
    finally:
        tracer.uninstall()
    assert traced == plain
    stats = tracer.stats()
    assert stats["calls"]["chipfire.classify_halting"] == 2
    assert stats["calls"]["oracles.verify_reduction_chain"] == 6
    assert stats["calls"]["distance.effective_divisors"] > 0
    # nested spans: a caller's self time excludes its wrapped callees
    assert stats["self_ms"]["distance.rank"] < stats["ms"]["distance.rank"]


def test_uninstall_restores_the_library():
    import chipfiring
    from chipfiring import distance

    before = distance.dist_rec
    tracer = Tracer()
    tracer.install()
    assert distance.dist_rec is not before
    tracer.uninstall()
    assert distance.dist_rec is before and chipfiring.dist_rec is before


def test_recorded_digests_match():
    for workload in ("game", "solve", "cli"):
        kind = next(iter(workloads.POOLS[workload]))
        qs = _slice(workload, kind, 1) if workload != "cli" else []
        for q, d in zip(qs, _digests(qs)):
            index, j = q.key.split("/")[1:]
            assert POOL[workload][kind][index]["digests"][int(j)] == d


def test_check_rejects_corrupted_witness():
    from chipfiring import fire_sequence

    q = _slice("game", "mid", 1)[0]
    assert q.op == "classify"
    ans = qmod.answer(q.op, q.call())
    assert ans["kind"] == "non-halting" and qmod.check(q, ans) is None
    g, f = q.graph, q.arg
    # open with a vertex that is not active at the start; counts and final
    # stay consistent with the order, so only legality is violated
    idle = next(v for v in range(g.n) if f[v] < g.degrees[v])
    order = [idle] + ans["order"][1:]
    counts = [order.count(v) for v in range(g.n)]
    final = list(fire_sequence(g, f, order, require_legal=False))
    assert qmod.check(q, dict(ans, order=order, counts=counts, final=final)) is not None
    assert qmod.check(q, dict(ans, final=[x + 1 for x in ans["final"]])) is not None


def test_check_rejects_wrong_rank():
    q = _slice("solve", "rank", 1)[0]
    value = q.call()
    assert qmod.check(q, value, thorough=True) is None
    assert qmod.check(q, value + 1, thorough=True) is not None
    assert qmod.check(q, value - 1, thorough=True) is not None


def test_chain_pass_passes_and_probe_is_forced():
    for q in _slice("chain", "n4", 40):
        assert not qmod.forced(q)
        assert qmod.check(q, qmod.answer(q.op, q.call())) is None
    for i in range(workloads.FORCED_PROBE):
        (q,) = qmod.prepare("chain", "forced", i, workloads.make_item("chain", "forced", i))
        assert sum(t > d for t, d in zip(q.arg, q.graph.degrees)) == 1
