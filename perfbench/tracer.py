"""Per-layer spans recorded from outside the library.

`Tracer.install()` wraps every function named in `chipfiring.__all__`, and
`Multigraph.__init__`, and rebinds each wrapper in every `chipfiring.*`
module namespace that binds the original, so calls between modules go
through the wrappers too.  Nothing under `src/` changes.  Each wrapper counts
calls and records total time (outermost calls only, so recursion is not
counted twice) and self time (its span minus the spans of wrapped calls made
inside it).  Spans stay in memory; `stats()` reads them out.

Counters read work off return values: firings from game witnesses, and
oracle disagreements from chain reports.  Halting games return no witness,
so their firings are counted by replaying the game with the clock paused;
paused work is excluded from every span and reported as `paused_s` so
callers can exclude it too.
"""

from __future__ import annotations

import functools
import sys
import time


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.paused_s = 0.0
        self._stack: list[list[float]] = []  # [child seconds] per open span
        self._depth: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def add_count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _wrap(self, layer: str, fn):
        calls, total, self_time, depth = self.calls, self.total, self.self_time, self._depth
        stack = self._stack
        tracer = self
        counter = COUNTERS.get(layer)
        calls[layer] = 0
        total[layer] = 0.0
        self_time[layer] = 0.0
        depth[layer] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[layer] += 1
            paused0 = tracer.paused_s
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0 - (tracer.paused_s - paused0)
                stack.pop()
                depth[layer] -= 1
                calls[layer] += 1
                self_time[layer] += elapsed - frame[0]
                if depth[layer] == 0:
                    total[layer] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if counter is not None:
                h0 = time.perf_counter()
                counter(tracer, args, result)
                tracer.paused_s += time.perf_counter() - h0
            return result

        return wrapper

    def install(self) -> None:
        import chipfiring
        from chipfiring.multigraph import Multigraph

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "chipfiring" or name.startswith("chipfiring."))]
        for name in chipfiring.__all__:
            original = getattr(chipfiring, name)
            if isinstance(original, type) or not callable(original):
                continue
            layer = f"{original.__module__.rsplit('.', 1)[-1]}.{name}"
            wrapper = self._wrap(layer, original)
            for module in modules:
                if module.__dict__.get(name) is original:
                    self._restore.append((module, name, original))
                    setattr(module, name, wrapper)
        init = Multigraph.__init__
        self._restore.append((Multigraph, "__init__", init))
        Multigraph.__init__ = self._wrap("multigraph.build", init)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def stats(self) -> dict:
        return {
            "calls": dict(self.calls),
            "ms": {k: v * 1e3 for k, v in self.total.items()},
            "self_ms": {k: v * 1e3 for k, v in self.self_time.items()},
            "counts": dict(self.counts),
            "paused_s": self.paused_s,
        }


def merge(into: dict, other: dict) -> dict:
    """Sum two `stats()` results."""
    for key in ("calls", "ms", "self_ms", "counts"):
        bucket = into.setdefault(key, {})
        for name, value in other.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value
    into["paused_s"] = into.get("paused_s", 0.0) + other.get("paused_s", 0.0)
    return into


def halting_firings(g, f) -> int:
    """Firings of any legal halting game from f; the firing vector of a
    halting game does not depend on the order, so a batched replay counts
    the canonical game's firings."""
    chips = list(f)
    degs = g.degrees
    nbrs = g.nbrs
    stack = [v for v in range(g.n) if chips[v] >= degs[v]]
    count = 0
    while stack:
        v = stack.pop()
        if chips[v] < degs[v]:
            continue
        k = chips[v] // degs[v]
        count += k
        chips[v] -= k * degs[v]
        for u, m in nbrs[v]:
            before = chips[u]
            chips[u] += k * m
            if before < degs[u] <= chips[u]:
                stack.append(u)
    return count


def _on_classify(tracer, args, verdict):
    g, f = args[0], args[1]
    if verdict.is_halting:
        fired = halting_firings(g, f)
    else:
        fired = len(verdict.witness.firing_order)
    tracer.add_count("chipfire.classify_firings", fired)


def _on_recurrent(tracer, args, result):
    if result[0]:
        tracer.add_count("chipfire.recurrent_firings", args[0].n)


def _on_chain(tracer, args, reports):
    tracer.add_count("oracles.disagreements", sum(1 for r in reports if not r.agree))


COUNTERS = {
    "chipfire.classify_halting": _on_classify,
    "chipfire.is_recurrent": _on_recurrent,
    "oracles.verify_reduction_chain": _on_chain,
}
