"""Undirected multigraphs with parallel edges.

Vertices are dense integers 0..n-1, stable for the lifetime of a graph.
Edges are stored only as adjacency lists: each vertex's neighbors in
increasing order, each paired with its number of parallel edges, so a bundle
of N parallel edges is one entry and storage grows with the edges, not with
n squared.  Degrees, the edge list and equality derive from these lists.
Self-loops are rejected at construction time; firing across one would be a
no-op and no construction here ever creates one.

Every graph's rows come from one private constructor, `_set_rows`: it
takes per-vertex neighbor -> multiplicity maps and derives the stored lists,
degrees and edge count, so the stored format is known here only.
`Multigraph(n, edges)` validates the edge list into such maps and hands
them on; gadget constructions whose maps are valid by construction reach it
through `Multigraph._from_rows`, skipping the per-edge checks.
"""

from __future__ import annotations

import json
from typing import Iterable

from .errors import (
    DisconnectedGraphError,
    FormatError,
    GraphStructureError,
    InvalidVertexError,
)

Edge = tuple[int, int, int]


class Multigraph:
    """Immutable undirected multigraph without self-loops.

    Instances are safe to share read-only across workers; the neighbor lists,
    degrees and edge count are computed once at construction, connectivity
    and simplicity once on first use.
    """

    __slots__ = ("n", "degrees", "nbrs", "edge_count", "_connected", "_simple")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise GraphStructureError(f"vertex count must be a positive integer, got {n!r}")
        rows = [{} for _ in range(n)]
        for item in edges:
            try:
                u, v, k = item
            except (TypeError, ValueError):
                raise GraphStructureError(
                    f"edge must be a (u, v, multiplicity) triple, got {item!r}"
                ) from None
            if not (type(u) is int and type(v) is int and type(k) is int
                    and 0 <= u < n and 0 <= v < n and u != v and k >= 1):
                # a suspect edge: find its error, or store bools as the ints they equal
                if not (isinstance(u, int) and isinstance(v, int)):
                    raise GraphStructureError(f"edge endpoints must be integers, got {item!r}")
                if not (0 <= u < n and 0 <= v < n):
                    raise InvalidVertexError(f"edge endpoint out of range [0, {n}) in {item!r}")
                if u == v:
                    raise GraphStructureError(f"self-loop at vertex {u} is not allowed")
                if not isinstance(k, int) or k < 1:
                    raise GraphStructureError(
                        f"edge multiplicity must be a positive integer, got {item!r}"
                    )
                u, v, k = int(u), int(v), int(k)
            row = rows[u]
            row[v] = row.get(v, 0) + k
            row = rows[v]
            row[u] = row.get(u, 0) + k
        self._set_rows(rows)

    def _set_rows(self, rows: list[dict[int, int]], connected: bool | None = None) -> None:
        self.n = len(rows)
        self.nbrs = tuple(tuple(sorted(row.items())) for row in rows)
        self.degrees = tuple(sum(row.values()) for row in rows)
        self.edge_count = sum(self.degrees) // 2
        self._connected = connected
        self._simple = None

    @classmethod
    def _from_rows(cls, rows: list[dict[int, int]], connected: bool | None = None) -> Multigraph:
        """A graph with the given neighbor -> multiplicity maps, trusted as
        they are: symmetric, in range, without self-loops, multiplicities
        positive ints.  `connected` presets the connectivity verdict."""
        g = cls.__new__(cls)
        g._set_rows(rows, connected)
        return g

    def _check_vertex(self, v: int) -> None:
        # a bool is an int subclass: refuse it, and pass plain ints at once
        if (type(v) is not int and (isinstance(v, bool) or not isinstance(v, int))
                or not 0 <= v < self.n):
            raise InvalidVertexError(f"vertex {v!r} out of range [0, {self.n})")

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.degrees[v]

    def degree_vector(self) -> tuple[int, ...]:
        """Per-vertex degrees, viewable as a divisor of degree 2*edge_count."""
        return self.degrees

    def multiplicity(self, u: int, v: int) -> int:
        self._check_vertex(u)
        self._check_vertex(v)
        return dict(self.nbrs[u]).get(v, 0)

    def neighbors(self, v: int) -> tuple[tuple[int, int], ...]:
        """(vertex, multiplicity) pairs for every neighbor of v."""
        self._check_vertex(v)
        return self.nbrs[v]

    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> list[Edge]:
        """Unordered pairs with positive multiplicity, as sorted (u, v, m) triples."""
        return [(u, v, m) for u, row in enumerate(self.nbrs) for v, m in row if u < v]

    def is_connected(self) -> bool:
        if self._connected is not None:
            return self._connected
        seen = bytearray(self.n)
        seen[0] = 1
        stack = [0]
        count = 1
        while stack:
            v = stack.pop()
            for u, _m in self.nbrs[v]:
                if not seen[u]:
                    seen[u] = 1
                    count += 1
                    stack.append(u)
        self._connected = count == self.n
        return self._connected

    def require_connected(self) -> None:
        if not self.is_connected():
            raise DisconnectedGraphError("operation requires a connected graph")

    def genus(self) -> int:
        """Cyclotomic number edge_count - n + 1; needs a connected graph."""
        self.require_connected()
        return self.edge_count - self.n + 1

    def is_simple(self) -> bool:
        if self._simple is None:
            self._simple = all(m <= 1 for row in self.nbrs for _u, m in row)
        return self._simple

    def require_simple(self) -> None:
        if not self.is_simple():
            raise GraphStructureError("operation requires a simple graph (all multiplicities <= 1)")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Multigraph) and self.nbrs == other.nbrs

    def __hash__(self) -> int:
        return hash(self.nbrs)

    def __repr__(self) -> str:
        return f"Multigraph(n={self.n}, edges={self.edges()!r})"


def graph_to_text(g: Multigraph) -> str:
    """Text form: first line n, then one 'u v m' line per pair with m >= 1."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v} {m}" for u, v, m in g.edges())
    return "\n".join(lines) + "\n"


def graph_to_json(g: Multigraph) -> dict:
    return {"n": g.n, "edges": [[u, v, m] for u, v, m in g.edges()]}


def parse_graph(text: str) -> Multigraph:
    """Parse either the text format or its JSON equivalent.

    Text: first line n, remaining lines 'u v m' (0-based, m >= 1); blank lines
    and '#' comments are ignored.  JSON: {"n": ..., "edges": [[u, v, m], ...]}.
    Repeated pairs accumulate their multiplicities.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON graph: {exc}") from None
        return graph_from_json(obj)
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty graph file")
    try:
        n = int(lines[0])
    except ValueError:
        raise FormatError(f"first line must be the vertex count, got {lines[0]!r}") from None
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise FormatError(f"edge line must be 'u v m', got {ln!r}")
        try:
            u, v, m = (int(p) for p in parts)
        except ValueError:
            raise FormatError(f"edge line must contain integers, got {ln!r}") from None
        edges.append((u, v, m))
    try:
        return Multigraph(n, edges)
    except (GraphStructureError, InvalidVertexError) as exc:
        raise FormatError(str(exc)) from None


def _declared_vertex_count(text: str) -> int | None:
    """The vertex count a graph file declares, read without building the
    graph: the first line of the text format, or "n" of the JSON format.
    None when the file declares none; parse_graph then reports why."""
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError:
            return None
        n = obj.get("n") if isinstance(obj, dict) else None
        return n if isinstance(n, int) else None
    for ln in text.splitlines():
        ln = ln.strip()
        if ln and not ln.startswith("#"):
            try:
                return int(ln)
            except ValueError:
                return None
    return None


def graph_from_json(obj: object) -> Multigraph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise FormatError('JSON graph must be an object with "n" and "edges"')
    n = obj["n"]
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise FormatError('"edges" must be a list of [u, v, m] triples')
    triples = []
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 3:
            raise FormatError(f"edge entry must be a [u, v, m] triple, got {e!r}")
        triples.append(tuple(e))
    try:
        return Multigraph(n, triples)
    except (GraphStructureError, InvalidVertexError) as exc:
        raise FormatError(str(exc)) from None
