"""Undirected multigraphs with parallel edges.

Vertices are dense integers 0..n-1, stable for the lifetime of a graph.
Edges are stored only as adjacency lists: each vertex's neighbors in
increasing order, each paired with its number of parallel edges, so a bundle
of N parallel edges is one entry and storage grows with the edges, not with
n squared.  Degrees, the edge list and equality derive from these lists.
Self-loops are rejected at construction time; firing across one would be a
no-op and no construction here ever creates one.

Every graph's rows come from one private constructor, `_set_rows`: it
takes each row in the shape the graph stores, (neighbor, multiplicity) pairs
in increasing neighbor order, and the degrees, and only makes them tuples
and halves the degree sum into the edge count.  `Multigraph(n, edges)`
validates the edge list into per-vertex maps, sorts each into that shape
once and sums it into its degree; gadgets, whose rows and closed-form degrees
are valid, sorted and connected by construction, reach it through
`Multigraph._from_rows`, which skips the checks and marks the graph connected.

Every input file is read through the helpers at the end of this module: a
graph file is decoded once, into the object `graph_from_json` builds from,
file text becomes ints in `_ints` only, and every integer input is checked
by `_is_int`, an int that is not a bool, so a malformed file or value
raises a typed error wherever it enters.
"""

from __future__ import annotations

import json
import sys
from typing import Iterable, Sequence

from .errors import (
    DisconnectedGraphError,
    FormatError,
    GraphStructureError,
    InvalidVertexError,
)

Edge = tuple[int, int, int]
# one stored row: (neighbor, multiplicity) pairs, neighbors increasing
Row = Sequence[tuple[int, int]]


class Multigraph:
    """Immutable undirected multigraph without self-loops.

    Instances are safe to share read-only across workers; the neighbor lists,
    degrees and edge count are computed once at construction, connectivity
    and simplicity once on first use.
    """

    __slots__ = ("n", "degrees", "nbrs", "edge_count", "_connected", "_simple")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if not _is_int(n) or n < 1:
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
                # a suspect edge: find its error
                if not (_is_int(u) and _is_int(v)):
                    raise GraphStructureError(f"edge endpoints must be integers, got {item!r}")
                if not (0 <= u < n and 0 <= v < n):
                    raise InvalidVertexError(f"edge endpoint out of range [0, {n}) in {item!r}")
                if u == v:
                    raise GraphStructureError(f"self-loop at vertex {u} is not allowed")
                if not _is_int(k) or k < 1:
                    raise GraphStructureError(
                        f"edge multiplicity must be a positive integer, got {item!r}"
                    )
            row = rows[u]  # a test and a store cost less than row.get
            if v in row:
                row[v] += k
            else:
                row[v] = k
            row = rows[v]
            if u in row:
                row[u] += k
            else:
                row[u] = k
        self._set_rows(map(sorted, map(dict.items, rows)),
                       map(sum, map(dict.values, rows)))

    def _set_rows(self, rows: Iterable[Row], degrees: Iterable[int]) -> None:
        self.nbrs = nbrs = tuple(map(tuple, rows))
        self.n = len(nbrs)
        self.degrees = tuple(degrees)
        self.edge_count = sum(self.degrees) // 2
        self._connected = self._simple = None

    @classmethod
    def _from_rows(cls, rows: Iterable[Row], degrees: Iterable[int]) -> Multigraph:
        """A connected graph whose rows are the given (neighbor,
        multiplicity) pairs and whose degrees are the given ones, trusted as
        they are: neighbors strictly increasing in each row, symmetric, in
        range, without self-loops, multiplicities positive ints, each degree
        its row's multiplicity sum, and connected, as every gadget is."""
        g = cls.__new__(cls)
        g._set_rows(rows, degrees)
        g._connected = True
        return g

    def _check_vertex(self, v: int) -> None:
        if (type(v) is not int and not _is_int(v)) or not 0 <= v < self.n:
            raise InvalidVertexError(f"vertex {v!r} out of range [0, {self.n})")

    def multiplicity(self, u: int, v: int) -> int:
        self._check_vertex(u)
        self._check_vertex(v)
        return dict(self.nbrs[u]).get(v, 0)

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
    Repeated pairs accumulate their multiplicities.  Decoding and building
    are separate steps, so a caller can check the decoded "n" in between.
    """
    return graph_from_json(_graph_object(text))


def _graph_object(text: str) -> object:
    """The decoded graph file, before any graph is built: the JSON value, or
    for the text format {"n": n, "edges": [(u, v, m), ...]}."""
    if text.lstrip().startswith("{"):
        return _decode_json(text, "graph")
    lines = _data_lines(text)
    if not lines:
        raise FormatError("empty graph file")
    header = _ints(lines[0], "vertex count")
    if len(header) != 1:
        raise FormatError(f"first line must be the vertex count, got {_clip(lines[0])!r}")
    edges = []
    for ln in lines[1:]:
        edge = _ints(ln, "edge")
        if len(edge) != 3:
            raise FormatError(f"edge line must be 'u v m', got {_clip(ln)!r}")
        edges.append(edge)
    return {"n": header[0], "edges": edges}


def graph_from_json(obj: object) -> Multigraph:
    """The graph of a decoded JSON graph object, {"n": ..., "edges": [...]};
    every fault is reported as a FormatError."""
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise FormatError('JSON graph must be an object with "n" and "edges"')
    if not isinstance(obj["edges"], list):
        raise FormatError('"edges" must be a list of [u, v, m] triples')
    try:
        return Multigraph(obj["n"], obj["edges"])
    except (GraphStructureError, InvalidVertexError) as exc:
        raise FormatError(str(exc)) from None


def _is_int(x) -> bool:
    """An int that is not a bool, which Python counts as one."""
    return isinstance(x, int) and not isinstance(x, bool)


def _data_lines(text: str) -> list[str]:
    """The stripped lines of an input file, without blank lines and '#' comments."""
    return [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]


def _decode_json(text: str, what: str):
    """json.loads, with every decode failure a FormatError: malformed JSON,
    an integer beyond Python's digit limit (both ValueError) or nesting
    beyond the recursion limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid JSON {what}: {exc}") from None


def _int_line(text: str, what: str) -> tuple[int, ...]:
    """The one line of space-separated integers of a divisor or thresholds
    file; blank lines and '#' comments are ignored."""
    lines = _data_lines(text)
    if len(lines) != 1:
        raise FormatError(f"{what} file must contain exactly one line of integers")
    return _ints(lines[0], what)


def _ints(line: str, what: str) -> tuple[int, ...]:
    """The space-separated integers of one line of an input file, the one
    place where file text becomes ints; `what` names the line in errors."""
    try:
        return tuple(map(int, line.split()))
    except ValueError as exc:
        problem = (f"has an integer beyond Python's {sys.get_int_max_str_digits()}-digit limit"
                   if str(exc).startswith("Exceeds the limit") else "must contain integers")
        raise FormatError(f"{what} line {problem}, got {_clip(line)!r}") from None


def _clip(line: str) -> str:
    """A line as echoed in an error message, cut to 40 characters."""
    return line if len(line) <= 40 else line[:37] + "..."
