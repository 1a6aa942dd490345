"""Gadget constructions tying target set selection to chip-firing distances.

Three constructions live here, plus witness transport through the bundle
gadget and an edge subdivision that turns any instance into one on a simple
graph.

Bundle gadget (target sets -> distance to recurrence).  Every source vertex
v becomes a chain v_i, v_c, v_o: N parallel edges join v_i to v_c and a
single edge joins v_c to v_o, with N = |V| + 2.  Every source edge uv grows
two port vertices: N parallel edges join u_o to p_uv and a single edge sends
p_uv into v_i, and symmetrically N parallel edges join v_o to p_vu with a
single edge into u_i.  Chips: x(v_o) = deg(v_o) - 1, x(v_i) = deg(v_i) -
tau(v), and x(z) = deg(z) - N = 1 on cores and ports.  Dropping one chip on
u_o lets u_o fire immediately, which charges its ports, which feed the
inner vertices of u's neighbors one chip each: the exactly-once game then
replays the activation cascade, threshold for threshold.  A forced vertex,
tau(v) = deg(v) + 1, cannot be activated by its neighbors, so it is in every
target set; the gadget gives it threshold 0 instead, which activates it
exactly as a seed would, and min TSS = dist_rec + the number of forced
vertices.

Apex gadget (distance to recurrence -> distance to non-halting).  A new apex
vertex joins the graph with M parallel edges to every original vertex, M
chips are added on every original vertex and none on the apex.  M must
exceed dist_rec(G, f) + max(0, max_v(f(v) - degree(v))).  M is always
2*|E| + sum of negative chips + that max term + 1, which clears the bound
without solving any distance: topping every vertex up to its degree makes
f recurrent, so dist_rec(G, f) is at most the pointwise deficit
sum_v max(0, degree(v) - f(v)) <= 2*|E| + sum of negative chips.  Once
every original vertex fires once the apex holds exactly its degree in
chips, so exactly-once games extend to non-halting games and vice versa.

Witness transport is total both ways.  `lift_target_set` turns any target
set S into a recurrence witness of degree |S| minus the forced vertices, and
`extract_target_set` turns any recurrence witness y, minimum or not, into a
target set of size at most deg y plus the forced vertices, in one pass over
y.  So solutions, not just optima, move through the gadget, and a minimum on
either side maps to a minimum on the other.

All three constructions are built straight into the graph's sorted
adjacency rows rather than edge lists, each row written in id order as the
layout below assigns the ids, and are marked connected at build time: each
source is required to be connected first, and each construction keeps every
source vertex joined to the rest (through its chain and ports, the apex, or
its subdivided edges).

Vertex ids are laid out deterministically (inner block, core block, outer
block, then ports in sorted edge order; the apex is always last) so that
instances are byte-reproducible.  Beside that layout each construction
states its degrees in closed form, and the bundle gadget each vertex's owner,
the source vertex it stands for.  Only the CLI formats role strings:
`bundle_roles` and `subdivision_roles` give the bundle gadget's and the
subdivision's, and the CLI writes the apex gadget's `orig:v` and `new`.
"""

from __future__ import annotations

from typing import NamedTuple

from .chipfire import _cascade, validate_divisor
from .errors import WitnessError
from .multigraph import Multigraph
from .tss import TargetSet, _forced_vertices, is_target_set, validate_thresholds


class TssToRecInstance(NamedTuple):
    """Bundle-gadget output: graph, chip configuration, bundle size N, the
    owner of each gadget vertex (v for v_i, v_c and v_o, u for p_uv), and
    the source instance with its forced vertices, sorted.  With n source
    vertices, v_i = v, v_c = n + v, v_o = 2n + v and port j = 3n + j, its
    ends given by `_port_ends`."""

    gprime: Multigraph
    x: tuple[int, ...]
    N: int
    owner: tuple[int, ...]
    source: Multigraph
    tau: tuple[int, ...]
    forced: tuple[int, ...]


class RecToNonhaltInstance(NamedTuple):
    """Apex-gadget output: graph, shifted chips and apex multiplicity M.  The
    apex is the last vertex, one past the source's ids."""

    gpp: Multigraph
    fpp: tuple[int, ...]
    M: int


def reduce_tss_to_rec(g: Multigraph, tau) -> TssToRecInstance:
    """Build the bundle gadget for a simple connected graph with thresholds.

    Forced vertices get gadget threshold 0 and are listed in `forced`.

    Raises GraphStructureError if g is not simple or is disconnected (as
    its subclass DisconnectedGraphError), or if validate_thresholds rejects
    tau.
    """
    tau = validate_thresholds(g, tau)
    g.require_connected()
    n, degs = g.n, g.degrees
    bundle = n + 2
    inner, core, outer = range(n), range(n, 2 * n), range(2 * n, 3 * n)
    # v_i - v_c (N) and v_c - v_o (1) for every block, each in both directions
    rows = ([[(core[v], bundle)] for v in range(n)]
            + [((inner[v], bundle), (outer[v], 1)) for v in range(n)]
            + [[(core[v], 1)] for v in range(n)])
    # then u_o - p_uv (N) and p_uv - v_i (1) for the two ports of each source
    # edge; each port outnumbers every id before it, so appending it keeps
    # the rows of u_o and v_i sorted
    owner = [*range(n)] * 3
    for u, v in _port_ends(g):
        p = len(rows)
        rows[outer[u]].append((p, bundle))
        rows.append(((inner[v], 1), (outer[u], bundle)))
        rows[inner[v]].append((p, 1))
        owner.append(u)
    # degrees N + deg(v) on v_i, N + 1 on v_c, 1 + N deg(v) on v_o, and N + 1
    # on the 2|E| ports; chips deg - tau on v_i (all of deg when v is
    # forced), deg - 1 on v_o, and deg - N = 1 on cores and ports
    gprime = Multigraph._from_rows(rows, [bundle + d for d in degs] + n * [bundle + 1]
                                   + [1 + bundle * d for d in degs]
                                   + 2 * g.edge_count * [bundle + 1])
    x = ([bundle + d - (t if t <= d else 0) for d, t in zip(degs, tau)] + n * [1]
         + [bundle * d for d in degs] + 2 * g.edge_count * [1])

    return TssToRecInstance(
        gprime=gprime,
        x=tuple(x),
        N=bundle,
        owner=tuple(owner),
        source=g,
        tau=tau,
        forced=_forced_vertices(g, tau),
    )


def _port_ends(g: Multigraph) -> list[tuple[int, int]]:
    """The ends (u, v) of every port p_uv of the bundle gadget, both
    directions of each edge in g.edges() order; port j gets id 3 g.n + j."""
    return [(u, v) for a, b, _m in g.edges() for u, v in ((a, b), (b, a))]


def bundle_roles(g: Multigraph) -> tuple[str, ...]:
    """Role strings matching the id layout of reduce_tss_to_rec: i:v, c:v
    and o:v for v_i, v_c and v_o, then p:u:v for each port p_uv."""
    return tuple([f"{kind}:{v}" for kind in "ico" for v in range(g.n)]
                 + [f"p:{u}:{v}" for u, v in _port_ends(g)])


def _recurrent_sum(inst: TssToRecInstance, y) -> bool:
    """Whether x + y is recurrent: one cascade over the slack deg - x - y."""
    g = inst.gprime
    slack = [d - a - b for d, a, b in zip(g.degrees, inst.x, y)]
    return len(_cascade(g.nbrs, slack, bytearray(g.n), range(g.n))) == g.n


def lift_target_set(inst: TssToRecInstance, members) -> tuple[int, ...]:
    """Turn a valid target set into a recurrence witness: one chip on the
    outer vertex of every seed that is not forced (the gadget activates
    forced vertices by itself).  The recurrence of x + y is asserted."""
    if isinstance(members, TargetSet):
        members = members.members
    members = tuple(sorted(set(members)))
    if not is_target_set(inst.source, inst.tau, members):
        raise WitnessError(f"{members} is not a target set of the source instance")
    y = [0] * inst.gprime.n
    for v in members:
        if v not in inst.forced:
            y[2 * inst.source.n + v] = 1
    if not _recurrent_sum(inst, y):
        raise WitnessError("lifted seed chips do not make the gadget configuration recurrent")
    return tuple(y)


def extract_target_set(inst: TssToRecInstance, y) -> TargetSet:
    """Read a target set off any recurrence witness y: effective, with x + y
    recurrent.

    Every gadget vertex has an owner, `inst.owner[z]`: v for v_i, v_c and
    v_o, and u for the port p_uv.  The set S read off is the owners of the
    vertices that hold chips of y, plus the forced vertices.  Then
    |S| <= |supp y| + forced <= deg y + forced, so a minimum witness gives a
    minimum target set, since min TSS = dist_rec + forced.

    S is a target set.  With N = |V| + 2, take a game from x + y that fires
    every vertex exactly once, and show by induction on its firing order
    that the owner of each vertex it fires is in the activation closure A of
    S.  A vertex holding chips of y has its owner in S.  A chip-free vertex
    z has the slack of x, and fires only once its neighbours that fired
    before it have sent that many chips:
    - a port p_uv (slack N) only after u_o, the one neighbour sending N;
    - a core v_c (slack N) only after v_i, for the same reason;
    - an outer v_o (slack 1) only after v_c or some port p_vw, all owned
      by v;
    - an inner v_i (slack tau(v), or 0 when v is forced and so in S) only
      after v_c or after tau(v) ports p_uv, owned by tau(v) neighbours u
      of v, which then activate v.
    A recurrent x + y fires every v_i, so A holds every source vertex.
    """
    y = validate_divisor(inst.gprime, y)
    if min(y, default=0) < 0:
        raise WitnessError("witness must be effective")
    if not _recurrent_sum(inst, y):
        raise WitnessError("x + y is not recurrent")
    members = {inst.owner[z] for z, k in enumerate(y) if k}
    members.update(inst.forced)
    members = tuple(sorted(members))
    if not is_target_set(inst.source, inst.tau, members):
        raise WitnessError("extracted seed set does not activate the whole source graph")
    return TargetSet(members)


def default_apex_multiplicity(g: Multigraph, f) -> int:
    """The always-sufficient apex bundle size, computable without solving
    any distance: 2|E| + total negative chips + max(0, max(f - degree)) + 1."""
    f = validate_divisor(g, f)
    negative = sum(-x for x in f if x < 0)
    overshoot = max(0, max(x - d for x, d in zip(f, g.degrees)))
    return 2 * g.edge_count + negative + overshoot + 1


def reduce_rec_to_nonhalt(g: Multigraph, f) -> RecToNonhaltInstance:
    """Build the apex gadget of a connected g with M =
    default_apex_multiplicity(g, f), which always exceeds the requirement
    dist_rec(G, f) + max(0, max(f - degree)) (see the module docstring)."""
    g.require_connected()
    f = validate_divisor(g, f)
    return _apex_gadget(g, f, default_apex_multiplicity(g, f))


def _apex_gadget(g: Multigraph, f: tuple[int, ...], M: int) -> RecToNonhaltInstance:
    """The apex gadget of a connected g, with f and M already validated:
    degrees deg + M, and n M on the apex, vertex n."""
    n = g.n
    rows = [row + ((n, M),) for row in g.nbrs]
    rows.append([(v, M) for v in range(n)])
    gpp = Multigraph._from_rows(rows, [d + M for d in g.degrees] + [n * M])
    fpp = tuple([x + M for x in f] + [0])
    return RecToNonhaltInstance(gpp=gpp, fpp=fpp, M=M)


def reduce_tss_to_nonhalt(g: Multigraph, tau) -> tuple[RecToNonhaltInstance, TssToRecInstance]:
    """Compose the two gadgets with apex multiplicity |V| + 1.

    That choice always suffices: the gadget's distance to recurrence is at
    most |V| (one seed chip per vertex that is not forced) and the gadget
    chips never exceed the gadget degrees (forced vertices get threshold 0),
    so the apex bound holds without solving anything.

    The apex leg's back map is restriction.  On any apex gadget, with source
    H on n vertices, chips f on H and f'' on the gadget, and apex
    multiplicity M: let h be an effective top-up with f'' + h non-halting,
    h(apex) < M, and h(v) + max(0, f(v) - deg(v)) < M on each vertex v of H.
    Then f + h restricted to H is recurrent on H.  A game from f'' + h fires
    every vertex.  Before the apex first fires, no v fires twice: at a first
    second firing v has received at most deg(v) chips, so it holds at most
    f(v) + h(v) < deg(v) + M.  The apex needs nM chips, holds fewer than M
    and gets M per firing on H, so every vertex of H fires first.  That
    prefix fires each vertex of H once, each with M chips and M degree more
    than on H, so it is an exactly-once game on H.  Conversely, if f + y is
    recurrent on H, then y with 0 on the apex is non-halting: the
    exactly-once game is legal here too, then the apex holds nM and fires,
    which restores the start.  Here f <= deg and M = |V| + 1, so every
    top-up of degree at most |V| qualifies, minimum witnesses among them.
    """
    bundle_inst = reduce_tss_to_rec(g, tau)
    apex_inst = _apex_gadget(bundle_inst.gprime, bundle_inst.x, g.n + 1)
    return apex_inst, bundle_inst


def _subdivision_points(g: Multigraph) -> list[tuple[int, int]]:
    """The ends (u, v) of every subdivision point, one per parallel copy of
    each edge in g.edges() order; point j gets vertex id g.n + j."""
    return [(u, v) for u, v, m in g.edges() for _copy in range(m)]


def subdivide_to_simple(g: Multigraph, f) -> tuple[Multigraph, tuple[int, ...]]:
    """Replace every parallel edge copy by a two-edge path through a fresh
    vertex carrying zero chips; the result is simple and the rank of the
    divisor is unchanged.  A graph without edges comes back as an equal
    graph with the same divisor."""
    g.require_connected()
    f = validate_divisor(g, f)
    points = _subdivision_points(g)
    rows = [[] for _ in range(g.n)]
    for point, (u, v) in enumerate(points, g.n):  # u < v < point
        rows[u].append((point, 1))
        rows[v].append((point, 1))
        rows.append(((u, 1), (v, 1)))
    # each edge copy still meets u and v once, and each point has degree 2
    degrees = g.degrees + (2,) * len(points)
    return Multigraph._from_rows(rows, degrees), f + (0,) * len(points)


def subdivision_roles(g: Multigraph) -> tuple[str, ...]:
    """Role strings matching the id layout of subdivide_to_simple."""
    return tuple([f"orig:{v}" for v in range(g.n)]
                 + [f"sub:{u}:{v}" for u, v in _subdivision_points(g)])
