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
exceed dist_rec(G, f) + max(0, max_v(f(v) - degree(v))); the default
2*|E| + sum of negative chips + that max term + 1 always suffices and keeps
constructions reproducible without solving the distance first.  Once every
original vertex fires once the apex holds exactly its degree in chips, so
exactly-once games extend to non-halting games and vice versa.

Witness transport is total both ways.  `lift_target_set` turns any target
set S into a recurrence witness of degree |S| minus the forced vertices, and
`extract_target_set` turns any recurrence witness y, minimum or not, into a
target set of size at most deg y plus the forced vertices, in one pass over
y.  So solutions, not just optima, move through the gadget, and a minimum on
either side maps to a minimum on the other.

Both gadgets are built straight into adjacency maps rather than edge lists,
and are marked connected at build time: each source is required to be
connected first, and each gadget keeps every source vertex joined to the
rest (through its chain and ports, or through the apex).

Vertex ids are laid out deterministically (inner block, core block, outer
block, then ports in sorted edge order; the apex is always last) so that
instances are byte-reproducible; the role strings are the authoritative
meaning of each id.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chipfire import add, is_effective, is_recurrent, validate_divisor
from .distance import dist_rec
from .errors import GraphStructureError, WitnessError
from .multigraph import Multigraph
from .tss import TargetSet, is_target_set, validate_thresholds


@dataclass(frozen=True)
class TssToRecInstance:
    """Bundle-gadget output: graph, chip configuration, and the role maps."""

    gprime: Multigraph
    x: tuple[int, ...]
    N: int
    inner: tuple[int, ...]
    core: tuple[int, ...]
    outer: tuple[int, ...]
    ports: dict[tuple[int, int], int]
    roles: tuple[str, ...]
    circ: frozenset[int]
    bullet: frozenset[int]
    source: Multigraph
    tau: tuple[int, ...]
    forced: int


@dataclass(frozen=True)
class RecToNonhaltInstance:
    """Apex-gadget output: graph, shifted chips, apex id and multiplicity."""

    gpp: Multigraph
    fpp: tuple[int, ...]
    M: int
    new_vertex: int
    roles: tuple[str, ...]
    source: Multigraph
    f: tuple[int, ...]


def _forced_vertices(g: Multigraph, tau) -> tuple[int, ...]:
    """Vertices whose threshold exceeds their degree: every target set holds them."""
    return tuple(v for v in range(g.n) if tau[v] > g.degrees[v])


def reduce_tss_to_rec(g: Multigraph, tau) -> TssToRecInstance:
    """Build the bundle gadget for a simple connected graph with thresholds.

    Forced vertices get gadget threshold 0 and are counted in `forced`.

    Raises GraphStructureError if g is not simple, is disconnected (as its
    subclass DisconnectedGraphError) or has fewer than two vertices, or if
    validate_thresholds rejects tau.
    """
    tau = validate_thresholds(g, tau)
    g.require_connected()
    if g.n < 2:
        raise GraphStructureError("the bundle gadget needs at least two source vertices")
    n = g.n
    forced = _forced_vertices(g, tau)
    bundle = n + 2
    edge_pairs = [(u, v) for u, v, _m in g.edges()]
    inner = tuple(range(n))
    core = tuple(range(n, 2 * n))
    outer = tuple(range(2 * n, 3 * n))
    ports: dict[tuple[int, int], int] = {}
    for j, (u, v) in enumerate(edge_pairs):
        ports[(u, v)] = 3 * n + 2 * j
        ports[(v, u)] = 3 * n + 2 * j + 1
    total = 3 * n + 2 * len(edge_pairs)

    # g is simple, so every gadget pair below is set exactly once
    rows = [{} for _ in range(total)]
    for v in range(n):
        rows[inner[v]][core[v]] = bundle
        rows[core[v]] = {inner[v]: bundle, outer[v]: 1}
        rows[outer[v]][core[v]] = 1
    for (u, v), p in ports.items():
        rows[outer[u]][p] = bundle
        rows[p] = {outer[u]: bundle, inner[v]: 1}
        rows[inner[v]][p] = 1
    gprime = Multigraph._from_rows(rows, connected=True)

    x = [0] * total
    for v in range(n):
        x[outer[v]] = gprime.degrees[outer[v]] - 1
        x[inner[v]] = gprime.degrees[inner[v]] - (0 if v in forced else tau[v])
        x[core[v]] = gprime.degrees[core[v]] - bundle
    for p in ports.values():
        x[p] = gprime.degrees[p] - bundle

    roles = [""] * total
    for v in range(n):
        roles[inner[v]] = f"i:{v}"
        roles[core[v]] = f"c:{v}"
        roles[outer[v]] = f"o:{v}"
    for (u, v), p in ports.items():
        roles[p] = f"p:{u}:{v}"

    circ = frozenset(inner) | frozenset(outer)
    bullet_set = frozenset(core) | frozenset(ports.values())
    for z in range(total):
        if not 0 <= x[z] <= gprime.degrees[z]:
            raise AssertionError(f"gadget chip count out of range at vertex {z}")
    for z in bullet_set:
        if x[z] != 1:
            raise AssertionError(f"core/port vertex {z} must start with one chip")

    return TssToRecInstance(
        gprime=gprime,
        x=tuple(x),
        N=bundle,
        inner=inner,
        core=core,
        outer=outer,
        ports=ports,
        roles=tuple(roles),
        circ=circ,
        bullet=bullet_set,
        source=g,
        tau=tau,
        forced=len(forced),
    )


def lift_target_set(inst: TssToRecInstance, members) -> tuple[int, ...]:
    """Turn a valid target set into a recurrence witness: one chip on the
    outer vertex of every seed that is not forced (the gadget activates
    forced vertices by itself).  The recurrence of x + y is asserted."""
    if isinstance(members, TargetSet):
        members = members.members
    members = tuple(sorted(set(members)))
    if not is_target_set(inst.source, inst.tau, members):
        raise WitnessError(f"{members} is not a target set of the source instance")
    forced = _forced_vertices(inst.source, inst.tau)
    y = [0] * inst.gprime.n
    for v in members:
        if v not in forced:
            y[inst.outer[v]] = 1
    ok, _trace = is_recurrent(inst.gprime, add(inst.x, y))
    if not ok:
        raise WitnessError("lifted seed chips do not make the gadget configuration recurrent")
    return tuple(y)


def extract_target_set(inst: TssToRecInstance, y) -> TargetSet:
    """Read a target set off any recurrence witness y: effective, with x + y
    recurrent.

    Every gadget vertex has an owner, the second field of its role: v for
    v_i, v_c and v_o, and u for the port p_uv.  The set S read off is the
    owners of the vertices that hold chips of y, plus the forced vertices.
    Then |S| <= |supp y| + forced <= deg y + forced, so a minimum witness
    gives a minimum target set, since min TSS = dist_rec + forced.

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
    if not is_effective(y):
        raise WitnessError("witness must be effective")
    if not is_recurrent(inst.gprime, add(inst.x, y))[0]:
        raise WitnessError("x + y is not recurrent")
    members = {int(inst.roles[z].split(":")[1]) for z, k in enumerate(y) if k}
    members.update(_forced_vertices(inst.source, inst.tau))
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


def reduce_rec_to_nonhalt(g: Multigraph, f, M: int | None = None) -> RecToNonhaltInstance:
    """Build the apex gadget.

    A supplied M is checked against the exact requirement
    M > dist_rec(G, f) + max(0, max(f - degree)), which solves a distance.
    """
    g.require_connected()
    f = validate_divisor(g, f)
    if M is None:
        M = default_apex_multiplicity(g, f)
    elif isinstance(M, bool) or not isinstance(M, int) or M < 1:
        raise GraphStructureError(f"apex multiplicity must be a positive integer, got {M!r}")
    else:
        overshoot = max(0, max(x - d for x, d in zip(f, g.degrees)))
        required = dist_rec(g, f).value + overshoot
        if M <= required:
            raise WitnessError(
                f"apex multiplicity {M} must exceed {required} for this instance"
            )
    roles = tuple([f"orig:{v}" for v in range(g.n)] + ["new"])
    return _apex_gadget(g, f, M, roles)


def _apex_gadget(g: Multigraph, f: tuple[int, ...], M: int,
                 roles: tuple[str, ...]) -> RecToNonhaltInstance:
    """The apex gadget of a connected g, with f and M already validated."""
    n = g.n
    apex = n
    rows = [dict(row) for row in g.nbrs]
    for row in rows:
        row[apex] = M
    rows.append(dict.fromkeys(range(n), M))
    gpp = Multigraph._from_rows(rows, connected=True)
    fpp = tuple(list(x + M for x in f) + [0])
    return RecToNonhaltInstance(
        gpp=gpp, fpp=fpp, M=M, new_vertex=apex, roles=roles, source=g, f=f
    )


def reduce_tss_to_nonhalt(g: Multigraph, tau) -> tuple[RecToNonhaltInstance, TssToRecInstance]:
    """Compose the two gadgets with apex multiplicity |V| + 1.

    That choice always suffices: the gadget's distance to recurrence is at
    most |V| (one seed chip per vertex that is not forced) and the gadget
    chips never exceed the gadget degrees (forced vertices get threshold 0),
    so the apex bound holds without solving anything.
    """
    bundle_inst = reduce_tss_to_rec(g, tau)
    apex_inst = _apex_gadget(bundle_inst.gprime, bundle_inst.x, g.n + 1,
                             bundle_inst.roles + ("new",))
    return apex_inst, bundle_inst


def subdivide_to_simple(g: Multigraph, f) -> tuple[Multigraph, tuple[int, ...]]:
    """Replace every parallel edge copy by a two-edge path through a fresh
    vertex carrying zero chips; the result is simple and the rank of the
    divisor is unchanged."""
    g.require_connected()
    f = validate_divisor(g, f)
    n = g.n
    edges = []
    point = n
    for u, v, m in g.edges():
        for _copy in range(m):
            edges.append((u, point, 1))
            edges.append((point, v, 1))
            point += 1
    if point == n:  # single-vertex graph, nothing to subdivide
        return g, f
    g2 = Multigraph(point, edges)
    f2 = tuple(list(f) + [0] * (point - n))
    return g2, f2


def subdivision_roles(g: Multigraph) -> tuple[str, ...]:
    """Role strings matching the id layout of subdivide_to_simple."""
    roles = [f"orig:{v}" for v in range(g.n)]
    for u, v, m in g.edges():
        roles.extend([f"sub:{u}:{v}"] * m)
    return tuple(roles)


def bundle_sidecar(inst: TssToRecInstance | RecToNonhaltInstance,
                   inner: TssToRecInstance | None = None) -> dict:
    """The JSON sidecar of a reduced-instance bundle."""
    if isinstance(inst, TssToRecInstance):
        return {"N": inst.N, "M": None, "roles": list(inst.roles)}
    n_value = inner.N if inner is not None else None
    return {"N": n_value, "M": inst.M, "roles": list(inst.roles)}
