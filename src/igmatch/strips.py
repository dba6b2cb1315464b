"""Strip decompositions of claw-free hosts.

A strip is a small graph J together with an independent set Z of synthetic
attachment vertices.  Removing Z leaves a piece of the host; each z in Z
marks a clique boundary through which that piece meets the rest of the
host.  A strip structure glues strips along a hypergraph index: strip-edges
carry strips, and each strip-vertex collects the boundaries of the strips
around it into one host clique C(r).

Five gluing axioms make the decomposition faithful:

  1. the strip interiors partition the host vertices,
  2. every strip graph J is claw-free,
  3. each strip assigns exactly one z to each of its strip-vertices,
  4. every C(r) induces a clique in the host,
  5. every host edge lies inside one strip interior or inside one C(r).

The StripStructure constructor only normalizes.  validate_strip_structure
is the one gate for a structure a caller supplies: it checks the ids, the
per-strip invariants, the axioms one by one, and last that every strip is a
spot or a stripe, as the claw-free pipeline and the kernel both need; it
raises InputError naming the first fault it meets.  Two constructions are
provided: the trivial structure (the whole host as a single boundary-less
strip) and the line-graph structure of any line graph, connected or not
(one single-vertex strip per pre-image edge).  Both are valid by
construction (their docstrings say why), as are the structures the package
derives from a valid one, so nothing re-checks them.
"""

import functools
from dataclasses import dataclass
from itertools import combinations

from .errors import InputError, expect_type
from .graphs import Graph, find_star, recognize_line_graph, star_free

# the structure types, their constructions, and the check a supplied structure must pass
__all__ = [
    "Strip",
    "StripStructure",
    "strip_image",
    "boundary_clique",
    "validate_strip_structure",
    "trivial_strip_structure",
    "line_graph_strip_structure",
]


# ---------------------------------------------------------------------------
# data model

@dataclass(frozen=True)
class Strip:
    """A graph J, an independent attachment set Z, and the host map.

    g_map sends every non-Z vertex of J to the host vertex it stands for;
    Z vertices are synthetic and have no host counterpart.
    """

    graph: Graph
    z: frozenset
    g_map: dict

    def __post_init__(self):
        object.__setattr__(self, "z", frozenset(self.z))
        object.__setattr__(self, "g_map", dict(self.g_map))

    def interior(self) -> tuple:
        """Non-Z vertices of J in increasing order."""
        return tuple(v for v in range(self.graph.n) if v not in self.z)


@dataclass(frozen=True)
class StripStructure:
    """Strips glued along a hypergraph of strip-vertices.

    edges holds (edge id, member strip-vertices) pairs; members may be
    empty, a single strip-vertex, or two distinct strip-vertices.  Parallel
    edges are allowed (distinct ids, same members).  z_assign names, for
    every edge and every member r of it, the z vertex of that strip that
    faces r.  kinds maps every edge id to the ``classify_strip`` result of
    its strip; it is computed on first use and kept, so a solve settles what
    each strip is once per structure.  The constructor sorts the strip-vertex
    ids and each edge's members and copies the dicts; it checks nothing.
    """

    r_vertices: tuple
    edges: tuple
    strips: dict
    z_assign: dict

    def __post_init__(self):
        object.__setattr__(self, "r_vertices", tuple(sorted(self.r_vertices)))
        object.__setattr__(self, "edges", tuple((e, tuple(sorted(ms))) for e, ms in self.edges))
        object.__setattr__(self, "strips", dict(self.strips))
        object.__setattr__(self, "z_assign", {e: dict(a) for e, a in self.z_assign.items()})

    @functools.cached_property
    def kinds(self) -> dict:
        return {eid: classify_strip(self.strips[eid]) for eid, _ in self.edges}


# ---------------------------------------------------------------------------
# per-strip checks

def strip_invariant_failures(s: Strip, g: Graph):
    """Yield every violated strip invariant, as a human-readable string.

    Past the strip's own invariants, checks that g_map is an injection into
    the host g that carries J minus Z edge-exactly onto its image.  A fault
    that later invariants cannot be read past (a non-integer vertex id, a Z
    vertex outside J, g_map keys that are not the interior, an image outside
    the host) is the last one yielded.
    """
    j = s.graph
    bad_ids = [x for x in (*s.z, *s.g_map, *s.g_map.values()) if type(x) is not int]
    if bad_ids:
        yield f"vertex ids must be integers, not {bad_ids[0]!r}"
        return
    bad_z = sorted(z for z in s.z if not 0 <= z < j.n)
    if bad_z:
        yield f"z vertices {bad_z} outside J"
        return
    for a, b in combinations(sorted(s.z), 2):
        if j.has_edge(a, b):
            yield f"Z not independent: {a} and {b} adjacent in J"
    interior = s.interior()
    if not interior:
        yield "strip has no interior vertices"
    for z in sorted(s.z):
        if not j.neighbors(z):
            yield f"boundary of z={z} is empty"
        for a, b in combinations(sorted(j.neighbors(z) - s.z), 2):
            if not j.has_edge(a, b):
                yield f"boundary of z={z} not a clique: {a},{b} non-adjacent"
    if set(s.g_map) != set(interior):
        yield f"g_map keys {sorted(s.g_map)} differ from interior {sorted(interior)}"
        return
    if len(set(s.g_map.values())) != len(s.g_map):
        yield "g_map is not injective"
    bad = sorted(v for v in s.g_map.values() if not 0 <= v < g.n)
    if bad:
        yield f"g_map images {bad} outside the host"
        return
    # a pair can differ only where J or the host has an edge, so compare
    # neighbour sets, the host's pulled back through the inverse of g_map
    inv: dict = {}
    for a, v in s.g_map.items():
        inv.setdefault(v, []).append(a)
    image = set(inv)
    for a in interior:
        in_j = {b for b in j.neighbors(a) if b > a and b in s.g_map}
        in_g = {b for v in g.neighbors(s.g_map[a]) & image for b in inv[v] if b > a}
        for b in sorted(in_j ^ in_g):
            yield (f"g_map not edge-preserving on J pair ({a},{b}) -> "
                   f"({s.g_map[a]},{s.g_map[b]})")


def classify_strip(s: Strip) -> str:
    """"spot", "stripe", or "neither".

    A spot is the three-vertex path with both ends in Z.  A stripe is any
    strip where no J vertex sees more than one z.  The two are mutually
    exclusive: the spot's middle vertex sees both its z's.
    """
    j = s.graph
    if j.n == 3 and len(s.z) == 2 and not j.has_edge(*s.z):
        (w,) = {0, 1, 2} - s.z
        if j.degree(w) == 2:
            return "spot"
    if all(len(j.neighbors(v) & s.z) <= 1 for v in range(j.n)):
        return "stripe"
    return "neither"


# ---------------------------------------------------------------------------
# derived sets

def strip_image(ss: StripStructure, eid) -> frozenset:
    """Host vertices standing in for the strip's interior."""
    expect_type(ss, StripStructure)
    return frozenset(ss.strips[eid].g_map.values())


def boundary_clique(ss: StripStructure, r) -> frozenset:
    """C(r): the host images of the boundaries facing r, over all edges at r."""
    expect_type(ss, StripStructure)
    out = set()
    for eid, members in ss.edges:
        if r in members:
            s = ss.strips[eid]
            out.update(s.g_map[j] for j in s.graph.neighbors(ss.z_assign[eid][r]))
    return frozenset(out)


# ---------------------------------------------------------------------------
# validation

def _invalid(check: str, fault: str) -> InputError:
    return InputError(f"invalid strip-structure ({check}: {fault})")


def validate_strip_structure(g: Graph, ss: StripStructure) -> None:
    """Raise InputError naming the first fault of a structure a caller supplies.

    The checks run in order, and each trusts the ones before it: the ids,
    the per-strip invariants, the five gluing axioms, and last the rule that
    every strip is a spot or a stripe, which both the pipeline and the
    kernel need.  Within a check, edges, host vertices and host edges are
    read in the structure's and the host's order.
    """
    expect_type(g, Graph)
    expect_type(ss, StripStructure)
    rs = set(ss.r_vertices)
    if len(rs) != len(ss.r_vertices):
        raise _invalid("ids", "duplicate strip-vertex ids")
    seen = set()
    for eid, ms in ss.edges:
        if eid in seen:
            raise _invalid("ids", f"duplicate strip-edge id {eid}")
        seen.add(eid)
        if len(ms) > 2 or len(set(ms)) != len(ms):
            raise _invalid("ids", f"edge {eid}: members must be 0..2 distinct ids")
        for r in ms:
            if r not in rs:
                raise _invalid("ids", f"edge {eid}: unknown strip-vertex {r}")
    if not seen:
        raise _invalid("ids", "a strip structure needs at least one edge")
    if set(ss.strips) != seen or set(ss.z_assign) != seen:
        raise _invalid("ids", "strips and z_assign must be keyed by the edge ids")

    for eid, _ in ss.edges:
        fault = next(strip_invariant_failures(ss.strips[eid], g), None)
        if fault is not None:
            raise _invalid("strip invariants", f"strip {eid}: {fault}")

    # axiom 1: interiors partition the host
    owners = {}
    for eid, _ in ss.edges:
        for v in strip_image(ss, eid):
            owners.setdefault(v, []).append(eid)
    for v in range(g.n):
        es = owners.get(v)
        if es is None or len(es) > 1:
            where = f"in strips {es}" if es else "in no strip"
            raise _invalid("interiors partition the host", f"host vertex {v} lies {where}")

    # axiom 2: each J claw-free
    for eid, _ in ss.edges:
        w = find_star(ss.strips[eid].graph, 3)
        if w is not None:
            raise _invalid("strip graphs claw-free",
                           f"strip {eid}: claw at J center {w[0]} with legs {w[1:]}")

    # axiom 3: z_assign is a bijection members <-> Z for every edge
    for eid, members in ss.edges:
        s = ss.strips[eid]
        assign = ss.z_assign[eid]
        if set(assign) != set(members):
            try:
                keys = sorted(assign)
            except TypeError:  # keys of types that do not compare
                keys = sorted(assign, key=repr)
            raise _invalid("one z per member", f"edge {eid}: z assigned for {keys} "
                                               f"but members are {list(members)}")
        vals = [assign[r] for r in members]
        if len(set(vals)) != len(vals):
            raise _invalid("one z per member", f"edge {eid}: two members share one z")
        missing = [z for z in vals if type(z) is not int or z not in s.z]
        if missing:
            raise _invalid("one z per member", f"edge {eid}: assigned vertices {missing} not in Z")
        if len(s.z) != len(members):
            raise _invalid("one z per member", f"edge {eid}: |Z| = {len(s.z)} but edge has "
                                               f"{len(members)} members")

    # axiom 4: every C(r) induces a clique
    cliques = {r: boundary_clique(ss, r) for r in ss.r_vertices}
    for r, cl in cliques.items():
        for u, v in combinations(sorted(cl), 2):
            if not g.has_edge(u, v):
                raise _invalid("C(r) cliques", f"C({r}) is not a clique: {u} and {v} non-adjacent")

    # axiom 5: every host edge inside a strip or inside a C(r)
    pieces = [strip_image(ss, eid) for eid, _ in ss.edges] + list(cliques.values())
    for u, v in g.edges:
        if not any(u in p and v in p for p in pieces):
            raise _invalid("host edges covered", f"edge ({u},{v}) lies in no strip and no C(r)")

    # last: every strip a spot or a stripe
    for eid, kind in ss.kinds.items():
        if kind == "neither":
            raise _invalid("spots and stripes", f"strip-edge {eid} is neither a spot nor a stripe")


# ---------------------------------------------------------------------------
# constructions

def trivial_strip_structure(g: Graph) -> StripStructure:
    """The whole host as one strip with no attachments.

    The single edge has no strip-vertices; its strip is (G, empty Z) under
    the identity map.  Valid for every nonempty claw-free host.
    """
    expect_type(g, Graph)
    if g.n == 0:
        raise InputError("host must be nonempty")
    if not star_free(g, 3):
        raise InputError("host is not claw-free")
    strip = Strip(graph=g, z=frozenset(), g_map={v: v for v in range(g.n)})
    return StripStructure(
        r_vertices=(),
        edges=((0, ()),),
        strips={0: strip},
        z_assign={0: {}},
    )


# the strip of a pre-image edge with m = 0, 1, 2 non-pendant ends: host vertex
# 0 joined to one z per end; Graph is immutable, so all such strips share it
_EDGE_STRIPS = [(Graph(1 + m, [(0, 1 + t) for t in range(m)]), frozenset(range(1, 1 + m)))
                for m in range(3)]


def line_graph_strip_structure(g: Graph) -> StripStructure | None:
    """Decompose any nonempty line graph, connected or not, along its pre-image.

    Pre-image vertices of degree at least two become strip-vertices; every
    pre-image edge becomes a strip-edge whose strip is the single host
    vertex it stands for, with one z per non-pendant endpoint.  Returns
    None when the host is not the line graph of a multigraph.

    The result is valid by construction, as ``recognize_line_graph`` has
    checked L(M) = g for the pre-image M.  Each host vertex is one pre-image
    edge, hence one one-vertex strip (partition).  A host edge joins two
    pre-image edges with a common end r, which has degree at least two, so
    it is a strip-vertex and the edge lies in C(r) (cover).  The edges at r
    are pairwise adjacent in L(M), so C(r) is a clique.  Each strip is one
    vertex with one z per non-pendant end, a star with no claw, so the
    z-assignment and the strip invariants hold.
    """
    expect_type(g, Graph)
    m = recognize_line_graph(g)
    if m is None:
        return None
    degree = [0] * m.n
    for a, b in m.edges:
        degree[a] += 1
        degree[b] += 1
    nonpendant = {v for v in range(m.n) if degree[v] >= 2}
    edges = []
    strips = {}
    z_assign = {}
    for i, (a, b) in enumerate(m.edges):
        members = tuple(sorted({a, b} & nonpendant))
        j, z = _EDGE_STRIPS[len(members)]
        edges.append((i, members))
        strips[i] = Strip(graph=j, z=z, g_map={0: i})
        z_assign[i] = {r: 1 + t for t, r in enumerate(members)}
    return StripStructure(
        r_vertices=tuple(sorted(nonpendant)),
        edges=tuple(edges),
        strips=strips,
        z_assign=z_assign,
    )
