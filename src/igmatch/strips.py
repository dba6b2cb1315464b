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

validate_strip_structure checks them one by one and reports concrete
counterexamples instead of raising; a caller that must reject an invalid
structure calls require_ok on the report.  Two constructions are provided: the
trivial structure (the whole host as a single boundary-less strip) and the
line-graph structure (one single-vertex strip per pre-image edge).  Both are
valid by construction (their docstrings say why), so nothing re-checks them:
validate_strip_structure is for structures a caller supplies.
"""

import functools
from dataclasses import dataclass

from .errors import InputError
from .graphs import Graph, find_star, recognize_line_graph, star_free

# the structure types, their constructions, and the check a supplied structure must pass
__all__ = [
    "Strip",
    "StripStructure",
    "AxiomCheck",
    "StructureReport",
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
    each strip is once per structure.
    """

    r_vertices: tuple
    edges: tuple
    strips: dict
    z_assign: dict

    def __post_init__(self):
        rs = tuple(sorted(self.r_vertices))
        if len(set(rs)) != len(rs):
            raise InputError("duplicate strip-vertex ids")
        norm = []
        seen = set()
        for eid, members in self.edges:
            if eid in seen:
                raise InputError(f"duplicate strip-edge id {eid}")
            seen.add(eid)
            ms = tuple(sorted(members))
            if len(ms) > 2 or len(set(ms)) != len(ms):
                raise InputError(f"edge {eid}: members must be 0..2 distinct ids")
            for r in ms:
                if r not in rs:
                    raise InputError(f"edge {eid}: unknown strip-vertex {r}")
            norm.append((eid, ms))
        if not norm:
            raise InputError("a strip structure needs at least one edge")
        if set(self.strips) != seen or set(self.z_assign) != seen:
            raise InputError("strips and z_assign must be keyed by the edge ids")
        object.__setattr__(self, "r_vertices", rs)
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "strips", dict(self.strips))
        object.__setattr__(self, "z_assign", {e: dict(a) for e, a in self.z_assign.items()})

    @functools.cached_property
    def kinds(self) -> dict:
        return {eid: classify_strip(self.strips[eid]) for eid, _ in self.edges}


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    ok: bool
    failures: tuple = ()


@dataclass(frozen=True)
class StructureReport:
    strip_invariants: AxiomCheck
    partition: AxiomCheck
    claw_free: AxiomCheck
    z_assignment: AxiomCheck
    boundary_cliques: AxiomCheck
    edge_cover: AxiomCheck

    def all_checks(self) -> tuple:
        return (
            self.strip_invariants,
            self.partition,
            self.claw_free,
            self.z_assignment,
            self.boundary_cliques,
            self.edge_cover,
        )

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.all_checks())

    def require_ok(self) -> None:
        """Raise InputError naming the first failed check and its first failure."""
        if not self.ok:
            bad = next(c for c in self.all_checks() if not c.ok)
            detail = f": {bad.failures[0]}" if bad.failures else ""
            raise InputError(f"invalid strip-structure ({bad.name}{detail})")


# ---------------------------------------------------------------------------
# per-strip checks

def strip_invariant_failures(s: Strip, g: Graph | None = None) -> list:
    """All violated strip invariants, as human-readable strings.

    With a host graph, additionally checks that g_map is an injection into
    the host that carries J minus Z edge-exactly onto its image.
    """
    out = []
    j = s.graph
    bad_z = sorted(z for z in s.z if not 0 <= z < j.n)
    if bad_z:
        out.append(f"z vertices {bad_z} outside J")
        return out
    for a in sorted(s.z):
        for b in sorted(s.z):
            if a < b and j.has_edge(a, b):
                out.append(f"Z not independent: {a} and {b} adjacent in J")
    interior = s.interior()
    if not interior:
        out.append("strip has no interior vertices")
    for z in sorted(s.z):
        if not j.neighbors(z):
            out.append(f"boundary of z={z} is empty")
        nb = sorted(j.neighbors(z) - s.z)
        for i, a in enumerate(nb):
            for b in nb[i + 1:]:
                if not j.has_edge(a, b):
                    out.append(f"boundary of z={z} not a clique: {a},{b} non-adjacent")
    if set(s.g_map) != set(interior):
        out.append(
            f"g_map keys {sorted(s.g_map)} differ from interior {sorted(interior)}"
        )
        return out
    if len(set(s.g_map.values())) != len(s.g_map):
        out.append("g_map is not injective")
    if g is not None:
        bad = sorted(v for v in s.g_map.values() if not 0 <= v < g.n)
        if bad:
            out.append(f"g_map images {bad} outside the host")
            return out
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
                out.append(
                    f"g_map not edge-preserving on J pair ({a},{b}) -> "
                    f"({s.g_map[a]},{s.g_map[b]})"
                )
    return out


def classify_strip(s: Strip) -> str:
    """"spot", "stripe", or "neither".

    A spot is the three-vertex path with both ends in Z.  A stripe is any
    strip where no J vertex sees more than one z.  The two are mutually
    exclusive: the spot's middle vertex sees both its z's.
    """
    j = s.graph
    if j.n == 3 and len(s.z) == 2 and len(j.edges) == 2:
        (w,) = [v for v in range(3) if v not in s.z]
        if all(j.has_edge(w, z) for z in s.z):
            return "spot"
    if all(len(j.neighbors(v) & s.z) <= 1 for v in range(j.n)):
        return "stripe"
    return "neither"


# ---------------------------------------------------------------------------
# derived sets

def strip_image(ss: StripStructure, eid) -> frozenset:
    """Host vertices standing in for the strip's interior."""
    return frozenset(ss.strips[eid].g_map.values())


def edge_boundary(ss: StripStructure, eid, r) -> frozenset:
    """Host image of the boundary the strip at eid presents to strip-vertex r."""
    s = ss.strips[eid]
    z = ss.z_assign[eid].get(r)
    if z is None or not 0 <= z < s.graph.n or z not in s.z:
        return frozenset()
    return frozenset(s.g_map[j] for j in s.graph.neighbors(z) if j in s.g_map)


def boundary_clique(ss: StripStructure, r) -> frozenset:
    """C(r): the union of the boundaries facing r, over all edges at r."""
    out = set()
    for eid, members in ss.edges:
        if r in members:
            out |= edge_boundary(ss, eid, r)
    return frozenset(out)


# ---------------------------------------------------------------------------
# validation

def validate_strip_structure(g: Graph, ss: StripStructure) -> StructureReport:
    """Check the five gluing axioms plus the per-strip invariants.

    Purely diagnostic: every section reports pass/fail with concrete
    counterexamples, nothing raises.  Later sections are computed
    defensively so that one broken strip cannot crash the rest.
    """
    strip_fails = []
    for eid, _ in ss.edges:
        for msg in strip_invariant_failures(ss.strips[eid], g):
            strip_fails.append(f"strip {eid}: {msg}")

    # axiom 1: interiors partition the host
    part_fails = []
    owners = {}
    for eid, _ in ss.edges:
        for v in strip_image(ss, eid):
            if not 0 <= v < g.n:
                continue  # reported by the strip invariants
            owners.setdefault(v, []).append(eid)
    for v in range(g.n):
        es = owners.get(v, [])
        if not es:
            part_fails.append(f"host vertex {v} lies in no strip")
        elif len(es) > 1:
            part_fails.append(f"host vertex {v} lies in strips {es}")

    # axiom 2: each J claw-free
    claw_fails = []
    for eid, _ in ss.edges:
        w = find_star(ss.strips[eid].graph, 3)
        if w is not None:
            claw_fails.append(
                f"strip {eid}: claw at J center {w[0]} with legs {w[1:]}"
            )

    # axiom 3: z_assign is a bijection members <-> Z for every edge
    z_fails = []
    for eid, members in ss.edges:
        s = ss.strips[eid]
        assign = ss.z_assign[eid]
        if set(assign) != set(members):
            z_fails.append(
                f"edge {eid}: z assigned for {sorted(assign)} "
                f"but members are {list(members)}"
            )
            continue
        vals = [assign[r] for r in members]
        if len(set(vals)) != len(vals):
            z_fails.append(f"edge {eid}: two members share one z")
        missing = [z for z in vals if z not in s.z]
        if missing:
            z_fails.append(f"edge {eid}: assigned vertices {missing} not in Z")
        elif len(s.z) != len(members):
            z_fails.append(
                f"edge {eid}: |Z| = {len(s.z)} but edge has {len(members)} members"
            )

    # axiom 4: every C(r) induces a clique
    clique_fails = []
    cliques = {r: sorted(boundary_clique(ss, r)) for r in ss.r_vertices}
    for r in ss.r_vertices:
        cl = cliques[r]
        for i, u in enumerate(cl):
            for v in cl[i + 1:]:
                if not g.has_edge(u, v):
                    clique_fails.append(
                        f"C({r}) is not a clique: {u} and {v} non-adjacent"
                    )

    # axiom 5: every host edge inside a strip or inside a C(r)
    cover_fails = []
    images = {eid: strip_image(ss, eid) for eid, _ in ss.edges}
    clique_sets = {r: set(cl) for r, cl in cliques.items()}
    for u, v in g.edges:
        if any(u in img and v in img for img in images.values()):
            continue
        if any(u in cl and v in cl for cl in clique_sets.values()):
            continue
        cover_fails.append(f"edge ({u},{v}) lies in no strip and no C(r)")

    def check(name, fails):
        return AxiomCheck(name, not fails, tuple(fails))

    return StructureReport(
        strip_invariants=check("strip invariants", strip_fails),
        partition=check("interiors partition the host", part_fails),
        claw_free=check("strip graphs claw-free", claw_fails),
        z_assignment=check("one z per member", z_fails),
        boundary_cliques=check("C(r) cliques", clique_fails),
        edge_cover=check("host edges covered", cover_fails),
    )


# ---------------------------------------------------------------------------
# constructions

def trivial_strip_structure(g: Graph) -> StripStructure:
    """The whole host as one strip with no attachments.

    The single edge has no strip-vertices; its strip is (G, empty Z) under
    the identity map.  Valid for every nonempty claw-free host.
    """
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
    """Decompose a connected line graph along its pre-image.

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
    m = recognize_line_graph(g)
    if m is None:
        return None
    nonpendant = {v for v in range(m.n) if m.degree(v) >= 2}
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
