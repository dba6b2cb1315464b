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
counterexamples instead of raising.  Two constructions are provided: the
trivial structure (the whole host as a single boundary-less strip) and the
line-graph structure (one single-vertex strip per pre-image edge).
"""

from dataclasses import dataclass

from .errors import InputError, SizeCapError
from .graphs import (
    Graph,
    Matching,
    brute_force_mis,
    find_star,
    recognize_line_graph,
    star_free,
)
from .models import FuzzyArcModel, realize

__all__ = [
    "Strip",
    "StripStructure",
    "AxiomCheck",
    "StructureReport",
    "CoveredSubgraph",
    "EdgeConformance",
    "ConformanceReport",
    "strip_invariant_failures",
    "classify_strip",
    "strip_image",
    "edge_boundary",
    "boundary_clique",
    "validate_strip_structure",
    "covered_subgraph",
    "trivial_strip_structure",
    "line_graph_strip_structure",
    "conformance_check",
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
    faces r.
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

    def members(self, eid) -> tuple:
        for e, ms in self.edges:
            if e == eid:
                return ms
        raise InputError(f"no strip-edge {eid}")


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
    warnings: tuple = ()

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


@dataclass(frozen=True)
class CoveredSubgraph:
    """Strip-edges whose interior meets a matching, and strip-vertices
    whose clique C(r) does."""

    edge_ids: tuple
    vertex_ids: tuple


@dataclass(frozen=True)
class EdgeConformance:
    eid: object
    ok: bool
    kind: str
    detail: str


@dataclass(frozen=True)
class ConformanceReport:
    findings: tuple
    warnings: tuple = ()

    @property
    def ok(self) -> bool:
        return all(f.ok for f in self.findings)


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
        for i, a in enumerate(interior):
            for b in interior[i + 1:]:
                if j.has_edge(a, b) != g.has_edge(s.g_map[a], s.g_map[b]):
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

    warnings = []
    sizes = {len(ms) for _, ms in ss.edges}
    if 0 in sizes and sizes != {0}:
        empties = [eid for eid, ms in ss.edges if not ms]
        warnings.append(
            f"edges {empties} have no strip-vertices but other edges do"
        )

    def check(name, fails):
        return AxiomCheck(name, not fails, tuple(fails))

    return StructureReport(
        strip_invariants=check("strip invariants", strip_fails),
        partition=check("interiors partition the host", part_fails),
        claw_free=check("strip graphs claw-free", claw_fails),
        z_assignment=check("one z per member", z_fails),
        boundary_cliques=check("C(r) cliques", clique_fails),
        edge_cover=check("host edges covered", cover_fails),
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# covered subgraph

def covered_subgraph(ss: StripStructure, m: Matching) -> CoveredSubgraph:
    """Strip-edges and strip-vertices touched by the matching.

    An edge is covered when its interior image meets the matching; a
    strip-vertex when its clique C(r) does.  Every covered strip-vertex is
    automatically an endpoint of a covered edge, because the vertices of
    C(r) live inside the strips around r.
    """
    mv = m.vertex_set()
    eids = tuple(
        eid for eid, _ in ss.edges if strip_image(ss, eid) & mv
    )
    rs = tuple(r for r in ss.r_vertices if boundary_clique(ss, r) & mv)
    return CoveredSubgraph(edge_ids=eids, vertex_ids=rs)


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


def line_graph_strip_structure(g: Graph) -> StripStructure | None:
    """Decompose a connected line graph along its pre-image.

    Pre-image vertices of degree at least two become strip-vertices; every
    pre-image edge becomes a strip-edge whose strip is the single host
    vertex it stands for, with one z per non-pendant endpoint.  Returns
    None when the host is not the line graph of a multigraph.
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
        j = Graph(1 + len(members), [(0, 1 + t) for t in range(len(members))])
        edges.append((i, members))
        strips[i] = Strip(graph=j, z=frozenset(range(1, 1 + len(members))), g_map={0: i})
        z_assign[i] = {r: 1 + t for t, r in enumerate(members)}
    return StripStructure(
        r_vertices=tuple(sorted(nonpendant)),
        edges=tuple(edges),
        strips=strips,
        z_assign=z_assign,
    )


# ---------------------------------------------------------------------------
# conformance with the decomposition theorem

def _fuzzy_cert_consistent(s: Strip, fam: FuzzyArcModel) -> str | None:
    """None when the model realizes the strip interior, else a mismatch note.

    Arc i of the model stands for the i-th interior vertex of J in
    increasing order; the realized graph must reproduce the interior
    edge-for-edge.
    """
    interior = s.interior()
    if len(fam.arcs.arcs) != len(interior):
        return (
            f"certificate has {len(fam.arcs.arcs)} arcs "
            f"for {len(interior)} interior vertices"
        )
    realized = realize(fam)
    for a in range(realized.n):
        for b in range(a + 1, realized.n):
            if realized.has_edge(a, b) != s.graph.has_edge(interior[a], interior[b]):
                return (
                    f"certificate arcs ({a},{b}) disagree with "
                    f"J pair ({interior[a]},{interior[b]})"
                )
    return None


def conformance_check(ss: StripStructure, certificates=None) -> ConformanceReport:
    """Check every strip against the decomposition shape.

    A spot passes outright.  A stripe passes when it has one or two
    attachment vertices and is backed up either by a consistent fuzzy
    circular-arc certificate or by a verified independence number of at
    most four.  The "alpha4" claim is accepted untested, with a warning,
    when the strip is too large for the brute-force bound.
    """
    certificates = dict(certificates or {})
    unknown = sorted(set(certificates) - {eid for eid, _ in ss.edges})
    if unknown:
        raise InputError(f"certificates for unknown edges {unknown}")
    for eid, cert in certificates.items():
        if not isinstance(cert, FuzzyArcModel) and cert != "alpha4":
            raise InputError(f"edge {eid}: unrecognized certificate {cert!r}")
    findings = []
    warnings = []
    for eid, _ in ss.edges:
        s = ss.strips[eid]
        kind = classify_strip(s)
        cert = certificates.get(eid)
        if kind == "spot":
            findings.append(EdgeConformance(eid, True, kind, "spot"))
            continue
        if kind == "neither":
            findings.append(
                EdgeConformance(eid, False, kind, "neither a spot nor a stripe")
            )
            continue
        if not 1 <= len(s.z) <= 2:
            findings.append(
                EdgeConformance(
                    eid, False, kind, f"stripe with {len(s.z)} attachment vertices"
                )
            )
            continue
        if isinstance(cert, FuzzyArcModel):
            note = _fuzzy_cert_consistent(s, cert)
            if note is None:
                findings.append(
                    EdgeConformance(eid, True, kind, "fuzzy certificate consistent")
                )
            else:
                findings.append(EdgeConformance(eid, False, kind, note))
            continue
        try:
            alpha, _ = brute_force_mis(s.graph)
        except SizeCapError:
            if cert == "alpha4":
                warnings.append(
                    f"edge {eid}: alpha4 claim accepted untested, J too large"
                )
                findings.append(
                    EdgeConformance(eid, True, kind, "alpha4 claimed, not verified")
                )
            else:
                findings.append(
                    EdgeConformance(
                        eid, False, kind,
                        "J too large for the brute-force bound; supply a certificate",
                    )
                )
            continue
        if alpha <= 4:
            findings.append(
                EdgeConformance(eid, True, kind, f"independence number {alpha}")
            )
        else:
            findings.append(
                EdgeConformance(
                    eid, False, kind, f"independence number {alpha} exceeds 4"
                )
            )
    return ConformanceReport(findings=tuple(findings), warnings=tuple(warnings))
