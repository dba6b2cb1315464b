"""Shrinking the matching problem on a strip structure to weighted independent set.

Everything here assumes a complete pattern.  Four answer-preserving rules
(useless-vertex pruning, boundary-clique deletion at high dis-degree, the
promising-strip certificate and the parallel-strip reduction step) bound the
strip graph by a polynomial in the pattern order h and the target count k.
On a bounded structure every strip admits only a constant repertoire of
behaviours towards a matching: build_wis_instance lists one selection clique
of behaviours per strip-edge and per strip-vertex and joins incompatible
behaviours by edges, so independent sets of full cardinality are exactly the
coherent behaviour descriptions and the best achievable weight equals the
maximum matching size.
"""

import itertools
from dataclasses import dataclass, replace

from .errors import InputError, InternalError
from .fuzzy_solver import solve_igm_small_alpha
from .graphs import (
    Graph,
    Matching,
    Occurrence,
    Pattern,
    brute_force_wis,
    enumerate_occurrences,
    find_occurrence,
    max_igm,
)
from .strips import (
    Strip,
    StripStructure,
    boundary_clique,
    classify_strip,
    line_graph_strip_structure,
    strip_image,
    validate_strip_structure,
)

__all__ = [
    "BoundResult",
    "Distribution",
    "WisInstance",
    "apply_dis_degree_rule",
    "bound_strip_graph",
    "build_wis_instance",
    "classify_promising",
    "derive_strip_structure",
    "dis_degree",
    "dis_degree_threshold",
    "distributions",
    "kernelize",
    "prune_useless_vertices",
    "reduction_step_nonpromising",
    "strip_edge_ceiling",
    "stripe_profile_weight",
    "trivial_no_wis",
    "trivial_yes_wis",
    "wis_size_ceiling",
]


def _require_kernel_pattern(h: Pattern) -> None:
    if not h.is_connected:
        raise InputError("kernelization needs a connected pattern")
    if not h.is_complete:
        raise InputError("kernelization is implemented for complete patterns only")
    if h.h < 2:
        # A one-vertex pattern asks for a plain independent set; that case
        # never reaches the strip machinery.
        raise InputError("the pattern needs at least two vertices")


# ---------------------------------------------------------------------------
# bounding rules

def prune_useless_vertices(g: Graph, h: Pattern) -> Graph:
    """Drop every host vertex that no copy of the pattern uses.

    Such vertices can join no matching at any target, so the answer is
    preserved.  Survivors keep their relative order.
    """
    used = set()
    for occ in enumerate_occurrences(g, h):
        used.update(occ.vertices)
    if len(used) == g.n:
        return g
    return g.induced(sorted(used))


def dis_degree(ss: StripStructure, r) -> int:
    """Number of distinct strip-graph neighbours of r; parallel edges collapse."""
    if r not in ss.r_vertices:
        raise InputError(f"unknown strip-vertex {r!r}")
    nbrs = set()
    for _, ms in ss.edges:
        if r in ms:
            nbrs.update(m for m in ms if m != r)
    return len(nbrs)


def dis_degree_threshold(h: int, k: int) -> int:
    """Distinct-neighbour count at which deleting C(r) costs exactly one copy."""
    return 2 * h * (k - 1) + h


def apply_dis_degree_rule(g: Graph, ss: StripStructure, h: Pattern, k: int, r):
    """Delete the boundary clique C(r) and lower the target by one.

    Sound once r has at least 2h(k-1) + h distinct strip-graph neighbours:
    the copies of any (k-1)-matching of g - C(r) block boundaries at r in
    fewer than that many directions, so one more copy through C(r) can
    always be added back; conversely a k-matching loses at most one copy to
    C(r).  Returns (reduced host, k - 1).
    """
    _require_kernel_pattern(h)
    if k < 1:
        raise InputError("the dis-degree rule needs a positive target")
    d = dis_degree(ss, r)
    thr = dis_degree_threshold(h.h, k)
    if d < thr:
        raise InputError(f"dis-degree of {r!r} is {d}, below the threshold {thr}")
    cr = boundary_clique(ss, r)
    return g.induced([v for v in range(g.n) if v not in cr]), k - 1


def classify_promising(ss: StripStructure, h: Pattern) -> dict:
    """Map each strip-edge to whether its strip holds a copy avoiding N[Z].

    A copy in that region neither contains nor borders any vertex outside
    its strip, so k promising strip-edges certify a yes answer outright.
    """
    _require_kernel_pattern(h)
    out = {}
    for eid, _ in ss.edges:
        out[eid] = _promising_occurrence(ss.strips[eid], h) is not None
    return out


def _promising_occurrence(s: Strip, h: Pattern) -> Occurrence | None:
    banned = s.graph.closed_neighborhood_of_set(s.z) if s.z else set()
    region = [v for v in s.interior() if v not in banned]
    if not region:
        return None
    return find_occurrence(s.graph, h, within=region)


def reduction_step_nonpromising(g: Graph, ss: StripStructure, x, y, h: Pattern):
    """Thin the non-promising strips between x and y down to a fixed stock.

    Keeps up to 2h stripes (their two boundaries are usable independently)
    and, when fewer than h stripes exist, tops the stock up to h strips with
    spots; the interiors of the remaining non-promising strips between the
    pair are deleted from the host.  Any matching copy inside a deleted
    strip had to use C(x) or C(y), and a kept strip can always stand in for
    it, so the answer is preserved.  Returns (reduced host, structure).
    """
    _require_kernel_pattern(h)
    for r in {x, y}:
        if r not in ss.r_vertices:
            raise InputError(f"unknown strip-vertex {r!r}")
    target = tuple(sorted({x, y}))
    promising = classify_promising(ss, h)
    nonprom = [eid for eid, ms in ss.edges if ms == target and not promising[eid]]
    if len(nonprom) <= 2 * h.h:
        raise InputError(
            f"{len(nonprom)} non-promising strip-edges between {x!r} and {y!r}; "
            f"the reduction step needs more than {2 * h.h}"
        )
    stripes = [e for e in nonprom if classify_strip(ss.strips[e]) == "stripe"]
    rest = [e for e in nonprom if classify_strip(ss.strips[e]) != "stripe"]
    keep = set(stripes[: 2 * h.h])
    if len(stripes) < h.h:
        keep.update(rest[: h.h - len(stripes)])
    return _delete_strips(g, ss, [e for e in nonprom if e not in keep])


def _delete_strips(g: Graph, ss: StripStructure, drop) -> tuple[Graph, StripStructure]:
    dropped = set(drop)
    gone = set()
    for eid in dropped:
        gone |= strip_image(ss, eid)
    kept_hosts = [v for v in range(g.n) if v not in gone]
    remap = {v: i for i, v in enumerate(kept_hosts)}
    edges, strips, z_assign = [], {}, {}
    for eid, ms in ss.edges:
        if eid in dropped:
            continue
        s = ss.strips[eid]
        try:
            g_map = {jv: remap[hv] for jv, hv in s.g_map.items()}
        except KeyError:
            raise InputError(
                "strip interiors overlap a deleted strip; validate the structure first"
            ) from None
        edges.append((eid, ms))
        strips[eid] = Strip(s.graph, s.z, g_map)
        z_assign[eid] = dict(ss.z_assign[eid])
    live = sorted({m for _, ms in edges for m in ms})
    return g.induced(kept_hosts), StripStructure(tuple(live), tuple(edges), strips, z_assign)


# ---------------------------------------------------------------------------
# structure derivation

def derive_strip_structure(g: Graph) -> StripStructure | None:
    """Line-graph strip structure of each component, glued into one.

    Returns None when some component is not a line graph.  Strip-vertex and
    strip-edge ids are renumbered consecutively across components.
    """
    if g.n == 0:
        return None
    comps = g.components()
    if len(comps) == 1:
        return line_graph_strip_structure(g)
    r_vertices, edges, strips, z_assign = [], [], {}, {}
    r_base = e_base = 0
    for comp in comps:
        part = line_graph_strip_structure(g.induced(comp))
        if part is None:
            return None
        rmap = {r: r_base + i for i, r in enumerate(part.r_vertices)}
        for local_eid, ms in part.edges:
            eid = e_base + local_eid
            s = part.strips[local_eid]
            edges.append((eid, tuple(sorted(rmap[m] for m in ms))))
            strips[eid] = Strip(s.graph, s.z, {jv: comp[hv] for jv, hv in s.g_map.items()})
            z_assign[eid] = {rmap[r]: z for r, z in part.z_assign[local_eid].items()}
        r_vertices.extend(rmap.values())
        r_base += len(rmap)
        e_base += len(part.edges)
    return StripStructure(tuple(r_vertices), tuple(edges), strips, z_assign)


# ---------------------------------------------------------------------------
# the bounding loop

def strip_edge_ceiling(h: int, k: int) -> int:
    """Certified strip-edge count once the bounding loop settles.

    8h^3k^2 + k bounds the edges whose strips a maximal matching of size
    below k never enters, h(k-1) the edges whose strips it does.
    """
    return 8 * h ** 3 * k ** 2 + k + h * (k - 1)


@dataclass(frozen=True)
class BoundResult:
    """Outcome of the strip-graph bounding loop.

    status "decided": answer settled (witness present for yes).
    status "reduced": graph, k and ss carry the bounded equivalent instance.
    status "partial": the loop stopped early; notes say why, and the fields
    hold the furthest consistent state (ss may be None).
    """

    status: str
    answer: bool | None = None
    witness: Matching | None = None
    graph: Graph | None = None
    k: int | None = None
    ss: StripStructure | None = None
    notes: tuple = ()


def _greedy_maximal_matching(g: Graph, h: Pattern) -> list:
    """First-found copies, each time removing the closed neighbourhood."""
    left = set(range(g.n))
    out = []
    while left:
        occ = find_occurrence(g, h, within=sorted(left))
        if occ is None:
            break
        out.append(occ)
        for v in occ.vertices:
            left -= g.closed_neighborhood(v)
    return out


def _promising_witness(ss: StripStructure, h: Pattern, eids) -> Matching:
    occs = []
    for eid in eids:
        s = ss.strips[eid]
        occ = _promising_occurrence(s, h)
        if occ is None:
            raise InternalError(f"strip {eid!r} lost its promising occurrence")
        occs.append(Occurrence(tuple(s.g_map[v] for v in occ.vertices)))
    return Matching(tuple(occs))


def _overloaded_pair(ss: StripStructure, promising: dict, h: Pattern):
    counts = {}
    for eid, ms in ss.edges:
        if ms and not promising[eid]:
            counts[ms] = counts.get(ms, 0) + 1
    for ms in sorted(counts):
        if counts[ms] > 2 * h.h:
            return ms[0], ms[-1]
    return None


def bound_strip_graph(g: Graph, h: Pattern, k: int,
                      ss: StripStructure | None = None) -> BoundResult:
    """Run the reduction loop until the strip graph is provably small.

    Each round prunes useless vertices, tries to settle the answer outright
    (independence number at most 4, a greedy maximal matching of size k, or
    k promising strip-edges), then fires the first applicable rule: clique
    deletion at high dis-degree, or the parallel-strip reduction step.
    Without ``ss`` the structure is re-derived from the line-graph
    pre-images (``derive_strip_structure``) after every mutation.  A supplied
    ``ss`` is validated, gets a single round, and the loop stops as soon as a
    mutation invalidates it.
    """
    _require_kernel_pattern(h)
    if not isinstance(k, int) or k < 0:
        raise InputError("k must be a nonnegative integer")
    supplied = ss is not None
    notes = []
    if supplied:
        report = validate_strip_structure(g, ss)
        if not report.ok:
            first = next(m for c in report.all_checks() for m in c.failures)
            raise InputError(f"supplied strip structure invalid: {first}")
        notes.append("supplied strip structure: one bounding round, no re-derivation")

    for _ in range(g.n + k + 2):
        if k <= 0:
            return BoundResult("decided", True, Matching(()), g, k, ss, tuple(notes))
        pruned = prune_useless_vertices(g, h)
        if pruned.n < g.n:
            notes.append(f"pruned {g.n - pruned.n} vertices that join no copy")
            g = pruned
            if g.n == 0:
                return BoundResult("decided", False, None, g, k, None, tuple(notes))
            if supplied:
                notes.append("pruning invalidated the supplied structure; stopping")
                return BoundResult("partial", None, None, g, k, None, tuple(notes))
            ss = None
        if g.n == 0:
            return BoundResult("decided", False, None, g, k, ss, tuple(notes))
        has5, _ = brute_force_wis(g, [1] * g.n, 5, 0)
        if not has5:
            m = solve_igm_small_alpha(g, h, k, trust_alpha=True)
            notes.append("independence number at most 4; decided directly")
            return BoundResult("decided", m is not None, m, g, k, ss, tuple(notes))
        greedy = _greedy_maximal_matching(g, h)
        if len(greedy) >= k:
            wit = Matching(tuple(greedy[:k]))
            wit.check(g, h)
            notes.append("greedy maximal matching reached the target")
            return BoundResult("decided", True, wit, g, k, ss, tuple(notes))
        if ss is None:
            ss = derive_strip_structure(g)
            if ss is None:
                notes.append("host is not a line graph; cannot derive a strip structure")
                return BoundResult("partial", None, None, g, k, None, tuple(notes))
        thr = dis_degree_threshold(h.h, k)
        big = next((r for r in ss.r_vertices if dis_degree(ss, r) >= thr), None)
        if big is not None:
            g, k = apply_dis_degree_rule(g, ss, h, k, big)
            notes.append(f"dis-degree rule removed C({big!r}); target now {k}")
            if supplied:
                notes.append("clique deletion invalidated the supplied structure; stopping")
                return BoundResult("partial", None, None, g, k, None, tuple(notes))
            ss = None
            continue
        promising = classify_promising(ss, h)
        prom_ids = [eid for eid, _ in ss.edges if promising[eid]]
        if len(prom_ids) >= k:
            wit = _promising_witness(ss, h, prom_ids[:k])
            wit.check(g, h)
            notes.append(f"{len(prom_ids)} promising strip-edges certify the target")
            return BoundResult("decided", True, wit, g, k, ss, tuple(notes))
        pair = _overloaded_pair(ss, promising, h)
        if pair is not None:
            x, y = pair
            g, ss = reduction_step_nonpromising(g, ss, x, y, h)
            notes.append(f"reduction step thinned the strips between {x!r} and {y!r}")
            if supplied:
                notes.append("one bounding round applied; stopping")
                return BoundResult("partial", None, None, g, k, ss, tuple(notes))
            continue
        notes.append(
            f"strip graph bounded: {len(ss.edges)} strip-edges "
            f"(ceiling {strip_edge_ceiling(h.h, k)})"
        )
        return BoundResult("reduced", None, None, g, k, ss, tuple(notes))
    raise InternalError("bounding loop failed to make progress")


# ---------------------------------------------------------------------------
# stripe behaviour weights

def stripe_profile_weight(strip: Strip, i, j, f, h: Pattern) -> int | None:
    """Best matching size inside a stripe under a boundary behaviour, or None.

    Behaviour index -1 demands that some copy of the strip's matching touch
    that boundary; an index t >= 0 reserves t boundary vertices for one
    outside copy and bans their closed neighbourhood from the strip.  With
    two nonnegative reservations the flavour decides their relation: "I"
    keeps them mutually non-adjacent (two distinct outside copies), "C"
    requires them to form one clique (a single copy spanning both ends),
    which also needs the reservations to leave room for vertices outside the
    strip, i + j < h.  None marks an unsatisfiable behaviour.  For strips
    with a single boundary pass j=None, f=None.
    """
    _require_kernel_pattern(h)
    if classify_strip(strip) == "neither":
        raise InputError("profile weights are defined for stripes only")
    zs = sorted(strip.z)
    if not zs:
        raise InputError("profile weights need at least one attachment vertex")
    if len(zs) > 2:
        raise InputError("strips attach through at most two boundaries")
    hh = h.h
    if not isinstance(i, int) or not -1 <= i < hh:
        raise InputError(f"behaviour index i={i!r} outside -1..{hh - 1}")
    if len(zs) == 1:
        if j is not None or f is not None:
            raise InputError("single-boundary strips take j=None, f=None")
        return _boundary_constrained_weight(strip, ((zs[0], i),), None, h)
    if not isinstance(j, int) or not -1 <= j < hh:
        raise InputError(f"behaviour index j={j!r} outside -1..{hh - 1}")
    if f not in ("I", "C"):
        raise InputError('the flavour must be "I" or "C"')
    return _boundary_constrained_weight(strip, ((zs[0], i), (zs[1], j)), f, h)


def _clique_in(g: Graph, vs) -> bool:
    return all(g.has_edge(u, v) for u, v in itertools.combinations(sorted(vs), 2))


def _boundary_constrained_weight(strip: Strip, zspec, f, h: Pattern) -> int | None:
    jg = strip.graph
    body = set(strip.interior())
    occs = [o for o in enumerate_occurrences(jg, h) if set(o.vertices) <= body]
    touch_sets = []
    pools = []  # (z, size, boundary) for nonnegative reservations
    for z, t in zspec:
        boundary = sorted(set(jg.neighbors(z)) - strip.z)
        if t == -1:
            if not boundary:
                return None
            touch_sets.append(boundary)
        else:
            pools.append((z, t, boundary))
    if f == "C" and len(pools) == 2 and sum(t for _, t, _ in pools) >= h.h:
        return None
    best = None
    for picks in itertools.product(*[itertools.combinations(b, t) for _, t, b in pools]):
        sets = [set(p) for p in picks]
        if len(sets) == 2:
            a, b = sets
            if a & b:
                continue
            if f == "I" and any(jg.has_edge(u, v) for u in a for v in b):
                continue
            if f == "C" and not _clique_in(jg, a | b):
                continue
        banned = set()
        for (z, _, _), pick in zip(pools, picks):
            banned |= jg.closed_neighborhood_of_set(set(pick) | {z})
        allowed = body - banned
        usable = [o for o in occs if set(o.vertices) <= allowed]
        m = max_igm(jg, h, require_touch=tuple(touch_sets), occurrences=usable)
        if m is not None and (best is None or len(m) > best):
            best = len(m)
    return best


# ---------------------------------------------------------------------------
# demand distributions at a strip-vertex

@dataclass(frozen=True)
class Distribution:
    """How many vertices one copy inside C(x) draws from each strip-edge.

    counts lists (edge id, demand) pairs for the edges with positive demand,
    sorted by edge id; the empty tuple is the idle choice, C(x) untouched.
    """

    counts: tuple

    def __post_init__(self):
        pairs = tuple(sorted(dict(self.counts).items()))
        if any(not isinstance(c, int) or c <= 0 for _, c in pairs):
            raise InputError("demands must be positive integers")
        object.__setattr__(self, "counts", pairs)

    def count(self, eid) -> int:
        return dict(self.counts).get(eid, 0)

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)

    @property
    def is_idle(self) -> bool:
        return not self.counts


def distributions(ss: StripStructure, x, h: Pattern) -> tuple:
    """Each demand pattern a copy inside C(x) can place on the edges at x.

    Demands are nonnegative, sum to the pattern order, and never exceed 1 on
    a spot (its boundary is a single vertex); the idle pattern is included.
    """
    _require_kernel_pattern(h)
    if x not in ss.r_vertices:
        raise InputError(f"unknown strip-vertex {x!r}")
    eids = [eid for eid, ms in ss.edges if x in ms]
    caps = [1 if classify_strip(ss.strips[e]) == "spot" else h.h for e in eids]
    out = [Distribution(())]
    acc = []

    def rec(idx: int, remaining: int):
        if idx == len(eids):
            if remaining == 0:
                out.append(Distribution(tuple(acc)))
            return
        for c in range(min(caps[idx], remaining) + 1):
            if c:
                acc.append((eids[idx], c))
            rec(idx + 1, remaining - c)
            if c:
                acc.pop()

    rec(0, h.h)
    return tuple(out)


# ---------------------------------------------------------------------------
# the weighted independent set instance

@dataclass(frozen=True)
class WisInstance:
    """Weighted independent set question with selection cliques.

    Asks whether the graph has an independent set of at least k_card
    vertices and total weight at least k_weight.  cliques partition the
    vertices (one clique per strip-vertex and per strip-edge of the source
    structure), so an independent set of full cardinality picks exactly one
    vertex per clique; tags name the behaviour each vertex stands for.
    """

    graph: Graph
    weights: tuple
    k_card: int
    k_weight: int
    tags: tuple
    cliques: tuple
    notes: tuple = ()

    def __post_init__(self):
        w = tuple(self.weights)
        t = tuple(self.tags)
        if len(w) != self.graph.n or len(t) != self.graph.n:
            raise InputError("one weight and one tag per vertex required")
        if any(not isinstance(x, int) or x < 0 for x in w):
            raise InputError("weights must be nonnegative integers")
        if any(not tag or any(ch.isspace() for ch in tag) for tag in t):
            raise InputError("tags must be nonempty and whitespace-free")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "tags", t)
        object.__setattr__(self, "cliques", tuple(tuple(c) for c in self.cliques))
        object.__setattr__(self, "notes", tuple(self.notes))


def trivial_yes_wis(k: int, note: str) -> WisInstance:
    """One zero-conflict vertex carrying the whole demanded weight."""
    kk = max(k, 0)
    return WisInstance(Graph(1, ()), (kk,), 1, kk, ("trivial:yes",), ((0,),), (note,))


def trivial_no_wis(k: int, note: str) -> WisInstance:
    """A single vertex that can never reach cardinality two."""
    return WisInstance(Graph(1, ()), (0,), 2, max(k, 0), ("trivial:no",), ((0,),), (note,))


def wis_size_ceiling(ss: StripStructure, h: int) -> int:
    """Certified cap on the number of selection vertices for a structure.

    Per strip-edge at most 2(h+2)^2 behaviours; per strip-vertex at most
    2^(h-1) N^h + 1 demand patterns (each pattern is a multiset partition of
    h, at most 2^(h-1) of them, assigned to at most N^h edge choices) plus N
    stick-out choices; per ordered pair at most 4N spanning choices and per
    triple 3.
    """
    n_e = len(ss.edges)
    n_r = len(ss.r_vertices)
    per_edge = 2 * (h + 2) ** 2
    per_r = 2 ** (h - 1) * max(n_e, 1) ** h + 1 + n_e
    pairs = n_r * (n_r - 1) // 2
    triples = n_r * (n_r - 1) * (n_r - 2) // 6
    return n_e * per_edge + n_r * per_r + pairs * 4 * n_e + triples * 3


def build_wis_instance(g: Graph, ss: StripStructure, h: Pattern, k: int) -> WisInstance:
    """Selection-clique encoding of the matching question on a strip structure.

    The clique of a strip-edge enumerates how the matching meets that strip
    (spot: which side uses it; stripe: a behaviour index per boundary plus a
    flavour).  The clique of a strip-vertex x enumerates how the single copy
    that may touch C(x) does so: a demand distribution over the edges at x
    (type Ia), a stick-out through one stripe (type Ib), a spanning copy
    through a stripe into a second clique (types IIa and IIb), or a copy
    made of spots across three cliques (type III).  Consistency edges join
    choices that cannot hold together; each family below carries a comment
    naming its rule.
    """
    _require_kernel_pattern(h)
    if not isinstance(k, int):
        raise InputError("k must be an integer")
    if k <= 0:
        return trivial_yes_wis(k, "target k <= 0 is always satisfiable")
    report = validate_strip_structure(g, ss)
    if not report.ok:
        first = next(m for c in report.all_checks() for m in c.failures)
        raise InputError(f"strip structure invalid: {first}")
    if any(not ms for _, ms in ss.edges):
        raise InputError(
            "0-member strip-edges carry no boundary; peel their strips off first"
        )
    if k == 1:
        # Weight-1 selection vertices would match the demanded weight and the
        # single-copy question is immediate, so decide it here.
        if find_occurrence(g, h) is None:
            return trivial_no_wis(1, "no copy of the pattern exists")
        return trivial_yes_wis(1, "a single copy of the pattern suffices")

    hh = h.h
    members_of = dict(ss.edges)
    kinds = {}
    for eid, _ in ss.edges:
        kind = classify_strip(ss.strips[eid])
        if kind == "neither":
            raise InputError(f"strip-edge {eid!r} is neither a spot nor a stripe")
        kinds[eid] = kind

    notes = []
    tags: list[str] = []
    weights: list[int] = []

    def new_vertex(tag: str, w: int) -> int:
        tags.append(tag)
        weights.append(w)
        return len(tags) - 1

    # ------------------------------------------------------------------ pass 1
    # behaviour vertices for every strip-edge
    spot_v = {}    # eid -> {member: vid, "both": vid, "none": vid}
    prof2 = {}     # eid -> {(a, b, flavour): vid}; a at ms[0], b at ms[1]
    prof1 = {}     # eid -> {a: vid}
    edge_clique = {}
    for eid, ms in ss.edges:
        s = ss.strips[eid]
        if kinds[eid] == "spot":
            x, y = ms
            d = {
                x: new_vertex(f"spot:e{eid}:r{x}", 0),
                y: new_vertex(f"spot:e{eid}:r{y}", 0),
                "both": new_vertex(f"spot:e{eid}:both", 0),
                "none": new_vertex(f"spot:e{eid}:none", 0),
            }
            spot_v[eid] = d
            edge_clique[eid] = list(d.values())
        elif len(ms) == 2:
            x, y = ms
            # profile keys follow member order; flip when x faces the larger z
            flip = ss.z_assign[eid][x] != sorted(s.z)[0]
            table = {}
            for a in range(-1, hh):
                for b in range(-1, hh):
                    for fl in ("I", "C"):
                        i, j = (b, a) if flip else (a, b)
                        w = stripe_profile_weight(s, i, j, fl, h)
                        if w is None:
                            continue
                        if w >= k:
                            return trivial_yes_wis(
                                k, f"strip-edge {eid!r} alone holds {w} disjoint copies"
                            )
                        table[(a, b, fl)] = new_vertex(f"stripe:e{eid}:i{a}:j{b}:{fl}", w)
            prof2[eid] = table
            edge_clique[eid] = list(table.values())
        else:
            table = {}
            for a in range(-1, hh):
                w = stripe_profile_weight(s, a, None, None, h)
                if w is None:
                    continue
                if w >= k:
                    return trivial_yes_wis(
                        k, f"strip-edge {eid!r} alone holds {w} disjoint copies"
                    )
                table[a] = new_vertex(f"stripe:e{eid}:i{a}", w)
            prof1[eid] = table
            edge_clique[eid] = list(table.values())

    at_r = {r: [eid for eid, ms in ss.edges if r in ms] for r in ss.r_vertices}
    pair_edges = {}
    for eid, ms in ss.edges:
        if len(ms) == 2:
            pair_edges.setdefault(ms, []).append(eid)

    # type Ia and Ib vertices per strip-vertex
    ia_v = {}
    ib_v = {}
    r_clique = {r: [] for r in ss.r_vertices}
    for r in ss.r_vertices:
        dmap = {}
        for dist in distributions(ss, r, h):
            if dist.is_idle:
                vid = new_vertex(f"occ:r{r}:idle", 0)
            else:
                suffix = ".".join(f"e{e}x{c}" for e, c in dist.counts)
                vid = new_vertex(f"occ:r{r}:{suffix}", 1)
            dmap[dist] = vid
        ia_v[r] = dmap
        emap = {}
        for eid in at_r[r]:
            if kinds[eid] == "stripe":
                emap[eid] = new_vertex(f"out:r{r}:e{eid}", 0)
        ib_v[r] = emap
        r_clique[r] = list(dmap.values()) + list(emap.values())

    # types IIa and IIb per pair, type III per triple
    iia_v = {}
    iib_v = {}
    for (p, q), eids in sorted(pair_edges.items()):
        spots_pq = [e for e in eids if kinds[e] == "spot"]
        stripes_pq = [e for e in eids if kinds[e] == "stripe"]
        ell = len(spots_pq)
        if ell > hh:
            notes.append(
                f"pair ({p!r},{q!r}) carries {ell} spots, above the pattern order "
                f"{hh}; spanning copies through a stripe are impossible there"
            )
        for e in stripes_pq:
            if 0 < ell < hh - 1:
                iia_v[(p, q, e)] = {
                    p: new_vertex(f"span:r{p}:e{e}", 1),
                    q: new_vertex(f"span:r{q}:e{e}", 0),
                }
                r_clique[p].append(iia_v[(p, q, e)][p])
                r_clique[q].append(iia_v[(p, q, e)][q])
            iib_v[(p, q, e)] = {
                p: new_vertex(f"spanout:r{p}:e{e}", 0),
                q: new_vertex(f"spanout:r{q}:e{e}", 0),
            }
            r_clique[p].append(iib_v[(p, q, e)][p])
            r_clique[q].append(iib_v[(p, q, e)][q])

    iii_v = {}
    for w_, x_, y_ in itertools.combinations(ss.r_vertices, 3):
        tri_pairs = [(w_, x_), (w_, y_), (x_, y_)]
        spot_count = 0
        all_spotted = True
        for pp in tri_pairs:
            here = [e for e in pair_edges.get(pp, ()) if kinds[e] == "spot"]
            spot_count += len(here)
            if not here:
                all_spotted = False
        if not all_spotted or spot_count < hh:
            continue
        iii_v[(w_, x_, y_)] = {
            w_: new_vertex(f"triple:r{w_}:t{w_}.{x_}.{y_}", 1),
            x_: new_vertex(f"triple:r{x_}:t{w_}.{x_}.{y_}", 0),
            y_: new_vertex(f"triple:r{y_}:t{w_}.{x_}.{y_}", 0),
        }
        for r in (w_, x_, y_):
            r_clique[r].append(iii_v[(w_, x_, y_)][r])

    # ------------------------------------------------------------------ pass 2
    eset = set()

    def connect(a: int, b: int) -> None:
        if a == b:
            raise InternalError("self-loop in the consistency graph")
        eset.add((a, b) if a < b else (b, a))

    for vids in edge_clique.values():
        for a, b in itertools.combinations(vids, 2):
            connect(a, b)
    for vids in r_clique.values():
        for a, b in itertools.combinations(vids, 2):
            connect(a, b)

    def end_behaviour(eid, r, key):
        a, b, _ = key
        return a if members_of[eid].index(r) == 0 else b

    # type Ia: one copy inside C(x) with demand dist over the edges at x
    for r in ss.r_vertices:
        for dist, pv in ia_v[r].items():
            for eid in at_r[r]:
                want = dist.count(eid)
                if kinds[eid] == "spot":
                    ms = members_of[eid]
                    other = ms[0] if ms[1] == r else ms[1]
                    sv = spot_v[eid]
                    if want == 0 and not dist.is_idle:
                        # Ia spot rule, demand 0 with the copy elsewhere in
                        # C(x): the spot stays fully unused.
                        connect(pv, sv[r])
                        connect(pv, sv[other])
                        connect(pv, sv["both"])
                    elif want == 0:
                        # Ia spot rule, idle demand: C(x) is untouched, so
                        # the spot may not enter it (the far side stays free).
                        connect(pv, sv[r])
                        connect(pv, sv["both"])
                    else:
                        # Ia spot rule, demand 1: the copy claims the spot
                        # for C(x) alone.
                        connect(pv, sv[other])
                        connect(pv, sv["both"])
                        connect(pv, sv["none"])
                elif len(members_of[eid]) == 2:
                    for key, vid in prof2[eid].items():
                        if key[2] == "I" and end_behaviour(eid, r, key) != want:
                            # Ia stripe rule 1: the stripe reserves exactly
                            # the demanded count at x.
                            connect(pv, vid)
                        elif key[2] == "C":
                            # Ia stripe rule 2: clique-flavour reservations
                            # serve a copy spanning both ends, not one
                            # inside C(x).
                            connect(pv, vid)
                else:
                    for a, vid in prof1[eid].items():
                        if a != want:
                            # Ia stripe rule 1, one-boundary form.
                            connect(pv, vid)

    # Far-side exclusivity for spots sharing a strip-vertex: the bodies of
    # two spots at x are adjacent (both lie inside the clique C(x)), so they
    # cannot be claimed by copies confined to two different far cliques.
    # Same far clique is fine: one copy inside C(y) may take both bodies.
    for r in ss.r_vertices:
        spots_here = [e2 for e2 in at_r[r] if kinds[e2] == "spot"]
        for ea, eb in itertools.combinations(spots_here, 2):
            fa = next(t for t in members_of[ea] if t != r)
            fb = next(t for t in members_of[eb] if t != r)
            if fa != fb:
                connect(spot_v[ea][fa], spot_v[eb][fb])

    # type Ib: one copy sticking out of stripe e at x
    for r in ss.r_vertices:
        for eid, bv in ib_v[r].items():
            for e2 in at_r[r]:
                if e2 == eid:
                    if len(members_of[eid]) == 2:
                        for key, vid in prof2[eid].items():
                            if key[2] == "I" and end_behaviour(eid, r, key) != -1:
                                # Ib rule 1: the tracked copy must stick out
                                # of e at x.
                                connect(bv, vid)
                            elif key[2] == "C":
                                # Ib rule 2: a spanning reservation is not a
                                # stick-out.
                                connect(bv, vid)
                    else:
                        for a, vid in prof1[eid].items():
                            if a != -1:
                                # Ib rule 1, one-boundary form.
                                connect(bv, vid)
                elif kinds[e2] == "stripe":
                    if len(members_of[e2]) == 2:
                        for key, vid in prof2[e2].items():
                            if key[2] == "I" and end_behaviour(e2, r, key) != 0:
                                # Ib rule 3: no other stripe at x may touch
                                # the occupied clique C(x).
                                connect(bv, vid)
                            elif key[2] == "C":
                                # Ib rule 4: nor may a spanning copy reserve
                                # its boundary there.
                                connect(bv, vid)
                    else:
                        for a, vid in prof1[e2].items():
                            if a != 0:
                                # Ib rule 3, one-boundary form.
                                connect(bv, vid)
                else:
                    ms = members_of[e2]
                    other = ms[0] if ms[1] == r else ms[1]
                    sv = spot_v[e2]
                    # Ib rule 5: spots at x stay out of the occupied clique
                    # (their body sits inside C(x) whichever side uses it).
                    connect(bv, sv[r])
                    connect(bv, sv[other])
                    connect(bv, sv["both"])

    def one_shared_constraints(v: int, group: set) -> None:
        """Rules for strips meeting exactly one of the occupied cliques."""
        for e2, ms2 in ss.edges:
            shared = [t for t in ms2 if t in group]
            if len(shared) != 1 or (len(ms2) == 2 and set(ms2) <= group):
                continue
            if kinds[e2] == "spot":
                a_, b_ = members_of[e2]
                sv = spot_v[e2]
                # IIa rule 5 / IIb rule 4 / III rule 3: a spot meeting
                # exactly one occupied clique stays off all cliques.
                connect(v, sv[a_])
                connect(v, sv[b_])
                connect(v, sv["both"])
            elif len(members_of[e2]) == 2:
                for key, vid in prof2[e2].items():
                    if end_behaviour(e2, shared[0], key) != 0:
                        # IIa rule 6 / IIb rule 5 / III rule 4: a stripe
                        # meeting exactly one occupied clique keeps that
                        # boundary untouched.
                        connect(v, vid)
            else:
                for a, vid in prof1[e2].items():
                    if a != 0:
                        # one-boundary form of the same rule.
                        connect(v, vid)

    # type IIa: a copy spanning C(x) and C(y) through stripe e, sticking in
    for (p, q, eid), roles in sorted(iia_v.items()):
        spots_pq = [e for e in pair_edges[(p, q)] if kinds[e] == "spot"]
        stripes_pq = [e for e in pair_edges[(p, q)] if kinds[e] == "stripe"]
        ell = len(spots_pq)
        for r, partner in ((p, q), (q, p)):
            v = roles[r]
            for e2 in spots_pq:
                sv = spot_v[e2]
                # IIa rule 1: every spot between the pair joins the
                # spanning copy.
                connect(v, sv[p])
                connect(v, sv[q])
                connect(v, sv["none"])
            for key, vid in prof2[eid].items():
                a, b, fl = key
                if fl == "C":
                    if not (a >= 1 and b >= 1 and a + b == hh - ell):
                        # IIa rule 2: the copy reserves at least one vertex
                        # at each boundary of e and exactly h - l in total.
                        connect(v, vid)
                else:
                    # IIa rule 3: both reservations belong to one copy, so
                    # independent-flavour profiles are out.
                    connect(v, vid)
            for e2 in stripes_pq:
                if e2 == eid:
                    continue
                for key, vid in prof2[e2].items():
                    if key[:2] != (0, 0):
                        # IIa rule 4: other stripes between the pair stay
                        # untouched at both ends.
                        connect(v, vid)
            one_shared_constraints(v, {p, q})
            # IIa rule 7: the partner clique must pick its spanning vertex.
            for u in r_clique[partner]:
                if u != roles[partner]:
                    connect(v, u)

    # type IIb: copies stick out of stripe e at both ends
    for (p, q, eid), roles in sorted(iib_v.items()):
        spots_pq = [e for e in pair_edges[(p, q)] if kinds[e] == "spot"]
        stripes_pq = [e for e in pair_edges[(p, q)] if kinds[e] == "stripe"]
        for r, partner in ((p, q), (q, p)):
            v = roles[r]
            for e2 in spots_pq:
                sv = spot_v[e2]
                # IIb rule 1: spots between the pair stay fully unused.
                connect(v, sv[p])
                connect(v, sv[q])
                connect(v, sv["both"])
            for key, vid in prof2[eid].items():
                if key[:2] != (-1, -1):
                    # IIb rule 2: the stripe absorbs copies sticking out at
                    # both of its ends.
                    connect(v, vid)
            for e2 in stripes_pq:
                if e2 == eid:
                    continue
                for key, vid in prof2[e2].items():
                    if key[:2] != (0, 0):
                        # IIb rule 3: other stripes between the pair stay
                        # untouched at both ends.
                        connect(v, vid)
            one_shared_constraints(v, {p, q})
            # IIb rule 6: the partner clique must pick its matching vertex.
            for u in r_clique[partner]:
                if u != roles[partner]:
                    connect(v, u)

    # type III: one copy made of spots across three cliques
    for (w_, x_, y_), roles in sorted(iii_v.items()):
        tri = {w_, x_, y_}
        edges3 = [
            e
            for pp, eids in pair_edges.items()
            if set(pp) <= tri
            for e in eids
        ]
        for r in (w_, x_, y_):
            v = roles[r]
            for e2 in edges3:
                if kinds[e2] == "spot":
                    a_, b_ = members_of[e2]
                    sv = spot_v[e2]
                    # III rule 1: every spot inside the triple joins the
                    # triangle copy.
                    connect(v, sv[a_])
                    connect(v, sv[b_])
                    connect(v, sv["none"])
                else:
                    for key, vid in prof2[e2].items():
                        if key[:2] != (0, 0):
                            # III rule 2: stripes inside the triple stay
                            # untouched at both ends.
                            connect(v, vid)
            one_shared_constraints(v, tri)
            # III rule 5: the other two corner cliques pick their triangle
            # vertices.
            for partner in sorted(tri - {r}):
                for u in r_clique[partner]:
                    if u != roles[partner]:
                        connect(v, u)

    if weights and max(weights) > k - 1:
        raise InternalError("selection weight above k - 1 survived the cap")
    graph = Graph(len(tags), sorted(eset))
    cliques = tuple(tuple(edge_clique[eid]) for eid, _ in ss.edges)
    cliques += tuple(tuple(r_clique[r]) for r in ss.r_vertices)
    k_card = len(ss.r_vertices) + len(ss.edges)
    return WisInstance(graph, tuple(weights), k_card, k, tuple(tags), cliques, tuple(notes))


# ---------------------------------------------------------------------------
# end-to-end pipeline

def kernelize(g: Graph, h: Pattern, k: int,
              ss: StripStructure | None = None) -> WisInstance:
    """Bound the strip graph, then encode the bounded structure.

    The structure is derived from line-graph pre-images unless ``ss`` is
    given (see ``bound_strip_graph``).  Emits a trivial instance when
    bounding already settles the answer.  A partial bounding outcome that
    still carries a valid structure (a supplied ``ss`` after its single
    round) is encoded as-is; one without a structure raises.
    """
    br = bound_strip_graph(g, h, k, ss=ss)
    if br.status == "decided":
        if br.answer:
            inst = trivial_yes_wis(k, "bounding settled the answer: yes")
        else:
            inst = trivial_no_wis(k, "bounding settled the answer: no")
    elif br.ss is None:
        raise InputError("cannot kernelize: " + "; ".join(br.notes))
    else:
        inst = build_wis_instance(br.graph, br.ss, h, br.k)
    return replace(inst, notes=br.notes + inst.notes)
