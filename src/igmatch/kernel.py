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

``kernelize`` is the one entry.  It checks its input once, and the steps
after it trust what they receive: a derived structure is valid by
construction (``derive_strip_structure``), and a reduction step keeps a
valid structure valid (``_delete_strips``).  ``bound_strip_graph``,
``derive_strip_structure`` and ``build_wis_instance`` stay unexported but
keep their names, because the benchmark times each of them by name as a
layer.
"""

import itertools
from dataclasses import dataclass

from .errors import InputError, InternalError
from .fuzzy_solver import ALPHA_BOUND
from .graphs import (
    Graph,
    Matching,
    Occurrence,
    Pattern,
    brute_force_wis,
    enumerate_occurrences,
    find_igm,
    find_occurrence,
    packing,
    revalidated,
)
from .strips import (
    Strip,
    StripStructure,
    boundary_clique,
    line_graph_strip_structure,
    strip_image,
    validate_strip_structure,
)
from .trace import note, recording

# kernelize asks the clique-pattern question, and WisInstance is its answer
__all__ = ["WisInstance", "kernelize"]


# ---------------------------------------------------------------------------
# bounding rules

def _prune_useless_vertices(g: Graph, h: Pattern) -> Graph:
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


def _promising_copies(ss: StripStructure, h: Pattern) -> dict:
    """Map each strip-edge to its strip's first copy avoiding N[Z], in host
    ids, or to None."""
    out = {}
    for eid, _ in ss.edges:
        s = ss.strips[eid]
        banned = s.graph.closed_neighborhood_of_set(s.z) if s.z else set()
        region = [v for v in s.interior() if v not in banned]
        occ = find_occurrence(s.graph, h, within=region) if region else None
        out[eid] = None if occ is None else Occurrence(tuple(s.g_map[v] for v in occ.vertices))
    return out


def _reduction_step(g: Graph, ss: StripStructure, x, y, h: Pattern, copies: dict):
    """Thin the non-promising strips between x and y down to a fixed stock.

    ``copies`` is ``_promising_copies(ss, h)``, under which more than 2h
    strip-edges between the pair are non-promising (``_overloaded_pair``).
    Keeps up to 2h stripes (their two boundaries are usable independently)
    and, when fewer than h stripes exist, tops the stock up to h strips with
    spots; the interiors of the remaining non-promising strips between the
    pair are deleted from the host.  Any matching copy inside a deleted
    strip had to use C(x) or C(y), and a kept strip can always stand in for
    it, so the answer is preserved.  Returns (reduced host, structure).
    """
    target = tuple(sorted({x, y}))
    nonprom = [eid for eid, ms in ss.edges if ms == target and copies[eid] is None]
    stripes = [e for e in nonprom if ss.kinds[e] == "stripe"]
    rest = [e for e in nonprom if ss.kinds[e] != "stripe"]
    keep = set(stripes[: 2 * h.h])
    if len(stripes) < h.h:
        keep.update(rest[: h.h - len(stripes)])
    return _delete_strips(g, ss, [e for e in nonprom if e not in keep])


def _delete_strips(g: Graph, ss: StripStructure, drop) -> tuple[Graph, StripStructure]:
    """Delete the strips of ``drop`` from the structure and their interiors
    from the host.

    A valid structure stays valid, so nothing re-checks the result.  The
    kept interiors still partition the kept hosts, and the kept strips and
    their z's are untouched (axioms 1 to 3); as interiors are disjoint, each
    kept strip maps into the kept hosts.  Each C(r) loses only the
    boundaries of deleted strips, so it stays a clique (axiom 4).  A host
    edge that survives has both ends in kept interiors, so the strip or the
    C(r) that held it still does (axiom 5).
    """
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
        edges.append((eid, ms))
        strips[eid] = Strip(s.graph, s.z, {jv: remap[hv] for jv, hv in s.g_map.items()})
        z_assign[eid] = dict(ss.z_assign[eid])
    live = sorted({m for _, ms in edges for m in ms})
    return g.induced(kept_hosts), StripStructure(tuple(live), tuple(edges), strips, z_assign)


# ---------------------------------------------------------------------------
# structure derivation

def derive_strip_structure(g: Graph) -> StripStructure | None:
    """Line-graph strip structure of each component, glued into one.

    Returns None when some component is not a line graph.  Strip-vertex and
    strip-edge ids are renumbered consecutively across components.

    Like its parts, the glued structure is valid by construction: new ids
    keep the parts apart, their strips are disjoint, and no host edge joins
    two components, so each lies in a strip or a C(r) of its own part.
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

def _strip_edge_ceiling(h: int, k: int) -> int:
    """Certified strip-edge count once the bounding loop settles.

    8h^3k^2 + k bounds the edges whose strips a maximal matching of size
    below k never enters, h(k-1) the edges whose strips it does.
    """
    return 8 * h ** 3 * k ** 2 + k + h * (k - 1)


@dataclass(frozen=True)
class BoundResult:
    """Outcome of the strip-graph bounding loop.

    status "decided": answer settled; yes exactly when a witness is present.
    status "reduced": graph, k and ss carry the bounded equivalent instance.
    status "partial": the current host has no derivable structure; the
    fields hold the latest equivalent instance with a valid ss, or the
    current host and ss None.  Why the loop stopped, like every step it
    took, is noted to ``igmatch.trace``.
    """

    status: str
    witness: Matching | None = None
    graph: Graph | None = None
    k: int | None = None
    ss: StripStructure | None = None


def _greedy_maximal_matching(g: Graph, h: Pattern) -> list:
    """First-found copies, each time removing the closed neighbourhood."""
    left = set(range(g.n))
    out = []
    while left:
        occ = find_occurrence(g, h, within=left)
        if occ is None:
            break
        out.append(occ)
        for v in occ.vertices:
            left -= g.closed_neighborhood(v)
    return out


def _overloaded_pair(ss: StripStructure, copies: dict, h: Pattern):
    counts = {}
    for eid, ms in ss.edges:
        if ms and copies[eid] is None:
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
    deletion at high dis-degree, or the parallel-strip reduction step.  A
    supplied ``ss``, which ``kernelize`` has validated, serves the first
    round.  The reduction step keeps a structure valid; after pruning or
    clique deletion the next round derives one (``derive_strip_structure``).
    Every rule preserves the answer, so if that fails, the latest round
    that began with a valid structure is returned as "partial".  Induced
    subgraphs of line graphs are line graphs, so after one derivation
    succeeds, the later ones do too.

    The dis-degree of a strip-vertex r is its number of distinct strip-graph
    neighbours; parallel edges collapse.  Once it reaches 2h(k-1) + h,
    deleting the boundary clique C(r) and lowering the target by one
    preserves the answer: the copies of any (k-1)-matching of g - C(r) block
    boundaries at r in fewer than that many directions, so one more copy
    through C(r) can always be added back; conversely a k-matching loses at
    most one copy to C(r).
    """
    last = None  # the latest round that began with a valid structure
    for _ in range(g.n + k + 2):
        if ss is not None:
            last = BoundResult("partial", None, g, k, ss)
        if k <= 0:
            return BoundResult("decided", Matching(()), g, k, ss)
        pruned = _prune_useless_vertices(g, h)
        if pruned.n < g.n:
            note(f"pruned {g.n - pruned.n} vertices that join no copy")
            g, ss = pruned, None
        if g.n == 0:
            return BoundResult("decided", None, g, k, ss)
        above, _ = brute_force_wis(g, [1] * g.n, ALPHA_BOUND + 1, 0)
        if not above:
            m = None if k > ALPHA_BOUND else find_igm(g, h, k)
            note("independence number at most 4; decided directly")
            return BoundResult("decided", m, g, k, ss)
        greedy = _greedy_maximal_matching(g, h)
        if len(greedy) >= k:
            wit = revalidated(Matching(tuple(greedy[:k])), g, h, "greedy witness")
            note("greedy maximal matching reached the target")
            return BoundResult("decided", wit, g, k, ss)
        if ss is None:
            ss = derive_strip_structure(g)
            if ss is None:
                note("host is not a line graph; cannot derive a strip structure")
                return last or BoundResult("partial", None, g, k, None)
        nbrs = {r: set() for r in ss.r_vertices}
        for _, ms in ss.edges:
            if len(ms) == 2:
                nbrs[ms[0]].add(ms[1])
                nbrs[ms[1]].add(ms[0])
        thr = 2 * h.h * (k - 1) + h.h
        big = next((r for r in ss.r_vertices if len(nbrs[r]) >= thr), None)
        if big is not None:
            cr = boundary_clique(ss, big)
            g, k, ss = g.induced([v for v in range(g.n) if v not in cr]), k - 1, None
            note(f"dis-degree rule removed C({big!r}); target now {k}")
            continue
        copies = _promising_copies(ss, h)
        found = [occ for occ in copies.values() if occ is not None]
        if len(found) >= k:
            wit = revalidated(Matching(tuple(found[:k])), g, h, "promising witness")
            note(f"{len(found)} promising strip-edges certify the target")
            return BoundResult("decided", wit, g, k, ss)
        pair = _overloaded_pair(ss, copies, h)
        if pair is not None:
            x, y = pair
            g, ss = _reduction_step(g, ss, x, y, h, copies)
            note(f"reduction step thinned the strips between {x!r} and {y!r}")
            continue
        note(
            f"strip graph bounded: {len(ss.edges)} strip-edges "
            f"(ceiling {_strip_edge_ceiling(h.h, k)})"
        )
        return BoundResult("reduced", None, g, k, ss)
    raise InternalError("bounding loop failed to make progress")


# ---------------------------------------------------------------------------
# stripe behaviour weights

def _clique_in(g: Graph, vs) -> bool:
    return all(g.has_edge(u, v) for u, v in itertools.combinations(sorted(vs), 2))


def _stripe_table(strip: Strip, h: Pattern, flip: bool) -> dict:
    """Best matching size inside a stripe under each boundary behaviour.

    Keys follow the strip's z's in ascending order, or descending with
    ``flip``: (a,) for one z, (a, b, flavour) for two, each index in -1..h-1.
    Index -1 demands that some copy of the strip's matching touch that
    boundary; an index t >= 0 reserves t boundary vertices for one outside
    copy and bans their closed neighbourhood from the strip.  With two
    nonnegative reservations the flavour decides their relation: "I" keeps
    them mutually non-adjacent (two distinct outside copies), "C" requires
    them to form one clique (a single copy spanning both ends), which also
    needs the reservations to leave room for vertices outside the strip,
    a + b < h.  Unsatisfiable behaviours are left out.
    """
    jg = strip.graph
    body = frozenset(strip.interior())
    occs = [o for o in enumerate_occurrences(jg, h) if body.issuperset(o.vertices)]
    zs = sorted(strip.z, reverse=flip)
    bounds = [sorted(jg.neighbors(z) - strip.z) for z in zs]
    packed = {}

    def pack(allowed: frozenset, touch: tuple) -> int | None:
        # reservations often coincide across keys, so each packing runs once
        if (allowed, touch) not in packed:
            usable = [o for o in occs if allowed.issuperset(o.vertices)]
            m = packing(jg, usable, None, touch)
            packed[allowed, touch] = None if m is None else len(m)
        return packed[allowed, touch]

    def weight(idx, f) -> int | None:
        touch, pools = [], []  # pools: (z, size, boundary) per reservation
        for z, b, t in zip(zs, bounds, idx):
            if t == -1:
                if not b:
                    return None
                touch.append(tuple(b))
            else:
                pools.append((z, t, b))
        if f == "C" and len(pools) == 2 and sum(t for _, t, _ in pools) >= h.h:
            return None
        best = None
        for picks in itertools.product(*[itertools.combinations(b, t) for _, t, b in pools]):
            if len(picks) == 2:
                p, q = map(set, picks)
                if p & q:
                    continue
                if f == "I" and any(jg.has_edge(u, v) for u in p for v in q):
                    continue
                if f == "C" and not _clique_in(jg, p | q):
                    continue
            banned = set()
            for (z, _, _), pick in zip(pools, picks):
                banned |= jg.closed_neighborhood_of_set({*pick, z})
            w = pack(body - banned, tuple(touch))
            if w is not None and (best is None or w > best):
                best = w
        return best

    span = range(-1, h.h)
    if len(zs) == 1:
        table = {(a,): weight((a,), None) for a in span}
    else:
        table = {(a, b, f): weight((a, b), f)
                 for a, b, f in itertools.product(span, span, ("I", "C"))}
    return {key: w for key, w in table.items() if w is not None}


# ---------------------------------------------------------------------------
# demand distributions at a strip-vertex

def _distributions(ss: StripStructure, x, h: Pattern) -> list:
    """Each demand pattern a copy inside C(x) can place on the edges at x.

    A pattern lists (edge id, demand) pairs for the edges with positive
    demand, sorted by edge id.  Demands sum to the pattern order and never
    exceed 1 on a spot (its boundary is a single vertex).  The idle pattern
    (), C(x) untouched, comes first.
    """
    eids = [eid for eid, ms in ss.edges if x in ms]
    caps = [1 if ss.kinds[e] == "spot" else h.h for e in eids]
    out = [()]
    _demands(eids, caps, (), out, 0, h.h)
    return out


def _demands(eids, caps, acc: tuple, out: list, idx: int, remaining: int) -> None:
    """Append each split of ``remaining`` over ``eids[idx:]``, after ``acc``, to
    ``out``.  Module level, so a call leaves no reference cycle."""
    if idx == len(eids):
        if remaining == 0:
            out.append(tuple(sorted(acc)))
        return
    for c in range(min(caps[idx], remaining) + 1):
        _demands(eids, caps, acc + ((eids[idx], c),) if c else acc, out, idx + 1, remaining - c)


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


def _trivial_yes_wis(k: int, why: str) -> WisInstance:
    """One zero-conflict vertex carrying the whole demanded weight; notes ``why``."""
    note(why)
    return WisInstance(Graph(1, ()), (k,), 1, k, ("trivial:yes",), ((0,),))


def _trivial_no_wis(k: int, why: str) -> WisInstance:
    """A single vertex that can never reach cardinality two; notes ``why``."""
    note(why)
    return WisInstance(Graph(1, ()), (0,), 2, k, ("trivial:no",), ((0,),))


def build_wis_instance(ss: StripStructure, h: Pattern, k: int) -> WisInstance:
    """Selection-clique encoding of the matching question on a strip structure.

    The clique of a strip-edge enumerates how the matching meets that strip
    (spot: which side uses it; stripe: a behaviour index per boundary plus a
    flavour).  A stripe gets one vertex per satisfiable behaviour, weighted
    from its behaviour table, which one pass over the strip builds
    (``_stripe_table``): the strip's copies are enumerated once and each
    distinct reservation is packed once.  The clique of a strip-vertex x
    enumerates how the single copy that may touch C(x) does so: a demand
    distribution over the edges at x (type Ia), a stick-out through one
    stripe (type Ib, which obeys the Ia rules as demand -1 on its own stripe
    and 0 on every other edge at x), or a copy occupying the cliques of a
    group of strip-vertices with one role vertex in each:

        type  group   the copy                 spot side kept  own-stripe profiles kept
        IIa   pair    spans C(x) and C(y)      "both"          flavour "C", a, b >= 1
                      through stripe e and                     and a + b = h - l
                      the l spots between
        IIb   pair    sticks out of stripe e   "none"          a = b = -1
                      at both ends
        III   triple  is made of spots across  "both"          (no own stripe)
                      the three cliques

    Such a copy lets every spot inside its group take only the kept side and
    its own stripe only the kept profiles (a, b: the behaviours at the lower
    and the higher strip-vertex of the pair); every other stripe inside the
    group stays untouched at both ends.  A spot meeting just one clique of
    the group stays unused, and a stripe meeting just one leaves that
    boundary untouched.  Consistency edges join choices that cannot hold
    together; each family below carries a comment naming its rule.

    The input is trusted: ``ss`` is a valid structure of its host, which
    the encoding reads only through the strips, each strip-edge has a
    member and is a spot or a stripe, and k >= 2.  ``kernelize`` checks a
    supplied structure so.  A derived one complies by construction: its
    0-member edges are the host's isolated vertices, which pruning removes,
    and a one-vertex strip is a spot or a stripe.  The bounding loop settles
    every target below 2, as a pruned host that is not empty holds a copy.
    """
    hh = h.h
    members_of = dict(ss.edges)
    kinds = ss.kinds

    tags: list[str] = []
    weights: list[int] = []

    def new_vertex(tag: str, w: int) -> int:
        tags.append(tag)
        weights.append(w)
        return len(tags) - 1

    # ------------------------------------------------------------------ pass 1
    # behaviour vertices for every strip-edge
    spot_v = {}    # eid -> {member: vid, "both": vid, "none": vid}
    prof = {}      # eid -> {key: vid}; key (a,) or (a, b, flavour), in member order
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
            continue
        # the table keys its z's in ascending order; flip when ms[0] faces
        # the larger z, so that keys follow the member order
        flip = ss.z_assign[eid][ms[0]] != min(s.z)
        table = {}
        for key, w in _stripe_table(s, h, flip).items():
            if w >= k:
                return _trivial_yes_wis(
                    k, f"strip-edge {eid!r} alone holds {w} disjoint copies"
                )
            parts = "".join(f":{p}{v}" for p, v in zip(("i", "j", ""), key))
            table[key] = new_vertex(f"stripe:e{eid}{parts}", w)
        prof[eid] = table
        edge_clique[eid] = list(table.values())

    at_r = {r: [eid for eid, ms in ss.edges if r in ms] for r in ss.r_vertices}
    pair_edges = {}
    for eid, ms in ss.edges:
        if len(ms) == 2:
            pair_edges.setdefault(ms, []).append(eid)

    # type Ia and Ib vertices per strip-vertex, each with its demand per edge
    # at x (an absent edge demands 0; no demand at all is the idle choice)
    demand_v = {}
    for r in ss.r_vertices:
        choices = []
        for counts in _distributions(ss, r, h):
            if counts:
                suffix = ".".join(f"e{e}x{c}" for e, c in counts)
                vid = new_vertex(f"occ:r{r}:{suffix}", 1)
            else:
                vid = new_vertex(f"occ:r{r}:idle", 0)
            choices.append((dict(counts), vid))
        for eid in at_r[r]:
            if kinds[eid] == "stripe":
                # Ib: the copy sticks out of stripe e, demand -1 on e
                choices.append(({eid: -1}, new_vertex(f"out:r{r}:e{eid}", 0)))
        demand_v[r] = choices
    r_clique = {r: [vid for _, vid in demand_v[r]] for r in ss.r_vertices}

    # types IIa and IIb per pair and stripe, type III per triple, each as
    # (group, role vertex per clique, spot side kept, own stripe, kept profiles)
    spans = []

    def occupy(kind: str, group: tuple, label: str, w: int, spot_side, own, kept) -> None:
        # the copy's weight sits on the role vertex of the group's first clique
        roles = {}
        for r in group:
            roles[r] = new_vertex(f"{kind}:r{r}:{label}", w if r == group[0] else 0)
            r_clique[r].append(roles[r])
        spans.append((group, roles, spot_side, own, kept))

    for (p, q), eids in sorted(pair_edges.items()):
        ell = sum(kinds[e] == "spot" for e in eids)
        if ell > hh:
            note(
                f"pair ({p!r},{q!r}) carries {ell} spots, above the pattern order "
                f"{hh}; spanning copies through a stripe are impossible there"
            )
        for e in eids:
            if kinds[e] == "spot":
                continue
            if 0 < ell < hh - 1:
                occupy("span", (p, q), f"e{e}", 1, "both", e,
                       {key for key in prof[e] if key[2] == "C" and key[0] >= 1
                        and key[1] >= 1 and key[0] + key[1] == hh - ell})
            occupy("spanout", (p, q), f"e{e}", 0, "none", e,
                   {key for key in prof[e] if key[:2] == (-1, -1)})
    for tri in itertools.combinations(ss.r_vertices, 3):
        spots = [sum(kinds[e] == "spot" for e in pair_edges.get(pp, ()))
                 for pp in itertools.combinations(tri, 2)]
        if 0 not in spots and sum(spots) >= hh:
            occupy("triple", tri, "t" + ".".join(map(str, tri)), 1, "both", None, ())

    # ------------------------------------------------------------------ pass 2
    eset = set()

    def connect(a: int, b: int) -> None:
        if a == b:
            raise InternalError("self-loop in the consistency graph")
        eset.add((a, b) if a < b else (b, a))

    for vids in [*edge_clique.values(), *r_clique.values()]:
        for a, b in itertools.combinations(vids, 2):
            connect(a, b)

    # types Ia and Ib: the one copy that may touch C(x), with its demand over
    # the edges at x; an Ib stick-out through stripe e is the Ia rule with
    # demand -1 on e and 0 on every other edge at x, and is never idle
    for r in ss.r_vertices:
        for demand, pv in demand_v[r]:
            for eid in at_r[r]:
                want = demand.get(eid, 0)
                if kinds[eid] == "spot":
                    if want:
                        # Ia spot rule, demand 1: the copy claims the spot
                        # for C(x) alone.
                        keep = (r,)
                    elif not demand:
                        # Ia spot rule, idle demand: C(x) is untouched, so
                        # the spot may not enter it (the far side stays free).
                        ms = members_of[eid]
                        keep = (ms[0] if ms[1] == r else ms[1], "none")
                    else:
                        # Ia spot rule, demand 0 with the copy elsewhere in
                        # C(x): the spot stays fully unused.  Ib rule 5: spots
                        # at x stay out of the occupied clique (their body
                        # sits inside C(x) whichever side uses it).
                        keep = ("none",)
                    for side, vid in spot_v[eid].items():
                        if side not in keep:
                            connect(pv, vid)
                    continue
                at = members_of[eid].index(r)
                for key, vid in prof[eid].items():
                    if key[-1] == "C" or key[at] != want:
                        # Ia stripe rule 1: the stripe reserves exactly the
                        # demanded count at x.  Ia stripe rule 2: clique-flavour
                        # reservations serve a copy spanning both ends, not
                        # one inside C(x).  Ib rules 1-2: the tracked copy
                        # must stick out of e at x, and a spanning reservation
                        # is not a stick-out.  Ib rules 3-4: no other stripe at
                        # x may touch the occupied clique C(x), nor may a
                        # spanning copy reserve its boundary there.
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

    # types IIa, IIb and III: one copy occupying every clique of its group
    for group, roles, spot_side, own, kept in spans:
        barred = []
        for e2, ms2 in ss.edges:
            ends = [i for i, t in enumerate(ms2) if t in group]
            if not ends:
                continue
            if kinds[e2] == "spot":
                # IIa rule 1 / III rule 1: every spot inside the group joins
                # the copy; IIb rule 1: spots between the pair stay fully
                # unused.  IIa rule 5 / IIb rule 4 / III rule 3: a spot
                # meeting exactly one occupied clique stays off all cliques.
                keep = spot_side if len(ends) == 2 else "none"
                barred += [vid for side, vid in spot_v[e2].items() if side != keep]
            elif e2 == own:
                # IIa rule 2: the copy reserves at least one vertex at each
                # boundary of e and exactly h - l in total.  IIa rule 3: both
                # reservations belong to one copy, so independent-flavour
                # profiles are out.  IIb rule 2: the stripe absorbs copies
                # sticking out at both of its ends.
                barred += [vid for key, vid in prof[e2].items() if key not in kept]
            else:
                # IIa rule 4 / IIb rule 3 / III rule 2: other stripes inside
                # the group stay untouched at both ends.  IIa rule 6 / IIb
                # rule 5 / III rule 4: a stripe meeting exactly one occupied
                # clique keeps that boundary untouched.
                barred += [vid for key, vid in prof[e2].items()
                           if any(key[i] != 0 for i in ends)]
        for r, v in roles.items():
            for u in barred:
                connect(v, u)
            # IIa rule 7 / IIb rule 6 / III rule 5: the other cliques of the
            # group must pick their role vertices.
            for partner, role in roles.items():
                if partner != r:
                    for u in r_clique[partner]:
                        if u != role:
                            connect(v, u)

    if weights and max(weights) > k - 1:
        raise InternalError("selection weight above k - 1 survived the cap")
    graph = Graph(len(tags), sorted(eset))
    cliques = tuple(tuple(edge_clique[eid]) for eid, _ in ss.edges)
    cliques += tuple(tuple(r_clique[r]) for r in ss.r_vertices)
    k_card = len(ss.r_vertices) + len(ss.edges)
    return WisInstance(graph, tuple(weights), k_card, k, tuple(tags), cliques)


# ---------------------------------------------------------------------------
# end-to-end pipeline

def kernelize(g: Graph, h: Pattern, k: int,
              ss: StripStructure | None = None) -> WisInstance:
    """Bound the strip graph, then encode the bounded structure.

    A supplied ``ss`` serves the first bounding round, and later rounds
    derive theirs (see ``bound_strip_graph``).  Emits a trivial instance
    when bounding already settles the answer.  A partial bounding outcome
    is encoded from its structure, or raises, naming the bounding steps,
    when it has none.  The bounding steps and then the encoding's own
    remarks are noted to ``igmatch.trace``.

    The input is checked here, once, and the steps trust it: ``h`` must be
    complete, connected and of order at least two, ``k`` a nonnegative
    integer, and a supplied ``ss`` a valid strip structure of ``g`` whose
    strip-edges each have a member and are spots or stripes.
    """
    if not h.is_connected:
        raise InputError("kernelization needs a connected pattern")
    if not h.is_complete:
        raise InputError("kernelization is implemented for complete patterns only")
    if h.h < 2:
        # A one-vertex pattern asks for a plain independent set; that case
        # never reaches the strip machinery.
        raise InputError("the pattern needs at least two vertices")
    if not isinstance(k, int) or k < 0:
        raise InputError("k must be a nonnegative integer")
    if ss is not None:
        validate_strip_structure(g, ss).require_ok()
        if any(not ms for _, ms in ss.edges):
            raise InputError(
                "0-member strip-edges carry no boundary; peel their strips off first"
            )
        for eid, kind in ss.kinds.items():
            if kind == "neither":
                raise InputError(f"strip-edge {eid!r} is neither a spot nor a stripe")
    with recording() as steps:
        br = bound_strip_graph(g, h, k, ss=ss)
    if br.status == "decided":
        if br.witness is not None:
            return _trivial_yes_wis(k, "bounding settled the answer: yes")
        return _trivial_no_wis(k, "bounding settled the answer: no")
    if br.ss is None:
        raise InputError("cannot kernelize: " + "; ".join(steps))
    return build_wis_instance(br.ss, h, br.k)
