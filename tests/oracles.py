"""Self-contained exhaustive oracles the solver implementations are tested against.

Everything here is written from first principles on top of the Graph vertex
and adjacency accessors only, deliberately not reusing the package's own
search helpers, so that agreement between a solver and its oracle is
meaningful.  All routines are exponential and sized for test instances.

The exceptions pin witnesses or streams, not just answers, so they follow
the package's own search order or data types: ``wis_reference`` branches over
the package's clique partition, ``canonical_base_key_reference`` keys the
package's bases, and ``natural_coloring_reference`` and ``all_colorings``
paint its structure elements.  ``subset_scan_occurrences``, ``all_pairs_occurrence_masks`` and
``long_by_pairs_and_triples`` keep the package's earlier, slower versions of
occurrence enumeration, conflict masks and the longness test, and
``embeddings_reference`` and ``g_map_pair_failures`` those of the base
embedding search and the g_map edge check, for differential tests that
require identical output.  ``fuzzy_dp_profile`` runs
the fuzzy solver's own residual chain from every committed occurrence, and
``covered_subgraph`` reads a matching's footprint off the package's strip
images and boundary cliques.  ``is_isomorphic``, which only tests need,
searches with the package's ``find_occurrence``.
"""

import itertools

from igmatch.color_coding import ElementColoring
from igmatch.fuzzy_solver import _residual_chain
from igmatch.graphs import (
    Pattern,
    _occurrence_masks,
    enumerate_occurrences,
    find_occurrence,
    greedy_clique_partition,
)
from igmatch.models import covers_circle, realize
from igmatch.strips import boundary_clique, strip_image


def independent_sets(g):
    for r in range(g.n + 1):
        for sub in itertools.combinations(range(g.n), r):
            if all(not g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                yield sub


def mis_exhaustive(g) -> int:
    best = 0
    for s in independent_sets(g):
        best = max(best, len(s))
    return best


def occurrences_exhaustive(g, hg) -> list[tuple[int, ...]]:
    """Every injective induced embedding tuple of the pattern graph hg."""
    out = []
    for perm in itertools.permutations(range(g.n), hg.n):
        ok = True
        for i in range(hg.n):
            for j in range(i + 1, hg.n):
                if hg.has_edge(i, j) != g.has_edge(perm[i], perm[j]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(perm)
    return out


def subset_scan_occurrences(g, hg) -> list[tuple[int, ...]]:
    """One induced embedding per vertex set, scanning all C(n, h) subsets.

    Subsets in ascending order; each keeps its lexicographically smallest
    embedding, the canonical order of ``enumerate_occurrences``.
    """
    hdeg = sorted(hg.degree(v) for v in range(hg.n))
    hedges = len(hg.edges)
    out = []
    for sub in itertools.combinations(range(g.n), hg.n):
        if sum(g.has_edge(a, b) for a, b in itertools.combinations(sub, 2)) != hedges:
            continue
        if sorted(sum(g.has_edge(v, w) for w in sub if w != v) for v in sub) != hdeg:
            continue
        for perm in itertools.permutations(sub):
            if all(hg.has_edge(i, j) == g.has_edge(perm[i], perm[j])
                   for i, j in itertools.combinations(range(hg.n), 2)):
                out.append(perm)
                break
    return out


def all_pairs_occurrence_masks(g, occs):
    """(vertex masks, conflict masks) by testing every ordered pair."""
    closed, vmask = [], []
    for o in occs:
        c = m = 0
        for v in o.vertices:
            m |= 1 << v
            c |= 1 << v
            for w in g.neighbors(v):
                c |= 1 << w
        closed.append(c)
        vmask.append(m)
    conflict = []
    for i in range(len(occs)):
        ci = 0
        for j in range(len(occs)):
            if i != j and closed[i] & vmask[j]:
                ci |= 1 << j
        conflict.append(ci)
    return vmask, conflict


def long_by_pairs_and_triples(model) -> bool:
    """No 2 or 3 arcs of the model cover the circle, by trying them all."""
    n = len(model.arcs)
    return not any(
        covers_circle(model, ids)
        for size in (2, 3)
        for ids in itertools.combinations(range(n), size)
    )


def _occ_sets_compatible(g, occ_sets) -> bool:
    for a, b in itertools.combinations(occ_sets, 2):
        if a & b:
            return False
        for u in a:
            for v in b:
                if g.has_edge(u, v):
                    return False
    return True


def igm_exhaustive(g, hg, k: int) -> bool:
    """Does g contain k disjoint, mutually non-adjacent induced copies of hg?"""
    if k == 0:
        return True
    occ_sets = sorted({frozenset(o) for o in occurrences_exhaustive(g, hg)},
                      key=sorted)
    for combo in itertools.combinations(occ_sets, k):
        if _occ_sets_compatible(g, combo):
            return True
    return False


def max_igm_exhaustive(g, hg, require_touch=()) -> int | None:
    """Largest induced matching whose union meets every required vertex set.

    Returns None when no matching (not even the empty one, if touch sets are
    present) satisfies the constraints.
    """
    occ_sets = sorted({frozenset(o) for o in occurrences_exhaustive(g, hg)},
                      key=sorted)
    best = None
    for r in range(len(occ_sets) + 1):
        for combo in itertools.combinations(occ_sets, r):
            if not _occ_sets_compatible(g, combo):
                continue
            union = set().union(*combo) if combo else set()
            if all(union & set(t) for t in require_touch):
                if best is None or r > best:
                    best = r
    return best


def wis_exhaustive(g, weights, k_card: int, k_weight) -> bool:
    for s in independent_sets(g):
        if len(s) >= k_card and sum(weights[v] for v in s) >= k_weight:
            return True
    return False


def wis_reference(g, weights, k_card: int, k_weight):
    """``brute_force_wis`` with its static bounds: (answer, witness or None).

    The same branching over ``greedy_clique_partition(g)``, cut only when
    one vertex from every remaining clique, or the heaviest vertex of every
    remaining clique, could not reach the target.  Any sound bound on this
    search order returns the same first witness, so the solver must match
    this search exactly.
    """
    weights = list(weights)
    if k_card <= 0 and k_weight <= 0:
        return True, ()
    cliques = greedy_clique_partition(g)
    nbr = [0] * g.n
    for v in range(g.n):
        for w in g.neighbors(v):
            nbr[v] |= 1 << w
    maxw = [max(weights[v] for v in c) for c in cliques]
    suffixw = [0] * (len(cliques) + 1)
    for i in range(len(cliques) - 1, -1, -1):
        suffixw[i] = suffixw[i + 1] + maxw[i]
    found = None

    def rec(idx, blocked, chosen, size, weight):
        nonlocal found
        if size >= k_card and weight >= k_weight:
            found = list(chosen)
            return True
        if idx == len(cliques):
            return False
        if size + (len(cliques) - idx) < k_card:
            return False
        if weight + suffixw[idx] < k_weight:
            return False
        for v in cliques[idx]:
            if blocked >> v & 1:
                continue
            chosen.append(v)
            if rec(idx + 1, blocked | nbr[v] | (1 << v), chosen, size + 1,
                   weight + weights[v]):
                return True
            chosen.pop()
        return rec(idx + 1, blocked, chosen, size, weight)

    ok = rec(0, 0, [], 0, 0)
    return ok, (tuple(sorted(found)) if ok and found is not None else None)


def is_isomorphic(a, b) -> bool:
    """Brute-force isomorphism test for desk-scale graphs."""
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    if sorted(a.degree(v) for v in range(a.n)) != sorted(
        b.degree(v) for v in range(b.n)
    ):
        return False
    return find_occurrence(b, Pattern.of(a)) is not None if a.n else True


def is_line_graph_exhaustive(g) -> bool:
    """Is connected g the line graph of some loopless multigraph?

    Enumerates every multiset of m = |V(g)| vertex pairs over at most m+1
    pre-image vertices and tests line-graph isomorphism directly.  Feasible
    only for very small g.
    """
    from igmatch.graphs import Multigraph, line_graph

    m = g.n
    if m == 0:
        return False
    nv = m + 1
    pairs = list(itertools.combinations(range(nv), 2))
    for combo in itertools.combinations_with_replacement(pairs, m):
        cand = line_graph(Multigraph(nv, combo))
        if is_isomorphic(cand, g):
            return True
    return False


def canonical_base_key_reference(base):
    """A complete isomorphism key for color-coding bases, by brute force.

    The minimum over group relabelings, orders of equal edge descriptors
    and end flips of every two-member edge, of the edge list with vertices
    named in order of first appearance.  Equal keys mean isomorphic bases,
    so ``_base_stream`` must keep the same first base of each class under
    this key as under the package's own.
    """
    groups = sorted({g for (g, _hv) in base.tokens()})
    flippable = [i for i, fe in enumerate(base.edges) if len(fe.members) == 2]
    best = None
    for perm in itertools.permutations(groups):
        gmap = {g: i + 1 for i, g in enumerate(perm)}

        def tok(t, gmap=gmap):
            return (gmap[t[0]], t[1])

        descs = []
        for fe in base.edges:
            if fe.kind == "spot":
                payload = ("spot", tok(fe.spot_token) if fe.spot_token else None)
            else:
                bnds = tuple(tuple(sorted(map(tok, bd))) for bd in fe.boundaries)
                payload = ("stripe", len(fe.members),
                           tuple(sorted(map(tok, fe.interior))),
                           min(bnds, bnds[::-1]))
            descs.append(payload)
        edge_order = sorted(range(len(base.edges)), key=lambda i: descs[i])
        runs, start = [], 0
        for i in range(1, len(edge_order) + 1):
            if i == len(edge_order) or descs[edge_order[i]] != descs[edge_order[start]]:
                runs.append(edge_order[start:i])
                start = i
        for ordering in itertools.product(*[itertools.permutations(r) for r in runs]):
            flat = [i for run in ordering for i in run]
            nflip = len([i for i in flat if i in flippable])
            for flips in itertools.product((False, True), repeat=nflip):
                flippos = iter(flips)
                names = {}
                key = []
                for i in flat:
                    fe = base.edges[i]
                    members, bnds = fe.members, fe.boundaries
                    if len(members) == 2 and next(flippos):
                        members, bnds = members[::-1], bnds[::-1]
                    ids = []
                    for b in members:
                        names.setdefault(b, len(names))
                        ids.append(names[b])
                    if fe.kind == "spot":
                        key.append(("spot", tuple(ids),
                                    tok(fe.spot_token) if fe.spot_token else None))
                    else:
                        key.append(("stripe", tuple(ids),
                                    tuple(sorted(map(tok, fe.interior))),
                                    tuple(tuple(sorted(map(tok, bd))) for bd in bnds)))
                cand = tuple(key)
                if best is None or cand < best:
                    best = cand
    return best


def natural_coloring_reference(base, ss, vmap, emap):
    """The coloring of ``ss``'s elements that paints exactly one embedding.

    ``vmap`` sends base vertices to strip-vertices and ``emap`` base edge
    indices to strip-edge ids.  Embedded elements get the matching palette
    color; every other element gets a color that blanking erases (a
    non-vertex color on a strip-vertex, a vertex color on an edge part).
    """
    from igmatch.color_coding import ElementColoring, base_palette, structure_elements

    rinv = {r: b for b, r in vmap.items()}
    einv = {eid: fi for fi, eid in emap.items()}
    vblock = next(c for c in base_palette(base) if c[0] != "v")
    eblock = ("v", 0)
    colors = {}
    for el in structure_elements(ss):
        tag = el[0]
        if tag == "rv":
            colors[el] = ("v", rinv[el[1]]) if el[1] in rinv else vblock
        elif tag in ("spot", "int"):
            fi = einv.get(el[1])
            colors[el] = (tag + "c", fi) if fi is not None else eblock
        else:
            _tag, eid, r = el
            fi = einv.get(eid)
            colors[el] = ("bndc", fi, rinv[r]) if fi is not None else eblock
    return ElementColoring(colors)


def all_colorings(elements, palette):
    """Every coloring of ``elements`` from ``palette``, in product order."""
    elements = tuple(elements)
    for combo in itertools.product(palette, repeat=len(elements)):
        yield ElementColoring(dict(zip(elements, combo)))


def fuzzy_dp_profile(model, h) -> tuple[int, ...]:
    """Best matching size through each committed occurrence, in order.

    The maximum of the profile is the optimum; it does not depend on which
    occurrence the solver happens to commit to first.
    """
    g = realize(model)
    occs = enumerate_occurrences(g, h)
    if not occs:
        return ()
    _, conflict = _occurrence_masks(g, occs)
    return tuple(
        1 + _residual_chain(model, occs, conflict, star, None)[0]
        for star in range(len(occs))
    )


def covered_subgraph(ss, m) -> tuple[tuple, tuple]:
    """(strip-edge ids, strip-vertex ids) a matching touches.

    An edge is covered when its interior image meets the matching; a
    strip-vertex when its clique C(r) does.  A size-k matching of an h-vertex
    pattern covers at most hk edges and 2hk strip-vertices.
    """
    mv = m.vertex_set()
    return (
        tuple(eid for eid, _ in ss.edges if strip_image(ss, eid) & mv),
        tuple(r for r in ss.r_vertices if boundary_clique(ss, r) & mv),
    )


def _alignment_options(f_members, e_members):
    if len(f_members) == 1:
        return [((f_members[0], e_members[0]),)]
    (b1, b2), (r1, r2) = f_members, e_members
    return [((b1, r1), (b2, r2)), ((b1, r2), (b2, r1))]


def embeddings_reference(base, ss, profiles: dict):
    """Injective shape-preserving maps of the base into the strip-graph.

    The package's earlier search: every base edge scans all strip-edges in
    ``ss.edges`` order and tries both alignments, so it fixes the order in
    which the anchored search must emit the same maps.  ``profiles`` maps
    each strip-edge id to its (kind, member count) shape.
    """
    members = dict(ss.edges)
    vmap: dict = {}
    emap: dict = {}
    rused: set = set()

    def rec(fi: int):
        if fi == len(base.edges):
            yield dict(vmap), dict(emap)
            return
        fe = base.edges[fi]
        want = (fe.kind, len(fe.members))
        for eid in members:
            if eid in emap.values() or profiles[eid] != want:
                continue
            for pairs in _alignment_options(fe.members, members[eid]):
                added = []
                ok = True
                for b, r in pairs:
                    if b in vmap:
                        if vmap[b] != r:
                            ok = False
                            break
                    elif r in rused:
                        ok = False
                        break
                    else:
                        vmap[b] = r
                        rused.add(r)
                        added.append((b, r))
                if ok:
                    emap[fi] = eid
                    yield from rec(fi + 1)
                    del emap[fi]
                for b, r in added:
                    del vmap[b]
                    rused.discard(r)

    yield from rec(0)


def g_map_pair_failures(s, g) -> list:
    """The g_map edge-preservation messages of ``strip_invariant_failures``,
    by the package's earlier all-pairs ``has_edge`` comparison."""
    out = []
    interior = s.interior()
    for i, a in enumerate(interior):
        for b in interior[i + 1:]:
            if s.graph.has_edge(a, b) != g.has_edge(s.g_map[a], s.g_map[b]):
                out.append(
                    f"g_map not edge-preserving on J pair ({a},{b}) -> "
                    f"({s.g_map[a]},{s.g_map[b]})"
                )
    return out
