"""Self-contained exhaustive oracles the solver implementations are tested against.

Everything here is written from first principles on top of the Graph vertex
and adjacency accessors only, deliberately not reusing the package's own
search helpers, so that agreement between a solver and its oracle is
meaningful.  All routines are exponential and sized for test instances.

The exceptions pin witnesses or streams, not just answers, so they follow
the package's own search order or data types: ``wis_reference`` branches over
the package's clique partition, ``base_stream_reference`` runs the
package's token plans through every gluing and ``canonical_base_key_reference``
keys the package's bases, ``check_condition1`` (the whole-base test that
the stream's per-prefix test replaced), ``check_condition2`` and
``base_invariant_failures`` check them, and ``natural_coloring_reference``
and ``all_colorings`` paint its structure elements.
``subset_scan_occurrences``, ``all_pairs_occurrence_masks`` and
``long_by_pairs_and_triples`` keep the package's earlier, slower versions of
occurrence enumeration, conflict masks and the longness test,
``mis_reference`` its earlier maximum independent set search, and
``embeddings_reference`` and ``g_map_pair_failures`` those of the base
embedding search and the g_map edge check, ``find_igm_reference`` and
``max_igm_reference`` the two separate packing searches that one search
replaced, and ``interval_wis_reference``, ``long_arc_reference`` and
``disconnected_reference`` those of the weighted interval witness rebuild, the
per-cut long-arc solver and the per-cut disconnected-pattern solver,
``arc_cover_reference`` the per-probe scan of the arcs over a point,
``find_occurrence_reference`` and ``placements_reference`` the set-based
first-embedding and token-placement searches that the occurrence mask search
replaced, ``realize_reference`` and ``model_report_reference`` the all-pairs model
realization and validation, ``arc_contains`` and ``covers_circle`` the
single-pair containment and coverage definitions, and
``residual_chain_reference`` the fuzzy solver's per-star chain program, and
``find_star_reference``, ``twin_classes_reference``,
``all_cliques_containing_edge_reference``, ``krausz_cover_reference``,
``preimage_reproduces_reference`` and ``recognize_line_graph_reference``
the list-based claw test, twin classes, cover search, L(M) = g check and
line-graph recognition that the bitmask versions replaced,
for differential tests that require identical output.  ``fuzzy_dp_profile`` runs
the fuzzy solver's own residual chain from every committed occurrence, and
``covered_subgraph`` reads a matching's footprint off the package's strip
images and boundary cliques.  ``is_isomorphic``, which only tests need,
searches with the package's ``find_occurrence``.
"""

import itertools

from igmatch.color_coding import (
    ElementColoring,
    _glued_base,
    _token_order,
    _token_plans,
)
from igmatch.errors import InputError, InternalError
from igmatch.fuzzy_solver import _ChainTable, _residual_chain
from igmatch.graphs import (
    Graph,
    Matching,
    Multigraph,
    Occurrence,
    Pattern,
    _greedy_clique_partition,
    _occurrence_masks,
    _preimage_from_cover,
    disjoint_union,
    enumerate_occurrences,
    find_occurrence,
    line_graph,
)
from igmatch.models import (
    ArcModel,
    FuzzyArcModel,
    IntervalModel,
    ModelReport,
    arc_spans,
    cut_at_point,
    equivalence_points_doubled,
    intersection_kind,
    point_in_arc,
    realize,
)
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


def mis_reference(g) -> tuple[int, tuple[int, ...]]:
    """The package's earlier ``brute_force_mis``: (alpha, witness) by a
    bitmask branch and bound that pivots on the available vertex of most
    available neighbours (ties: lowest id), taking it or dropping it."""
    nbr = [sum(1 << w for w in g.neighbors(v)) for v in range(g.n)]
    best_size = 0
    best_set = 0

    def rec(avail: int, chosen: int, size: int):
        nonlocal best_size, best_set
        if avail == 0:
            if size > best_size:
                best_size, best_set = size, chosen
            return
        if size + bin(avail).count("1") <= best_size:
            return
        pick, pick_deg = -1, -1
        a = avail
        while a:
            v = (a & -a).bit_length() - 1
            a &= a - 1
            d = bin(nbr[v] & avail).count("1")
            if d > pick_deg:
                pick, pick_deg = v, d
        rec(avail & ~(nbr[pick] | (1 << pick)), chosen | (1 << pick), size + 1)
        rec(avail & ~(1 << pick), chosen, size)

    rec((1 << g.n) - 1, 0, 0)
    return best_size, tuple(v for v in range(g.n) if best_set >> v & 1)


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


def _pattern_order_reference(h) -> list[int]:
    # most-constrained-first: highest degree start, then most placed neighbors
    if h.n == 0:
        return []
    order = [max(range(h.n), key=lambda v: (h.degree(v), -v))]
    placed = set(order)
    while len(order) < h.n:
        best = None
        for v in range(h.n):
            if v in placed:
                continue
            key = (len(h.neighbors(v) & placed), h.degree(v), -v)
            if best is None or key > best[0]:
                best = (key, v)
        order.append(best[1])
        placed.add(best[1])
    return order


def find_occurrence_reference(g, h: Pattern, within=None) -> Occurrence | None:
    """The first induced embedding, placing pattern vertices in the most
    constrained first order, each on the smallest fitting host vertex first,
    with no symmetry breaking."""
    hg = h.graph
    hosts = sorted(within) if within is not None else list(range(g.n))
    if len(hosts) < h.h:
        return None
    assignment: dict[int, int] = {}

    def place(order, idx):
        if idx == len(order):
            return True
        pv = order[idx]
        for gv in hosts:
            if gv in assignment.values() or g.degree(gv) < hg.degree(pv):
                continue
            if any(hg.has_edge(pv, qv) != g.has_edge(gv, hv) for qv, hv in assignment.items()):
                continue
            assignment[pv] = gv
            if place(order, idx + 1):
                return True
            del assignment[pv]
        return False

    if not place(_pattern_order_reference(hg), 0):
        return None
    return Occurrence(tuple(assignment[i] for i in range(h.h)))


def placements_reference(J, h: Pattern, tokens, allowed) -> list[dict]:
    """Every injective placement of the ``(group, pattern vertex)`` tokens,
    token t on a vertex of ``allowed[t]``, that is adjacent in J exactly
    where two tokens share a group and are joined in H; token by token, each
    on its allowed vertices in the listed order."""
    out = []

    def extend(chosen, i):
        if i == len(tokens):
            out.append(dict(chosen))
            return
        grp, hv = t = tokens[i]
        for v in allowed[t]:
            if v in chosen.values():
                continue
            if all(J.has_edge(v, v2) == (g2 == grp and h.graph.has_edge(hv, hv2))
                   for (g2, hv2), v2 in chosen.items()):
                chosen[t] = v
                extend(chosen, i + 1)
                del chosen[t]

    extend({}, 0)
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


def arc_contains(model: ArcModel, i: int, j: int) -> bool:
    """Point-set containment: arc j a subset of arc i.

    Once j starts inside i, j leaves i iff it reaches the point just past
    i's end.
    """
    return point_in_arc(model, i, 2 * model.arcs[j].s) and not point_in_arc(
        model, j, 2 * model.arcs[i].t + 1
    )


def covers_circle(model: ArcModel, ids=None) -> bool:
    """Whether the arcs ``ids`` (default: all) cover the whole circle.

    A gap in the union would begin just past the end of some arc, so the
    union covers the circle iff it holds the point just past every end.
    """
    ids = range(len(model.arcs)) if ids is None else tuple(ids)
    return bool(ids) and all(
        any(point_in_arc(model, j, 2 * model.arcs[i].t + 1) for j in ids) for i in ids
    )


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


def find_igm_reference(g: Graph, h: Pattern, k: int,
                       occurrences: list[Occurrence] | None = None) -> Matching | None:
    """First induced matching of size k in canonical order, or None."""
    if k < 0:
        raise InputError("k must be nonnegative")
    if k == 0:
        return Matching(())
    occs = enumerate_occurrences(g, h) if occurrences is None else occurrences
    if len(occs) < k:
        return None
    _, conflict = _occurrence_masks(g, occs)
    n = len(occs)
    chosen: list[int] = []

    def rec(start: int, avail: int) -> bool:
        if len(chosen) == k:
            return True
        if len(chosen) + bin(avail >> start << start).count("1") < k:
            return False
        for i in range(start, n):
            if not (avail >> i & 1):
                continue
            chosen.append(i)
            if rec(i + 1, avail & ~conflict[i] & ~(1 << i)):
                return True
            chosen.pop()
        return False

    if rec(0, (1 << n) - 1):
        return Matching(tuple(occs[i] for i in chosen))
    return None


def max_igm_reference(g: Graph, h: Pattern, require_touch=(),
                      occurrences: list[Occurrence] | None = None) -> list[Occurrence] | None:
    """Maximum-size induced matching, optionally forced to touch vertex sets.

    Each entry of ``require_touch`` is a vertex set that the union of the
    matching must intersect.  Returns a witness list (possibly empty when no
    touch constraints), or None when the constraints cannot be met.
    """
    occs = enumerate_occurrences(g, h) if occurrences is None else occurrences
    n = len(occs)
    vmask, conflict = _occurrence_masks(g, occs)
    touch_masks = []
    for s in require_touch:
        m = 0
        for v in s:
            m |= 1 << v
        touch_masks.append(m)
    touches = [
        tuple(bool(vmask[i] & tm) for tm in touch_masks) for i in range(n)
    ]
    best: list[int] | None = None
    chosen: list[int] = []

    def rec(start: int, avail: int, sat: tuple):
        nonlocal best
        remaining = bin(avail >> start << start).count("1")
        bsize = -1 if best is None else len(best)
        if len(chosen) + remaining <= bsize:
            return
        # each unsatisfied touch set must still be reachable
        for t in range(len(touch_masks)):
            if sat[t]:
                continue
            if not any(
                avail >> i & 1 and touches[i][t] for i in range(start, n)
            ):
                return
        if all(sat) and len(chosen) > bsize:
            best = list(chosen)
        for i in range(start, n):
            if not (avail >> i & 1):
                continue
            chosen.append(i)
            new_sat = tuple(s or touches[i][t] for t, s in enumerate(sat))
            rec(i + 1, avail & ~conflict[i] & ~(1 << i), new_sat)
            chosen.pop()

    rec(0, (1 << n) - 1, tuple(not touch_masks[t] for t in range(len(touch_masks))) or ())
    if not touch_masks and best is None:
        best = []
    if best is None:
        return None
    return [occs[i] for i in best]


def wis_exhaustive(g, weights, k_card: int, k_weight) -> bool:
    for s in independent_sets(g):
        if len(s) >= k_card and sum(weights[v] for v in s) >= k_weight:
            return True
    return False


def wis_reference(g, weights, k_card: int, k_weight):
    """``brute_force_wis`` with its static bounds: (answer, witness or None).

    The same branching over ``_greedy_clique_partition(g)``, cut only when
    one vertex from every remaining clique, or the heaviest vertex of every
    remaining clique, could not reach the target.  Any sound bound on this
    search order returns the same first witness, so the solver must match
    this search exactly.
    """
    weights = list(weights)
    if k_card <= 0 and k_weight <= 0:
        return True, ()
    cliques = _greedy_clique_partition(g)
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


def wis_forward_check_reference(g, weights, k_card: int, k_weight):
    """``brute_force_wis`` with the forward check and nothing more, as it was
    before it propagated at tight nodes: (answer, witness or None).

    A sound bound on the same search order as ``wis_reference``, so it
    returns the same first witness, much faster on the large no-instances
    of the subdivided encodings (about 0.3 s for the 120 of
    ``test_kernel_corpus.py``, against about 24 s).
    """
    weights = list(weights)
    if k_card <= 0 and k_weight <= 0:
        return True, ()
    cliques = _greedy_clique_partition(g)
    heaviest_first = [sorted(c, key=lambda v: -weights[v]) for c in cliques]
    m = len(cliques)
    nbr = [0] * g.n
    for v in range(g.n):
        for w in g.neighbors(v):
            nbr[v] |= 1 << w
    found = None

    def rec(idx, blocked, chosen, size, weight):
        nonlocal found
        if size >= k_card and weight >= k_weight:
            found = list(chosen)
            return True
        open_cliques, gain = 0, 0
        for i in range(idx, m):
            for v in heaviest_first[i]:
                if not blocked >> v & 1:
                    open_cliques += 1
                    gain += weights[v]
                    break
        if size + open_cliques < k_card or weight + gain < k_weight:
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
    so ``base_stream_reference`` keyed by it must yield the package's
    ``_base_stream``.
    """
    groups = sorted({g for fe in base.edges for (g, _hv) in fe.tokens()})
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


def base_stream_reference(h, k, budget, key):
    """The package's base stream as first written, with ``key`` for its key.

    Every gluing of every token plan of ``_token_plans``, in the package's
    order, with no symmetry skipped and blocks whose tokens cannot meet cut
    off; the bases that pass ``check_condition1``, tested on each whole
    glued base; and of those the first of each class of ``key``, which must
    be a minimum over group relabelings (``canonical_base_key_reference``).
    The plans and ``_glued_base`` are the package's own, so the stream can
    be compared base for base; the two condition tests are this module's.
    """
    if h.h * k == 0:
        return
    seen = set()
    for plan in _token_plans(h, _token_order(h, k), budget):
        endpoints = [(ei, p) for ei, edge in enumerate(plan) for p in range(edge["nm"])]
        for blocks in _all_gluings(plan, h, endpoints, [], 0):
            base = _glued_base(plan, blocks)
            if not check_condition1(base, h):
                continue
            kk = key(base)
            if kk in seen:
                continue
            seen.add(kk)
            yield base


def _block_meets(plan, block, h) -> bool:
    """The tokens seated at a block of glued plan endpoints form one group
    and an H-clique."""
    toks = set()
    for ei, p in block:
        edge = plan[ei]
        if edge["kind"] == "spot":
            toks.add(edge["token"])
        else:
            toks |= {t for t, slots in edge["slots"].items() if p in slots}
    if len({g for (g, _hv) in toks}) > 1:
        return False
    hvs = sorted(hv for (_g, hv) in toks)
    return all(h.graph.has_edge(u, v) for u, v in itertools.combinations(hvs, 2))


def _all_gluings(plan, h, endpoints, blocks, i):
    """Every block list gluing ``endpoints[i:]`` into ``blocks`` or new
    blocks, two ends of one edge apart, in lexicographic order."""
    if i == len(endpoints):
        yield blocks
        return
    ep = endpoints[i]
    for blk in blocks:
        if any(e2 == ep[0] for (e2, _p) in blk):
            continue
        blk.append(ep)
        if _block_meets(plan, blk, h):
            yield from _all_gluings(plan, h, endpoints, blocks, i + 1)
        blk.pop()
    blocks.append([ep])
    yield from _all_gluings(plan, h, endpoints, blocks, i + 1)
    blocks.pop()


def _boundary_seats(fe) -> dict:
    """Token -> base vertices at whose boundary it sits on edge ``fe``; a spot
    token sits at both members, an interior token nowhere."""
    if fe.kind == "spot":
        return {} if fe.spot_token is None else {fe.spot_token: set(fe.members)}
    seats = {t: set() for t in fe.interior}
    for b, bd in zip(fe.members, fe.boundaries):
        for t in bd:
            seats.setdefault(t, set()).add(b)
    return seats


def check_condition1(base, h) -> bool:
    """Tokens of adjacent pattern vertices share an edge or glued boundaries.

    For every pattern edge and every group with both tokens present: either
    the two tokens sit on the same base edge, or their edges share a vertex
    at whose boundaries both tokens are assigned.  ``_base_stream`` tests
    this on each gluing prefix instead; this is the whole-base test it
    replaced.
    """
    where: dict = {}
    for i, fe in enumerate(base.edges):
        for t, seats in _boundary_seats(fe).items():
            where[t] = (i, seats)
    for g in {g for (g, _hv) in where}:
        for u, v in h.graph.edges:
            tu, tv = (g, u), (g, v)
            if tu not in where or tv not in where:
                continue
            ei, bu = where[tu]
            ej, bv = where[tv]
            if ei != ej and not (bu & bv):
                return False
    return True


def check_condition2(base, h) -> bool:
    """Boundary tokens meeting at a base vertex form one group and an H-clique.

    ``_base_stream`` does not test this on the bases it emits: it holds by
    construction of the gluing, which the streamed-base invariant test
    checks against this reference.
    """
    at: dict = {}
    for fe in base.edges:
        for t, seats in _boundary_seats(fe).items():
            for b in seats:
                at.setdefault(b, set()).add(t)
    for toks in at.values():
        if len({g for (g, _hv) in toks}) > 1:
            return False
        pairs = itertools.combinations(sorted(hv for (_g, hv) in toks), 2)
        if not all(h.graph.has_edge(u, v) for u, v in pairs):
            return False
    return True


def base_invariant_failures(base, h, k) -> list:
    """Every way ``base`` breaks what a streamed base promises, as messages.

    The shape of each edge (a spot: two members, at most one token, no token
    sets; a stripe: one boundary set per member, no token both inside and on
    a boundary), members 1-2 distinct in-range vertex ids in ascending
    order, tokens (g, v) with 1 <= g <= k and 0 <= v < |V(H)|, each on one
    edge, every vertex on an edge; and what ``_base_stream`` adds: every
    edge holds a token, all hk tokens are assigned, and conditions 1 and 2
    hold.  An empty list means none is broken.
    """
    out = []
    owner: dict = {}
    seats: dict = {}
    used: set = set()
    if not base.edges:
        out.append("no edges")
    for i, fe in enumerate(base.edges):
        m = fe.members
        if fe.kind not in ("spot", "stripe"):
            out.append(f"edge {i}: unknown kind {fe.kind!r}")
        if not 1 <= len(m) <= 2 or len(set(m)) != len(m):
            out.append(f"edge {i}: members {m!r} are not 1-2 distinct vertices")
        if list(m) != sorted(m):
            out.append(f"edge {i}: members {m!r} not ascending")
        if not all(isinstance(b, int) and 0 <= b < base.n_vertices for b in m):
            out.append(f"edge {i}: members {m!r} out of range")
        used.update(m)
        if fe.kind == "spot":
            if len(m) != 2:
                out.append(f"edge {i}: a spot with {len(m)} members")
            if fe.interior or fe.boundaries:
                out.append(f"edge {i}: a spot with token sets")
            toks = set() if fe.spot_token is None else {fe.spot_token}
        else:
            if fe.spot_token is not None:
                out.append(f"edge {i}: a stripe with a spot token")
            if len(fe.boundaries) != len(m):
                out.append(f"edge {i}: {len(fe.boundaries)} boundary sets for {len(m)} members")
            on_boundary = set().union(*fe.boundaries)
            if fe.interior & on_boundary:
                out.append(f"edge {i}: tokens both inside and on a boundary")
            toks = set(fe.interior) | on_boundary
        if not toks:
            out.append(f"edge {i}: holds no token")
        for t in sorted(toks, key=repr):
            g_ok = isinstance(t, tuple) and len(t) == 2 and all(isinstance(x, int) for x in t)
            if not (g_ok and 1 <= t[0] <= k and 0 <= t[1] < h.h):
                out.append(f"edge {i}: bad token {t!r}")
            if t in owner:
                out.append(f"token {t!r} on edges {owner[t]} and {i}")
            owner[t] = i
        seats.update(_boundary_seats(fe))
    if used != set(range(base.n_vertices)):
        out.append("a vertex lies on no edge")
    if set(owner) != {(g, v) for g in range(1, k + 1) for v in range(h.h)}:
        out.append("the tokens are not exactly the hk tokens")
    for g in range(1, k + 1):
        for u, v in h.graph.edges:
            a, b = (g, u), (g, v)
            if a in owner and b in owner and owner[a] != owner[b] and not seats[a] & seats[b]:
                out.append(f"condition 1: {a} and {b} neither share an edge nor meet")
    if not check_condition2(base, h):
        out.append("condition 2")
    return out


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


def residual_chain_reference(model: FuzzyArcModel, occs, conflict, star: int,
                             stop_at: int | None):
    """Best compatible chain after committing to occurrence ``star``.

    Returns (length, chain) where the chain lists occurrence indices in
    left-to-right order, all compatible with each other and with the star.
    With ``stop_at`` set, returns as soon as the chain length reaches it.

    The fuzzy solver's earlier program: it cuts, sorts and groups the
    survivors again for each star, and compares each occurrence with every
    member of every earlier group.  ``conflict`` is indexed like ``occs``.
    """
    arcs = model.arcs.arcs
    c4 = 4 * model.arcs.circumference
    # cut strictly inside the star's first arc; quarter offsets cannot hit
    # any arc endpoint, and an arc covering this interior point would overlap
    # the star's arc in more than one point, hence belong to N[H*]
    cutpos = (4 * arcs[occs[star].vertices[0]].s + 1) % c4
    blocked = conflict[star]
    entries = []  # (right endpoint, occurrence index)
    for i in range(len(occs)):
        if i == star or (blocked >> i) & 1:
            continue
        rbest = -1
        for v in occs[i].vertices:
            a = arcs[v]
            l4 = (4 * a.s - cutpos) % c4
            r4 = (4 * a.t - cutpos) % c4
            if l4 >= r4:
                raise InternalError(
                    f"arc {v} wraps the cut point of the residual model"
                )
            rbest = max(rbest, r4)
        entries.append((rbest, i))
    entries.sort()
    # group by point: point index 0 is the fake entry, compatible with all
    points: list[int] = []
    groups: list[list[int]] = []
    for r4, i in entries:
        if not points or points[-1] != r4:
            points.append(r4)
            groups.append([])
        groups[-1].append(i)
    # value[0][0] is the fake entry
    value: list[list[int]] = [[0]] + [[] for _ in groups]
    parent: list[list[tuple[int, int]]] = [[(-1, -1)]] + [[] for _ in groups]
    best = (0, 0)
    for gi, oi in ((gi, oi) for gi, group in enumerate(groups, start=1) for oi in group):
        bv, bp = 0, (0, 0)
        for gi2 in range(1, gi):
            for j2, oi2 in enumerate(groups[gi2 - 1]):
                v2 = value[gi2][j2]
                if v2 > bv and not (conflict[oi] >> oi2) & 1:
                    bv, bp = v2, (gi2, j2)
        value[gi].append(1 + bv)
        parent[gi].append(bp)
        if 1 + bv > value[best[0]][best[1]]:
            best = (gi, len(value[gi]) - 1)
            if stop_at is not None and 1 + bv >= stop_at:
                break
    length = value[best[0]][best[1]]
    chain = []
    at = best
    while at != (0, 0):
        gi3, j3 = at
        chain.append(groups[gi3 - 1][j3])
        at = parent[gi3][j3]
    return length, chain[::-1]


def fuzzy_dp_profile(model, h) -> tuple[int, ...]:
    """Best matching size through each committed occurrence, in order.

    The maximum of the profile is the optimum; it does not depend on which
    occurrence the solver happens to commit to first.
    """
    g = realize(model)
    occs = enumerate_occurrences(g, h)
    if not occs:
        return ()
    table = _ChainTable(model, g, occs)
    # a chain holds fewer occurrences than there are, so it never stops early
    return tuple(1 + _residual_chain(table, star, len(occs))[0] for star in range(len(occs)))


def covered_subgraph(ss, m) -> tuple[tuple, tuple]:
    """(strip-edge ids, strip-vertex ids) a matching touches.

    An edge is covered when its interior image meets the matching; a
    strip-vertex when its clique C(r) does.  A size-k matching of an h-vertex
    pattern covers at most hk edges and 2hk strip-vertices.
    """
    mv = {v for o in m.occurrences for v in o.vertices}
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


def _best_weight_reference(items, allowed) -> int:
    """Max total weight of pairwise disjoint intervals ``items[i]``, i in allowed."""
    order = sorted(allowed, key=lambda i: (items[i][1], items[i][0], i))
    best: list[tuple[int, int]] = []  # (right endpoint, best weight)
    cur = 0
    for i in order:
        l, r, w = items[i][:3]
        take = w
        lo, hi = 0, len(best)
        while lo < hi:  # rightmost entry with endpoint < l
            mid = (lo + hi) // 2
            if best[mid][0] < l:
                lo = mid + 1
            else:
                hi = mid
        if lo:
            take += best[lo - 1][1]
        cur = max(cur, take)
        best.append((r, cur))
    return cur


def interval_wis_reference(intervals) -> tuple[int, int, tuple[int, ...]]:
    """The package's earlier ``interval_wis``: each candidate and each later
    interval is tested against every chosen interval by a scan."""
    items = []
    for idx, (l, r, w) in enumerate(intervals):
        if l > r:
            raise InputError(f"interval {idx} has l > r")
        if w < 0:
            raise InputError(f"interval {idx} has negative weight")
        items.append((l, r, w, idx))

    def disjoint(i: int, j: int) -> bool:
        return max(items[i][0], items[j][0]) > min(items[i][1], items[j][1])

    n = len(items)
    opt = _best_weight_reference(items, range(n))
    chosen: list[int] = []
    got = 0
    for i in range(n):
        if any(not disjoint(i, c) for c in chosen):
            continue
        rest = [j for j in range(i + 1, n) if disjoint(j, i) and all(disjoint(j, c) for c in chosen)]
        if got + items[i][2] + _best_weight_reference(items, rest) == opt:
            chosen.append(i)
            got += items[i][2]
    if got != opt:
        raise InternalError("witness reconstruction lost weight")
    return opt, len(chosen), tuple(chosen)


def _interval_step_reference(model, occs, k):
    lefts = [it.l for it in model.items]
    rights = [it.r for it in model.items]
    classes = {}
    for occ in occs:
        lmost = min(occ.vertices, key=lefts.__getitem__)
        rmost = max(occ.vertices, key=rights.__getitem__)
        classes.setdefault((lmost, rmost), occ)
    keys = sorted(classes)
    aux = [(lefts[lm], rights[rm], 1) for lm, rm in keys]
    if _best_weight_reference(aux, range(len(aux))) < k:
        return None
    _, _, witness = interval_wis_reference(aux)
    picked = tuple(classes[keys[i]] for i in witness[:k])
    return Matching(tuple(sorted(picked, key=lambda o: o.vertices)))


def arc_cover_reference(model: ArcModel):
    """p2 -> the mask of the arcs that contain the doubled point p2, as
    ``point_in_arc``: the package's earlier per-probe scan of every arc."""
    c2 = 2 * model.circumference
    spans = arc_spans(model)
    return lambda p2: sum(1 << i for i, (s2, d2) in enumerate(spans) if (p2 - s2) % c2 <= d2)


def long_arc_reference(model, h, k):
    """The package's earlier long proper circular-arc solver, for a connected
    ``h`` and k >= 1 on a model the caller knows to be proper and long.

    Each cut renumbers the occurrences that avoid its removed arcs onto the
    cut graph and rebuilds their (leftmost, rightmost) classes from scratch;
    for k = 1, when every cut fails, a direct search settles it.
    """
    g = realize(model)
    occs = enumerate_occurrences(g, h)
    seen = set()
    for p2 in equivalence_points_doubled(model):
        key = frozenset(a.id for a in model.arcs if point_in_arc(model, a.id, p2))
        if key in seen:
            continue
        seen.add(key)
        cut = cut_at_point(model, p2)
        removed = set(range(len(model.arcs))) - set(cut.kept_ids)
        new_id = {v: i for i, v in enumerate(cut.kept_ids)}.__getitem__
        kept = [
            Occurrence(tuple(map(new_id, occ.vertices)))
            for occ in occs
            if removed.isdisjoint(occ.vertices)
        ]
        sub = _interval_step_reference(cut.intervals, kept, k)
        if sub is not None:
            back = tuple(
                Occurrence(tuple(cut.kept_ids[v] for v in occ.vertices))
                for occ in sub.occurrences
            )
            return Matching(tuple(sorted(back, key=lambda o: o.vertices)))
    if k == 1:
        occ = find_occurrence(g, h)
        if occ is not None:
            return Matching((occ,))
    return None


def disconnected_reference(model, h, k):
    """The package's earlier disconnected-pattern solver, for k >= 1 on a
    proper model with k * |V(H)| inside the cap: each cut is realized as an
    interval graph of its own, searched for k disjoint copies of H, and the
    embedding mapped back through ``kept_ids``."""
    bundle_graph = h.graph
    for _ in range(k - 1):
        bundle_graph = disjoint_union(bundle_graph, h.graph)
    bundle = Pattern(bundle_graph)
    seen = set()
    for p2 in equivalence_points_doubled(model):
        key = frozenset(a.id for a in model.arcs if point_in_arc(model, a.id, p2))
        if key in seen:
            continue
        seen.add(key)
        cut = cut_at_point(model, p2)
        emb = find_occurrence(realize(cut.intervals), bundle)
        if emb is None:
            continue
        occs = [
            Occurrence(tuple(cut.kept_ids[emb.vertices[copy * h.h + i]] for i in range(h.h)))
            for copy in range(k)
        ]
        return Matching(tuple(sorted(occs, key=lambda o: o.vertices)))
    return None


def realize_reference(model):
    """The package's earlier ``realize``: every pair of items is tested, intervals
    by overlap and arcs by ``intersection_kind``."""
    if isinstance(model, IntervalModel):
        items = model.items
        n = len(items)
        return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                         if max(items[i].l, items[j].l) <= min(items[i].r, items[j].r)])
    arcs = model.arcs if isinstance(model, FuzzyArcModel) else model
    n = len(arcs)
    es = []
    for i in range(n):
        for j in range(i + 1, n):
            kind = intersection_kind(arcs, i, j)
            if kind == "multi" or (kind == "single-point" and (
                    not isinstance(model, FuzzyArcModel) or model.resolutions[(i, j)])):
                es.append((i, j))
    return Graph(n, es)


def _proper_reference(n, contains) -> bool:
    return not any(contains(i, j) for i, j in itertools.permutations(range(n), 2))


def model_report_reference(model) -> ModelReport:
    """The package's earlier ``validate_interval_model`` and
    ``validate_arc_model``: containment by a callable tried on every ordered
    pair, and the greedy longness walk on ``point_in_arc``."""
    if isinstance(model, IntervalModel):
        items = model.items
        return ModelReport(_proper_reference(
            len(items), lambda i, j: items[i].l <= items[j].l and items[j].r <= items[i].r), True)
    assert isinstance(model, ArcModel)
    c2 = 2 * model.circumference

    def extension(p2):
        return max((2 * a.t - p2) % c2 for a in model.arcs if point_in_arc(model, a.id, p2))

    def closes(a):
        reach = (2 * a.t - 2 * a.s) % c2
        for _ in range(2):
            reach += extension((2 * a.s + reach) % c2)
            if reach >= c2:
                return True
        return False

    return ModelReport(
        _proper_reference(len(model.arcs), lambda i, j: arc_contains(model, i, j)),
        not any(closes(a) for a in model.arcs),
    )


def find_star_reference(g, t: int) -> tuple | None:
    """The first center in vertex order with t pairwise non-adjacent
    neighbours, and its first such legs in combination order."""
    if t < 1:
        raise InputError("t must be positive")
    for v in range(g.n):
        nb = sorted(g.neighbors(v))
        if len(nb) < t:
            continue
        for combo in itertools.combinations(nb, t):
            if all(not g.has_edge(a, b) for a, b in itertools.combinations(combo, 2)):
                return (v,) + combo
    return None


def twin_classes_reference(g) -> list[list[int]]:
    """True-twin classes keyed by closed neighbourhood sets, sorted."""
    by_nbhd: dict[frozenset, list[int]] = {}
    for v in range(g.n):
        by_nbhd.setdefault(g.neighbors(v) | {v}, []).append(v)
    return sorted(sorted(c) for c in by_nbhd.values())


def all_cliques_containing_edge_reference(g, u: int, v: int) -> list[frozenset]:
    """All cliques of g that contain both u and v, largest first, ties by
    sorted tuple."""
    common = sorted(g.neighbors(u) & g.neighbors(v))
    out = []

    def extend(clique: list[int], cand: list[int]):
        out.append(frozenset(clique))
        for i, w in enumerate(cand):
            if all(g.has_edge(w, x) for x in clique):
                extend(clique + [w], cand[i + 1:])

    extend([u, v], common)
    return sorted(out, key=lambda c: (-len(c), sorted(c)))


def krausz_cover_reference(g) -> list[frozenset] | None:
    """Cliques covering every edge, each vertex in at most two, by
    backtracking: the first uncovered edge in ``g.edges`` order, then every
    clique through it largest first, ties by sorted tuple."""
    edges = list(g.edges)
    if not edges:
        return []
    membership = [0] * g.n
    covered: set[tuple[int, int]] = set()
    chosen: list[frozenset] = []

    def rec() -> bool:
        todo = next((e for e in edges if e not in covered), None)
        if todo is None:
            return True
        u, v = todo
        if membership[u] >= 2 or membership[v] >= 2:
            return False
        for clique in all_cliques_containing_edge_reference(g, u, v):
            if any(membership[w] >= 2 for w in clique):
                continue
            newly = [
                (min(a, b), max(a, b))
                for a, b in itertools.combinations(sorted(clique), 2)
                if (min(a, b), max(a, b)) not in covered
            ]
            for w in clique:
                membership[w] += 1
            covered.update(newly)
            chosen.append(clique)
            if rec():
                return True
            chosen.pop()
            covered.difference_update(newly)
            for w in clique:
                membership[w] -= 1
        return False

    return list(chosen) if rec() else None


def preimage_reproduces_reference(g, m) -> bool:
    """Is L(M) = g, by building the line graph pair by pair?"""
    return line_graph(m) == g


def recognize_line_graph_reference(g):
    """Line-graph recognition on the list-based claw test, twin classes,
    cover search and L(M) = g check: the pre-image, or None."""
    if g.n == 0:
        raise InputError("recognition requires a nonempty graph")
    if not g.is_connected():
        raise InputError("recognition requires a connected graph")
    if find_star_reference(g, 3) is not None:
        return None
    if g.n == 3 and len(g.edges) == 3:
        m = Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    else:
        classes = twin_classes_reference(g)
        class_of = {v: ci for ci, c in enumerate(classes) for v in c}
        reduced = g.induced([c[0] for c in classes])
        cover = krausz_cover_reference(reduced)
        if cover is None:
            return None
        m_red = _preimage_from_cover(reduced, cover)
        m = Multigraph(m_red.n, [m_red.edges[class_of[v]] for v in range(g.n)])
    if not preimage_reproduces_reference(g, m):
        raise InternalError("pre-image construction does not reproduce the host")
    return m
