"""Oracles the solver implementations are tested against.

Everything here is sized for test instances, and most of it is exponential.
Each routine checks a definition, not a design, so that agreement between a
solver and its oracle is meaningful:

- First principles, on the Graph vertex and adjacency accessors only:
  ``independent_sets``, ``mis_exhaustive``, ``occurrences_exhaustive``,
  ``igm_exhaustive``, ``max_igm_exhaustive``, ``wis_exhaustive`` and
  ``is_line_graph_exhaustive``; ``occurrence_masks_reference`` (which
  occurrences pass through a vertex, and which two conflict, read off
  ``has_edge``); ``is_isomorphic``, which only tests need,
  searches with the package's ``find_occurrence``.  ``arc_contains`` and
  ``covers_circle`` are the single-pair containment and coverage
  definitions on ``point_in_arc``.
- All-pairs checks of the arc and interval models: ``realize_reference``
  and ``model_report_reference`` (model realization and validation, every
  pair of items), ``long_by_pairs_and_triples`` (no two or three arcs
  cover the circle), ``arc_cover_reference`` (the arcs over a point, by a
  scan of every arc), ``right_end_reference`` (where the union of an
  occurrence's arcs ends, by a scan of every point) and
  ``_best_weight_reference`` (the best weight of disjoint intervals).
- What a streamed base promises: ``check_condition1`` and
  ``check_condition2`` (the two token conditions, on a whole base) and
  ``base_invariant_failures``.
- The literal coloring step, with tuple colors, that random mode's
  palette-index draws and blanking table replaced (a seed draws the same
  stream in both): ``coloring_family`` and ``blank_reference``, with
  ``ElementColoring``, ``structure_elements`` and ``base_palette``;
  ``literal_surjections`` and ``as_draw`` put the two side by side, and
  ``natural_coloring_reference`` and ``all_colorings`` paint a structure's
  elements.
- Readings of a result: ``fuzzy_dp_profile`` runs the fuzzy solver's own
  residual chain from every committed occurrence, and ``covered_subgraph``
  reads a matching's footprint off the package's strip images and boundary
  cliques.

Earlier copies of the package's own searches are not kept here.  A refactor
that must leave an output unchanged keeps its test's inputs and pins the
output by digest (``pinned.py``, ``reference_digests.json``).
"""

import itertools
import random
from dataclasses import dataclass

from igmatch.color_coding import BaseSurjection
from igmatch.errors import InputError
from igmatch.fuzzy_solver import _ChainTable, _residual_chain
from igmatch.graphs import Graph, Multigraph, Pattern, enumerate_occurrences, find_occurrence, line_graph
from igmatch.models import (
    ArcModel,
    FuzzyArcModel,
    IntervalModel,
    ModelReport,
    arc_spans,
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


def occurrence_masks_reference(g, tuples) -> tuple[list[int], list[int]]:
    """(through, conflict) of the occurrences with vertex tuples ``tuples``:
    bit i of ``through[v]`` is set iff ``tuples[i]`` uses v, and bit j of
    ``conflict[i]`` iff j != i and ``tuples[j]`` has a vertex in the closed
    neighborhood of ``tuples[i]``, scanned over every vertex of g: the
    occurrences through some vertex of that neighborhood, i left out."""
    closed = [{u for u in range(g.n) if u == v or g.has_edge(u, v)} for v in range(g.n)]
    through = [sum(1 << i for i, vs in enumerate(tuples) if v in vs) for v in range(g.n)]
    conflict = []
    for i, vs in enumerate(tuples):
        hit = 0
        for u in set().union(*(closed[v] for v in vs)):
            hit |= through[u]
        conflict.append(hit & ~(1 << i))
    return through, conflict


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


def wis_exhaustive(g, weights, k_card: int, k_weight) -> bool:
    for s in independent_sets(g):
        if len(s) >= k_card and sum(weights[v] for v in s) >= k_weight:
            return True
    return False


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


def structure_elements(ss) -> tuple:
    """Colorable items of a strip-structure, in canonical order."""
    out = [("rv", r) for r in ss.r_vertices]
    for eid, members in ss.edges:
        if ss.kinds[eid] == "spot":
            out.append(("spot", eid))
        else:
            out.append(("int", eid))
            out.extend(("bnd", eid, r) for r in members)
    return tuple(out)


def base_palette(base) -> tuple:
    """Distinct colors for the base's vertices and edge parts."""
    out = [("v", b) for b in range(base.n_vertices)]
    for fi, fe in enumerate(base.edges):
        if fe.kind == "spot":
            out.append(("spotc", fi))
        else:
            out.append(("intc", fi))
            out.extend(("bndc", fi, b) for b in fe.members)
    return tuple(out)


@dataclass(frozen=True)
class ElementColoring:
    """Partial assignment of palette colors to structure elements.

    Elements absent from ``colors`` are blank.
    """

    colors: dict

    def color(self, element):
        return self.colors.get(element)


def coloring_family(elements, palette, trials: int | None = None, seed: int | None = None):
    """Stream ``trials`` colorings of ``elements`` drawn from ``palette``.

    The draws are uniform and reproducible from ``seed``; the inputs are
    checked when the stream is made, not when it is first read.  A draw hits
    any fixed coloring with probability 1/|palette|^|elements|, so by the
    coupon-collector bound about N ln N trials (N that same power) cover
    every coloring in expectation; far fewer suffice in practice because
    only the handful of elements a matching touches must be colored right.
    """
    elements = tuple(elements)
    palette = tuple(palette)
    if len(set(elements)) != len(elements):
        raise InputError("duplicate elements")
    if len(set(palette)) != len(palette) or not palette:
        raise InputError("palette must be non-empty and duplicate-free")
    if trials is None or trials < 0:
        raise InputError("random mode needs a non-negative trial count")
    rng = random.Random(seed)
    return (
        ElementColoring({el: rng.choice(palette) for el in elements}) for _ in range(trials)
    )


def _vertex_color_id(color, base):
    if (
        isinstance(color, tuple)
        and len(color) == 2
        and color[0] == "v"
        and isinstance(color[1], int)
        and 0 <= color[1] < base.n_vertices
    ):
        return color[1]
    return None


def _edge_color_id(color, tag: str, base):
    if (
        isinstance(color, tuple)
        and len(color) >= 2
        and color[0] == tag
        and isinstance(color[1], int)
        and 0 <= color[1] < len(base.edges)
    ):
        return color[1]
    return None


def blank_reference(f: ElementColoring, ss, base):
    """Erase colors that cannot be part of a surjection onto the base.

    Strip-vertices keep their color only if it is a vertex color; a
    strip-edge keeps its colors only if its element sequence spells out the
    color sequence of a same-shape base edge whose endpoints agree with the
    surviving vertex colors.  Returns the blanked coloring plus the induced
    surjection, or None when some palette color no longer appears.  The
    procedure is a single local pass and therefore idempotent.
    """
    vkeep = {}
    for r in ss.r_vertices:
        b = _vertex_color_id(f.color(("rv", r)), base)
        if b is not None:
            vkeep[r] = b

    edge_map: dict = {}
    alignment: dict = {}
    colors: dict = {("rv", r): ("v", b) for r, b in vkeep.items()}
    for eid, members in ss.edges:
        # a strip that is neither a spot nor a stripe matches no base edge
        kind = ss.kinds[eid]
        part = ("spot", eid) if kind == "spot" else ("int", eid)
        fi = _edge_color_id(f.color(part), part[0] + "c", base)
        if fi is None or base.edges[fi].kind != kind:
            continue
        # the surviving vertex colors must spell out the base edge's ends
        ends = base.edges[fi].members
        align = {r: vkeep.get(r) for r in members}
        if len(members) != len(ends) or set(align.values()) != set(ends):
            continue
        # and a stripe's boundary elements the colors of those ends
        bnd = {}
        if kind == "stripe":
            bnd = {("bnd", eid, r): ("bndc", fi, b) for r, b in align.items()}
        if any(f.color(el) != c for el, c in bnd.items()):
            continue
        edge_map[eid] = fi
        alignment[eid] = align
        colors[part] = (part[0] + "c", fi)
        colors.update(bnd)
    present = set(colors.values())
    if any(c not in present for c in base_palette(base)):
        return None
    return ElementColoring(colors), BaseSurjection(edge_map, alignment)


def literal_surjections(ss, base, trials: int, seed):
    """The surjections ``blank_reference`` leaves of ``trials`` colorings
    that ``coloring_family`` draws from ``seed``, in draw order."""
    colorings = coloring_family(structure_elements(ss), base_palette(base), trials, seed)
    blanked = (blank_reference(f, ss, base) for f in colorings)
    return [out[1] for out in blanked if out is not None]


def as_draw(f: ElementColoring, ss, base) -> list:
    """``f`` as palette indices per structure element, the form
    ``igmatch.color_coding.blank`` reads."""
    palette = base_palette(base)
    return [palette.index(f.color(el)) for el in structure_elements(ss)]


def natural_coloring_reference(base, ss, vmap, emap):
    """The coloring of ``ss``'s elements that paints exactly one embedding.

    ``vmap`` sends base vertices to strip-vertices and ``emap`` base edge
    indices to strip-edge ids.  Embedded elements get the matching palette
    color; every other element gets a color that blanking erases (a
    non-vertex color on a strip-vertex, a vertex color on an edge part).
    """
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


def arc_cover_reference(model: ArcModel):
    """p2 -> the mask of the arcs that contain the doubled point p2, as
    ``point_in_arc``: the package's earlier per-probe scan of every arc."""
    c2 = 2 * model.circumference
    spans = arc_spans(model)
    return lambda p2: sum(1 << i for i, (s2, d2) in enumerate(spans) if (p2 - s2) % c2 <= d2)


def right_end_reference(model: ArcModel, tuples) -> list[int]:
    """Per vertex tuple of a connected occurrence, the doubled point where
    the union of its arcs ends: the even point one of its arcs covers
    whose next point none covers.  ``2 * model.circumference`` when they
    cover the circle."""
    c2 = 2 * model.circumference
    cover = arc_cover_reference(model)
    over = [cover(p2) for p2 in range(c2)]
    out = []
    for vs in tuples:
        mask = sum(1 << v for v in vs)
        ends = [p2 for p2 in range(0, c2, 2) if over[p2] & mask and not over[p2 + 1] & mask]
        assert len(ends) <= 1, "a connected occurrence's arcs unite into one arc"
        out.append(ends[0] if ends else c2)
    return out


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
    """``validate_interval_model`` and ``validate_arc_model`` by definition:
    containment by a callable tried on every ordered pair, and longness by
    ``long_by_pairs_and_triples``."""
    if isinstance(model, IntervalModel):
        items = model.items
        return ModelReport(_proper_reference(
            len(items), lambda i, j: items[i].l <= items[j].l and items[j].r <= items[i].r), True)
    assert isinstance(model, ArcModel)
    return ModelReport(
        _proper_reference(len(model.arcs), lambda i, j: arc_contains(model, i, j)),
        long_by_pairs_and_triples(model),
    )
