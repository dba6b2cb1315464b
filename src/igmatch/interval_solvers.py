"""Induced H-matching solvers driven by interval and circular-arc models.

The proper-interval solver reduces the problem to maximum independent set on
an auxiliary interval graph: every occurrence of the (connected) pattern H is
represented by one interval spanning from its leftmost interval's left
endpoint to its rightmost interval's right endpoint, and two occurrences can
coexist in an induced matching exactly when those spans are disjoint.

For long proper circular-arc hosts the solver cuts the circle open at each
containment-equivalence representative and solves the resulting proper
interval instance; when the target is a single occurrence and every cut
fails, it falls back to an induced-subgraph-isomorphism test on augmented
interval graphs built by splitting the arcs through a cut point and pinning
the two cut ends with large anchor cliques.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError, InternalError, SizeCapError
from .graphs import (
    Graph,
    Matching,
    Occurrence,
    Pattern,
    disjoint_union,
    enumerate_occurrences,
    find_occurrence,
    iter_occurrences,
)
from .models import (
    ArcModel,
    IntervalModel,
    cut_at_point,
    equivalence_points_doubled,
    point_in_arc,
    realize,
    validate_arc_model,
    validate_interval_model,
)

DISCONNECTED_CAP = 8
_TRANSLATE_TRIES = 200


def _passes_check(obj, g: Graph, h: Pattern) -> bool:
    try:
        obj.check(g, h)
    except InputError:
        return False
    return True


def interval_wis(intervals) -> tuple[int, int, tuple[int, ...]]:
    """Max-weight independent set of closed intervals ``(l, r, weight)``.

    Returns ``(weight, size, witness)`` where the witness is the
    lexicographically smallest index tuple among maximum-weight solutions
    and size is its cardinality.  Weights must be non-negative.
    """
    items = []
    for idx, (l, r, w) in enumerate(intervals):
        if l > r:
            raise InputError(f"interval {idx} has l > r")
        if w < 0:
            raise InputError(f"interval {idx} has negative weight")
        items.append((l, r, w, idx))

    def best_weight(allowed: list[int]) -> int:
        # classic right-endpoint DP over the allowed subset
        order = sorted(allowed, key=lambda i: (items[i][1], items[i][0], i))
        best: list[tuple[int, int]] = []  # (right endpoint, best weight)
        cur = 0
        for i in order:
            l, r, w, _ = items[i]
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

    def disjoint(i: int, j: int) -> bool:
        return max(items[i][0], items[j][0]) > min(items[i][1], items[j][1])

    n = len(items)
    opt = best_weight(list(range(n)))
    chosen: list[int] = []
    got = 0
    for i in range(n):
        if any(not disjoint(i, c) for c in chosen):
            continue
        rest = [j for j in range(i + 1, n) if disjoint(j, i) and all(disjoint(j, c) for c in chosen)]
        if got + items[i][2] + best_weight(rest) == opt:
            chosen.append(i)
            got += items[i][2]
    if got != opt:
        raise InternalError("witness reconstruction lost weight")
    return opt, len(chosen), tuple(chosen)


def solve_igm_proper_interval(model: IntervalModel, h: Pattern, k: int) -> Matching | None:
    """Decide an induced H-matching of size k on a proper interval model.

    Returns a size-k matching or None.  Requires a connected pattern and a
    proper model.
    """
    if not h.is_connected:
        raise InputError("pattern must be connected for the interval solver")
    if not validate_interval_model(model).proper:
        raise InputError("interval model is not proper")
    if k < 0:
        raise InputError("k must be non-negative")
    if k == 0:
        return Matching(())
    g = realize(model)
    occs = enumerate_occurrences(g, h)
    if not occs:
        return None
    # one auxiliary interval per (leftmost, rightmost) class; occurrences in a
    # class are interchangeable, keep the first (lexicographically smallest)
    classes: dict[tuple[int, int], Occurrence] = {}
    for occ in occs:
        lmost = min(occ.vertices, key=lambda v: model.items[v].l)
        rmost = max(occ.vertices, key=lambda v: model.items[v].r)
        classes.setdefault((lmost, rmost), occ)
    keys = sorted(classes)
    aux = [(model.items[lm].l, model.items[rm].r, 1) for lm, rm in keys]
    weight, _, witness = interval_wis(aux)
    if weight < k:
        return None
    picked = tuple(classes[keys[i]] for i in witness[:k])
    matching = Matching(tuple(sorted(picked, key=lambda o: o.vertices)))
    if not _passes_check(matching, g, h):
        raise InternalError("auxiliary solution failed validation")
    return matching


def _dedup_points(model: ArcModel) -> list[int]:
    """Representatives with distinct containing-arc sets, for cut sweeps.

    Two cut points removing the same arc set leave identical survivor graphs,
    so one per set suffices for anything driven by the cut graph alone.  (Not
    valid for the augmented-graph construction, which is sensitive to where
    in the circle the point falls, not just to which arcs it meets.)
    """
    seen: set[frozenset[int]] = set()
    out = []
    for p2 in equivalence_points_doubled(model):
        key = frozenset(a.id for a in model.arcs if point_in_arc(model, a.id, p2))
        if key not in seen:
            seen.add(key)
            out.append(p2)
    return out


def _augment_at_point(model: ArcModel, p2: int, q: int):
    """Interval graph obtained by splitting the arcs through point p2.

    Every arc containing p2 loses an infinitesimal part around the point,
    leaving one or two interval pieces; two anchor cliques of q vertices each
    pin the two cut ends (one adjacent to every piece starting just after the
    cut, the other to every piece ending just before it).  Coordinates are in
    quarter units so the infinitesimal offsets stay integral.

    Returns ``(graph, origins)`` where ``origins[v]`` is the owning arc id of
    a piece vertex and None for anchors.
    """
    c2 = 2 * model.circumference
    c4 = 2 * c2
    spans: list[tuple[int, int]] = []
    origins: list[int | None] = []
    for a in sorted(model.arcs, key=lambda a: a.id):
        ds = (2 * a.s - p2) % c2
        dt = (2 * a.t - p2) % c2
        if not point_in_arc(model, a.id, p2):
            spans.append((2 * ds, 2 * dt))
            origins.append(a.id)
        elif ds == 0:  # arc starts at the cut point
            spans.append((1, 2 * dt))
            origins.append(a.id)
        elif dt == 0:  # arc ends at the cut point
            spans.append((2 * ds, c4 - 1))
            origins.append(a.id)
        else:  # cut point strictly inside: two pieces
            spans.append((1, 2 * dt))
            origins.append(a.id)
            spans.append((2 * ds, c4 - 1))
            origins.append(a.id)
    for _ in range(q):
        spans.append((0, 1))
        origins.append(None)
    for _ in range(q):
        spans.append((c4 - 1, c4))
        origins.append(None)
    n = len(spans)
    edges = []
    for i in range(n):
        li, ri = spans[i]
        for j in range(i + 1, n):
            lj, rj = spans[j]
            if max(li, lj) <= min(ri, rj):
                edges.append((i, j))
    return Graph(n, edges), origins


def _translate_embedding(occ: Occurrence, h_origins, g_origins, n_h: int) -> Occurrence | None:
    """Map an embedding between augmented graphs back to original arc ids."""
    image: dict[int, int] = {}
    for piece, target in enumerate(occ.vertices):
        owner = h_origins[piece]
        if owner is None:
            continue
        host_owner = g_origins[target]
        if host_owner is None:
            return None  # piece landed on an anchor
        if image.setdefault(owner, host_owner) != host_owner:
            return None  # pieces of one arc split across host arcs
    if len(image) != n_h:
        return None
    return Occurrence(tuple(image[i] for i in range(n_h)))


def solve_isi_long_proper_ca(
    model_g: ArcModel, model_h: ArcModel, deviations: list | None = None
) -> Occurrence | None:
    """One occurrence of the model_h graph inside the model_g graph, or None.

    Tries every pair of containment-equivalence representatives, splits both
    models open at the chosen points, and searches for an induced embedding
    between the augmented interval graphs whose anchor cliques are matched
    up front.  Complete for connected patterns; any returned occurrence is
    validated against the realized graphs.
    """
    rep_g = validate_arc_model(model_g)
    if not (rep_g.proper and rep_g.long):
        raise InputError("host arc model must be proper and long")
    if not validate_arc_model(model_h).proper:
        raise InputError("pattern arc model must be proper")
    if len(model_h) == 0:
        raise InputError("pattern model is empty")
    if len(model_g) < len(model_h):
        return None
    g = realize(model_g)
    hg = realize(model_h)
    pattern = Pattern.of(hg)
    q = 1 + max(len(model_g), len(model_h))
    host_variants = [
        _augment_at_point(model_g, p2, q) for p2 in equivalence_points_doubled(model_g)
    ]
    for ph2 in equivalence_points_doubled(model_h):
        h_aug, h_origins = _augment_at_point(model_h, ph2, q)
        h_pat = Pattern.of(h_aug)
        n_h_aug = h_aug.n
        anchors_h = [v for v in range(n_h_aug) if h_origins[v] is None]
        start_h, end_h = anchors_h[:q], anchors_h[q:]
        for g_aug, g_origins in host_variants:
            anchors_g = [v for v in range(g_aug.n) if g_origins[v] is None]
            start_g, end_g = anchors_g[:q], anchors_g[q:]
            for s_img, e_img in ((start_g, end_g), (end_g, start_g)):
                seed = dict(zip(start_h, s_img)) | dict(zip(end_h, e_img))
                hit = False
                tries = 0
                for emb in iter_occurrences(g_aug, h_pat, seed=seed):
                    hit = True
                    occ = _translate_embedding(emb, h_origins, g_origins, len(model_h))
                    if occ is not None and _passes_check(occ, g, pattern):
                        return occ
                    tries += 1
                    if tries >= _TRANSLATE_TRIES:
                        break
                if hit:
                    # the augmented test succeeded but no embedding translated
                    # cleanly; settle the question by direct search
                    if deviations is not None:
                        deviations.append(
                            "isi: augmented embedding did not translate, used direct search"
                        )
                    return find_occurrence(g, pattern)
    return None


def _cut_solve(model: ArcModel, h: Pattern, k: int, p2: int) -> Matching | None:
    """Solve on the interval instance obtained by cutting the circle at p2."""
    cut = cut_at_point(model, Fraction(p2, 2))
    sub = solve_igm_proper_interval(cut.intervals, h, k)
    if sub is None:
        return None
    back = tuple(
        Occurrence(tuple(cut.kept_ids[v] for v in occ.vertices))
        for occ in sub.occurrences
    )
    return Matching(tuple(sorted(back, key=lambda o: o.vertices)))


def solve_igm_long_proper_ca(
    model: ArcModel,
    h: Pattern,
    k: int,
    model_h: ArcModel | None = None,
    deviations: list | None = None,
) -> Matching | None:
    """Induced H-matching of size k on a long proper circular-arc model.

    Cuts the circle at every containment-equivalence representative and
    solves the proper interval instance; for k = 1, if every cut fails, falls
    back to the augmented induced-subgraph test (which needs the pattern's
    own arc model).
    """
    rep = validate_arc_model(model)
    if not (rep.proper and rep.long):
        raise InputError("arc model must be proper and long")
    if not h.is_connected:
        raise InputError("pattern must be connected for this solver")
    if k < 0:
        raise InputError("k must be non-negative")
    if k == 0:
        return Matching(())
    g = realize(model)
    points = _dedup_points(model)
    best: Matching | None = None
    for p2 in points:
        res = _cut_solve(model, h, k, p2)
        if res is not None:
            best = res
            break
    if best is None and k == 1:
        if model_h is None:
            raise InputError(
                "single-occurrence fallback requires the pattern's arc model"
            )
        occ = solve_isi_long_proper_ca(model, model_h, deviations=deviations)
        if occ is not None:
            best = Matching((occ,))
    if best is not None and not _passes_check(best, g, h):
        raise InternalError("circular-arc solution failed validation")
    return best


def solve_igm_proper_ca_disconnected(model: ArcModel, h: Pattern, k: int) -> Matching | None:
    """Induced H-matching for a disconnected pattern on a proper arc model.

    Cuts the circle at every containment-equivalence representative and
    looks for k vertex-disjoint pairwise non-adjacent copies of H as one
    induced subgraph of the cut graph.  Exhaustive in k*|V(H)|, capped.
    """
    if h.is_connected:
        raise InputError("pattern is connected; use the long proper-arc solver")
    if not validate_arc_model(model).proper:
        raise InputError("arc model is not proper")
    if k < 0:
        raise InputError("k must be non-negative")
    if k == 0:
        return Matching(())
    if k * h.h > DISCONNECTED_CAP:
        raise SizeCapError("k * |V(H)|", k * h.h, DISCONNECTED_CAP)
    g = realize(model)
    bundle_graph = h.graph
    for _ in range(k - 1):
        bundle_graph = disjoint_union(bundle_graph, h.graph)
    bundle = Pattern.of(bundle_graph)
    for p2 in _dedup_points(model):
        cut = cut_at_point(model, Fraction(p2, 2))
        cg = realize(cut.intervals)
        emb = find_occurrence(cg, bundle)
        if emb is None:
            continue
        occs = []
        for copy in range(k):
            verts = tuple(
                cut.kept_ids[emb.vertices[copy * h.h + i]] for i in range(h.h)
            )
            occs.append(Occurrence(verts))
        matching = Matching(tuple(sorted(occs, key=lambda o: o.vertices)))
        if not _passes_check(matching, g, h):
            raise InternalError("disconnected-pattern solution failed validation")
        return matching
    return None
