"""Induced H-matching solvers driven by interval and circular-arc models.

The proper-interval solver reduces the problem to maximum independent set on
an auxiliary interval graph: every occurrence of the (connected) pattern H is
represented by one interval spanning from its leftmost interval's left
endpoint to its rightmost interval's right endpoint, and two occurrences can
coexist in an induced matching exactly when those spans are disjoint.

For long proper circular-arc hosts the solver enumerates the host's
occurrences once, cuts the circle open at each containment-equivalence
representative, and runs the same auxiliary-interval step on the resulting
proper interval instance with the occurrences that avoid the removed arcs.
A single occurrence can wrap the whole circle, so that every cut destroys
it; when the target is one occurrence and every cut fails, a direct
occurrence search on the realized host settles it.
"""

from __future__ import annotations

from .errors import InputError, InternalError, SizeCapError
from .graphs import (
    Matching,
    Occurrence,
    Pattern,
    disjoint_union,
    enumerate_occurrences,
    find_occurrence,
    revalidated,
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


def _best_weight(items, allowed) -> int:
    """Max total weight of pairwise disjoint intervals ``items[i]``, i in allowed.

    Each item starts with (l, r, weight); the classic right-endpoint DP.
    """
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

    def disjoint(i: int, j: int) -> bool:
        return max(items[i][0], items[j][0]) > min(items[i][1], items[j][1])

    n = len(items)
    opt = _best_weight(items, range(n))
    chosen: list[int] = []
    got = 0
    for i in range(n):
        if any(not disjoint(i, c) for c in chosen):
            continue
        rest = [j for j in range(i + 1, n) if disjoint(j, i) and all(disjoint(j, c) for c in chosen)]
        if got + items[i][2] + _best_weight(items, rest) == opt:
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
    found = _interval_step(model, enumerate_occurrences(g, h), k)
    if found is None:
        return None
    return revalidated(found, g, h, "auxiliary solution")


def _interval_step(model: IntervalModel, occs: list[Occurrence], k: int) -> Matching | None:
    """An induced matching of k of ``occs`` on a proper interval model, or None.

    One auxiliary interval per (leftmost, rightmost) class spans the class;
    occurrences in a class are interchangeable, so the first (lexicographically
    smallest) one stands for it.  The witness is only rebuilt when the
    optimum reaches k.
    """
    lefts = [it.l for it in model.items]
    rights = [it.r for it in model.items]
    classes: dict[tuple[int, int], Occurrence] = {}
    for occ in occs:
        lmost = min(occ.vertices, key=lefts.__getitem__)
        rmost = max(occ.vertices, key=rights.__getitem__)
        classes.setdefault((lmost, rmost), occ)
    keys = sorted(classes)
    aux = [(lefts[lm], rights[rm], 1) for lm, rm in keys]
    if _best_weight(aux, range(len(aux))) < k:
        return None
    _, _, witness = interval_wis(aux)
    picked = tuple(classes[keys[i]] for i in witness[:k])
    return Matching(tuple(sorted(picked, key=lambda o: o.vertices)))


def _dedup_points(model: ArcModel) -> list[int]:
    """Representatives with distinct containing-arc sets, for cut sweeps.

    Two cut points removing the same arc set leave identical survivor graphs,
    so one per set suffices for anything driven by the cut graph alone.
    """
    seen: set[frozenset[int]] = set()
    out = []
    for p2 in equivalence_points_doubled(model):
        key = frozenset(a.id for a in model.arcs if point_in_arc(model, a.id, p2))
        if key not in seen:
            seen.add(key)
            out.append(p2)
    return out


def solve_isi_long_proper_ca(model_g: ArcModel, model_h: ArcModel) -> Occurrence | None:
    """One occurrence of the model_h graph inside the model_g graph, or None.

    Checks that both models are proper and the host is long, then searches
    the realized host directly for the realized pattern.
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
    return find_occurrence(realize(model_g), Pattern.of(realize(model_h)))


def _cut_solve(model: ArcModel, k: int, p2: int, occs: list[Occurrence]) -> Matching | None:
    """Solve on the interval instance obtained by cutting the circle at p2.

    ``occs`` are the host's occurrences.  The cut graph is the host minus the
    removed arcs, renumbered in ascending id order, so the occurrences that
    avoid the removed arcs, renumbered the same way, are exactly the cut
    graph's own occurrences, in the same order with the same maps.  Every cut
    of a proper model is proper: unrolling keeps each kept arc's point set.
    """
    cut = cut_at_point(model, p2)
    removed = set(cut.removed_ids)
    new_id = {v: i for i, v in enumerate(cut.kept_ids)}.__getitem__
    kept = [
        Occurrence(tuple(map(new_id, occ.vertices)))
        for occ in occs
        if removed.isdisjoint(occ.vertices)
    ]
    sub = _interval_step(cut.intervals, kept, k)
    if sub is None:
        return None
    back = tuple(
        Occurrence(tuple(cut.kept_ids[v] for v in occ.vertices))
        for occ in sub.occurrences
    )
    return Matching(tuple(sorted(back, key=lambda o: o.vertices)))


def solve_igm_long_proper_ca(model: ArcModel, h: Pattern, k: int) -> Matching | None:
    """Induced H-matching of size k on a long proper circular-arc model.

    Enumerates the host's occurrences once, then cuts the circle at every
    containment-equivalence representative and solves the proper interval
    instance with the occurrences the cut leaves; for k = 1, if every cut
    fails (the only occurrences wrap the circle), falls back to a direct
    occurrence search on the realized host.
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
    occs = enumerate_occurrences(g, h)
    best: Matching | None = None
    for p2 in _dedup_points(model):
        res = _cut_solve(model, k, p2, occs)
        if res is not None:
            best = res
            break
    if best is None and k == 1:
        occ = find_occurrence(g, h)
        if occ is not None:
            best = Matching((occ,))
    if best is None:
        return None
    return revalidated(best, g, h, "circular-arc solution")


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
        cut = cut_at_point(model, p2)
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
        return revalidated(matching, g, h, "disconnected-pattern solution")
    return None
