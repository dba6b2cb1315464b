"""Induced H-matching solvers driven by interval and circular-arc models.

The proper-interval solver reduces the problem to maximum independent set on
an auxiliary interval graph: every occurrence of the (connected) pattern H is
represented by one interval spanning from its leftmost interval's left
endpoint to its rightmost interval's right endpoint, and two occurrences can
coexist in an induced matching exactly when those spans are disjoint.

For long proper circular-arc hosts the solver enumerates the host's
occurrences and sorts them into those classes once, in one table per host,
then cuts the circle open at each containment-equivalence representative.
A cut only counts: it walks the classes in the host's order of right ends,
rotated to start past the cut point, skips the classes with an arc over the
point, and runs the earliest-right-end greedy for disjoint intervals, the
count the interval step makes with ``_packing`` (the classic cut-and-sweep
of circular-arc independent set: Hsu and Tsai, IPL 1991; Golumbic and
Hammer, J. Algorithms 1988).  Only the first cut whose count reaches k is
built and solved by the interval step, which returns its witness.  The arcs
over every representative come from the model's one cover sweep,
``models.arc_cover``.
A single occurrence can wrap the whole circle, so that every cut destroys
it; when the target is one occurrence and every cut fails, a direct
occurrence search on the realized host settles it.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from itertools import chain
from math import inf
from operator import itemgetter
from typing import NamedTuple

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
    arc_cover,
    cut_at_point,
    equivalence_points_doubled,
    realize,
    union_ends,
    validate_arc_model,
    validate_interval_model,
)

# one entry per question; interval_wis keeps its name unexported, as the benchmark times it
__all__ = [
    "solve_igm_long_proper_ca",
    "solve_igm_proper_ca_disconnected",
    "solve_igm_proper_interval",
]

DISCONNECTED_CAP = 8


def _packing(spans) -> int:
    """The most pairwise disjoint closed intervals among ``spans``, (l, r)
    pairs: the earliest-right-end greedy."""
    count, last = 0, -inf
    for l, r in sorted(spans, key=itemgetter(1)):
        if l > last:
            count, last = count + 1, r
    return count


def interval_wis(spans) -> tuple[int, tuple[int, ...]]:
    """A maximum set of pairwise disjoint closed intervals among ``spans``,
    (l, r) pairs.

    Returns ``(size, witness)``, where the witness is the lexicographically
    smallest index tuple among maximum sets: each index in turn is kept when
    it is disjoint from those kept so far and the later free intervals
    disjoint from it still pack up to the optimum.
    """
    kept: list[tuple[int, int]] = []  # the chosen (l, r); disjoint, so their ends ascend

    def free(j: int) -> bool:  # the chosen span starting last by j's end ends before j
        at = bisect_right(kept, (spans[j][1], inf))
        return at == 0 or kept[at - 1][1] < spans[j][0]

    opt = _packing(spans)
    chosen: list[int] = []
    for i, (l, r) in enumerate(spans):
        if not free(i):
            continue
        rest = [spans[j] for j in range(i + 1, len(spans))
                if (spans[j][0] > r or spans[j][1] < l) and free(j)]
        if len(chosen) + 1 + _packing(rest) == opt:
            insort(kept, (l, r))
            chosen.append(i)
    if len(chosen) != opt:
        raise InternalError("witness reconstruction lost an interval")
    return opt, tuple(chosen)


def solve_igm_proper_interval(model: IntervalModel, h: Pattern, k: int) -> Matching | None:
    """Decide an induced H-matching of size k on a proper interval model.

    Returns a size-k matching or None.  Requires a connected pattern and a
    proper model.
    """
    if not h.is_connected:
        raise InputError("pattern must be connected for the interval solver")
    if not validate_interval_model(model).proper:
        raise InputError("interval model is not proper")
    if not isinstance(k, int) or k < 0:
        raise InputError("k must be a nonnegative integer")
    if k == 0:
        return Matching(())
    g = realize(model)
    lefts = [it.l for it in model.items]
    rights = [it.r for it in model.items]
    classes = _classes(((min(occ.vertices, key=lefts.__getitem__),
                         max(occ.vertices, key=rights.__getitem__)), occ)
                        for occ in enumerate_occurrences(g, h))
    aux = [(lefts[lm], rights[rm]) for (lm, rm), _ in classes]
    if _packing(aux) < k:
        return None
    return revalidated(_interval_step(classes, aux, k), g, h, "auxiliary solution")


def _classes(pairs) -> list:
    """The first (key, item) per key of ``pairs``, in key order: occurrences with
    one (leftmost, rightmost) key are interchangeable, so the first stands for all."""
    first: dict = {}
    for key, item in pairs:
        first.setdefault(key, item)
    return sorted(first.items())


def _interval_step(classes, aux, k: int) -> Matching:
    """An induced matching of k class representatives, where ``aux[i]`` is
    class i's interval (l, r), from its leftmost vertex's left end to its
    rightmost vertex's right end.  The caller has seen the optimum reach k,
    so only the witness is rebuilt."""
    _, witness = interval_wis(aux)
    picked = (classes[i][1] for i in witness[:k])
    return Matching(tuple(sorted(picked, key=lambda o: o.vertices)))


def _dedup_points(model: ArcModel, over) -> list[tuple[int, int]]:
    """(p2, removed mask) per distinct containing-arc set, for cut sweeps.

    Two cut points removing the same arc set leave identical survivor graphs,
    so one per set suffices for anything driven by the cut graph alone.  The
    representative of a set is its first point in ascending order, and the
    sets come in the order of their representatives.
    """
    first: dict[int, int] = {}
    for p2 in equivalence_points_doubled(model):
        first.setdefault(over(p2), p2)
    return [(p2, mask) for mask, p2 in first.items()]


class _ArcTable(NamedTuple):
    """The classes of one host's occurrences, read by every cut.

    ``classes`` holds (key, (vertex mask, representative)) in key order;
    ``sweep`` holds (2t of the rightmost arc, 2s of the leftmost arc, vertex
    mask) per class, sorted by that doubled right end.
    """

    classes: list
    sweep: list


def _arc_table(model: ArcModel, occs: list[Occurrence], over) -> _ArcTable:
    """The class table of ``occs``, built once per host; ``over`` is the
    host's ``arc_cover``.

    An occurrence's class key is its ``union_ends``, shared by every cut
    that keeps it (first in vertex order, as min and max break ties on a
    line).  A cut keeps it iff the point lies off its arcs, so a class is
    kept or dropped whole, and arcs that cover the circle get no class.
    ``cut_at_point`` numbers the kept arcs in ascending id order, so sorting
    classes by old ids equals sorting them by new ids, and every witness is
    the one a per-cut renumbering gives.

    The sweep order is the host's order of right ends.  A kept class's
    rightmost arc avoids the cut point p2, so its right end e differs from
    p2, and its cut right end (e - p2) mod 2C ranks the classes as the
    rotation of that order that starts at the first e above p2.
    """
    arcs = model.arcs
    firsts = _classes((ends, occ) for ends, occ in zip(union_ends(model, occs, over), occs) if ends)
    classes = [(key, (sum(map((1).__lshift__, occ.vertices)), occ)) for key, occ in firsts]
    sweep = sorted((2 * arcs[rm].t, 2 * arcs[lm].s, mask) for (lm, rm), (mask, _) in classes)
    return _ArcTable(classes, sweep)


def _cut_solve(model: ArcModel, k: int, p2: int, removed: int, table: _ArcTable
               ) -> Matching | None:
    """Solve on the interval instance obtained by cutting the circle at p2,
    which removes the arcs of ``removed``.

    The ``_arc_table`` classes whose masks avoid the removed arcs are the cut
    graph's own.  Each becomes the closed interval from its leftmost arc's
    cut start to its rightmost arc's cut end, and two classes coexist iff
    those intervals are disjoint.  The sweep counts a maximum set of
    pairwise disjoint intervals by the earliest-right-end greedy, in the
    rotated host order (see ``_arc_table``): a greedy pick ends first among
    the intervals still free, so any optimum can trade its first such
    interval for it.  That count is ``_packing``'s, so the sweep stops as
    soon as it reaches k, and a cut whose count stays below k answers
    None.  Only a cut that reaches k is built (``cut_at_point``), and the
    interval step rebuilds its witness from the kept classes in key order
    without testing the optimum again.  Cuts are tried in
    ``_dedup_points`` order, so the cut that answers, and its witness, are
    those of solving every cut's interval instance in full.
    """
    c2 = 2 * model.circumference
    sweep = table.sweep
    start = bisect_right(sweep, (p2, inf))
    count = last = 0  # every kept start lies past the cut, above 0
    for e, s, mask in chain(sweep[start:], sweep[:start]):
        if mask & removed:
            continue
        l, r = (s - p2) % c2, (e - p2) % c2
        if not 0 < l <= r:
            raise InternalError(
                f"class spanning doubled [{s}, {e}] wraps past cut point {p2} despite avoiding it"
            )
        if l > last:
            count += 1
            if count == k:
                break
            last = r
    else:
        return None
    cut = cut_at_point(model, p2)
    alive = [(key, rep) for key, (mask, rep) in table.classes if not mask & removed]
    spans = dict(zip(cut.kept_ids, cut.intervals.items))
    return _interval_step(alive, [(spans[lm].l, spans[rm].r) for (lm, rm), _ in alive], k)


def solve_igm_long_proper_ca(model: ArcModel, h: Pattern, k: int) -> Matching | None:
    """Induced H-matching of size k on a long proper circular-arc model.

    Enumerates the host's occurrences and builds their class table once,
    then cuts the circle at every containment-equivalence representative and
    solves the proper interval instance on the classes the cut keeps; for
    k = 1, if every cut fails (the only occurrences wrap the circle), falls
    back to a direct occurrence search on the realized host.
    """
    rep = validate_arc_model(model)
    if not (rep.proper and rep.long):
        raise InputError("arc model must be proper and long")
    if not h.is_connected:
        raise InputError("pattern must be connected for this solver")
    if not isinstance(k, int) or k < 0:
        raise InputError("k must be a nonnegative integer")
    if k == 0:
        return Matching(())
    g = realize(model)
    over = arc_cover(model)
    table = _arc_table(model, enumerate_occurrences(g, h), over)
    tries = (_cut_solve(model, k, p2, removed, table)
             for p2, removed in _dedup_points(model, over))
    best = next((found for found in tries if found is not None), None)
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
    induced subgraph of the cut graph, the host's induced subgraph on the
    arcs that avoid the cut point (they meet on the circle iff they meet on
    the line it leaves).  So each cut is searched in place, over the kept
    arcs in ascending id order, as the cut graph numbers them.  Exhaustive
    in k*|V(H)|, capped.
    """
    if h.is_connected:
        raise InputError("pattern is connected; use the long proper-arc solver")
    if not validate_arc_model(model).proper:
        raise InputError("arc model is not proper")
    if not isinstance(k, int) or k < 0:
        raise InputError("k must be a nonnegative integer")
    if k == 0:
        return Matching(())
    if k * h.h > DISCONNECTED_CAP:
        raise SizeCapError("k * |V(H)|", k * h.h, DISCONNECTED_CAP)
    g = realize(model)
    bundle_graph = h.graph
    for _ in range(k - 1):
        bundle_graph = disjoint_union(bundle_graph, h.graph)
    bundle = Pattern(bundle_graph)
    for _, removed in _dedup_points(model, arc_cover(model)):
        kept = [v for v in range(g.n) if not removed >> v & 1]
        emb = find_occurrence(g, bundle, within=kept)
        if emb is None:
            continue
        vs = emb.vertices
        copies = sorted(vs[i:i + h.h] for i in range(0, len(vs), h.h))
        matching = Matching(tuple(map(Occurrence, copies)))
        return revalidated(matching, g, h, "disconnected-pattern solution")
    return None
