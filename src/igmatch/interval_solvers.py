"""Induced H-matching solvers driven by interval and circular-arc models.

The proper-interval solver reduces the problem to maximum independent set on
an auxiliary interval graph: every occurrence of the (connected) pattern H is
represented by one interval spanning from its leftmost interval's left
endpoint to its rightmost interval's right endpoint, and two occurrences can
coexist in an induced matching exactly when those spans are disjoint.  So
occurrences with one (leftmost, rightmost) pair form a class, and one
representative stands for all of it.

Both solvers build that class table once per host, straight from the
occurrence search's maps (``graphs.occurrence_maps``): each map gets its
vertex mask and class key, and it replaces its class's representative only
when it comes first in canonical order (``_span_classes``).  On a line the
key is the item that starts first and the one that ends last; on a circle
it is ``models.union_ends``.  No ``Occurrence`` is built per map, only one
per class a witness picks.

On a long proper circular-arc host each class has a union arc U, from its
leftmost arc's start to its rightmost arc's end, and two classes coexist
iff their U's are disjoint.
At most one member of an induced matching lies over any point, so the
largest matching is the largest set of pairwise disjoint U's on the
circle, and some cut keeps all of it (the classic cut argument of
circular-arc independent set: Golumbic and Hammer, J. Algorithms 1988;
Hsu and Tsai, IPL 1991).  ``_circular_packing`` computes that size, capped
at k, from one pointer table over the U's, and refutes k >= 2 above it
before any cut is swept.  Only then is the circle cut open at each
containment-equivalence representative in turn.  A cut only counts: it
walks the classes in the host's order of right ends, rotated to start past
the cut point, skips the classes with an arc over the point, and runs the
earliest-right-end greedy for disjoint intervals, the count the interval
step makes with ``_packing``.  Only the first cut whose count reaches k is
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

from .errors import InputError, InternalError, expect_type
from .graphs import (
    Matching,
    Occurrence,
    Pattern,
    find_occurrence,
    occurrence_maps,
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
    "solve_igm_proper_interval",
]


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
    expect_type(h, Pattern)
    if not h.is_connected:
        raise InputError("pattern must be connected; graphs.find_igm answers a disconnected one")
    if not validate_interval_model(model).proper:
        raise InputError("interval model is not proper")
    if type(k) is not int or k < 0:
        raise InputError("k must be a nonnegative integer")
    if k == 0:
        return Matching(())
    g = realize(model)
    lefts = [it.l for it in model.items]
    rights = [it.r for it in model.items]
    maps = occurrence_maps(g, h)
    # on a line the class key is the item that starts first and the one that ends last
    keyed = ((sum(map((1).__lshift__, t)),
              (min(t, key=lefts.__getitem__), max(t, key=rights.__getitem__))) for t in maps)
    classes = _span_classes(maps, keyed)
    aux = [(lefts[lm], rights[rm]) for (lm, rm), _ in classes]
    if _packing(aux) < k:
        return None
    return revalidated(_interval_step(classes, aux, k), g, h, "auxiliary solution")


def _span_classes(maps, keyed) -> list:
    """(key, (vertex mask, representative map)) per class of ``maps``, in
    key order; ``keyed`` gives each map's (vertex mask, class key), and a
    key of None, for arcs that cover the circle, puts the map in no class.

    Occurrences with one key are interchangeable, and the representative is
    the one first in ``enumerate_occurrences``' canonical order: the
    smallest sorted vertex set, and of that set's maps the smallest.  Of
    two distinct vertex sets of one size, the one holding the lowest bit of
    the XOR of their masks is the smaller: below that bit the sets agree,
    at it one of them has a vertex the other lacks, and the other's next
    vertex lies above it.  Each map is kept or passed over as it comes, so
    no list of occurrences is built or sorted.
    """
    best: dict = {}
    for t, (mask, key) in zip(maps, keyed):
        if key is None:
            continue
        held = best.get(key)
        if held is not None:
            diff = held[0] ^ mask
            if not (mask & diff & -diff if diff else t < held[1]):
                continue
        best[key] = (mask, t)
    return sorted(best.items())


def _interval_step(classes, aux, k: int) -> Matching:
    """An induced matching of k class representatives, where ``classes[i]``
    is a ``_span_classes`` entry and ``aux[i]`` its interval (l, r), from
    its leftmost vertex's left end to its rightmost vertex's right end.  The
    caller has seen the optimum reach k, so only the witness is rebuilt, and
    only its k occurrences are built."""
    _, witness = interval_wis(aux)
    picked = sorted(classes[i][1][1] for i in witness[:k])
    return Matching(tuple(map(Occurrence, picked)))


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

    ``classes`` holds ``_span_classes``' (key, (vertex mask, representative
    map)) in key order; ``sweep`` holds (2t of the rightmost arc, 2s of the
    leftmost arc, vertex mask) per class, sorted by that doubled right end.
    """

    classes: list
    sweep: list


def _arc_table(model: ArcModel, maps, over) -> _ArcTable:
    """The class table of the occurrence search's ``maps``, built once per
    host; ``over`` is the host's ``arc_cover``.

    An occurrence's class key is its ``union_ends``, shared by every cut
    that keeps it.  A cut keeps it iff the point lies off its arcs, so a
    class is kept or dropped whole, and arcs that cover the circle get no
    class.
    ``cut_at_point`` numbers the kept arcs in ascending id order, so sorting
    classes by old ids equals sorting them by new ids, and every witness is
    the one a per-cut renumbering gives.

    The sweep order is the host's order of right ends.  A kept class's
    rightmost arc avoids the cut point p2, so its right end e differs from
    p2, and its cut right end (e - p2) mod 2C ranks the classes as the
    rotation of that order that starts at the first e above p2.
    """
    arcs = model.arcs
    classes = _span_classes(maps, union_ends(model, maps, over))
    sweep = sorted((2 * arcs[rm].t, 2 * arcs[lm].s, mask) for (lm, rm), (mask, _) in classes)
    return _ArcTable(classes, sweep)


def _circular_packing(table: _ArcTable, c2: int, k: int) -> int:
    """The largest count any ``_cut_solve`` sweep reaches, capped at k: the
    most pairwise disjoint union arcs U among the classes.

    A cut keeps a class iff the cut point lies off its U, and two kept
    classes coexist iff their U's are disjoint.  Two or more disjoint closed
    U's leave a gap on the circle, and the gap holds a ``_dedup_points``
    point with the same removed mask, so the best cut keeps every member of
    a largest disjoint set; one U alone leaves such a point too.  The
    largest disjoint set that holds class a is a plus the earliest-right-end
    greedy over the U's inside the gap from a's end round to a's start.
    With the U's unrolled twice onto a line in start order, each greedy
    step follows ``after``: the U ending first among those that start past
    the current U's end.  Building it costs O(m log m) for m classes, and
    each of the m walks takes at most k steps.
    """
    line = sorted((s, s + (e - s) % c2) for e, s, _ in table.sweep)
    line += [(l + c2, r + c2) for l, r in line]
    m2 = len(line)
    starts = [l for l, _ in line]
    ends = [r for _, r in line]
    soonest = list(range(m2))  # soonest[i]: the U of line[i:] that ends first
    for i in range(m2 - 2, -1, -1):
        if ends[soonest[i + 1]] < ends[i]:
            soonest[i] = soonest[i + 1]
    soonest.append(None)
    after = [soonest[bisect_right(starts, r)] for r in ends]
    best = 0
    for i in range(m2 // 2):
        gap_end = starts[i] + c2  # a U ending here would touch a's start
        count, j = 1, i
        while count < k and (j := after[j]) is not None and ends[j] < gap_end:
            count += 1
        if count > best:
            best = count
            if best >= k:
                break
    return best


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
    alive = [(key, held) for key, held in table.classes if not held[0] & removed]
    spans = dict(zip(cut.kept_ids, cut.intervals.items))
    return _interval_step(alive, [(spans[lm].l, spans[rm].r) for (lm, rm), _ in alive], k)


def solve_igm_long_proper_ca(model: ArcModel, h: Pattern, k: int) -> Matching | None:
    """Induced H-matching of size k on a long proper circular-arc model.

    Builds the class table of the host's occurrences once, from the
    occurrence search's maps.
    For k >= 2, returns None when the most pairwise disjoint class unions
    on the circle (``_circular_packing``) fall short of k.  Otherwise cuts
    the circle at every containment-equivalence representative and solves
    the proper interval instance on the classes the cut keeps, answering
    with the first cut that reaches k; for k = 1, if every cut fails (the
    only occurrences wrap the circle), falls back to a direct occurrence
    search on the realized host.
    """
    rep = validate_arc_model(model)
    if not (rep.proper and rep.long):
        raise InputError("arc model must be proper and long")
    expect_type(h, Pattern)
    if not h.is_connected:
        raise InputError("pattern must be connected; graphs.find_igm answers a disconnected one")
    if type(k) is not int or k < 0:
        raise InputError("k must be a nonnegative integer")
    if k == 0:
        return Matching(())
    g = realize(model)
    over = arc_cover(model)
    table = _arc_table(model, occurrence_maps(g, h), over)
    if k >= 2 and _circular_packing(table, 2 * model.circumference, k) < k:
        return None
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
