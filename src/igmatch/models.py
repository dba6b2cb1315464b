"""Interval, circular-arc, and fuzzy circular-arc intersection models.

Coordinates are integers.  Arc computations run in *doubled* coordinates
(every endpoint multiplied by two) so that the point just past an endpoint is
an exact odd integer.  One-point intersection, containment, and circle
coverage are then decided by testing a few such points for membership, with
no floating point anywhere.  Points exposed through the public API
(equivalence points, cut points) are integers in the same doubled scale: the
point p2 stands for p2 / 2 on the circle.

An arc (s, t) on a circle of circumference C is the closed set of points
traversed clockwise (increasing coordinates, wrapping at C) from s to t.
Single-point arcs and full-circle arcs are not representable and rejected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import InputError, InternalError

# ---------------------------------------------------------------------------
# model types


@dataclass(frozen=True)
class Interval:
    id: int
    l: int
    r: int

    def __post_init__(self):
        if self.l >= self.r:
            raise InputError(f"interval {self.id}: need l < r, got [{self.l},{self.r}]")


class IntervalModel:
    """Closed intervals on a line; item ids are exactly 0..n-1."""

    __slots__ = ("items",)

    def __init__(self, items):
        items = sorted(items, key=lambda it: it.id)
        if [it.id for it in items] != list(range(len(items))):
            raise InputError("interval ids must be exactly 0..n-1")
        object.__setattr__(self, "items", tuple(items))

    def __len__(self):
        return len(self.items)

    def __repr__(self):
        return f"IntervalModel(n={len(self.items)})"


@dataclass(frozen=True)
class Arc:
    id: int
    s: int
    t: int


class ArcModel:
    """Closed arcs on a circle of integer circumference; ids exactly 0..n-1."""

    __slots__ = ("arcs", "circumference")

    def __init__(self, arcs, circumference: int):
        if circumference <= 0:
            raise InputError(f"circumference must be positive, got {circumference}")
        arcs = sorted(arcs, key=lambda a: a.id)
        if [a.id for a in arcs] != list(range(len(arcs))):
            raise InputError("arc ids must be exactly 0..n-1")
        for a in arcs:
            if not (0 <= a.s < circumference and 0 <= a.t < circumference):
                raise InputError(
                    f"arc {a.id}: endpoints must lie in [0,{circumference}), "
                    f"got ({a.s},{a.t})"
                )
            if a.s == a.t:
                raise InputError(
                    f"arc {a.id}: single-point and full-circle arcs are not allowed"
                )
        object.__setattr__(self, "arcs", tuple(arcs))
        object.__setattr__(self, "circumference", circumference)

    def __len__(self):
        return len(self.arcs)

    def __repr__(self):
        return f"ArcModel(n={len(self.arcs)}, C={self.circumference})"


@dataclass(frozen=True)
class FuzzyArcModel:
    """Arcs plus an explicit edge/non-edge resolution for one-point pairs.

    The resolutions mapping must cover exactly the pairs of arcs whose
    intersection is a single point (True = edge); anything missing or
    extraneous is rejected so modeling errors cannot hide behind defaults.
    """

    arcs: ArcModel
    resolutions: dict = field(default_factory=dict)

    def __post_init__(self):
        norm = {}
        for (i, j), bit in self.resolutions.items():
            if i == j:
                raise InputError(f"fuzzy resolution for pair ({i},{j}) with i = j")
            key = (min(i, j), max(i, j))
            if key in norm and norm[key] != bool(bit):
                raise InputError(f"conflicting resolutions for pair {key}")
            norm[key] = bool(bit)
        object.__setattr__(self, "resolutions", norm)
        n = len(self.arcs)
        expected = {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if intersection_kind(self.arcs, i, j) == "single-point"
        }
        missing = expected - set(norm)
        extra = set(norm) - expected
        if missing:
            pair = min(missing)
            raise InputError(
                f"missing fuzzy resolution for one-point pair {pair}"
            )
        if extra:
            pair = min(extra)
            raise InputError(
                f"resolution given for pair {pair} whose arcs do not intersect "
                f"in exactly one point"
            )


@dataclass(frozen=True)
class ModelReport:
    proper: bool
    strict: bool
    almost_proper: bool
    almost_strict: bool
    long: bool
    covers_circle: bool


@dataclass(frozen=True)
class CutResult:
    """Outcome of cutting a circle open at a point.

    ``intervals`` holds the surviving arcs unrolled onto a line with the cut
    point as origin, renumbered 0..m-1 in ascending original-id order;
    ``kept_ids[i]`` is the original arc id of interval i.  Interval
    coordinates are in the doubled scale (twice the circular distance from
    the cut point), which is harmless for intersection structure.
    """

    intervals: IntervalModel
    kept_ids: tuple[int, ...]
    removed_ids: tuple[int, ...]


# ---------------------------------------------------------------------------
# arc geometry (doubled coordinates)
#
# Every piece that closed arcs with integer endpoints cut out of the circle
# starts at an endpoint, and a piece of positive length holds the odd doubled
# point just past its start.  So probing endpoints and the odd points just
# past them decides every question below.


def point_in_arc(model: ArcModel, i: int, p2: int) -> bool:
    """Membership of the doubled-coordinate point p2 in closed arc i."""
    a = model.arcs[i]
    c2 = 2 * model.circumference
    return (p2 - 2 * a.s) % c2 <= (2 * a.t - 2 * a.s) % c2


def intersection_kind(model: ArcModel, i: int, j: int) -> str:
    """Classify the intersection of two arcs: empty, single-point, or multi.

    Each piece of the intersection starts at one of the two starts, so the
    starts that lie in both arcs are the candidate pieces; a piece has
    positive length iff the point just past its start lies in both too.
    """

    def in_both(p2: int) -> bool:
        return point_in_arc(model, i, p2) and point_in_arc(model, j, p2)

    starts = {2 * model.arcs[i].s, 2 * model.arcs[j].s}
    pieces = [p2 for p2 in starts if in_both(p2)]
    if not pieces:
        return "empty"
    if len(pieces) == 1 and not in_both(pieces[0] + 1):
        return "single-point"
    return "multi"


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


# ---------------------------------------------------------------------------
# realization


def _interval_edge(a: Interval, b: Interval) -> bool:
    return max(a.l, b.l) <= min(a.r, b.r)


def realize(model) -> "Graph":
    """Intersection graph of a model; vertex v is the item with id v.

    For fuzzy models, one-point intersections become edges exactly when the
    resolution says so.
    """
    from .graphs import Graph

    if isinstance(model, IntervalModel):
        n = len(model)
        es = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if _interval_edge(model.items[i], model.items[j])
        ]
        return Graph(n, es)
    if isinstance(model, ArcModel):
        n = len(model)
        es = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if intersection_kind(model, i, j) != "empty"
        ]
        return Graph(n, es)
    if isinstance(model, FuzzyArcModel):
        n = len(model.arcs)
        es = []
        for i in range(n):
            for j in range(i + 1, n):
                kind = intersection_kind(model.arcs, i, j)
                if kind == "multi":
                    es.append((i, j))
                elif kind == "single-point" and model.resolutions[(i, j)]:
                    es.append((i, j))
        return Graph(n, es)
    raise InputError(f"cannot realize {type(model).__name__}")


# ---------------------------------------------------------------------------
# validation


def _report(ends, contains, long: bool, covers: bool) -> ModelReport:
    """Flags of a model whose item i has endpoint pair ``ends[i]``.

    ``contains(i, j)`` is point-set containment of item j in item i.
    """
    proper = almost_proper = True
    for i, j in itertools.permutations(range(len(ends)), 2):
        if contains(i, j):
            proper = False
            if ends[i] != ends[j]:
                almost_proper = False
    owners: dict[int, set[int]] = {}
    slots: dict[int, int] = {}
    groups: dict[tuple[int, int], set[int]] = {}
    for i, pair in enumerate(ends):
        for v in pair:
            owners.setdefault(v, set()).add(i)
            slots[v] = slots.get(v, 0) + 1
        groups.setdefault(pair, set()).add(i)
    almost_strict = not any(
        len(ids) > 1 and owners[lo] - ids and owners[hi] - ids
        for (lo, hi), ids in groups.items()
    )
    return ModelReport(
        proper=proper,
        strict=all(c == 1 for c in slots.values()),
        almost_proper=almost_proper,
        almost_strict=almost_strict,
        long=long,
        covers_circle=covers,
    )


def validate_interval_model(model: IntervalModel) -> ModelReport:
    """Interval models live on a line: long holds and coverage fails by convention."""
    items = model.items

    def contains(i: int, j: int) -> bool:
        return items[i].l <= items[j].l and items[j].r <= items[i].r

    return _report([(it.l, it.r) for it in items], contains, True, False)


def validate_arc_model(model: ArcModel) -> ModelReport:
    """Flags of an arc model; long means no 2 or 3 arcs cover the circle.

    Longness is decided by a greedy walk from every arc: from the walk's
    reach, the farthest-reaching arc through that point extends it (arcs are
    closed, so an arc that only touches the reach still joins).  Some 2 or 3
    arcs cover the circle iff some walk closes it within two extensions.
    Greedy is exact because no arc of a minimal cover contains another: the
    walk from a member of such a cover reaches at least as far as the
    cover's own arcs after each step.
    """
    c2 = 2 * model.circumference

    def extension(p2: int) -> int:
        # how far past p2, clockwise, the arcs through p2 reach
        return max((2 * a.t - p2) % c2 for a in model.arcs if point_in_arc(model, a.id, p2))

    def closes(a: Arc) -> bool:
        reach = (2 * a.t - 2 * a.s) % c2
        for _ in range(2):
            reach += extension((2 * a.s + reach) % c2)
            if reach >= c2:
                return True
        return False

    return _report(
        [(a.s, a.t) for a in model.arcs],
        lambda i, j: arc_contains(model, i, j),
        not any(closes(a) for a in model.arcs),
        covers_circle(model),
    )


# ---------------------------------------------------------------------------
# equivalence points and cutting


def equivalence_points_doubled(model: ArcModel) -> list[int]:
    """Representative points in doubled coordinates, sorted ascending.

    All arc endpoints plus the midpoint of every gap between circularly
    consecutive distinct endpoint values; any point of the circle has the
    same arc-containment set as one of these.  Empty model: the origin.
    """
    c2 = 2 * model.circumference
    endpoints = sorted({2 * a.s for a in model.arcs} | {2 * a.t for a in model.arcs})
    if not endpoints:
        return [0]
    points = set(endpoints)
    for a, b in zip(endpoints, endpoints[1:]):
        points.add((a + b) // 2)
    points.add((endpoints[-1] + endpoints[0] + c2) // 2 % c2)
    return sorted(points)


def cut_at_point(model: ArcModel, p2: int) -> CutResult:
    """Remove arcs containing the doubled point p2 and unroll the rest onto a
    line at origin p2.

    Surviving arcs cannot wrap past p2, so each becomes a single interval
    [(2s-p2) mod 2C, (2t-p2) mod 2C] in doubled coordinates.
    """
    if not isinstance(p2, int):
        raise InputError(f"cut point {p2!r} must be an integer in doubled coordinates")
    c2 = 2 * model.circumference
    removed = []
    kept = []
    for a in model.arcs:
        if point_in_arc(model, a.id, p2):
            removed.append(a.id)
        else:
            kept.append(a)
    intervals = []
    for new_id, a in enumerate(kept):
        l = (2 * a.s - p2) % c2
        r = (2 * a.t - p2) % c2
        if not (0 < l < r < c2):
            raise InternalError(
                f"arc {a.id} wraps past cut point {p2} despite not containing it"
            )
        intervals.append(Interval(new_id, l, r))
    return CutResult(
        intervals=IntervalModel(intervals),
        kept_ids=tuple(a.id for a in kept),
        removed_ids=tuple(removed),
    )
