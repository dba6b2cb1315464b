"""Interval, circular-arc, and fuzzy circular-arc intersection models.

Coordinates are integers.  Arc computations run in *doubled* coordinates
(every endpoint multiplied by two) so that the point just past an endpoint is
an exact odd integer.  One-point intersection, containment, and circle
coverage are then decided by testing a few such points for membership, with
no floating point anywhere.  Points exposed through the public API
(equivalence points, cut points) are integers in the same doubled scale: the
point p2 stands for p2 / 2 on the circle.

Whole-model passes (``realize``, ``validate_arc_model``, the fuzzy resolution
check, ``arc_cover``, ``cut_at_point``) read one span table, ``arc_spans``:
(2s, clockwise doubled length) per arc.  The point p2 lies on an arc iff its
clockwise offset (p2 - 2s) mod 2C is at most that length, one modular
compare, so these passes make no call per pair.  Which arcs lie over a
point is asked of one sweep, ``arc_cover``.  Which arcs begin and end the
union of an occurrence's arcs is asked of ``union_ends``, the key rule of
the long-arc and fuzzy solvers, which reads the occurrence search's maps
with their vertex masks.  Both are unexported.  ``point_in_arc`` and
``intersection_kind`` stay the single-pair definitions; ``intersection_kind``
is exported, as a caller needs it to list a fuzzy model's one-point pairs.
The single-pair containment and coverage references have left for the
tests' oracles, and the validators compute the two flags a solver reads,
``proper`` and ``long``, and nothing else.

An arc (s, t) on a circle of circumference C is the closed set of points
traversed clockwise (increasing coordinates, wrapping at C) from s to t.
Single-point arcs and full-circle arcs are not representable and rejected.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from operator import xor

from .errors import InputError, InternalError, expect_type
from .graphs import Graph

# the model types, the host a model realizes, and the checks that pick an arc solver
__all__ = [
    "Arc",
    "ArcModel",
    "FuzzyArcModel",
    "Interval",
    "IntervalModel",
    "ModelReport",
    "intersection_kind",
    "realize",
    "validate_arc_model",
    "validate_interval_model",
]

# ---------------------------------------------------------------------------
# model types


@dataclass(frozen=True)
class Interval:
    id: int
    l: int
    r: int

    def __post_init__(self):
        if not type(self.l) is type(self.r) is int:
            raise InputError(
                f"interval {self.id}: endpoints must be integers, got ({self.l!r},{self.r!r})")
        if self.l >= self.r:
            raise InputError(f"interval {self.id}: need l < r, got [{self.l},{self.r}]")


class IntervalModel:
    """Closed intervals on a line; item ids are exactly 0..n-1."""

    __slots__ = ("items",)

    def __init__(self, items):
        items = sorted(items, key=lambda it: it.id)
        if [(type(it.id), it.id) for it in items] != [(int, i) for i in range(len(items))]:
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
        if type(circumference) is not int or circumference <= 0:
            raise InputError(f"circumference must be a positive integer, got {circumference!r}")
        arcs = sorted(arcs, key=lambda a: a.id)
        if [(type(a.id), a.id) for a in arcs] != [(int, i) for i in range(len(arcs))]:
            raise InputError("arc ids must be exactly 0..n-1")
        for a in arcs:
            if not (type(a.s) is type(a.t) is int
                    and 0 <= a.s < circumference and 0 <= a.t < circumference):
                raise InputError(
                    f"arc {a.id}: endpoints must be integers in [0,{circumference}), "
                    f"got ({a.s!r},{a.t!r})"
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
        expect_type(self.arcs, ArcModel)
        expect_type(self.resolutions, dict)
        norm = {}
        for pair, bit in self.resolutions.items():
            i, j = pair if type(pair) is tuple and len(pair) == 2 else (None, None)
            if not type(i) is type(j) is int:
                raise InputError(f"fuzzy resolution key {pair!r} is not an (i, j) pair of arc ids")
            if i == j:
                raise InputError(f"fuzzy resolution for pair ({i},{j}) with i = j")
            key = (min(i, j), max(i, j))
            if key in norm and norm[key] != bool(bit):
                raise InputError(f"conflicting resolutions for pair {key}")
            norm[key] = bool(bit)
        object.__setattr__(self, "resolutions", norm)
        expected = set(_pair_kinds(self.arcs)[1])
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
    """The model flags the solvers read.

    ``proper``: no item is a point-set subset of another; the proper
    interval and long proper-arc solvers require it.  ``long``: no 2 or 3
    arcs cover the circle; the long proper-arc solver requires it, and an
    interval model holds it by convention.
    """

    proper: bool
    long: bool


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
    expect_type(model, ArcModel)

    def in_both(p2: int) -> bool:
        return point_in_arc(model, i, p2) and point_in_arc(model, j, p2)

    starts = {2 * model.arcs[i].s, 2 * model.arcs[j].s}
    pieces = [p2 for p2 in starts if in_both(p2)]
    if not pieces:
        return "empty"
    if len(pieces) == 1 and not in_both(pieces[0] + 1):
        return "single-point"
    return "multi"


# ---------------------------------------------------------------------------
# realization


def arc_spans(model: ArcModel) -> list[tuple[int, int]]:
    """The span table: (2s, clockwise doubled length) of each arc, by id."""
    c2 = 2 * model.circumference
    return [(2 * a.s, (2 * a.t - 2 * a.s) % c2) for a in model.arcs]


def arc_cover(model: ArcModel):
    """p2 -> the mask of the arcs that contain the doubled point p2.

    One prefix-XOR sweep over the span table: an arc toggles its bit at its
    start and just past its end, and a wrapping arc does so in two pieces
    (at 0 and just past its end, then at its start).  The XOR of the toggles
    at or before p2 mod 2C then holds exactly the arcs over p2, and each
    probe is one bisection.
    """
    c2 = 2 * model.circumference
    flips: dict[int, int] = {}
    for i, (s2, d2) in enumerate(arc_spans(model)):
        past = s2 + d2 + 1  # odd, so never 2C: below it iff the arc does not wrap
        for at in ((s2, past) if past < c2 else (0, past - c2, s2)):
            flips[at] = flips.get(at, 0) ^ (1 << i)
    starts = sorted(flips)
    masks = list(accumulate(map(flips.__getitem__, starts), xor))

    def over(p2: int) -> int:
        j = bisect_right(starts, p2 % c2)
        return masks[j - 1] if j else 0

    return over


def union_ends(model: ArcModel, searched, over) -> list:
    """(leftmost arc, rightmost arc), or None, of each vertex tuple of
    ``searched``, (vertex masks, vertex tuples) as the occurrence search
    hands out its maps; ``over`` is the model's ``arc_cover``.

    The arcs of a connected occurrence that leave a point bare unite into
    one arc U, which starts at an arc with no arc of the occurrence just
    before its start and ends at one with none just past its end; the
    first such arcs in vertex order, tested against the occurrence's mask,
    are the leftmost and rightmost.  A cut at any point off U leaves U
    whole and in order, so every such cut has the same ends.  Arcs that
    cover the circle have neither end, and every cut meets them.
    """
    before = [over(2 * a.s - 1) for a in model.arcs]
    past = [over(2 * a.t + 1) for a in model.arcs]
    out = []
    for mask, vs in zip(*searched):
        for lm in vs:
            if not before[lm] & mask:
                for rm in vs:
                    if not past[rm] & mask:
                        out.append((lm, rm))
                        break
                break
        else:
            out.append(None)
    return out


def _pair_kinds(model: ArcModel) -> tuple[list, list]:
    """The pairs i < j that ``intersection_kind`` calls multi, and single-point.

    Offset d puts j's start on arc i iff d <= li, and e puts i's start on j
    iff e <= lj.  Both starts in both arcs make two pieces, or one longer one
    if they coincide; a start in one only is a single point iff it sits at
    the other arc's end, so that the point just past it misses that arc.
    """
    c2 = 2 * model.circumference
    spans = arc_spans(model)
    multi, single = [], []
    for i, (si, li) in enumerate(spans):
        for j in range(i + 1, len(spans)):
            sj, lj = spans[j]
            d = (sj - si) % c2
            e = (si - sj) % c2
            if d <= li:
                (single if e > lj and d == li else multi).append((i, j))
            elif e <= lj:
                (single if e == lj else multi).append((i, j))
    return multi, single


def _overlaps(model: IntervalModel) -> list[tuple[Interval, Interval]]:
    """Intersecting pairs (a, b), a.l <= b.l: a sweep in left-end order that
    stops at the first interval starting past a.r."""
    order = sorted(model.items, key=lambda it: it.l)
    lefts = [it.l for it in order]
    return [(a, b) for k, a in enumerate(order) for b in order[k + 1:bisect_right(lefts, a.r)]]


def realize(model) -> Graph:
    """Intersection graph of a model; vertex v is the item with id v.

    For fuzzy models, one-point intersections become edges exactly when the
    resolution says so.  The sweeps list each pair once, unchecked.
    """
    if isinstance(model, IntervalModel):
        return Graph._from_pairs(len(model), [(a.id, b.id) for a, b in _overlaps(model)])
    if isinstance(model, ArcModel):
        multi, single = _pair_kinds(model)
        return Graph._from_pairs(len(model), multi + single)
    if isinstance(model, FuzzyArcModel):
        multi, single = _pair_kinds(model.arcs)
        kept = [p for p in single if model.resolutions[p]]
        return Graph._from_pairs(len(model.arcs), multi + kept)
    raise InputError(f"cannot realize {type(model).__name__}")


# ---------------------------------------------------------------------------
# validation


def validate_interval_model(model: IntervalModel) -> ModelReport:
    """Flags of an interval model; long holds by convention on a line.

    Of two overlapping intervals a, b with a.l <= b.l, one holds the other
    iff b ends by a's end or both start together.
    """
    expect_type(model, IntervalModel)
    proper = not any(b.r <= a.r or a.l == b.l for a, b in _overlaps(model))
    return ModelReport(proper=proper, long=True)


def validate_arc_model(model: ArcModel) -> ModelReport:
    """Flags of an arc model; long means no 2 or 3 arcs cover the circle.

    Properness is read in start order.  Two arcs that share a start nest.
    Otherwise, if some arc j lies inside an arc i, then some arc lies inside
    the arc just before it in start order, by induction on the arcs that
    start between i and j: i's next arc i1 starts on i, as j does; i1 lies
    inside i, or it ends past i's end, and then j, which starts on i1 and
    ends by i's end, lies inside i1 with fewer arcs between.  So the model
    is proper iff no two arcs share a start and no arc lies inside the one
    before it.

    Longness is decided by a greedy walk from every arc: from the walk's
    reach, the farthest-reaching arc through that point extends it (arcs are
    closed, so an arc that only touches the reach still joins).  Some 2 or 3
    arcs cover the circle iff some walk closes it within two extensions.
    Greedy is exact because no arc of a minimal cover contains another: the
    walk from a member of such a cover reaches at least as far as the
    cover's own arcs after each step.  Each extension is one bisection: with
    the arcs in start order unrolled twice onto a line, every arc through a
    doubled point p + 2C, p in [0, 2C), starts in (p, p + 2C].  An arc that
    starts by p + 2C without reaching it reaches less far than one through
    it, and the walk's reach always lies on the arc that ends there, so the
    farthest reach of the arcs starting by p + 2C is that of the arcs
    through it.
    """
    expect_type(model, ArcModel)
    c2 = 2 * model.circumference
    spans = sorted(arc_spans(model))
    line = spans + [(s + c2, l) for s, l in spans]
    starts = [s for s, _ in line]
    farthest = list(accumulate((s + l for s, l in line), max))  # by the arcs starting so far

    def extension(p2: int) -> int:
        # how far past p2, clockwise, the arcs through p2 reach
        p2 += c2
        return farthest[bisect_right(starts, p2) - 1] - p2

    def closes(s: int, l: int) -> bool:
        reach = l
        for _ in range(2):
            reach += extension((s + reach) % c2)
            if reach >= c2:
                return True
        return False

    # the next arc b starts d past a, and lies inside a iff it ends by a's end
    proper = len(spans) < 2 or all(
        0 < (d := (sb - sa) % c2) and d + lb > la
        for (sa, la), (sb, lb) in zip(spans, spans[1:] + spans[:1]))
    return ModelReport(proper=proper, long=not any(closes(s, l) for s, l in spans))


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
    [(2s-p2) mod 2C, (2t-p2) mod 2C] in doubled coordinates.  From the span
    table: the start's offset l past p2 puts p2 on the arc iff l = 0 or the
    arc's length reaches round to it (l + length >= 2C), and a kept arc ends
    at l + length.
    """
    if type(p2) is not int:
        raise InputError(f"cut point {p2!r} must be an integer in doubled coordinates")
    c2 = 2 * model.circumference
    kept = []
    intervals = []
    for i, (s2, d2) in enumerate(arc_spans(model)):
        l = (s2 - p2) % c2
        r = l + d2
        if l == 0 or r >= c2:
            continue
        if not (0 < l < r < c2):
            raise InternalError(
                f"arc {i} wraps past cut point {p2} despite not containing it"
            )
        intervals.append(Interval(len(kept), l, r))
        kept.append(i)
    return CutResult(IntervalModel(intervals), tuple(kept))
