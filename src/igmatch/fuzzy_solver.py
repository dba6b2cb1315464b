"""Induced H-matching on fuzzy circular-arc models.

The main solver fixes one occurrence H* (the star), deletes its closed
neighborhood, cuts the circle open strictly inside H*'s first arc (a
surviving arc over an interior point of a removed arc would share more than
one point with it, so the residue unrolls onto a line), and then runs a
left-to-right dynamic program over the remaining occurrences grouped by
their rightmost arc endpoint.  Every chain the program builds is pairwise
compatible: connected occurrences cover their spans, so two incompatible
occurrences can never be bridged by a third one whose rightmost endpoint
lies strictly between theirs.

Before any star is tried, ``_most_compatible`` bounds the largest
matching by sweeps at one cut point q, an odd point just past an arc end,
so no arc ends there.  Arcs over q pairwise share more than a point, so at
most one member of a matching has an arc over q.  The largest matching is
then the larger of one chain sweep over the occurrences that avoid q, cut
at q, and 1 plus the residual chain of each star over q, whose survivors
avoid q already.  A k above that bound is refuted; otherwise every
occurrence is tried as the star in index order, and the first whose chain
reaches k answers, reusing the star sweeps the bound ran.  q is the point
with the fewest occurrences over it (the classic cut argument of
circular-arc independent set: Golumbic and Hammer, J. Algorithms 1988;
Hsu and Tsai, IPL 1991).

The work splits into a per-solve table and per-cut sweeps.  The table
rests on one fact: the right end R of an occurrence, the end of its
rightmost arc, does not depend on the cut.  An occurrence that a sweep
visits is connected (every edge joins intersecting arcs) and has no arc
over the cut, and ``models.union_ends`` gives it the same rightmost arc in
every such cut.  So the occurrences are sorted once by (R, index), and each
sweep's left-to-right order is a rotation of that order: in doubled
coordinates R is even and the cut is odd, so no group of equal R straddles
the cut (the argument needs only that the two differ).  An occurrence whose
arcs cover the whole circle has no R, and no sweep visits it.  Which
arcs lie over a point, for R and for the cut, is read from the model's one
cover sweep, ``models.arc_cover``.  The conflict and arc cover masks come
from one call of ``graphs._occurrence_masks`` in (R, index) order.
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import InputError, InternalError, expect_type
from .graphs import (
    Graph,
    Matching,
    Pattern,
    enumerate_occurrences,
    revalidated,
    _occurrence_masks,
)
from .models import FuzzyArcModel, arc_cover, realize, union_ends

# the fuzzy-arc entry
__all__ = ["solve_igm_fuzzy_ca"]


class _ChainTable:
    """The per-solve half of the chain program.

    Positions number the occurrences in (R, index) order: ``order`` maps a
    position to its occurrence index and ``position`` back, and ``ends``
    holds the R of each position.  ``graphs._occurrence_masks``, called once
    on the vertex tuples in position order, gives ``through``, each arc's
    (vertex's) mask of the positions on it, and the conflict masks, whose
    complements are ``free[p]``, the positions compatible with p.  ``over``
    is the model's ``arc_cover``, and ``cut`` memoizes, per cut point, what
    every sweep cut there shares.
    """

    __slots__ = ("occs", "order", "position", "ends", "free", "through",
                 "arcs", "over", "_cuts")

    def __init__(self, model: FuzzyArcModel, g: Graph, occs):
        arcs = model.arcs.arcs
        over = arc_cover(model.arcs)
        c2 = 2 * model.arcs.circumference
        # R is the rightmost arc's end; c2, past every R, when there is none
        tuples, masks = [o.vertices for o in occs], []
        for vs in tuples:  # for union_ends; sum(map(...)) per occurrence took twice as long
            mask = 0
            for v in vs:
                mask |= 1 << v
            masks.append(mask)
        ends = [c2 if lr is None else 2 * arcs[lr[1]].t
                for lr in union_ends(model.arcs, (masks, tuples), over)]
        order = sorted(range(len(occs)), key=ends.__getitem__)  # stable: (R, index)
        position = sorted(range(len(occs)), key=order.__getitem__)  # order's inverse
        through, conflict = _occurrence_masks(g, [tuples[i] for i in order])
        full = (1 << len(occs)) - 1
        self.occs = occs
        self.order = order
        self.position = position
        self.ends = [ends[i] for i in order]
        self.free = [full & ~c for c in conflict]
        self.through = through
        self.arcs = arcs
        self.over = over
        self._cuts = {}

    def cut(self, cutpos: int) -> tuple[int, int]:
        """(rotation start, cover mask) of the cut at the odd point
        ``cutpos``, which is no arc end.

        The rotation starts at the first position whose R lies past the
        cut; the cover mask holds the occurrences with an arc over the cut.
        """
        memo = self._cuts.get(cutpos)
        if memo is None:
            arcs_over = self.over(cutpos)
            cover = 0
            while arcs_over:
                low = arcs_over & -arcs_over
                cover |= self.through[low.bit_length() - 1]
                arcs_over ^= low
            memo = (bisect_right(self.ends, cutpos), cover)
            self._cuts[cutpos] = memo
        return memo

    def wrap_error(self, bad: int, cutpos: int) -> InternalError:
        """The error for the lowest-index occurrence in ``bad`` that has an
        arc over the cut, naming its first such arc."""
        i = min(self.order[p] for p in range(len(self.order)) if (bad >> p) & 1)
        v = next(v for v in self.occs[i].vertices if self.over(cutpos) >> v & 1)
        return InternalError(f"arc {v} wraps the cut point of the residual model")


def _residual_chain(table: _ChainTable, star: int, stop_at: int):
    """Best compatible chain after committing to occurrence ``star``.

    Returns (length, chain) where the chain lists occurrence indices in
    left-to-right order, all compatible with each other and with the star.
    Returns as soon as the chain length reaches ``stop_at``.

    The survivors are the occurrences compatible with the star, and the cut
    is the odd point just past the start of the star's first arc.  None may
    have an arc over the cut; one test of the survivors against the cut's
    cover mask is the check, for every surviving arc, that it does not wrap
    the cut.  ``_chain`` then sweeps them.
    """
    at = table.position[star]
    cutpos = 2 * table.arcs[table.occs[star].vertices[0]].s + 1
    start, cover = table.cut(cutpos)
    alive = table.free[at] & ~(1 << at)
    if alive & cover:
        raise table.wrap_error(alive & cover, cutpos)
    return _chain(table, alive, start, stop_at)


def _chain(table: _ChainTable, alive: int, start: int, stop_at: int):
    """Best compatible chain among the positions of ``alive``, none of which
    has an arc over the cut whose rotation begins at position ``start``.

    Returns (length, chain) as ``_residual_chain`` does.  The sweep visits
    the alive occurrences in rotated (R, index) order, which is the
    (rightmost endpoint, index) order on the cut-open line.  An
    occurrence's value is one more than the best value among the compatible
    occurrences of earlier groups (a group holds the occurrences of one R).
    ``levels[v - 1]`` holds the swept occurrences of value v, so the best
    compatible value is the largest v whose mask meets the occurrence's
    ``free`` mask: the same v as for masks of value at least v.  Two
    occurrences of one group are never compatible (two arcs that end at the
    same point share more than that point, so they are adjacent), so an
    occurrence enters the masks as soon as it is swept.  The compatible
    occurrences of the best value are that mask's bits, and the first of
    them in rotated order is the parent: the one a scan of the earlier
    groups in order keeps when it replaces its best only on a strictly
    greater value.  The best chain ends at the first occurrence of the
    largest value, as in the same scan.
    """
    free = table.free
    n = len(free)
    head = (1 << start) - 1  # positions the rotation visits last
    rot = alive >> start | (alive & head) << (n - start)  # alive, rotated
    levels: list[int] = []
    parent = {}
    best, best_at = 0, -1
    while rot:
        low = rot & -rot
        rot ^= low
        p = low.bit_length() - 1 + start
        if p >= n:
            p -= n
        fp = free[p]
        value = len(levels)
        while value and not levels[value - 1] & fp:
            value -= 1
        if value:
            m = levels[value - 1] & fp
            first = m & ~head or m
            parent[p] = (first & -first).bit_length() - 1
        if value == len(levels):
            levels.append(1 << p)
        else:
            levels[value] |= 1 << p
        if value + 1 > best:
            best, best_at = value + 1, p
            if best >= stop_at:
                break
    chain = []
    while best_at >= 0:
        chain.append(table.order[best_at])
        best_at = parent.get(best_at, -1)
    return best, chain[::-1]


def _most_compatible(table: _ChainTable, k: int, swept: dict) -> int:
    """The largest induced matching among the occurrences, capped at k.

    The cut point q is an odd point just past an arc end, so no arc ends
    there, and it is the one with the fewest occurrences over it.  Arcs
    over q pairwise share more than a point, so they are adjacent, and at
    most one member of a matching has an arc over q.  A matching with none
    is one ``_chain`` over the occurrences that avoid q, cut at q.  A
    matching with one, s, is s plus a chain of s's survivors, which avoid q
    as they avoid s's arcs: 1 + ``_residual_chain`` of s.  The sweeps stop
    at k, and each star's (length, chain) is kept in ``swept`` under
    ``stop_at`` k - 1, the witness loop's own.
    """
    q = min({2 * p + 1 for a in table.arcs for p in (a.s, a.t)},
            key=lambda q: table.cut(q)[1].bit_count())
    start, cover = table.cut(q)
    best, _ = _chain(table, (1 << len(table.free)) - 1 & ~cover, start, k)
    while cover and best < k:
        low = cover & -cover
        cover ^= low
        star = table.order[low.bit_length() - 1]
        swept[star] = _residual_chain(table, star, k - 1)
        best = max(best, 1 + swept[star][0])
    return best


def solve_igm_fuzzy_ca(model: FuzzyArcModel, h: Pattern, k: int) -> Matching | None:
    """Induced H-matching of size k on a fuzzy circular-arc model, or None.

    For k >= 2, returns None when the largest matching, counted by
    ``_most_compatible`` from the sweeps at one cut point, falls short of
    k.  Otherwise every occurrence is tried as the committed one, in index
    order; the dynamic program layers the rest left to right over the
    cut-open residual model.  Exact for connected patterns.
    """
    expect_type(model, FuzzyArcModel)
    expect_type(h, Pattern)
    if not h.is_connected:
        raise InputError("pattern must be connected for the fuzzy solver")
    if type(k) is not int or k < 0:
        raise InputError("k must be a nonnegative integer")
    if k == 0:
        return Matching(())
    g = realize(model)
    occs = enumerate_occurrences(g, h)
    if not occs:
        return None
    if k == 1:
        return revalidated(Matching((occs[0],)), g, h, "single occurrence")
    table = _ChainTable(model, g, occs)
    swept: dict = {}
    if _most_compatible(table, k, swept) < k:
        return None
    for star in range(len(occs)):
        length, chain = swept.get(star) or _residual_chain(table, star, stop_at=k - 1)
        if 1 + length >= k:
            picked = [occs[star]] + [occs[i] for i in chain[: k - 1]]
            matching = Matching(tuple(sorted(picked, key=lambda o: o.vertices)))
            return revalidated(matching, g, h, "fuzzy chain")
    return None
