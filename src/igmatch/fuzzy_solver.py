"""Induced H-matching on fuzzy circular-arc models, plus a small-α fallback.

The main solver fixes one occurrence H* (the star), deletes its closed
neighborhood, cuts the circle open strictly inside H*'s first arc (a
surviving arc over an interior point of a removed arc would share more than
one point with it, so the residue unrolls onto a line), and then runs a
left-to-right dynamic program over the remaining occurrences grouped by
their rightmost arc endpoint.  Every chain the program builds is pairwise
compatible: connected occurrences cover their spans, so two incompatible
occurrences can never be bridged by a third one whose rightmost endpoint
lies strictly between theirs.

The work splits into a per-solve table and a per-star sweep.  The table
rests on one fact: the right end R of an occurrence, the end of its
rightmost arc, does not depend on the star.  An occurrence that survives a
star is connected (every edge joins intersecting arcs) and has no arc over
the cut, and ``models.union_ends`` gives it the same rightmost arc in every
such cut.  So the occurrences are sorted once by (R, index), and each
star's left-to-right order is a rotation of that order: in doubled
coordinates R is even and the cut is odd, so no group of equal R straddles
the cut (the argument needs only that the two differ).  An occurrence whose
arcs cover the whole circle has no R, and never survives a star.  Which
arcs lie over a point, for R and for the cut, is read from the model's one
cover sweep, ``models.arc_cover``.
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import InputError, InternalError
from .graphs import (
    Graph,
    Matching,
    Pattern,
    brute_force_wis,
    enumerate_occurrences,
    find_igm,
    revalidated,
    _occurrence_masks,
)
from .models import FuzzyArcModel, arc_cover, realize, union_ends

# the fuzzy-arc and small-independence entries, and the bound the latter needs
__all__ = [
    "ALPHA_BOUND",
    "solve_igm_fuzzy_ca",
    "solve_igm_small_alpha",
]

ALPHA_BOUND = 4


class _ChainTable:
    """The per-solve half of the chain program.

    Positions number the occurrences in (R, index) order: ``order`` maps a
    position to its occurrence index and ``position`` back, ``ends`` holds
    the R of each position, and ``free[p]`` is the mask of the positions
    compatible with position p (the complement of its conflict mask).
    ``through`` holds each arc's mask of the occurrences with a vertex on
    it, and ``over`` is the model's ``arc_cover``.  ``cut`` memoizes, per
    cut point, what every star cut there shares.
    """

    __slots__ = ("occs", "order", "position", "ends", "free", "through",
                 "arcs", "over", "_cuts")

    def __init__(self, model: FuzzyArcModel, g: Graph, occs):
        arcs = model.arcs.arcs
        over = arc_cover(model.arcs)
        c2 = 2 * model.arcs.circumference
        # R is the rightmost arc's end; c2, past every R, when there is none
        ends = [c2 if lr is None else 2 * arcs[lr[1]].t
                for lr in union_ends(model.arcs, occs, over)]
        order = sorted(range(len(occs)), key=ends.__getitem__)  # stable: (R, index)
        position = [0] * len(occs)
        through = [0] * len(arcs)
        for p, i in enumerate(order):
            position[i] = p
            for v in occs[i].vertices:
                through[v] |= 1 << p
        _, conflict = _occurrence_masks(g, [occs[i] for i in order])
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

    def cut(self, star: int) -> tuple[int, int, int]:
        """(cut point, rotation start, cover mask) of the cut strictly
        inside the first arc of occurrence ``star``.

        The cut is the odd point just past the arc's start.  The rotation
        starts at the first position whose R lies past the cut; the cover
        mask holds the occurrences with an arc over the cut.
        """
        cutpos = 2 * self.arcs[self.occs[star].vertices[0]].s + 1
        memo = self._cuts.get(cutpos)
        if memo is None:
            arcs_over = self.over(cutpos)
            cover = 0
            for v, through in enumerate(self.through):
                if arcs_over >> v & 1:
                    cover |= through
            memo = (cutpos, bisect_right(self.ends, cutpos), cover)
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

    The survivors are the occurrences compatible with the star.  None may
    have an arc over the cut; one test of the survivors against the cut's
    cover mask is the check, for every surviving arc, that it does not wrap
    the cut.  The sweep visits the survivors in rotated (R, index) order,
    which is the (rightmost endpoint, index) order on the cut-open line.  An
    occurrence's value is one more than the best value among the compatible
    occurrences of earlier groups (a group holds the occurrences of one R).
    ``levels[v - 1]`` holds the swept survivors of value v, so the best
    compatible value is the largest v whose mask meets the occurrence's
    ``free`` mask: the same v as for masks of value at least v.  Two
    occurrences of one group are never compatible (two arcs that end at the
    same point share more than that point, so they are adjacent), so a
    survivor enters the masks as soon as it is swept.  The compatible
    survivors of the best value are that mask's bits, and the first of them
    in rotated order is the parent: the one a scan of the earlier groups in
    order keeps when it replaces its best only on a strictly greater value.
    The best chain ends at the first survivor of the largest value, as in
    the same scan.
    """
    at = table.position[star]
    cutpos, start, cover = table.cut(star)
    free = table.free
    alive = free[at] & ~(1 << at)
    if alive & cover:
        raise table.wrap_error(alive & cover, cutpos)
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


def solve_igm_fuzzy_ca(model: FuzzyArcModel, h: Pattern, k: int) -> Matching | None:
    """Induced H-matching of size k on a fuzzy circular-arc model, or None.

    Every occurrence is tried as the committed one; the dynamic program
    layers the rest left to right over the cut-open residual model.  Exact
    for connected patterns.
    """
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
    for star in range(len(occs)):
        length, chain = _residual_chain(table, star, stop_at=k - 1)
        if 1 + length >= k:
            picked = [occs[star]] + [occs[i] for i in chain[: k - 1]]
            matching = Matching(tuple(sorted(picked, key=lambda o: o.vertices)))
            return revalidated(matching, g, h, "fuzzy chain")
    return None


def solve_igm_small_alpha(g: Graph, h: Pattern, k: int) -> Matching | None:
    """Exhaustive induced H-matching solver for hosts of independence at most 4.

    The independence number caps the matching size, so k above
    ``ALPHA_BOUND`` is immediately absent and anything else is settled by
    bounded search.  The bound is always checked, by asking
    ``brute_force_wis`` for ``ALPHA_BOUND + 1`` independent vertices.  The
    callers that already hold the bound skip that check: the claw-free
    router runs its own packing search over the chunk's occurrences, and the
    kernel's bounding loop calls ``find_igm``.
    """
    if type(k) is not int or k < 0:
        raise InputError("k must be a nonnegative integer")
    found, _ = brute_force_wis(g, [1] * g.n, ALPHA_BOUND + 1, 0)
    if found:
        raise InputError(f"independence number exceeds the promised bound {ALPHA_BOUND}")
    if k == 0:
        return Matching(())
    if k > ALPHA_BOUND:
        return None
    return find_igm(g, h, k)
