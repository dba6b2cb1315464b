"""Induced H-matching on fuzzy circular-arc models, plus a small-α fallback.

The main solver fixes one occurrence H*, deletes its closed neighborhood,
cuts the circle open strictly inside H*'s first arc (no surviving arc can
cover an interior quarter-point of a removed arc, so the residue unrolls
onto a line), and then runs a left-to-right dynamic program over the
remaining occurrences grouped by their rightmost arc endpoint.  Every chain
the program builds is pairwise compatible: connected occurrences cover their
spans, so two incompatible occurrences can never be bridged by a third one
whose rightmost endpoint lies strictly between theirs.
"""

from __future__ import annotations

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
from .models import FuzzyArcModel, realize

__all__ = [
    "ALPHA_BOUND",
    "solve_igm_fuzzy_ca",
    "solve_igm_small_alpha",
]

ALPHA_BOUND = 4


def _residual_chain(model: FuzzyArcModel, occs, conflict, star: int,
                    stop_at: int | None):
    """Best compatible chain after committing to occurrence ``star``.

    Returns (length, chain) where the chain lists occurrence indices in
    left-to-right order, all compatible with each other and with the star.
    With ``stop_at`` set, returns as soon as the chain length reaches it.
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


def solve_igm_fuzzy_ca(model: FuzzyArcModel, h: Pattern, k: int) -> Matching | None:
    """Induced H-matching of size k on a fuzzy circular-arc model, or None.

    Every occurrence is tried as the committed one; the dynamic program
    layers the rest left to right over the cut-open residual model.  Exact
    for connected patterns.
    """
    if not h.is_connected:
        raise InputError("pattern must be connected for the fuzzy solver")
    if k < 0:
        raise InputError("k must be non-negative")
    if k == 0:
        return Matching(())
    g = realize(model)
    occs = enumerate_occurrences(g, h)
    if not occs:
        return None
    if k == 1:
        return Matching((occs[0],))
    _, conflict = _occurrence_masks(g, occs)
    for star in range(len(occs)):
        length, chain = _residual_chain(model, occs, conflict, star, stop_at=k - 1)
        if 1 + length >= k:
            picked = [occs[star]] + [occs[i] for i in chain[: k - 1]]
            matching = Matching(tuple(sorted(picked, key=lambda o: o.vertices)))
            return revalidated(matching, g, h, "fuzzy chain")
    return None


def solve_igm_small_alpha(
    g: Graph, h: Pattern, k: int, trust_alpha: bool = False
) -> Matching | None:
    """Exhaustive induced H-matching solver for hosts of independence at most 4.

    The independence number caps the matching size, so k above
    ``ALPHA_BOUND`` is immediately absent and anything else is settled by
    bounded search.  Unless ``trust_alpha`` is set, the bound is verified by
    asking ``brute_force_wis`` for ``ALPHA_BOUND + 1`` independent vertices.
    """
    if k < 0:
        raise InputError("k must be non-negative")
    if not trust_alpha:
        found, _ = brute_force_wis(g, [1] * g.n, ALPHA_BOUND + 1, 0)
        if found:
            raise InputError(
                f"independence number exceeds the promised bound {ALPHA_BOUND}"
            )
    if k == 0:
        return Matching(())
    if k > ALPHA_BOUND:
        return None
    return find_igm(g, h, k)
