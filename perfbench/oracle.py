"""Independent answers for the benchmark's correctness gate.

Written from first principles on top of ``Graph.n`` and ``Graph.has_edge``
only, sharing no search code with the solvers, so that agreement means
something.  Patterns are the connected graphs on at most three vertices
(K2, P3, K3), identified by vertex and edge count.
"""

import itertools


def occurrence_sets(g, h_n, h_edges):
    """Vertex sets of the induced copies of the pattern."""
    if h_n == 2:
        return [frozenset((a, b)) for a, b in itertools.combinations(range(g.n), 2)
                if g.has_edge(a, b)]
    out = set()
    for v in range(g.n):
        nbrs = [w for w in range(g.n) if g.has_edge(v, w)]
        for a, b in itertools.combinations(nbrs, 2):
            # a P3 has one centre; a triangle is found from each corner
            if g.has_edge(a, b) == (h_edges == 3):
                out.add(frozenset((v, a, b)))
    return sorted(out, key=sorted)


def _conflict_masks(g, occs):
    """Bit i of masks[j] is set when occurrences i and j overlap or touch."""
    closed = []
    for o in occs:
        closed.append(set(o) | {w for w in range(g.n) for v in o if g.has_edge(v, w)})
    masks = []
    for i, o in enumerate(occs):
        m = 0
        for j, c in enumerate(closed):
            if o & c:
                m |= 1 << j
        masks.append(m)
    return masks


def has_independent_set(masks, k):
    """Does the conflict graph (closed neighbourhood masks) have an
    independent set of size k?  Branches on the closed neighbourhood of a
    minimum-degree candidate: some maximum independent set meets it."""

    def rec(cand, size):
        if size >= k:
            return True
        if size + bin(cand).count("1") < k:
            return False
        best, best_deg = -1, None
        c = cand
        while c:
            v = (c & -c).bit_length() - 1
            c &= c - 1
            d = bin(masks[v] & cand).count("1")
            if best_deg is None or d < best_deg:
                best, best_deg = v, d
        branch = masks[best] & cand
        while branch:
            u = (branch & -branch).bit_length() - 1
            branch &= branch - 1
            if rec(cand & ~masks[u], size + 1):
                return True
        return False

    return rec((1 << len(masks)) - 1, 0)


def graph_optimum(g, h_n, h_edges, cap):
    """Largest number, up to ``cap``, of disjoint, pairwise non-adjacent
    induced copies."""
    masks = _conflict_masks(g, occurrence_sets(g, h_n, h_edges))
    best = 0
    while best < cap and has_independent_set(masks, best + 1):
        best += 1
    return best


def _max_disjoint_spans(spans, circumference=None):
    """Most pairwise disjoint closed spans (interval scheduling).

    ``spans`` are (l, r) with l < r on a line; with a circumference they are
    arcs from l clockwise to r (r may be below l)."""
    if circumference is None:
        best, end = 0, None
        for l, r in sorted(spans, key=lambda s: s[1]):
            if end is None or l > end:
                best, end = best + 1, r
        return best
    c = circumference
    best = 0
    for l0, r0 in spans:
        # commit to this span, unroll the circle at its right end, and
        # schedule greedily in the gap before its left end
        gap = (l0 - r0) % c
        line = []
        for l, r in spans:
            a, b = (l - r0) % c, (r - r0) % c
            if 0 < a <= b < gap:
                line.append((a, b))
        best = max(best, 1 + _max_disjoint_spans(line))
    return best


class _Adjacency:
    """The smallest graph interface the oracle needs, built from a model's
    own coordinates rather than from the solver's realisation."""

    def __init__(self, n, meets):
        self.n = n
        self._meets = meets

    def has_edge(self, a, b):
        return a != b and self._meets(a, b)


def interval_optimum(model, h_n, h_edges):
    """Proper interval host: copies of a connected pattern can coexist iff
    their spans are disjoint, so the optimum is an interval schedule."""
    items = {it.id: it for it in model.items}
    g = _Adjacency(
        len(items),
        lambda a, b: max(items[a].l, items[b].l) <= min(items[a].r, items[b].r),
    )
    spans = [
        (min(items[v].l for v in o), max(items[v].r for v in o))
        for o in occurrence_sets(g, h_n, h_edges)
    ]
    return _max_disjoint_spans(spans)


def arc_optimum(model, h_n, h_edges):
    """Long proper arc host: a connected copy covers one arc of the circle
    (never all of it, as no three arcs cover it), and two copies coexist
    iff those arcs are disjoint."""
    c = model.circumference
    arc = {a.id: (a.s, (a.t - a.s) % c) for a in model.arcs}
    g = _Adjacency(
        len(arc),
        lambda a, b: (arc[b][0] - arc[a][0]) % c <= arc[a][1]
        or (arc[a][0] - arc[b][0]) % c <= arc[b][1],
    )
    spans = []
    for o in occurrence_sets(g, h_n, h_edges):
        # the covered arc starts at the start with the shortest clockwise reach
        pts = [arc[v] for v in o]
        s, reach = min(
            ((s, max((s2 - s) % c + ln for s2, ln in pts)) for s, _ in pts),
            key=lambda p: p[1],
        )
        spans.append((s, (s + reach) % c))
    return _max_disjoint_spans(spans, c)


def fuzzy_adjacency(model):
    """Adjacency of a fuzzy arc model from its coordinates: arcs sharing
    more than one point meet, arcs sharing one point meet as resolved."""
    c2 = 2 * model.arcs.circumference
    points = {}
    for a in model.arcs.arcs:
        length = (2 * a.t - 2 * a.s) % c2
        points[a.id] = {(2 * a.s + d) % c2 for d in range(length + 1)}

    def meets(a, b):
        shared = len(points[a] & points[b])
        if shared == 1:
            return model.resolutions[(min(a, b), max(a, b))]
        return shared > 1

    return _Adjacency(len(points), meets)
