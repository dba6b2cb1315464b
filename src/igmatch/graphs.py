"""Immutable simple graphs, multigraphs, and exact desk-scale subroutines.

This module is the foundation for everything else: it supplies the graph
types, the exact brute-force searches (maximum independent set,
induced-matching search, weighted independent set) that the solvers call
on small graphs and that their tests compare against, occurrence
enumeration, induced-subgraph embedding, twin contraction, and line-graph
construction/recognition for multigraphs without self-loops.  Both
induced-matching searches, ``find_igm`` for a given size and ``max_igm`` for
the largest, run one packing search that visits sets of occurrences as
increasing index lists in lexicographic order.

Conventions
-----------
* Vertices of a ``Graph`` on ``n`` vertices are the integers ``0..n-1``.
* An *occurrence* of a pattern H in a host G is an injective map from
  ``V(H)`` to ``V(G)`` whose image induces a copy of H (edges and non-edges
  both preserved).  It is stored as a tuple ``t`` with ``t[i]`` the image of
  pattern vertex ``i``.
* An *induced matching* of H in G is a set of occurrences that are pairwise
  vertex-disjoint with no edge of G between two distinct occurrences.

All search routines are deterministic: candidates are scanned in ascending
vertex order and the first witness in that order is returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError, InternalError, SizeCapError

# the input and answer types, their constructors, and the solve of a kernel's WIS question
__all__ = [
    "Graph",
    "Matching",
    "Multigraph",
    "Occurrence",
    "Pattern",
    "WIS_CAP_DEFAULT",
    "brute_force_wis",
    "complete_graph",
    "cycle_graph",
    "disjoint_union",
    "line_graph",
    "path_graph",
    "star_graph",
]

MIS_CAP_DEFAULT = 30
WIS_CAP_DEFAULT = 2000


class Graph:
    """A simple undirected graph on vertices ``0..n-1``.

    Duplicate edges and self-loops are rejected.  Instances are immutable
    and hashable; equality is structural (same n, same edge set).
    """

    __slots__ = ("n", "_adj", "_edges")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        edges = list(edges)
        try:
            norm = [(u, v) if u < v else (v, u) for u, v in edges]
            clean = len(set(norm)) == len(norm) and all(0 <= u < v < n for u, v in norm)
        except (TypeError, ValueError):
            clean = False
        if not clean:
            _raise_first_fault(n, edges)
        adj = [set() for _ in range(n)]
        for u, v in norm:
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj = tuple(map(frozenset, adj))
        self._edges = tuple(sorted(norm))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    def neighbors(self, v: int) -> frozenset:
        return self._adj[v]

    def closed_neighborhood(self, v: int) -> frozenset:
        return self._adj[v] | {v}

    def closed_neighborhood_of_set(self, vs) -> set:
        out = set(vs)
        for v in vs:
            out |= self._adj[v]
        return out

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def induced(self, vertices) -> "Graph":
        """Induced subgraph; new vertex i is ``vertices[i]`` of self."""
        vs = list(vertices)
        if len(set(vs)) != len(vs):
            raise InputError("induced() requires distinct vertices")
        pos = {v: i for i, v in enumerate(vs)}
        es = [
            (pos[u], pos[v])
            for u, v in self._edges
            if u in pos and v in pos
        ]
        return Graph(len(vs), es)

    def without(self, removed) -> tuple["Graph", list[int]]:
        """Delete a vertex set; returns (subgraph, kept old ids in order)."""
        rem = set(removed)
        kept = [v for v in range(self.n) if v not in rem]
        return self.induced(kept), kept

    def components(self) -> list[list[int]]:
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self._adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        return len(self.components()) == 1

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._edges == other._edges
        )

    def __hash__(self):
        return hash((self.n, self._edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self._edges)})"


def _raise_first_fault(n: int, edges: list) -> None:
    """Raise for the first edge, in input order, out of range, a loop or a repeat."""
    seen = set()
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge {e!r} out of range for n={n}")
        if u == v:
            raise InputError(f"self-loop at vertex {u} not allowed")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise InputError(f"duplicate edge {key!r}")
        seen.add(key)


class Multigraph:
    """An undirected multigraph: parallel edges allowed, self-loops rejected.

    The edge *order* is significant: ``edges[i]`` is edge number i, which
    line_graph() turns into vertex i of the line graph.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        norm = []
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge {e!r} out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u} not allowed")
            norm.append((min(u, v), max(u, v)))
        self.n = n
        self.edges = tuple(norm)

    def degree(self, v: int) -> int:
        return sum(1 for u, w in self.edges if v in (u, w))

    def __eq__(self, other):
        return (
            isinstance(other, Multigraph)
            and self.n == other.n
            and sorted(self.edges) == sorted(other.edges)
        )

    def __repr__(self):
        return f"Multigraph(n={self.n}, m={len(self.edges)})"


# ---------------------------------------------------------------------------
# small named graphs

def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves}: vertex 0 is the center."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def empty_graph(n: int) -> Graph:
    return Graph(n, ())


def disjoint_union(a: Graph, b: Graph) -> Graph:
    es = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return Graph(a.n + b.n, es)


# ---------------------------------------------------------------------------
# patterns, occurrences, matchings

@dataclass(frozen=True)
class Pattern:
    """A fixed pattern graph H together with precomputed shape flags."""

    graph: Graph
    h: int
    is_connected: bool
    is_complete: bool

    @staticmethod
    def of(g: Graph) -> "Pattern":
        if g.n == 0:
            raise InputError("pattern must have at least one vertex")
        complete = len(g.edges) == g.n * (g.n - 1) // 2
        return Pattern(g, g.n, g.is_connected(), complete)


@dataclass(frozen=True)
class Occurrence:
    """An induced copy of a pattern; vertices[i] realizes pattern vertex i."""

    vertices: tuple[int, ...]

    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)

    def check(self, g: Graph, h: Pattern) -> None:
        vs = self.vertices
        if len(vs) != h.h or len(set(vs)) != len(vs):
            raise InputError(f"occurrence {vs} is not injective on {h.h} vertices")
        for i in range(h.h):
            for j in range(i + 1, h.h):
                if h.graph.has_edge(i, j) != g.has_edge(vs[i], vs[j]):
                    raise InputError(
                        f"occurrence {vs} not induced: pattern pair ({i},{j}) "
                        f"maps to ({vs[i]},{vs[j]})"
                    )


@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint, pairwise non-adjacent occurrences."""

    occurrences: tuple[Occurrence, ...]

    def size(self) -> int:
        return len(self.occurrences)

    def vertex_set(self) -> frozenset:
        out = set()
        for o in self.occurrences:
            out |= set(o.vertices)
        return frozenset(out)

    def check(self, g: Graph, h: Pattern) -> None:
        for o in self.occurrences:
            o.check(g, h)
        for a, b in itertools.combinations(self.occurrences, 2):
            if not compatible(a, b, g):
                raise InputError(
                    f"occurrences {a.vertices} and {b.vertices} overlap or touch"
                )


def revalidated(found, g: Graph, h: Pattern, what: str):
    """Return a solver's own Occurrence or Matching after re-checking it.

    The check raises InputError, which blames the caller; an answer the
    solver built itself that fails it is a solver bug, so it surfaces as
    InternalError naming ``what``.
    """
    try:
        found.check(g, h)
    except InputError as exc:
        raise InternalError(f"{what} failed validation: {exc}") from exc
    return found


def compatible(a: Occurrence, b: Occurrence, g: Graph) -> bool:
    """True iff a and b share no vertex and no edge of g joins them."""
    sa, sb = set(a.vertices), set(b.vertices)
    if sa & sb:
        return False
    for u in sa:
        if g.neighbors(u) & sb:
            return False
    return True


# ---------------------------------------------------------------------------
# predicates

def find_star(g: Graph, t: int) -> tuple | None:
    """A (center, leg, ..., leg) witness of an induced K_{1,t}, or None.

    The first center in vertex order with t pairwise non-adjacent neighbors,
    and its lexicographically first such legs.
    """
    if t < 1:
        raise InputError("t must be positive")
    for v in range(g.n):
        nb = sorted(g.neighbors(v))
        if len(nb) < t:
            continue
        for combo in itertools.combinations(nb, t):
            if all(
                not g.has_edge(a, b)
                for a, b in itertools.combinations(combo, 2)
            ):
                return (v,) + combo
    return None


def star_free(g: Graph, t: int) -> bool:
    """True iff no vertex has t pairwise non-adjacent neighbors.

    star_free(g, 3) is claw-freeness, star_free(g, 4) is K_{1,4}-freeness.
    """
    return find_star(g, t) is None


# ---------------------------------------------------------------------------
# embedding search (induced subgraph isomorphism)

def _pattern_order(h: Graph) -> list[int]:
    # most-constrained-first: highest degree start, then most placed neighbors
    if h.n == 0:
        return []
    order = [max(range(h.n), key=lambda v: (h.degree(v), -v))]
    placed = set(order)
    while len(order) < h.n:
        best = None
        for v in range(h.n):
            if v in placed:
                continue
            key = (len(h.neighbors(v) & placed), h.degree(v), -v)
            if best is None or key > best[0]:
                best = (key, v)
        order.append(best[1])
        placed.add(best[1])
    return order


def find_occurrence(g: Graph, h: Pattern, within=None) -> Occurrence | None:
    """First induced embedding of h into g in deterministic order, or None.

    ``within`` restricts the image to a subset of host vertices.  Pattern
    vertices are placed in ``_pattern_order``, each on the smallest feasible
    host vertex first.
    """
    hg = h.graph
    hosts = sorted(within) if within is not None else list(range(g.n))
    if len(hosts) < h.h:
        return None
    order = _pattern_order(hg)
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def feasible(pv: int, gv: int) -> bool:
        if g.degree(gv) < hg.degree(pv):
            return False
        for qv, hv in assignment.items():
            if hg.has_edge(pv, qv) != g.has_edge(gv, hv):
                return False
        return True

    def rec(idx: int) -> bool:
        if idx == len(order):
            return True
        pv = order[idx]
        for gv in hosts:
            if gv in used or not feasible(pv, gv):
                continue
            assignment[pv] = gv
            used.add(gv)
            if rec(idx + 1):
                return True
            del assignment[pv]
            used.remove(gv)
        return False

    if not rec(0):
        return None
    return Occurrence(tuple(assignment[i] for i in range(h.h)))


def _connected_sets(g: Graph, size: int) -> list[tuple[int, ...]]:
    """Every vertex set of g of this size that induces a connected subgraph.

    Sorted ascending as sorted tuples, the order of ``itertools.combinations``.
    Pairs are the edges; larger sets come from connected extension (ESU,
    Wernicke, *Efficient detection of network motifs*, 2006): a set grows
    from its smallest vertex v by vertices above v, and a vertex joins the
    candidates only when the member just added is the first one adjacent to
    it, so each set is produced once.
    """
    if size == 2:
        return list(g.edges)
    nbr = [sum(1 << w for w in g.neighbors(v)) for v in range(g.n)]
    found: list[tuple[int, ...]] = []

    def extend(members: tuple, closed: int, ext: int, above: int) -> None:
        if len(members) == size:
            found.append(tuple(sorted(members)))
            return
        while ext:
            bit = ext & -ext
            ext ^= bit
            w = bit.bit_length() - 1
            extend(members + (w,), closed | nbr[w], ext | (nbr[w] & ~closed & above), above)

    for v in range(g.n):
        above = -1 << (v + 1)
        extend((v,), nbr[v] | 1 << v, nbr[v] & above, above)
    return sorted(found)


def enumerate_occurrences(g: Graph, h: Pattern) -> list[Occurrence]:
    """All occurrences of h in g, one per vertex set, in canonical order.

    For each h-subset of host vertices inducing a copy of the pattern, in
    ascending order, the lexicographically smallest witness map is kept.  A
    connected pattern only tests the connected h-subsets (``_connected_sets``);
    any other pattern tests all C(n, h).

    Which map of a sorted subset comes first depends only on which of its
    C(h, 2) position pairs are adjacent, so a subset is read as an adjacency
    key, one bit per position pair, and each key met is solved once: the
    position maps are tried in lexicographic order against the pattern's own
    bits, after the degree test that rejects most keys at once.  There are at
    most 2^C(h, 2) keys (8 for h = 3), and the pattern's edges are read once
    per call, whatever the host.
    """
    slots = list(enumerate(itertools.combinations(range(h.h), 2)))
    bit = {pair: k for k, (a, b) in slots for pair in ((a, b), (b, a))}
    hkey = sum(h.graph.has_edge(a, b) << k for k, (a, b) in slots)
    nbr = [sum(1 << w for w in g.neighbors(v)) for v in range(g.n)]
    if h.is_connected:
        subsets = _connected_sets(g, h.h)
    else:
        subsets = itertools.combinations(range(g.n), h.h)

    def degrees(key: int) -> list[int]:
        return sorted(sum(key >> bit[a, b] & 1 for b in range(h.h) if b != a) for a in range(h.h))

    hdeg = degrees(hkey)
    first: dict[int, tuple | None] = {}

    def solve(key: int) -> tuple | None:
        if key.bit_count() != hkey.bit_count() or degrees(key) != hdeg:
            return None
        for perm in itertools.permutations(range(h.h)):
            if all(key >> bit[perm[a], perm[b]] & 1 == hkey >> k & 1 for k, (a, b) in slots):
                return perm
        return None

    out = []
    for sub in subsets:
        key = 0
        for k, (a, b) in slots:
            key |= (nbr[sub[a]] >> sub[b] & 1) << k
        if key not in first:
            first[key] = solve(key)
        perm = first[key]
        if perm is not None:
            out.append(Occurrence(tuple([sub[p] for p in perm])))
    return out


# ---------------------------------------------------------------------------
# exact brute-force searches, called by the solvers and used as test oracles

def brute_force_mis(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact maximum independent set by branch and bound.

    Returns (alpha, witness).  Deterministic; refuses graphs above
    ``MIS_CAP_DEFAULT``.
    """
    if g.n > MIS_CAP_DEFAULT:
        raise SizeCapError("brute_force_mis", g.n, MIS_CAP_DEFAULT)
    nbr = [0] * g.n
    for v in range(g.n):
        for w in g.neighbors(v):
            nbr[v] |= 1 << w
    best_size = 0
    best_set = 0

    def rec(avail: int, chosen: int, size: int):
        nonlocal best_size, best_set
        if avail == 0:
            if size > best_size:
                best_size, best_set = size, chosen
            return
        if size + bin(avail).count("1") <= best_size:
            return
        # pivot on the max-degree available vertex (ties: lowest id)
        pick, pick_deg = -1, -1
        a = avail
        while a:
            v = (a & -a).bit_length() - 1
            a &= a - 1
            d = bin(nbr[v] & avail).count("1")
            if d > pick_deg:
                pick, pick_deg = v, d
        rec(avail & ~(nbr[pick] | (1 << pick)), chosen | (1 << pick), size + 1)
        rec(avail & ~(1 << pick), chosen, size)

    rec((1 << g.n) - 1, 0, 0)
    witness = tuple(v for v in range(g.n) if best_set >> v & 1)
    return best_size, witness


def _occurrence_masks(g: Graph, occs: list[Occurrence]):
    """Bitmask closed neighborhoods and conflict masks for occurrence DFS.

    Occurrence j conflicts with occurrence i iff a vertex of j lies in the
    closed neighborhood of i.  The closed neighborhood of a vertex set is
    the union of its members' closed neighborhoods, so with ``near[v]`` the
    mask of the occurrences through N[v], i's conflict mask ORs ``near``
    over i's vertices.
    """
    through = [0] * g.n
    vmask = []
    for i, o in enumerate(occs):
        m = 0
        for v in o.vertices:
            m |= 1 << v
            through[v] |= 1 << i
        vmask.append(m)
    near = [0] * g.n  # read only at vertices of occurrences
    for v, m in enumerate(through):
        if m:
            for w in g.neighbors(v):
                m |= through[w]
            near[v] = m
    conflict = []
    for i, o in enumerate(occs):
        ci = 0
        for v in o.vertices:
            ci |= near[v]
        conflict.append(ci & ~(1 << i))
    return vmask, conflict


def _first_packing(g: Graph, occs: list[Occurrence], goal: int | None,
                   touch_masks=()) -> list[int] | None:
    """Indices of the first packing of ``goal`` occurrences (of the most
    occurrences when ``goal`` is None) whose union meets every nonzero vertex
    mask in ``touch_masks``, or None when there is none.

    Packings are visited as increasing index lists in lexicographic order.  A
    branch is cut once it cannot reach the floor, ``goal`` or one more than
    the best packing so far, or can no longer meet a touch set, so a cut
    branch holds no packing of the size sought, and the first packing of
    that size in this order is returned.
    """
    vmask, conflict = _occurrence_masks(g, occs)
    n = len(occs)
    # each touch set as the mask of the occurrences meeting it
    meets = [sum(1 << i for i in range(n) if vmask[i] & tm) for tm in touch_masks if tm]
    floor = goal or 0
    best: list[int] | None = None
    chosen: list[int] = []

    def rec(start: int, avail: int, unmet: list) -> bool:
        nonlocal best, floor
        rest = avail >> start << start
        if len(chosen) + rest.bit_count() < floor:
            return False
        if unmet and any(not rest & m for m in unmet):
            return False
        if not unmet and len(chosen) >= floor:
            best = list(chosen)
            if goal is not None:
                return True
            floor = len(chosen) + 1
        for i in range(start, n):
            if not (avail >> i & 1):
                continue
            chosen.append(i)
            if rec(i + 1, avail & ~conflict[i] & ~(1 << i),
                   [m for m in unmet if not m >> i & 1]):
                return True
            chosen.pop()
        return False

    rec(0, (1 << n) - 1, meets)
    return best


def find_igm(g: Graph, h: Pattern, k: int,
             occurrences: list[Occurrence] | None = None) -> Matching | None:
    """First induced matching of size k in canonical order, or None."""
    if k < 0:
        raise InputError("k must be nonnegative")
    if k == 0:
        return Matching(())
    occs = enumerate_occurrences(g, h) if occurrences is None else occurrences
    if len(occs) < k:
        return None
    found = _first_packing(g, occs, k)
    return None if found is None else Matching(tuple(occs[i] for i in found))


def max_igm(g: Graph, h: Pattern, require_touch=(),
            occurrences: list[Occurrence] | None = None) -> list[Occurrence] | None:
    """Maximum-size induced matching, optionally forced to touch vertex sets.

    Each entry of ``require_touch`` is a vertex set that the union of the
    matching must intersect.  Returns a witness list (possibly empty when no
    touch constraints), or None when the constraints cannot be met.
    """
    occs = enumerate_occurrences(g, h) if occurrences is None else occurrences
    touch_masks = [sum(1 << v for v in set(s)) for s in require_touch]
    found = _first_packing(g, occs, None, touch_masks)
    return None if found is None else [occs[i] for i in found]


def _greedy_clique_partition(g: Graph) -> list[list[int]]:
    """Deterministic greedy partition of V(g) into cliques."""
    unassigned = set(range(g.n))
    parts = []
    while unassigned:
        v = min(unassigned)
        clique = [v]
        cand = g.neighbors(v) & unassigned
        while cand:
            w = min(cand)
            clique.append(w)
            cand = cand & g.neighbors(w)
        for w in clique:
            unassigned.discard(w)
        parts.append(sorted(clique))
    return parts


def _clique_tables(cliques, n: int) -> tuple:
    """The vertex mask of each clique, the clique of each vertex, and the
    vertices of cliques i.. (index i)."""
    cmask = [sum(1 << v for v in c) for c in cliques]
    clique_of = [0] * n
    for i, c in enumerate(cliques):
        for v in c:
            clique_of[v] = i
    suffix = [0] * (len(cliques) + 1)
    for i in range(len(cliques) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | cmask[i]
    return cmask, clique_of, suffix


def _propagate(cliques, nbr, tables, idx: int, blocked: int, fresh: int | None) -> int | None:
    """A tight node's blocked set closed under the one-vertex-per-clique rule
    of ``brute_force_wis``, or None if some open clique runs out.

    ``fresh`` holds the vertices blocked since the last closed set on this
    branch; None means there is none, and every open clique is checked.
    """
    cmask, clique_of, suffix = tables
    live = suffix[idx]
    # the cliques of these vertices are checked first
    pending = live & ~blocked if fresh is None else live & fresh
    queue, queued = [], 0
    while pending:
        low = pending & -pending
        c = clique_of[low.bit_length() - 1]
        pending &= ~cmask[c]
        queue.append(c)
        queued |= 1 << c
    while queue:
        c = queue.pop()
        queued &= ~(1 << c)
        free = cmask[c] & ~blocked
        if not free:
            return None
        seen = live
        for x in cliques[c]:
            if free >> x & 1:
                seen &= nbr[x]
        seen &= ~blocked
        blocked |= seen
        while seen:
            low = seen & -seen
            d = clique_of[low.bit_length() - 1]
            seen &= ~cmask[d]
            if not queued >> d & 1:
                queued |= 1 << d
                queue.append(d)
    return blocked


def brute_force_wis(g: Graph, weights, k_card: int,
                    k_weight) -> tuple[bool, tuple[int, ...] | None]:
    """Does g have an independent set with >= k_card vertices and >= k_weight weight?

    Exact branch and bound over a greedy clique partition: clique by clique,
    take one of its unblocked vertices (in clique order) or none.  Weights
    must be nonnegative (so any partial independent set extends without
    loss).  Returns (answer, witness or None).

    The bound is a forward check (Haralick and Elliott, 1980): at each node,
    the cliques still to come that keep a vertex outside the blocked set
    (the open cliques) can add at most one vertex each, and at most their
    heaviest free vertex in weight.  A node is cut when that cannot reach
    k_card or k_weight.  Blocked sets only grow along a branch, so a cut
    subtree holds no solution; the search visits the remaining nodes in the
    same order as a search with any weaker sound bound, and so returns the
    same first witness.

    A node is *tight* when its size plus its open cliques is exactly k_card.
    The slack ``size + open - k_card`` never grows along a branch (a pick
    adds one vertex and closes at least its own clique; a skip adds none),
    and a node with negative slack is cut, so every uncut node below a
    tight node is tight: each open clique must give exactly one vertex to
    any solution there.  A free vertex adjacent to every free vertex of
    another open clique is therefore in no solution below a tight node, and
    it is blocked; this repeats until nothing changes, and a clique that
    loses its last free vertex refutes the node (arc consistency maintained
    during search: Mackworth, 1977; Sabin and Freuder, 1994).  The removed
    vertices stay excluded in the whole subtree, so this too cuts only
    subtrees that hold no solution, and the first witness is the same.
    Each step is one mask intersection per clique whose free vertices
    shrank; below a closed node, a child starts from the vertices its pick
    newly blocked.

    The propagation waits until the forward check has cut as many nodes as
    there are cliques, so a search that succeeds at once pays nothing for
    it.  The kernel's "at least five independent vertices?" questions are
    such searches: on 10-15 vertices, nearly all yes and often tight at the
    root.  Propagating from the first node made them slower, while the
    selection-clique no-instances, which the gate lets through, search
    long enough to gain.

    The picks are driven from an explicit stack, so the depth of the search
    is not bounded by Python's recursion limit.  Refuses graphs above
    ``WIS_CAP_DEFAULT``.
    """
    if g.n > WIS_CAP_DEFAULT:
        raise SizeCapError("brute_force_wis", g.n, WIS_CAP_DEFAULT)
    weights = list(weights)
    if len(weights) != g.n:
        raise InputError("one weight per vertex required")
    if any(w < 0 for w in weights):
        raise InputError("weights must be nonnegative")
    if k_card <= 0 and k_weight <= 0:
        return True, ()
    cliques = _greedy_clique_partition(g)
    heaviest_first = [sorted(c, key=lambda v: -weights[v]) for c in cliques]
    m = len(cliques)
    nbr = [0] * g.n
    for v in range(g.n):
        for w in g.neighbors(v):
            nbr[v] |= 1 << w
    tables = None  # built when propagation first runs
    # one entry per node on the branch whose picks are not all tried:
    # [clique index, blocked, size, weight, next position in the clique,
    # whether blocked is closed under propagation]; chosen holds the
    # current pick of each
    stack: list[list] = []
    chosen: list[int] = []
    dead_ends = 0
    # the node to evaluate; fresh is passed on to _propagate
    idx, blocked, size, weight, fresh = 0, 0, 0, 0, None
    while True:
        if size >= k_card and weight >= k_weight:
            return True, tuple(sorted(chosen))
        open_cliques, gain = 0, 0
        for i in range(idx, m):
            for v in heaviest_first[i]:
                if not blocked >> v & 1:
                    open_cliques += 1
                    gain += weights[v]
                    break
        if size + open_cliques < k_card or weight + gain < k_weight:
            dead_ends += 1
            blocked = None
        else:
            closed = size + open_cliques == k_card and dead_ends >= m
            if closed:
                if tables is None:
                    tables = _clique_tables(cliques, g.n)
                blocked = _propagate(cliques, nbr, tables, idx, blocked, fresh)
        if blocked is not None:
            top = [idx, blocked, size, weight, 0, closed]
            stack.append(top)
            pos = 0
        elif stack:
            top = stack[-1]
            idx, blocked, size, weight, pos, closed = top
            chosen.pop()
        else:
            return False, None
        clique = cliques[idx]
        end = len(clique)
        while pos < end and blocked >> clique[pos] & 1:
            pos += 1
        idx += 1
        if pos < end:
            v = clique[pos]
            top[4] = pos + 1
            chosen.append(v)
            taken = nbr[v] | 1 << v
            fresh = taken & ~blocked if closed else None
            blocked |= taken
            size += 1
            weight += weights[v]
        else:
            # the skip is the last branch of a node: it replaces the node
            stack.pop()
            fresh = 0 if closed else None


# ---------------------------------------------------------------------------
# twins and line graphs

def _twin_classes(g: Graph) -> list[list[int]]:
    """Partition into true-twin classes (equal closed neighborhoods).

    Vertices in one class are pairwise adjacent, and any third vertex is
    adjacent to either all or none of a class.
    """
    by_nbhd: dict[frozenset, list[int]] = {}
    for v in range(g.n):
        by_nbhd.setdefault(g.closed_neighborhood(v), []).append(v)
    return sorted(sorted(c) for c in by_nbhd.values())


def line_graph(m: Multigraph) -> Graph:
    """Line graph of a multigraph: vertex i is edge i, adjacency = shared endpoint."""
    es = []
    for i, (a, b) in enumerate(m.edges):
        for j in range(i + 1, len(m.edges)):
            c, d = m.edges[j]
            if a in (c, d) or b in (c, d):
                es.append((i, j))
    return Graph(len(m.edges), es)


def _all_cliques_containing_edge(g: Graph, u: int, v: int) -> list[frozenset]:
    """All cliques of g that contain both u and v, largest first."""
    common = sorted(g.neighbors(u) & g.neighbors(v))
    out = []

    def extend(clique: list[int], cand: list[int]):
        out.append(frozenset(clique))
        for i, w in enumerate(cand):
            if all(g.has_edge(w, x) for x in clique):
                extend(clique + [w], cand[i + 1:])

    extend([u, v], common)
    return sorted(out, key=lambda c: (-len(c), sorted(c)))


def _krausz_cover(g: Graph) -> list[frozenset] | None:
    """A set of cliques covering every edge with each vertex in <= 2 cliques.

    Such a cover exists iff g is the line graph of a multigraph without
    self-loops; it directly encodes a pre-image.
    """
    edges = list(g.edges)
    if not edges:
        return []
    membership = [0] * g.n
    covered: set[tuple[int, int]] = set()
    chosen: list[frozenset] = []

    def rec() -> bool:
        todo = next((e for e in edges if e not in covered), None)
        if todo is None:
            return True
        u, v = todo
        if membership[u] >= 2 or membership[v] >= 2:
            return False
        for clique in _all_cliques_containing_edge(g, u, v):
            if any(membership[w] >= 2 for w in clique):
                continue
            newly = [
                (min(a, b), max(a, b))
                for a, b in itertools.combinations(sorted(clique), 2)
                if (min(a, b), max(a, b)) not in covered
            ]
            for w in clique:
                membership[w] += 1
            covered.update(newly)
            chosen.append(clique)
            if rec():
                return True
            chosen.pop()
            covered.difference_update(newly)
            for w in clique:
                membership[w] -= 1
        return False

    if rec():
        return list(chosen)
    return None


def _preimage_from_cover(g: Graph, cover: list[frozenset]) -> Multigraph:
    """Build a pre-image whose edge i corresponds to vertex i of g."""
    clique_of: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for ci, clique in enumerate(cover):
        for v in clique:
            clique_of[v].append(ci)
    n_m = len(cover)
    edges = []
    for v in range(g.n):
        cs = clique_of[v]
        if len(cs) == 2:
            edges.append((cs[0], cs[1]))
        elif len(cs) == 1:
            edges.append((cs[0], n_m))
            n_m += 1
        else:  # isolated vertex of g: its own fresh edge
            edges.append((n_m, n_m + 1))
            n_m += 2
    return Multigraph(n_m, edges)


def recognize_line_graph(g: Graph) -> Multigraph | None:
    """Recognize g as the line graph of a multigraph without self-loops.

    Returns a pre-image M with ``M.edges[i]`` corresponding to g-vertex i,
    or None when g is not such a line graph.  The pipeline contracts true
    twin classes first, searches for a clique cover with every vertex in at
    most two cliques on the reduced graph, then re-expands the contracted
    classes by duplicating their edges.

    A failed search on the reduced graph rejects g with no second search:
    ``_krausz_cover`` backtracks over every clique, so the reduced graph is
    no such line graph, and neither is g, since an induced subgraph of a
    line graph of a multigraph is again one and the reduced graph is an
    induced subgraph of g.

    A triangle host has two pre-images, K3 and the 3-star; K3 is the one
    returned.
    """
    if g.n == 0:
        raise InputError("recognition requires a nonempty graph")
    if not g.is_connected():
        raise InputError("recognition requires a connected graph")
    if not star_free(g, 3):
        return None
    if g.n == 3 and len(g.edges) == 3:
        m = Multigraph(3, [(0, 1), (1, 2), (0, 2)])
        _check_identity_preimage(g, m)
        return m
    classes = _twin_classes(g)
    reps = [c[0] for c in classes]
    class_of = {}
    for ci, c in enumerate(classes):
        for v in c:
            class_of[v] = ci
    reduced = g.induced(reps)
    cover = _krausz_cover(reduced)
    if cover is None:
        return None
    m_red = _preimage_from_cover(reduced, cover)
    # expand: g-vertex v gets a parallel copy of its class representative's edge
    edges = [m_red.edges[class_of[v]] for v in range(g.n)]
    m = Multigraph(m_red.n, edges)
    _check_identity_preimage(g, m)
    return m


def _check_identity_preimage(g: Graph, m: Multigraph) -> None:
    lg = line_graph(m)
    if lg != g:
        raise InternalError("pre-image construction does not reproduce the host")
