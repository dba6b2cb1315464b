"""Immutable simple graphs, multigraphs, and exact desk-scale subroutines.

This module is the foundation for everything else: it supplies the graph
types, the exact brute-force searches (induced-matching search, weighted
independent set) that the solvers call on small graphs and that their tests
compare against, occurrence enumeration, induced-subgraph embedding, twin
contraction, and line-graph construction/recognition for multigraphs
without self-loops.  Every
induced-matching question runs one packing search, ``packing``, which visits
sets of occurrences as increasing index lists in lexicographic order and
answers a given size, the largest size, or, within a node budget, nothing;
``find_igm`` is that search for a given size over every occurrence of a
pattern.  No solver computes an independence number; they ask
``brute_force_wis`` at unit weight for t independent vertices: t =
``ALPHA_BOUND`` + 1 picks the small-α route (claw-free router and kernel),
and t = k refutes k copies (router, only for k above ``ALPHA_BOUND`` + 1).
One depth-first search over the pattern's vertices, drawing each image from
the host's adjacency masks and a domain mask per step, serves enumeration
(twin pattern vertices mapped in increasing order, so each occurrence is
reached directly; see ``enumerate_occurrences``), the bare maps that the
interval and long-arc solvers sort into span classes (``occurrence_maps``),
the first occurrence (``find_occurrence``) and the claw-free solver's token
placements (``induced_maps``).

A ``Graph`` stores its adjacency once, as integer bitmasks (``_nbr``: bit w
of ``_nbr[v]`` is set iff vw is an edge), and derives ``edges`` from them.
The public constructor checks each edge; every graph the package derives is
built from masks unchecked (``Graph._from_masks``): ``induced`` remaps them,
``disjoint_union`` shifts them, ``line_graph`` ORs incidence masks, and
``models.realize`` and the claw-free solver's token and base graphs hand
their pairs to ``Graph._from_pairs``.  Only the kernel's encoding writes
masks outside this module, and none reads them.
Line-graph recognition takes any nonempty host, reads its masks for the claw
test and twin classes, searches for a cover one component at a time
(``Graph.components``, the package's one component splitter) and checks
L(M) = g with ``line_graph``.  Per component, the cover search keeps the
order of the list-based search it replaced (first uncovered edge of
``g.edges``, then the cliques through it largest first, ties by sorted
tuple) but builds each clique only when it tries it; on the benchmark's
``clawfree`` and ``kernel`` hosts it never backtracks.

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

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import InputError, InternalError, SizeCapError, expect_type

# the input and answer types, their constructors, and the exact WIS and matching searches
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
    "find_igm",
    "line_graph",
    "path_graph",
    "star_graph",
]

# hosts without ALPHA_BOUND + 1 independent vertices skip the structure theorem,
# and the claw-free router refuses hosts with them above MIS_CAP_DEFAULT vertices
ALPHA_BOUND = 4
MIS_CAP_DEFAULT = 30
WIS_CAP_DEFAULT = 2000


class Graph:
    """A simple undirected graph on vertices ``0..n-1``.

    Duplicate edges and self-loops are rejected.  Instances are immutable
    and hashable; equality is structural (same n, same edge set).  Stored:
    ``n`` and the masks ``_nbr`` only (bit w of ``_nbr[v]`` set iff vw is an
    edge), written by this module and the kernel's encoding alone; the
    accessors and ``edges`` are read off them.
    """

    __slots__ = ("n", "_nbr")

    def __init__(self, n: int, edges=()):
        if type(n) is not int or n < 0:
            raise InputError(f"vertex count must be a nonnegative integer, got {n!r}")
        nbr = [0] * n
        for e in edges:
            u, v = _edge(e, n)
            if nbr[u] >> v & 1:
                raise InputError(f"duplicate edge {(u, v)!r}")
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        self.n = n
        self._nbr = tuple(nbr)

    @classmethod
    def _from_masks(cls, nbr) -> "Graph":
        """The graph of symmetric, loop-free masks, taken unchecked."""
        g = cls.__new__(cls)
        g.n, g._nbr = len(nbr), tuple(nbr)
        return g

    @classmethod
    def _from_pairs(cls, n: int, pairs) -> "Graph":
        """The graph on n vertices whose edges are ``pairs``: distinct pairs
        of distinct vertices, taken unchecked."""
        nbr = [0] * n
        for u, v in pairs:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        return cls._from_masks(nbr)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges (u, v), u < v, in sorted order, read off the masks."""
        edges = []
        for u, m in enumerate(self._nbr):
            m >>= u  # bit j now stands for vertex u + j
            while m:
                low = m & -m
                edges.append((u, u + low.bit_length() - 1))
                m ^= low
        return tuple(edges)

    def neighbors(self, v: int) -> frozenset:
        return frozenset(_bits(self._nbr[v]))

    def closed_neighborhood(self, v: int) -> frozenset:
        return frozenset(_bits(self._nbr[v] | 1 << v))

    def closed_neighborhood_of_set(self, vs) -> set:
        out = set(vs)
        reach = 0
        for v in out:
            reach |= self._nbr[v]
        out.update(_bits(reach))
        return out

    def degree(self, v: int) -> int:
        return self._nbr[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return self._nbr[u] >> v & 1 == 1

    def induced(self, vertices) -> "Graph":
        """Induced subgraph; new vertex i is ``vertices[i]`` of self."""
        vs = list(vertices)
        if not all(type(v) is int and 0 <= v < self.n for v in vs):
            raise InputError(f"induced() takes vertices that are integers in 0..{self.n - 1}")
        if len(set(vs)) != len(vs):
            raise InputError("induced() requires distinct vertices")
        bit = [0] * self.n  # old vertex -> the bit of its new id, 0 if dropped
        for i, v in enumerate(vs):
            bit[v] = 1 << i
        nbr = []
        for v in vs:
            m, new = self._nbr[v], 0
            while m:
                low = m & -m
                new |= bit[low.bit_length() - 1]
                m ^= low
            nbr.append(new)
        return Graph._from_masks(nbr)

    def without(self, removed) -> tuple["Graph", list[int]]:
        """Delete a vertex set; returns (subgraph, kept old ids in order)."""
        rem = set(removed)
        kept = [v for v in range(self.n) if v not in rem]
        return self.induced(kept), kept

    def components(self) -> list[list[int]]:
        """Vertex sets of the connected components, each sorted, ordered by
        their smallest vertex."""
        comps = []
        left = (1 << self.n) - 1
        while left:
            comp = frontier = left & -left
            while frontier:
                reach = 0
                for v in _bits(frontier):
                    reach |= self._nbr[v]
                frontier = reach & ~comp
                comp |= frontier
            left &= ~comp
            comps.append(_bits(comp))
        return comps

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        return len(self.components()) == 1

    def __eq__(self, other):
        return isinstance(other, Graph) and self._nbr == other._nbr

    def __hash__(self):
        return hash(self._nbr)

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"


def _edge(e, n: int) -> tuple[int, int]:
    """Edge e as (min, max), or InputError unless it joins two distinct integers in 0..n-1."""
    try:
        u, v = e
    except (TypeError, ValueError):
        u = v = None
    if not type(u) is type(v) is int:
        raise InputError(f"edge {e!r} is not a pair of integer vertices")
    if not (0 <= u < n and 0 <= v < n):
        raise InputError(f"edge {e!r} out of range for n={n}")
    if u == v:
        raise InputError(f"self-loop at vertex {u} not allowed")
    return (u, v) if u < v else (v, u)


class Multigraph:
    """An undirected multigraph: parallel edges allowed, self-loops rejected.

    The edge *order* is significant: ``edges[i]`` is edge number i, which
    line_graph() turns into vertex i of the line graph.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges=()):
        if type(n) is not int or n < 0:
            raise InputError(f"vertex count must be a nonnegative integer, got {n!r}")
        self.n = n
        self.edges = tuple(_edge(e, n) for e in edges)

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


def disjoint_union(a: Graph, b: Graph) -> Graph:
    expect_type(a, Graph)
    expect_type(b, Graph)
    return Graph._from_masks(a._nbr + tuple(m << a.n for m in b._nbr))


# ---------------------------------------------------------------------------
# patterns, occurrences, matchings

@dataclass(frozen=True)
class Pattern:
    """A fixed pattern graph H; its order, shape flags and occurrence-search
    plan are derived from it, so equality and hashing depend on the graph alone."""

    graph: Graph
    h: int = field(init=False, compare=False)
    is_connected: bool = field(init=False, compare=False)
    is_complete: bool = field(init=False, compare=False)

    def __post_init__(self):
        g = self.graph
        expect_type(g, Graph)
        if g.n == 0:
            raise InputError("pattern must have at least one vertex")
        object.__setattr__(self, "h", g.n)
        object.__setattr__(self, "is_connected", g.is_connected())
        object.__setattr__(self, "is_complete", len(g.edges) == g.n * (g.n - 1) // 2)

    @staticmethod
    def of(g: Graph) -> "Pattern":
        return Pattern(g)

    @functools.cached_property
    def _plan(self) -> "_SearchPlan":
        """The occurrence search's plan, built on the first search."""
        return _search_plan(self.graph)


@dataclass(frozen=True)
class Occurrence:
    """An induced copy of a pattern; vertices[i] realizes pattern vertex i."""

    vertices: tuple[int, ...]

    def check(self, g: Graph, h: Pattern) -> None:
        vs = self.vertices
        if not all(type(v) is int and 0 <= v < g.n for v in vs):
            raise InputError(
                f"occurrence {vs} has a vertex that is not an integer in 0..{g.n - 1}")
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
    near = 0
    for u in a.vertices:
        near |= g._nbr[u] | 1 << u
    return not any(near >> v & 1 for v in b.vertices)


# ---------------------------------------------------------------------------
# predicates

def _bits(mask: int) -> list[int]:
    """The set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _lex_cliques(nbr: tuple[int, ...], cand: int, size: int):
    """Masks of the cliques of ``size`` vertices inside ``cand``, in the
    order ``itertools.combinations`` lists the vertex tuples.

    Depth first, lowest bit first: after w, the rest of the clique comes from
    the candidates above w that ``nbr[w]`` keeps, and a branch stops as soon
    as fewer candidates are left than vertices are missing.  With the
    complements ``~nbr[v]`` as masks the same search lists independent sets.
    The branches left to try wait on an explicit stack, so the clique size is
    not bounded by Python's recursion limit: a vertex's later siblings are
    pushed before the search goes below it, and popped when it is done.
    """
    if size == 0:
        yield 0
        return
    stack = []  # (candidates left, clique so far, vertices missing) per open branch
    chosen, missing = 0, size
    while True:
        while cand.bit_count() >= missing:
            low = cand & -cand
            cand ^= low
            if missing == 1:
                yield chosen | low
            else:
                stack.append((cand, chosen, missing))
                cand, chosen, missing = cand & nbr[low.bit_length() - 1], chosen | low, missing - 1
        if not stack:
            return
        cand, chosen, missing = stack.pop()


def find_star(g: Graph, t: int) -> tuple | None:
    """A (center, leg, ..., leg) witness of an induced K_{1,t}, or None.

    The first center in vertex order with t pairwise non-adjacent neighbors,
    and its lexicographically first such legs.
    """
    if t < 1:
        raise InputError("t must be positive")
    return _star(g._nbr, t)


def _star(nbr: tuple[int, ...], t: int) -> tuple | None:
    """``find_star`` on adjacency masks: the legs are the first independent
    t-set of the center's neighbours in combination order."""
    co = tuple(~nb for nb in nbr)
    for v, nb in enumerate(nbr):
        legs = next(_lex_cliques(co, nb, t), None)
        if legs is not None:
            return (v, *_bits(legs))
    return None


def star_free(g: Graph, t: int) -> bool:
    """True iff no vertex has t pairwise non-adjacent neighbors.

    star_free(g, 3) is claw-freeness, star_free(g, 4) is K_{1,4}-freeness.
    """
    return find_star(g, t) is None


# ---------------------------------------------------------------------------
# embedding search (induced subgraph isomorphism)

def find_occurrence(g: Graph, h: Pattern, within=None) -> Occurrence | None:
    """First induced embedding of h into g in deterministic order, or None.

    ``within`` restricts the image to a subset of host vertices.  Pattern
    vertices are placed in the order of the pattern's ``_search_plan``, each
    on the smallest fitting host vertex first: the first map of the
    occurrence search (``_maps``) with ``within`` as every step's domain.

    The search's twin bounds never drop that map.  Twins a < b tie on every
    key of the plan's order but the label, so a is placed before b.  If the
    first map phi had phi(a) > phi(b), then phi o (a b), an induced map into
    the same domain since the swap is an automorphism, would agree with phi
    on the steps before a and be smaller at a.  So the first map meets every
    bound, and it is the first map of the same search without them.
    """
    hosts = range(g.n) if within is None else set(within)
    if len(hosts) < h.h:
        return None
    found = _maps(h._plan.steps, g._nbr, (sum(1 << v for v in hosts),) * h.h, 1)
    return Occurrence(found[0]) if found else None


def induced_maps(g: Graph, hg: Graph, domains) -> list[tuple[int, ...]]:
    """Every induced map of ``hg`` into ``g`` that sends vertex i into
    ``domains[i]``, lexicographically: the occurrence search in label order,
    with no twin bounds, since the domains of twins may differ."""
    steps = _steps(hg._nbr, range(hg.n), [[False] * hg.n] * hg.n)
    return _maps(steps, g._nbr, [sum(1 << v for v in set(d)) for d in domains])


def enumerate_occurrences(g: Graph, h: Pattern) -> list[Occurrence]:
    """All occurrences of h in g, one per vertex set, in canonical order.

    For each h-subset of host vertices inducing a copy of the pattern, in
    ascending order of the sorted subset, the lexicographically smallest
    witness map is kept.

    One depth-first search over the pattern's vertices serves every pattern,
    connected or not (``_maps``, following the pattern's ``_search_plan``,
    Ullmann's scheme on adjacency bitmasks).  A step's candidates are the
    unused host vertices, cut by the neighbourhood mask of each earlier
    image its vertex must be adjacent to and by the complement of each one
    it must not be; the last step emits straight from its mask.  Pattern
    vertices a < b are *twins* when N(a) - b = N(b) - a, and every twin pair
    must get phi(a) < phi(b) (symmetry breaking, as in Grochow and Kellis,
    *Network motif discovery using subgraph enumeration and
    symmetry-breaking*, 2007).

    Why the output is the canonical one:

    * The maps with one image are phi o sigma for sigma in Aut(H), and the
      canonical witness is the lexicographically smallest of them.
    * Swapping twins a < b is an automorphism, and phi o (a b) first differs
      from phi at position a, where it reads phi(b).  So the smallest map
      meets every twin bound: the bounds never drop a canonical witness.
    * The maps that meet the bounds are one per coset of the group the twin
      swaps generate.  When those swaps generate Aut(H) (K_h, edgeless
      patterns, P3 and stars), exactly one map per image survives and is
      kept as it is.  Otherwise (P4, C4, C5) the smallest map per image is
      kept.  The plan decides this once per pattern by searching H in H and
      stopping at the second map: only the identity survives exactly when
      twin swaps generate Aut(H), so K_20 costs 20 steps, not 20! maps.
    * The maps are then sorted by their sorted image.  When every pair is
      twin (K_h or edgeless), the search runs in label order and each map is
      increasing, so the maps already come out in that order.
    """
    plan = h._plan
    maps = occurrence_maps(g, h)
    if not plan.twin_generated:
        best: dict[tuple[int, ...], tuple[int, ...]] = {}
        for t in maps:
            key = tuple(sorted(t))
            if key not in best or t < best[key]:
                best[key] = t
        maps = [best[key] for key in sorted(best)]
    elif not plan.all_twins:
        maps.sort(key=sorted)
    return [Occurrence(t) for t in maps]


def occurrence_maps(g: Graph, h: Pattern) -> list[tuple[int, ...]]:
    """The maps of the occurrence search of h into g, in search order:
    every map that meets the twin bounds, so one or more per vertex set, and
    among those of one set its canonical witness, the smallest (see
    ``enumerate_occurrences``, which puts them in canonical order).  A caller
    that only needs one representative per class of sets reads these maps
    directly and builds no ``Occurrence`` per map."""
    return _maps(h._plan.steps, g._nbr, ((1 << g.n) - 1,) * h.h)


class _SearchPlan(NamedTuple):
    """How the occurrence search walks one pattern (``_search_plan``)."""

    steps: tuple  # (vertex, earlier neighbours, earlier non-neighbours, lower twin, later twins)
    twin_generated: bool  # twin swaps generate Aut(H)
    all_twins: bool  # every pair of pattern vertices is twin


def _search_plan(hg: Graph) -> _SearchPlan:
    """The search order, the constraints per step and the twin flags of a pattern.

    The order is most constrained first: each step takes the vertex with the
    most earlier neighbours, then the highest degree, then the lowest label.
    Twins agree on every third vertex and have equal degree, so they tie on
    all but the label until one of them is placed, and a twin class comes
    in ascending label order along it: the earlier twins of a vertex are
    smaller, and the last one placed has the largest image, which is the one
    lower bound a step needs.  The later twins of a step's vertex must map
    above it into the same candidate mask (a plan's steps share one domain),
    so a step stops when its mask has no room left for them.
    """
    n, nbr = hg.n, hg._nbr
    twin = [[a != b and nbr[a] & ~(1 << b) == nbr[b] & ~(1 << a) for b in range(n)]
            for a in range(n)]
    order: list[int] = []
    placed = 0
    while len(order) < n:
        v = max((v for v in range(n) if not placed >> v & 1),
                key=lambda v: ((nbr[v] & placed).bit_count(), nbr[v].bit_count(), -v))
        order.append(v)
        placed |= 1 << v
    steps = _steps(nbr, order, twin)
    return _SearchPlan(steps, len(_maps(steps, nbr, ((1 << n) - 1,) * n, 2)) == 1,
                       all(twin[a][b] for a, b in itertools.combinations(range(n), 2)))


def _steps(nbr: tuple[int, ...], order, twin) -> tuple:
    """One ``_SearchPlan`` step per vertex of ``order``, for the pattern with
    adjacency masks ``nbr`` and twin table ``twin``."""
    steps = []
    for i, v in enumerate(order):
        earlier = order[:i]
        lower = [u for u in earlier if twin[u][v]]
        steps.append((v, tuple(u for u in earlier if nbr[v] >> u & 1),
                      tuple(u for u in earlier if not nbr[v] >> u & 1),
                      lower[-1] if lower else -1,
                      sum(twin[v][u] for u in order[i + 1:])))
    return tuple(steps)


def _maps(steps: tuple, nbr: tuple[int, ...], domains, limit=math.inf) -> list[tuple[int, ...]]:
    """The first ``limit`` maps, in search order, of the pattern into the
    host with adjacency masks ``nbr`` that send step i's vertex into the mask
    ``domains[i]`` and meet the plan's twin bounds.  A pattern with no
    vertices has the one empty map.

    The search stops after the last-step mask that reaches ``limit``, and
    the surplus is cut here: a limit test per emitted map made enumeration
    on long proper-arc hosts about a tenth slower (CPython 3.11).
    """
    if not steps:
        return [()]
    out: list[tuple[int, ...]] = []
    _grow(steps, nbr, domains, [0] * len(steps), -1, 0, out, limit)
    return out[:limit] if len(out) > limit else out


def _grow(steps: tuple, nbr: tuple[int, ...], domains, phi: list[int], free: int, i: int,
          out: list, limit: float) -> None:
    """Extend the map ``phi`` of the first ``i`` steps, whose images are
    the vertices missing from ``free``, through every candidate of step i.
    Module level, so a call leaves no reference cycle."""
    v, adj, non, lower, later = steps[i]
    cand = domains[i] & free
    for u in adj:
        cand &= nbr[phi[u]]
    for u in non:
        cand &= ~nbr[phi[u]]
    if lower >= 0:
        cand &= -2 << phi[lower]
    if i + 1 == len(steps):
        while cand:
            low = cand & -cand
            cand ^= low
            phi[v] = low.bit_length() - 1
            out.append(tuple(phi))
        return
    while cand.bit_count() > later:
        low = cand & -cand
        cand ^= low
        phi[v] = low.bit_length() - 1
        _grow(steps, nbr, domains, phi, free ^ low, i + 1, out, limit)
        if len(out) >= limit:
            return


# ---------------------------------------------------------------------------
# exact brute-force searches, called by the solvers

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
            for w in _bits(g._nbr[v]):
                m |= through[w]
            near[v] = m
    conflict = []
    for i, o in enumerate(occs):
        ci = 0
        for v in o.vertices:
            ci |= near[v]
        conflict.append(ci & ~(1 << i))
    return vmask, conflict


class OutOfBudget(Exception):
    """A budgeted packing search reached its node budget before it finished."""


def packing(g: Graph, occs: list[Occurrence], goal: int | None, require_touch=(),
            budget: float = math.inf) -> list[Occurrence] | None:
    """The first packing of ``goal`` of ``occs`` (of the most of them when
    ``goal`` is None) whose union meets every vertex set in
    ``require_touch``, or None when there is none.

    A *packing* is an induced matching: pairwise disjoint occurrences with no
    edge of g between two.  ``occs`` are occurrences of one pattern in g, in
    canonical order, or a sub-list of them.  A touch set may be empty (it is
    then ignored) or name vertices outside g.  With ``goal`` None and no
    touch sets the answer is a list, maybe empty.

    Packings are visited as increasing index lists in lexicographic order.  A
    branch is cut once it cannot reach the floor, ``goal`` or one more than
    the best packing so far, or can no longer meet a touch set, so a cut
    branch holds no packing of the size sought, and the first packing of
    that size in this order is returned.  Open nodes live on a stack of
    their own, so no packing size meets Python's recursion limit.

    ``budget`` caps the nodes (chosen index lists) the search visits,
    counting the root.  A search that would visit one more raises
    ``OutOfBudget``: its answer is unknown, neither a packing nor a proof
    that there is none.  An unbudgeted search always finishes.
    """
    vmask, conflict = _occurrence_masks(g, occs)
    n = len(occs)
    # each touch set as the mask of the occurrences meeting it
    touch_masks = [sum(1 << v for v in set(s)) for s in require_touch]
    meets = [sum(1 << i for i in range(n) if vmask[i] & tm) for tm in touch_masks if tm]
    floor = goal or 0
    best: list[int] | None = None
    chosen: list[int] = []
    # per open node (the one at depth d chose chosen[:d]): the candidates it
    # has not tried, and the touch sets its choices do not meet yet
    stack: list[list] = []
    avail, unmet = (1 << n) - 1, meets
    while True:
        budget -= 1
        if budget < 0:
            raise OutOfBudget
        if not (len(chosen) + avail.bit_count() < floor
                or unmet and any(not avail & m for m in unmet)):
            if not unmet and len(chosen) >= floor:
                best = list(chosen)
                if goal is not None:
                    break
                floor = len(chosen) + 1
            stack.append([avail, unmet])
        # a node whose untried candidates cannot lift it to the floor is done
        while stack and (not stack[-1][0] or len(stack) - 1 + stack[-1][0].bit_count() < floor):
            stack.pop()
        if not stack:
            break
        top = stack[-1]
        del chosen[len(stack) - 1:]
        low = top[0] & -top[0]
        top[0] ^= low
        i = low.bit_length() - 1
        chosen.append(i)
        avail = top[0] & ~conflict[i]
        unmet = [m for m in top[1] if not m >> i & 1]
    return None if best is None else [occs[i] for i in best]


def find_igm(g: Graph, h: Pattern, k: int) -> Matching | None:
    """First induced matching of size k in canonical order, or None: the
    packing search over every occurrence of h in g."""
    expect_type(g, Graph)
    expect_type(h, Pattern)
    if type(k) is not int or k < 0:
        raise InputError("k must be a nonnegative integer")
    if k == 0:
        return Matching(())
    found = packing(g, enumerate_occurrences(g, h), k)
    return None if found is None else Matching(tuple(found))


def _greedy_clique_partition(g: Graph) -> list[int]:
    """Deterministic greedy partition of V(g) into cliques, as vertex masks."""
    nbr = g._nbr
    unassigned = (1 << g.n) - 1
    parts = []
    while unassigned:
        # the lowest unassigned vertex, then the lowest candidate each time
        clique = unassigned & -unassigned
        cand = nbr[clique.bit_length() - 1] & unassigned
        while cand:
            low = cand & -cand
            clique |= low
            cand &= nbr[low.bit_length() - 1]
        unassigned &= ~clique
        parts.append(clique)
    return parts


def _clique_tables(cliques, cmask, n: int) -> tuple:
    """The clique masks as given, each vertex's clique, and the vertices of cliques i.. (at i)."""
    clique_of = [0] * n
    for i, c in enumerate(cliques):
        for v in c:
            clique_of[v] = i
    suffix = [*itertools.accumulate(reversed(cmask), int.__or__, initial=0)][::-1]
    return cmask, clique_of, suffix


def _propagate(cliques, nbr, tables, idx: int, blocked: int, fresh: int | None) -> int | None:
    """A tight node's blocked set closed under the one-vertex-per-clique rule
    of ``brute_force_wis``, or None if some open clique runs out.

    ``fresh`` holds the vertices blocked since the last closed set on this
    branch; None means there is none, and every open clique is checked.
    """
    cmask, clique_of, suffix = tables
    live = suffix[idx]
    queue, queued = [], 0
    # the cliques of these vertices are checked first
    seen = live & ~blocked if fresh is None else live & fresh
    while True:
        while seen:
            low = seen & -seen
            d = clique_of[low.bit_length() - 1]
            seen &= ~cmask[d]
            if not queued >> d & 1:
                queued |= 1 << d
                queue.append(d)
        if not queue:
            return blocked
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


def brute_force_wis(g: Graph, weights, k_card: int,
                    k_weight) -> tuple[bool, tuple[int, ...] | None]:
    """Does g have an independent set with >= k_card vertices and >= k_weight weight?

    Exact branch and bound over a greedy clique partition: clique by clique,
    take one of its unblocked vertices (in clique order) or none.  Weights
    must be nonnegative ints or floats (so any partial independent set
    extends without loss), k_card an int and k_weight an int or a float;
    a bool is neither.  Returns (answer, witness or None).

    The bound is a forward check (Haralick and Elliott, 1980): at each node,
    the cliques still to come that keep a vertex outside the blocked set
    (the open cliques) can add at most one vertex each, and at most their
    heaviest free vertex in weight.  A node is cut when that cannot reach
    k_card or k_weight.  Blocked sets only grow along a branch, so a cut
    subtree holds no solution; the search visits the remaining nodes in the
    same order as a search with any weaker sound bound, and so returns the
    same first witness.  The weight bound is summed only below k_weight.

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
    Every tight node propagates, from the first on its branch (the root, on
    the kernel's selection questions: k_card is their clique count), unless
    it has just become tight with one open clique, where nothing can change;
    each step is one mask intersection per clique whose free vertices
    shrank.  A child of a closed node starts from the vertices its pick
    newly blocked and is not recounted: it is tight unless that emptied an
    open clique, which the propagation finds.  A closed node's skip child
    leaves an open clique unused, so the node's last pick is its last branch.

    The weight twin: a node is *weight-tight* when its weight plus its gain
    (the open cliques' heaviest free weights, summed) is k_weight, gain > 0.
    That slack never grows either, so a solution below takes from each open
    clique a vertex of exactly its heaviest free weight; the lighter ones are
    blocked and join a propagation's start, and the first witness stays.

    The picks are driven from an explicit stack, so the depth of the search
    is not bounded by Python's recursion limit.  Refuses graphs above
    ``WIS_CAP_DEFAULT``.
    """
    expect_type(g, Graph)
    if g.n > WIS_CAP_DEFAULT:
        raise SizeCapError("brute_force_wis", g.n, WIS_CAP_DEFAULT)
    weights = list(weights)
    if len(weights) != g.n:
        raise InputError("one weight per vertex required")
    if any(type(w) not in (int, float) or not w >= 0 for w in weights):
        raise InputError("weights must be ints or floats, nonnegative and not NaN")
    if type(k_card) is not int or k_weight != k_weight:
        raise InputError("k_card must be an int and k_weight not NaN")
    if type(k_weight) not in (int, float):
        raise InputError(f"k_weight must be an int or a float, got {k_weight!r}")
    if k_card <= 0 and k_weight <= 0:
        return True, ()
    cmask = _greedy_clique_partition(g)
    cliques = [_bits(c) for c in cmask]
    # with one weight throughout, the stable sort would keep clique order
    heaviest_first = cliques if len(set(weights)) < 2 else [
        sorted(c, key=lambda v: -weights[v]) for c in cliques]
    m = len(cliques)
    nbr = g._nbr
    tables = None  # built when propagation first runs
    # one entry per node on the branch whose picks are not all tried:
    # [clique index, blocked, size, weight, next position in the clique,
    # whether blocked is closed under propagation, picks above it in chosen]
    stack: list[list] = []
    chosen: list[int] = []
    # the node to evaluate, with fresh for _propagate and closed if its parent was closed
    idx, blocked, size, weight, fresh, closed = 0, 0, 0, 0, None, False
    while True:
        if size >= k_card and weight >= k_weight:
            return True, tuple(sorted(chosen))
        if not closed:
            slack, free = size - k_card, ~blocked
            for i in range(idx, m):
                if cmask[i] & free:
                    slack += 1
            if slack < 0:
                blocked = None
            closed = slack == 0
        if blocked is not None and weight < k_weight:
            gain = 0
            for i in range(idx, m):
                for v in heaviest_first[i]:
                    if not blocked >> v & 1:
                        gain += weights[v]
                        break
            if weight + gain < k_weight:
                blocked = None
            elif weight + gain == k_weight:
                lighter = 0
                for i in range(idx, m):
                    top = -1
                    for v in heaviest_first[i]:
                        if not blocked >> v & 1:
                            if top < 0:
                                top = weights[v]
                            elif weights[v] < top:
                                lighter |= 1 << v
                blocked |= lighter
                fresh = None if fresh is None else fresh | lighter
        if blocked is not None and closed and (fresh is not None or size + 1 < k_card):
            if tables is None:
                tables = _clique_tables(cliques, cmask, g.n)
            blocked = _propagate(cliques, nbr, tables, idx, blocked, fresh)
        if blocked is not None:
            top = [idx, blocked, size, weight, 0, closed, len(chosen)]
            stack.append(top)
            pos = 0
        elif stack:
            top = stack[-1]
            idx, blocked, size, weight, pos, closed, above = top
            del chosen[above:]
        else:
            return False, None
        clique = cliques[idx]
        end = len(clique)
        while pos < end and blocked >> clique[pos] & 1:
            pos += 1
        if pos < end:
            v = clique[pos]
            top[4] = pos + 1
            # a closed node's skip child is one vertex short: its last pick ends it
            if closed and not (cmask[idx] & ~blocked) >> v + 1:
                stack.pop()
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
        idx += 1


# ---------------------------------------------------------------------------
# twins and line graphs

def _twin_classes(nbr: tuple[int, ...]) -> list[list[int]]:
    """Partition into true-twin classes (equal closed neighborhoods), from
    the adjacency masks; classes and their members come in ascending order.

    Vertices in one class are pairwise adjacent, and any third vertex is
    adjacent to either all or none of a class.
    """
    by_nbhd: dict[int, list[int]] = {}
    for v, nb in enumerate(nbr):
        by_nbhd.setdefault(nb | 1 << v, []).append(v)
    return list(by_nbhd.values())


def line_graph(m: Multigraph) -> Graph:
    """Line graph of a multigraph: vertex i is edge i, adjacency = shared endpoint.

    Vertex i's mask is the edges at its two ends, less i itself.
    """
    expect_type(m, Multigraph)
    inc = [0] * m.n  # bit i of inc[a]: edge i ends at a
    for i, (a, b) in enumerate(m.edges):
        inc[a] |= 1 << i
        inc[b] |= 1 << i
    return Graph._from_masks([(inc[a] | inc[b]) & ~(1 << i) for i, (a, b) in enumerate(m.edges)])


def _cliques_through(nbr: tuple[int, ...], u: int, v: int, avoid: int):
    """Masks of the cliques through the edge uv that miss ``avoid``, largest
    first, ties by sorted tuple, built one at a time.

    For each size, from every common neighbour down to none, the common
    neighbours outside ``avoid`` are extended into cliques in combination
    order (``_lex_cliques``).  That is the tie order: two same-size cliques
    through u and v compare, as sorted tuples, by the least element of their
    symmetric difference, and adding {u, v} to both leaves that element
    unchanged, so their extra vertices compare the same way.
    """
    common = nbr[u] & nbr[v] & ~avoid
    ends = 1 << u | 1 << v
    for size in range(common.bit_count(), -1, -1):
        for extra in _lex_cliques(nbr, common, size):
            yield ends | extra


def _krausz_cover(g: Graph) -> list[frozenset] | None:
    """A set of cliques covering every edge with each vertex in <= 2 cliques.

    Such a cover exists iff g is the line graph of a multigraph without
    self-loops; it directly encodes a pre-image.

    Components are searched one at a time, in ``Graph.components`` order,
    and their covers concatenated, so a component without a cover ends the
    search with no backtracking through the choices made in earlier ones.
    Within one, the search takes the first uncovered edge in ``g.edges``
    order and tries the cliques through it with no vertex already in two
    chosen cliques, largest first, ties by sorted tuple
    (``_cliques_through``), backtracking when an edge has no such clique
    left.  Each step builds only the clique it takes next, resumes the edge
    scan at the vertex where the last step stopped (its lowest uncovered
    higher neighbour is the next edge), and keeps the covered pairs as one
    mask per vertex and the vertices in one and in two chosen cliques as two
    masks.  The picks are driven from an explicit stack, so the depth is not
    bounded by Python's recursion limit.
    """
    nbr = g._nbr
    covered = [0] * g.n  # bit b of covered[a]: the pair ab lies in a chosen clique
    cover = []
    for vs in g.components():
        once = full = 0  # vertices in at least one, and in two, chosen cliques
        # one entry per chosen clique: the lower end's position in vs, the stream
        # it came from, the clique, and what it changed, to undo it on backtracking
        stack: list[tuple] = []
        i, stream = 0, None
        while True:
            if stream is None:
                while i < len(vs) and not (nbr[vs[i]] & ~covered[vs[i]]) >> vs[i]:
                    i += 1
                if i == len(vs):
                    break
                u = vs[i]
                up = (nbr[u] & ~covered[u]) >> u
                v = u + (up & -up).bit_length() - 1
                stream = iter(()) if (full >> u | full >> v) & 1 else _cliques_through(nbr, u, v, full)
            clique = next(stream, None)
            if clique is None:
                if not stack:
                    return None
                i, stream, _, members, before, once, full = stack.pop()
                for w, was in zip(members, before):
                    covered[w] = was
                continue
            members = _bits(clique)
            stack.append((i, stream, clique, members, [covered[w] for w in members], once, full))
            for w in members:
                covered[w] |= clique
            full |= once & clique
            once |= clique
            stream = None
        cover += [frozenset(_bits(entry[2])) for entry in stack]
    return cover


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
    """Recognize any nonempty g as the line graph of a multigraph without self-loops.

    Returns a pre-image M with ``M.edges[i]`` corresponding to g-vertex i,
    or None when g is not such a line graph.  The pipeline contracts true
    twin classes first, searches for a clique cover with every vertex in at
    most two cliques on the reduced graph, one component at a time
    (``_krausz_cover``), then re-expands the contracted classes by
    duplicating their edges.

    The claw test and the twin classes (closed neighbourhood masks as keys)
    read the host's stored adjacency masks.  The claw test picks legs depth
    first over ``nbr[v] & ~nbr[leg]``, lowest bit first, and returns the
    witness ``find_star`` returns.  On the benchmark's ``clawfree`` and
    ``kernel`` hosts the cover search never backtracks: every step takes
    the first clique it builds.  The final L(M) = g check compares
    ``line_graph(M)`` with g.

    A failed search on the reduced graph rejects g with no second search:
    ``_krausz_cover`` backtracks over every clique of the component it
    fails on, so the reduced graph is no such line graph, and neither is g,
    since an induced subgraph of a line graph of a multigraph is again one
    and the reduced graph is an induced subgraph of g.

    Of a triangle's pre-images, a host that is one triangle gets K3, and a
    triangle component of a larger host, one twin class, three parallel edges.
    """
    if g.n == 0:
        raise InputError("recognition requires a nonempty graph")
    nbr = g._nbr
    if _star(nbr, 3) is not None:
        return None
    if g.n == 3 and len(g.edges) == 3:
        m = Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    else:
        classes = _twin_classes(nbr)
        reps = [c[0] for c in classes]
        class_of = [0] * g.n
        for ci, c in enumerate(classes):
            for v in c:
                class_of[v] = ci
        reduced = g.induced(reps)
        cover = _krausz_cover(reduced)
        if cover is None:
            return None
        m_red = _preimage_from_cover(reduced, cover)
        # expand: g-vertex v gets a parallel copy of its class representative's edge
        m = Multigraph(m_red.n, [m_red.edges[class_of[v]] for v in range(g.n)])
    if line_graph(m) != g:
        raise InternalError("pre-image construction does not reproduce the host")
    return m
