"""Self-contained exhaustive oracles the solver implementations are tested against.

Everything here is written from first principles on top of the Graph vertex
and adjacency accessors only, deliberately not reusing the package's own
search helpers, so that agreement between a solver and its oracle is
meaningful.  All routines are exponential and sized for test instances.

The one exception is ``wis_reference``: it pins witnesses, not just answers,
so it must branch over the package's own clique partition.
"""

import itertools

from igmatch.graphs import greedy_clique_partition


def independent_sets(g):
    for r in range(g.n + 1):
        for sub in itertools.combinations(range(g.n), r):
            if all(not g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                yield sub


def mis_exhaustive(g) -> int:
    best = 0
    for s in independent_sets(g):
        best = max(best, len(s))
    return best


def occurrences_exhaustive(g, hg) -> list[tuple[int, ...]]:
    """Every injective induced embedding tuple of the pattern graph hg."""
    out = []
    for perm in itertools.permutations(range(g.n), hg.n):
        ok = True
        for i in range(hg.n):
            for j in range(i + 1, hg.n):
                if hg.has_edge(i, j) != g.has_edge(perm[i], perm[j]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(perm)
    return out


def _occ_sets_compatible(g, occ_sets) -> bool:
    for a, b in itertools.combinations(occ_sets, 2):
        if a & b:
            return False
        for u in a:
            for v in b:
                if g.has_edge(u, v):
                    return False
    return True


def igm_exhaustive(g, hg, k: int) -> bool:
    """Does g contain k disjoint, mutually non-adjacent induced copies of hg?"""
    if k == 0:
        return True
    occ_sets = sorted({frozenset(o) for o in occurrences_exhaustive(g, hg)},
                      key=sorted)
    for combo in itertools.combinations(occ_sets, k):
        if _occ_sets_compatible(g, combo):
            return True
    return False


def max_igm_exhaustive(g, hg, require_touch=()) -> int | None:
    """Largest induced matching whose union meets every required vertex set.

    Returns None when no matching (not even the empty one, if touch sets are
    present) satisfies the constraints.
    """
    occ_sets = sorted({frozenset(o) for o in occurrences_exhaustive(g, hg)},
                      key=sorted)
    best = None
    for r in range(len(occ_sets) + 1):
        for combo in itertools.combinations(occ_sets, r):
            if not _occ_sets_compatible(g, combo):
                continue
            union = set().union(*combo) if combo else set()
            if all(union & set(t) for t in require_touch):
                if best is None or r > best:
                    best = r
    return best


def wis_exhaustive(g, weights, k_card: int, k_weight) -> bool:
    for s in independent_sets(g):
        if len(s) >= k_card and sum(weights[v] for v in s) >= k_weight:
            return True
    return False


def wis_reference(g, weights, k_card: int, k_weight):
    """``brute_force_wis`` with its static bounds: (answer, witness or None).

    The same branching over ``greedy_clique_partition(g)``, cut only when
    one vertex from every remaining clique, or the heaviest vertex of every
    remaining clique, could not reach the target.  Any sound bound on this
    search order returns the same first witness, so the solver must match
    this search exactly.
    """
    weights = list(weights)
    if k_card <= 0 and k_weight <= 0:
        return True, ()
    cliques = greedy_clique_partition(g)
    nbr = [0] * g.n
    for v in range(g.n):
        for w in g.neighbors(v):
            nbr[v] |= 1 << w
    maxw = [max(weights[v] for v in c) for c in cliques]
    suffixw = [0] * (len(cliques) + 1)
    for i in range(len(cliques) - 1, -1, -1):
        suffixw[i] = suffixw[i + 1] + maxw[i]
    found = None

    def rec(idx, blocked, chosen, size, weight):
        nonlocal found
        if size >= k_card and weight >= k_weight:
            found = list(chosen)
            return True
        if idx == len(cliques):
            return False
        if size + (len(cliques) - idx) < k_card:
            return False
        if weight + suffixw[idx] < k_weight:
            return False
        for v in cliques[idx]:
            if blocked >> v & 1:
                continue
            chosen.append(v)
            if rec(idx + 1, blocked | nbr[v] | (1 << v), chosen, size + 1,
                   weight + weights[v]):
                return True
            chosen.pop()
        return rec(idx + 1, blocked, chosen, size, weight)

    ok = rec(0, 0, [], 0, 0)
    return ok, (tuple(sorted(found)) if ok and found is not None else None)


def is_line_graph_exhaustive(g) -> bool:
    """Is connected g the line graph of some loopless multigraph?

    Enumerates every multiset of m = |V(g)| vertex pairs over at most m+1
    pre-image vertices and tests line-graph isomorphism directly.  Feasible
    only for very small g.
    """
    from igmatch.graphs import Multigraph, is_isomorphic, line_graph

    m = g.n
    if m == 0:
        return False
    nv = m + 1
    pairs = list(itertools.combinations(range(nv), 2))
    for combo in itertools.combinations_with_replacement(pairs, m):
        cand = line_graph(Multigraph(nv, combo))
        if is_isomorphic(cand, g):
            return True
    return False
