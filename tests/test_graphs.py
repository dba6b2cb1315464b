import contextlib
import itertools
import os
import random
import sys

import pytest

from igmatch import graphs
from igmatch.errors import InputError, InternalError, SizeCapError
from igmatch.graphs import (
    Graph,
    Matching,
    Multigraph,
    Occurrence,
    OutOfBudget,
    Pattern,
    _greedy_clique_partition,
    _occurrence_masks,
    _twin_classes,
    brute_force_mis,
    brute_force_wis,
    compatible,
    complete_graph,
    cycle_graph,
    disjoint_union,
    enumerate_occurrences,
    find_igm,
    find_occurrence,
    find_star,
    line_graph,
    packing,
    path_graph,
    recognize_line_graph,
    star_free,
    star_graph,
)
from oracles import (
    all_cliques_containing_edge_reference,
    all_pairs_occurrence_masks,
    find_igm_reference,
    find_occurrence_reference,
    find_star_reference,
    igm_exhaustive,
    is_isomorphic,
    is_line_graph_exhaustive,
    krausz_cover_reference,
    max_igm_exhaustive,
    max_igm_reference,
    mis_exhaustive,
    mis_reference,
    occurrences_exhaustive,
    preimage_reproduces_reference,
    recognize_line_graph_reference,
    subset_scan_occurrences,
    twin_classes_reference,
    wis_exhaustive,
)
from randgen import random_connected_graph, random_connected_multigraph, random_graph, random_line_graph


def test_graph_construction_and_rejection():
    g = Graph(4, [(0, 1), (2, 1), (2, 3)])
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    assert g.neighbors(1) == {0, 2}
    assert g.degree(2) == 2
    with pytest.raises(InputError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        Graph(3, [(1, 1)])
    with pytest.raises(InputError):
        Graph(2, [(0, 2)])


def test_graph_rejects_the_first_faulty_edge_in_input_order():
    # the whole list is checked at once; the message still names the first
    # edge at fault, walking the input in order
    cases = [
        (3, [(0, 1), (1, 1), (0, 5), (1, 0)], "self-loop at vertex 1 not allowed"),
        (3, [(0, 1), (1, 0), (2, 2), (0, 7)], "duplicate edge (0, 1)"),
        (3, [(2, 0), (0, 2), (1, 1)], "duplicate edge (0, 2)"),
        (3, [(0, 1), (0, 7), (1, 1), (1, 0)], "edge (0, 7) out of range for n=3"),
        (3, [[1, 2], [-1, 0], [2, 1]], "edge [-1, 0] out of range for n=3"),
        (3, [(2, 2), (5, 5)], "self-loop at vertex 2 not allowed"),
        (0, [(0, 0)], "edge (0, 0) out of range for n=0"),
        (-1, [], "vertex count must be a nonnegative integer, got -1"),
        (4, (e for e in [(3, 2), (0, 1), (2, 3)]), "duplicate edge (2, 3)"),
        (4, (e for e in [(3, 2), (4, 0), (3, 3)]), "edge (4, 0) out of range for n=4"),
        (3, [(0, 1, 2)], "edge (0, 1, 2) is not a pair of integer vertices"),
        (3, [("a", 1)], "edge ('a', 1) is not a pair of integer vertices"),
        (3, [(0, 1), (0.5, 1), (0, 1)], "edge (0.5, 1) is not a pair of integer vertices"),
    ]
    for n, edges, message in cases:
        with pytest.raises(InputError) as err:
            Graph(n, edges)
        assert str(err.value) == message
    # Multigraph runs the same per-edge check; a repeat is a parallel edge
    cases = [
        ([(0.5, 1)], "edge (0.5, 1) is not a pair of integer vertices"),
        ([(0, 1), (1, 0), (2, 2)], "self-loop at vertex 2 not allowed"),
        ([(1, 0), (0, 3)], "edge (0, 3) out of range for n=3"),
    ]
    for edges, message in cases:
        with pytest.raises(InputError) as err:
            Multigraph(3, edges)
        assert str(err.value) == message
    assert Multigraph(3, [(1, 0), (0, 1)]).edges == ((0, 1), (0, 1))
    assert Graph(0).edges == () and Graph(0).n == 0
    g = Graph(4, (e for e in [(3, 2), (1, 0)]))
    assert g.edges == ((0, 1), (2, 3)) and g.neighbors(3) == {2}


def test_graph_refuses_bools():
    # a bool is an int to isinstance, and True would be stored as a vertex
    with pytest.raises(InputError, match="vertex count must be a nonnegative integer, got True"):
        Graph(True)
    with pytest.raises(InputError, match=r"edge \(True, 2\) is not a pair of integer vertices"):
        Graph(3, [(True, 2)])


def test_multigraph_refuses_bools():
    with pytest.raises(InputError, match="vertex count must be a nonnegative integer, got True"):
        Multigraph(True)
    with pytest.raises(InputError, match=r"edge \(0, False\) is not a pair of integer vertices"):
        Multigraph(3, [(0, 1), (0, False)])


def test_graphs_refuse_a_non_integer_vertex_count():
    for make in (Graph, Multigraph):
        for n in (2.5, "3", None):
            with pytest.raises(InputError) as err:
                make(n, [(0, 1)])
            assert str(err.value) == f"vertex count must be a nonnegative integer, got {n!r}"


def test_components_and_induced():
    g = disjoint_union(path_graph(3), complete_graph(2))
    assert g.components() == [[0, 1, 2], [3, 4]]
    assert not g.is_connected()
    sub = g.induced([2, 1, 0])
    assert sub.edges == ((0, 1), (1, 2))
    h, kept = g.without({1})
    assert kept == [0, 2, 3, 4]
    assert h.edges == ((2, 3),)


def test_accessors_agree_with_the_edge_tuple():
    """Every accessor equals a recompute from ``edges`` alone, on random
    graphs given their edges in shuffled order and orientation."""
    rng = random.Random(4101)
    for _ in range(200):
        n = rng.randint(0, 12)
        p = rng.random()
        pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        given = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        rng.shuffle(given)
        g = Graph(n, given)
        assert g.edges == tuple(pairs)
        edge_set = set(g.edges)
        adj = {v: {w for e in g.edges if v in e for w in e if w != v} for v in range(n)}
        for v in range(n):
            assert type(g.neighbors(v)) is frozenset and g.neighbors(v) == adj[v]
            assert type(g.closed_neighborhood(v)) is frozenset
            assert g.closed_neighborhood(v) == adj[v] | {v}
            assert g.degree(v) == len(adj[v])
        for u in range(n):
            for v in range(n):
                assert g.has_edge(u, v) is ((min(u, v), max(u, v)) in edge_set)
        subset = [v for v in range(n) if rng.random() < 0.5]
        got = g.closed_neighborhood_of_set(subset)
        assert type(got) is set and got == set(subset).union(*(adj[v] for v in subset))
        # components: connected sets, each sorted, ordered by least vertex
        comp_of = list(range(n))
        for u, v in g.edges:
            old, new = comp_of[v], comp_of[u]
            comp_of = [new if c == old else c for c in comp_of]
        comps = {}
        for v in range(n):
            comps.setdefault(comp_of[v], []).append(v)
        assert g.components() == sorted(comps.values())
        assert g.is_connected() == (len(comps) == 1)
        vs = [v for v in range(n) if rng.random() < 0.7]
        rng.shuffle(vs)
        pos = {v: i for i, v in enumerate(vs)}
        sub = g.induced(vs)
        assert sub.n == len(vs)
        assert sub.edges == tuple(sorted((min(pos[u], pos[v]), max(pos[u], pos[v]))
                                         for u, v in g.edges if u in pos and v in pos))
        removed = set(range(n)) - set(vs)
        rest, kept = g.without(removed)
        assert kept == sorted(vs) and rest == g.induced(kept)


def test_star_free():
    assert not star_free(star_graph(3), 3)
    assert star_free(star_graph(3), 4)
    assert not star_free(star_graph(4), 4)
    assert star_free(path_graph(6), 3)
    assert star_free(complete_graph(5), 2)
    assert find_star(star_graph(3), 3) == (0, 1, 2, 3)
    assert find_star(path_graph(3), 2) == (1, 0, 2)
    assert find_star(path_graph(6), 3) is None
    # claw-freeness of every line graph
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 5)
        mg = random_connected_multigraph(rng, n, rng.randint(n - 1, 8))
        assert star_free(line_graph(mg), 3)


def test_mis_matches_exhaustive_search():
    rng = random.Random(101)
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 11), rng.random())
        alpha, witness = brute_force_mis(g)
        assert alpha == mis_exhaustive(g)
        assert len(witness) == alpha
        assert all(not g.has_edge(u, v) for u in witness for v in witness if u < v)


def test_mis_cap(monkeypatch):
    monkeypatch.setattr(graphs, "MIS_CAP_DEFAULT", 30)
    with pytest.raises(SizeCapError):
        brute_force_mis(Graph(31))


def test_mis_matches_the_bitmask_reference():
    # the ladder of WIS questions against the earlier bitmask search: seeded
    # random graphs up to the 30-vertex cap, and the benchmark's claw-free
    # line graphs of cyclic, path and tree pre-images within the cap
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    if bench not in sys.path:
        sys.path.append(bench)
    import gen

    rng = random.Random(1207)
    hosts = [random_graph(rng, n, rng.random()) for n in range(12, 31) for _ in range(2)]
    for seed in range(8):
        r = random.Random(seed)
        hosts += [line_graph(gen.cyclic_preimage(r, 11, 2)),
                  line_graph(gen.path_preimage(r, r.randint(20, 30))),
                  line_graph(gen.tree_preimage(r, r.randint(20, 30)))]
    assert max(g.n for g in hosts) == 30
    for g in hosts:
        alpha, witness = brute_force_mis(g)
        assert alpha == mis_reference(g)[0] == len(witness)
        assert list(witness) == sorted(witness)
        assert all(not g.has_edge(u, v) for u in witness for v in witness if u < v)


def test_find_occurrence_agrees_with_exhaustive():
    # the first witness is the set-based search's, which the mask search with
    # its twin bounds replaced: every labelled pattern up to 4 vertices, P4,
    # C4, C5 and the bundles 2P3 and 3K2, each over the whole host and over a
    # random vertex subset; existence is also checked exhaustively on small cases
    k2 = complete_graph(2)
    graphs_up_to_4 = [
        Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
        for n in range(1, 5)
        for pairs in [list(itertools.combinations(range(n), 2))]
        for bits in range(1 << len(pairs))
    ]
    patterns = [Pattern.of(hg) for hg in graphs_up_to_4 + [
        path_graph(4), cycle_graph(4), cycle_graph(5),
        disjoint_union(path_graph(3), path_graph(3)),
        disjoint_union(k2, disjoint_union(k2, k2))]]
    rng = random.Random(5)
    found = 0
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        within = [v for v in range(g.n) if rng.random() < 0.7]
        for h in patterns:
            for w in (None, within):
                occ = find_occurrence(g, h, within=w)
                assert occ == find_occurrence_reference(g, h, within=w), (g.edges, h.graph.edges, w)
                if occ is not None:
                    occ.check(g, h)
                    assert w is None or set(occ.vertices) <= set(w)
                    found += 1
            if g.n <= 8 and h.h <= 3:
                exists = bool(occurrences_exhaustive(g, h.graph))
                assert (find_occurrence(g, h) is not None) == exists
    assert found > 500


def test_find_occurrence_within(p3):
    g = path_graph(6)
    occ = find_occurrence(g, p3, within={0, 1, 2})
    assert occ is not None and set(occ.vertices) == {0, 1, 2}
    assert find_occurrence(g, p3, within={0, 1, 3}) is None


def test_enumerate_occurrences_vertex_sets(p3):
    g = path_graph(5)
    occs = enumerate_occurrences(g, p3)
    assert sorted(sorted(o.vertices) for o in occs) == [[0, 1, 2], [1, 2, 3], [2, 3, 4]]
    for o in occs:
        o.check(g, p3)
    # one canonical witness per vertex set
    assert len({frozenset(o.vertices) for o in occs}) == len(occs)


def test_enumerate_occurrences_and_masks_match_the_subset_scan():
    # one search serves every pattern; the order, the maps and the conflict
    # masks must be the subset scan's (an isolated pattern vertex only
    # conflicts through itself).  The patterns cover a search order that is
    # not label order (P3 centred at 2, a star centred at 3), automorphisms
    # beyond twin swaps (P4, C4, C5, the bull, 2K2), patterns whose pairs are
    # all twins (K_h, the edgeless graph on 3 vertices) and disconnected ones
    patterns = [
        complete_graph(1), complete_graph(2), path_graph(3), complete_graph(3),
        path_graph(4), cycle_graph(4), star_graph(3), complete_graph(4),
        Graph(4, [(0, 1), (2, 3)]),
        Graph(3, [(1, 2)]),
        Graph(3, [(0, 2), (1, 2)]),
        Graph(4, [(0, 3), (1, 3), (2, 3)]),
        cycle_graph(5),
        Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]),
        Graph(3),
        Graph(4, [(1, 2), (2, 3)]),
    ]
    rng = random.Random(606)
    found = 0
    for n in range(15):
        for _ in range(4):
            g = random_graph(rng, n, rng.random())
            for hg in patterns:
                h = Pattern.of(hg)
                occs = enumerate_occurrences(g, h)
                assert [o.vertices for o in occs] == subset_scan_occurrences(g, hg), (
                    g.edges, hg.edges)
                assert _occurrence_masks(g, occs) == all_pairs_occurrence_masks(g, occs)
                found += len(occs)
    assert found > 1000


def test_the_search_reaches_one_map_per_twin_orbit():
    # the twin bounds keep one map per coset of the group that twin swaps
    # generate: one per occurrence when they generate Aut(H) (K2, K3, P3,
    # K_{1,3}), |Aut(H)| / |twin group| per occurrence otherwise (2 for P4,
    # whose twin group is trivial, and 8 / 4 for C4), so a lost bound adds maps
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    if bench not in sys.path:
        sys.path.append(bench)
    import gen

    from igmatch.models import realize

    hosts = [complete_graph(8),
             realize(gen.long_proper_arc_model(random.Random(301), 20)),
             random_graph(random.Random(29), 14, 0.4)]
    reached = []
    for g in hosts:
        nbr = g._nbr
        for hg in (complete_graph(2), complete_graph(3), path_graph(3), star_graph(3),
                   path_graph(4), cycle_graph(4)):
            h = Pattern.of(hg)
            maps = len(graphs._maps(h._plan.steps, nbr, ((1 << g.n) - 1,) * h.h))
            occs = len(enumerate_occurrences(g, h))
            assert maps == occs * (1 if h._plan.twin_generated else 2), (g, hg.edges)
            reached.append(maps)
    assert reached == [28, 56, 0, 0, 0, 0,
                       94, 176, 264, 0, 1812, 0,
                       37, 21, 118, 81, 362, 84]


def test_occurrence_check_rejects_non_induced(k2):
    g = complete_graph(3)
    with pytest.raises(InputError):
        Occurrence((0, 0)).check(g, k2)
    p2_free = Pattern.of(Graph(2))
    with pytest.raises(InputError):
        Occurrence((0, 1)).check(g, p2_free)
    # a vertex outside 0..n-1, or a bool, is refused before any adjacency test
    p3 = path_graph(3)
    with pytest.raises(InputError, match="not an integer in"):
        Matching((Occurrence((-1, 1)),)).check(p3, k2)
    with pytest.raises(InputError, match="not an integer in"):
        Occurrence((True, 2)).check(p3, k2)
    with pytest.raises(InputError, match="not an integer in"):
        Occurrence((5, 0)).check(p3, k2)


def test_compatible_and_matching_check(k2):
    g = path_graph(6)
    a, b, c = Occurrence((0, 1)), Occurrence((2, 3)), Occurrence((4, 5))
    assert not compatible(a, b, g)  # edge 1-2 joins them
    assert compatible(a, c, g)
    Matching((a, c)).check(g, k2)
    with pytest.raises(InputError):
        Matching((a, b)).check(g, k2)


def test_igm_decision_matches_exhaustive(k2, p3, k3):
    rng = random.Random(31)
    for _ in range(30):
        g = random_graph(rng, rng.randint(0, 8), rng.uniform(0.1, 0.7))
        for h in (k2, p3, k3):
            for k in (1, 2, 3):
                got = find_igm(g, h, k)
                want = igm_exhaustive(g, h.graph, k)
                assert (got is not None) == want
                if got is not None:
                    got.check(g, h)
                    assert got.size() == k


def test_igm_trivial_k0(k3):
    assert find_igm(Graph(0), k3, 0).size() == 0


def test_packing_refutation_is_exact_within_its_budget(k2, p3, k3):
    """A budgeted ``packing`` answers None only when the search finishes
    without a packing, and raises ``OutOfBudget`` when it cannot finish.  On
    the 12-cycle, whose largest induced matching has four edges, refuting
    five visits 37 nodes, root included: a budget of 36 leaves the answer
    unknown.  A finished search answers as ``find_igm`` does."""
    g = cycle_graph(12)
    occs = enumerate_occurrences(g, k2)
    assert packing(g, occs, 5, budget=37) is None
    for k, budget in ((5, 36), (4, 0)):
        with pytest.raises(OutOfBudget):
            packing(g, occs, k, budget=budget)
    assert packing(g, occs, 4, budget=10 ** 6) is not None
    rng = random.Random(1206)
    for _ in range(30):
        g = random_graph(rng, rng.randint(0, 8), rng.uniform(0.1, 0.7))
        for h in (k2, p3, k3):
            occs = enumerate_occurrences(g, h)
            for k in (1, 2, 3):
                found = packing(g, occs, k, budget=10 ** 6)
                assert (found is None) == (not igm_exhaustive(g, h.graph, k))
                m = find_igm(g, h, k)
                assert found == (None if m is None else list(m.occurrences))


@contextlib.contextmanager
def recursion_headroom(frames: int):
    """Lower the recursion limit to ``frames`` frames above the current depth."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def test_packings_deeper_than_the_recursion_limit(k2):
    """The packing search keeps one stack entry per chosen occurrence, not a
    frame, so a packing of 1,100 or 1,200 disjoint edges needs none."""
    g = Graph(2400, [(2 * i, 2 * i + 1) for i in range(1200)])
    occs = enumerate_occurrences(g, k2)
    with recursion_headroom(60):
        got = find_igm(g, k2, 1100)
        best = packing(g, occs, None)
    assert got.occurrences == tuple(occs[:1100])
    assert best == occs


def test_max_igm_with_touch_constraints(k2, p3):
    rng = random.Random(77)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 7), rng.uniform(0.2, 0.6))
        h = k2 if rng.random() < 0.5 else p3
        touch = []
        for _ in range(rng.randint(0, 2)):
            size = rng.randint(1, 3)
            touch.append(frozenset(rng.sample(range(g.n), min(size, g.n))))
        got = packing(g, enumerate_occurrences(g, h), None, touch)
        want = max_igm_exhaustive(g, h.graph, require_touch=touch)
        if want is None:
            assert got is None
        else:
            assert got is not None and len(got) == want
            union = set()
            for o in got:
                union |= set(o.vertices)
                o.check(g, h)
            assert all(union & set(t) for t in touch)


def test_packing_searches_return_the_reference_witnesses(k1, k2, p3, k3):
    """``find_igm`` and the largest-packing search are one search,
    ``packing``; each still returns the witness of its own earlier search,
    and the largest packing is the first success of a descending
    ``find_igm`` ladder.  Touch sets may be empty or name vertices outside
    the host; half the largest-packing cases pass a sub-list of the
    occurrences, as the kernel's stripe tables do."""
    rng = random.Random(1207)
    for _ in range(3000):
        g = random_graph(rng, rng.randint(0, 12), rng.uniform(0.1, 0.6))
        h = rng.choice((k1, k2, p3, k3))
        k = rng.randint(0, 4)
        touch = [frozenset(rng.sample(range(g.n + 2), rng.randint(0, min(3, g.n + 2))))
                 for _ in range(rng.randint(0, 3))]
        assert find_igm(g, h, k) == find_igm_reference(g, h, k)
        occs = enumerate_occurrences(g, h)
        if rng.random() < 0.5:
            occs = [o for o in occs if rng.random() < 0.7]
        assert (packing(g, occs, None, touch)
                == max_igm_reference(g, h, require_touch=touch, occurrences=occs))
        ladder = (find_igm_reference(g, h, kk, occurrences=occs)
                  for kk in range(g.n // h.h, 0, -1))
        first = next((m for m in ladder if m is not None), Matching(()))
        assert packing(g, occs, None) == list(first.occurrences)


def test_wis_matches_exhaustive():
    rng = random.Random(13)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.2, 0.8))
        weights = [rng.randint(0, 5) for _ in range(g.n)]
        k_card = rng.randint(0, 4)
        k_weight = rng.randint(0, 12)
        want = wis_exhaustive(g, weights, k_card, k_weight)
        got, witness = brute_force_wis(g, weights, k_card, k_weight)
        assert got == want
        if got and witness:
            assert all(not g.has_edge(u, v) for u in witness for v in witness if u < v)
            assert len(witness) >= k_card
            assert sum(weights[v] for v in witness) >= k_weight


def test_wis_search_depth_is_not_bounded_by_the_recursion_limit():
    # one search level per clique: 1,200 singleton cliques, inside the cap
    assert sys.getrecursionlimit() < 1200 <= graphs.WIS_CAP_DEFAULT
    assert brute_force_wis(Graph(1200, []), [1] * 1200, 1200, 0) == (True, tuple(range(1200)))
    assert brute_force_wis(path_graph(1200), [1] * 1200, 600, 0) == (True, tuple(range(0, 1200, 2)))


def test_greedy_clique_partition_is_partition():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        parts = _greedy_clique_partition(g)
        seen = [v for c in parts for v in c]
        assert sorted(seen) == list(range(g.n))
        for c in parts:
            assert all(g.has_edge(u, v) for u in c for v in c if u < v)


def test_twin_classes():
    # K4 collapses to one class, a path has no nontrivial twins
    assert _twin_classes(complete_graph(4)._nbr) == [[0, 1, 2, 3]]
    assert _twin_classes(path_graph(4)._nbr) == [[0], [1], [2], [3]]
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])  # 0,1 are true twins
    assert [c for c in _twin_classes(g._nbr) if len(c) > 1] == [[0, 1]]


def test_line_graph_known_shapes():
    assert is_isomorphic(line_graph(Multigraph(4, [(0, 1), (1, 2), (2, 3)])),
                         path_graph(3))
    assert is_isomorphic(line_graph(Multigraph(4, [(0, 1), (0, 2), (0, 3)])),
                         complete_graph(3))
    assert is_isomorphic(line_graph(Multigraph(2, [(0, 1)] * 4)),
                         complete_graph(4))
    c5 = Multigraph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert is_isomorphic(line_graph(c5), cycle_graph(5))


def test_recognize_line_graph_roundtrip():
    # recognize_line_graph internally asserts edge-i <-> vertex-i consistency,
    # so a non-None result is already a verified pre-image
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(2, 6)
        mg = random_connected_multigraph(rng, n, rng.randint(max(2, n - 1), 10))
        g = line_graph(mg)
        assert recognize_line_graph(g) is not None


def test_recognize_line_graph_agrees_with_exhaustive():
    rng = random.Random(55)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(1, 5), rng.random())
        got = recognize_line_graph(g) is not None
        assert got == is_line_graph_exhaustive(g)


def test_recognize_line_graph_rejects_claw_and_wheel():
    assert recognize_line_graph(star_graph(3)) is None
    # 5-wheel: claw-free but not a line graph of any multigraph
    w5 = Graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(5, i) for i in range(5)])
    assert star_free(w5, 3)
    assert recognize_line_graph(w5) is None


def test_recognize_line_graph_searches_for_a_cover_once(monkeypatch):
    # a failed cover search on the twin-reduced graph rejects the host; a
    # fallback that searched the whole host again made two calls for each
    from test_color_coding import _square_of_cycle

    real = graphs._krausz_cover
    searched = []

    def counted(g):
        searched.append(g.n)
        return real(g)

    monkeypatch.setattr(graphs, "_krausz_cover", counted)
    # the 5-wheel with its hub doubled into two true twins
    twin_hubs = Graph(7, [(i, (i + 1) % 5) for i in range(5)]
                      + [(c, i) for c in (5, 6) for i in range(5)] + [(5, 6)])
    for g, reduced_n in ((_square_of_cycle(15), 15), (twin_hubs, 6)):
        assert star_free(g, 3)
        del searched[:]
        assert recognize_line_graph(g) is None
        assert searched == [reduced_n]


def _twin_blowups(rng, count):
    """Random connected graphs on 5-7 vertices with vertices blown up into
    true-twin cliques, claw-free or not."""
    for _ in range(count):
        base = random_connected_graph(rng, rng.randint(5, 7), 0.3 + 0.7 * rng.random())
        copies = [rng.choice((1, 1, 2)) for _ in range(base.n)]
        ids = [list(range(sum(copies[:v]), sum(copies[:v + 1]))) for v in range(base.n)]
        edges = {(a, b) for c in ids for a in c for b in c if a < b}
        edges |= {(min(a, b), max(a, b)) for u, v in base.edges for a in ids[u] for b in ids[v]}
        yield Graph(sum(copies), sorted(edges))


def test_cover_search_fails_on_a_graph_whenever_on_its_twin_reduction():
    # claw-free graphs with vertices blown up into true-twin cliques
    failed = twinned = 0
    for g in _twin_blowups(random.Random(1206), 600):
        if not star_free(g, 3):
            continue
        reduced = g.induced([c[0] for c in _twin_classes(g._nbr)])
        if graphs._krausz_cover(reduced) is None:
            assert graphs._krausz_cover(g) is None
            failed += 1
            twinned += reduced.n < g.n
    assert failed >= 25 and twinned >= 10


def _outcome(recognize, g):
    """The pre-image as (n, edges), None, or the name of the error raised."""
    try:
        m = recognize(g)
    except (InputError, InternalError) as exc:
        return type(exc).__name__
    return None if m is None else (m.n, m.edges)


def test_recognition_matches_the_list_based_reference(monkeypatch):
    """The bitmask claw test, twin classes, cover search and L(M) = g check
    give what the list-based versions they replaced give: the same claw
    witness for t = 1..4, the same twin classes, the same cover in the same
    order on a claw-free host and on its twin reduction, and the same
    pre-image, None or error from ``recognize_line_graph``."""
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    if bench not in sys.path:
        sys.path.append(bench)
    import workloads

    bench_hosts = []
    real = workloads.line_graph

    def capture(m):
        bench_hosts.append(real(m))
        return bench_hosts[-1]

    monkeypatch.setattr(workloads, "line_graph", capture)
    for seed in (1, 2):
        workloads.clawfree(random.Random(seed))
        workloads.kernel(random.Random(seed))
    rng = random.Random(2406)
    multigraph_hosts = [random_line_graph(rng, max_edges=12)[0] for _ in range(300)]
    twin_hosts = list(_twin_blowups(random.Random(1206), 600))
    other_hosts = [random_connected_graph(rng, rng.randint(1, 10), rng.random()) for _ in range(300)]
    other_hosts += [random_graph(rng, rng.randint(0, 8), rng.random()) for _ in range(100)]
    outcomes = []
    for g in bench_hosts + multigraph_hosts + twin_hosts + other_hosts:
        nbr = g._nbr
        for t in (1, 2, 3, 4):
            assert find_star(g, t) == find_star_reference(g, t)
        classes = _twin_classes(nbr)
        assert classes == twin_classes_reference(g)
        if star_free(g, 3):  # recognition searches for a cover only then
            assert graphs._krausz_cover(g) == krausz_cover_reference(g)
            reduced = g.induced([c[0] for c in classes])
            assert graphs._krausz_cover(reduced) == krausz_cover_reference(reduced)
        got = _outcome(recognize_line_graph, g)
        assert got == _outcome(recognize_line_graph_reference, g)
        outcomes.append(got if got is None or isinstance(got, str) else "pre-image")
    assert len(bench_hosts) >= 2 * (24 + 90)
    # on the benchmark hosts every step of the cover search takes the first
    # clique it builds, so it builds no other and never backtracks
    built = []
    stream = graphs._cliques_through

    def counted(*args):
        built.append(0)
        for clique in stream(*args):
            built[-1] += 1
            yield clique

    monkeypatch.setattr(graphs, "_cliques_through", counted)
    assert all(m is not None for m in map(recognize_line_graph, bench_hosts))
    assert len(built) >= 1000 and set(built) == {1}
    assert any(len(set(m.edges)) < len(m.edges) for m in map(recognize_line_graph, multigraph_hosts))
    # pre-images, rejections and refusals of disconnected hosts are all met
    assert all(outcomes.count(o) >= 20 for o in ("pre-image", None, "InputError"))


def test_identity_check_matches_rebuilding_the_line_graph():
    """``_check_identity_preimage`` raises exactly when L(M) differs from
    the host: on each pre-image with one edge moved or dropped, for every
    edge index, and with an extra edge that meets no other."""
    rng = random.Random(2407)
    raised = 0
    for _ in range(120):
        g, _m = random_line_graph(rng, max_edges=10)
        nbr = g._nbr
        m = recognize_line_graph(g)
        graphs._check_identity_preimage(nbr, m)
        wrong = [Multigraph(m.n + 2, m.edges + ((m.n, m.n + 1),))]
        for i, (a, b) in enumerate(m.edges):
            c = rng.choice([x for x in range(m.n + 1) if x not in (a, b)])
            wrong += [Multigraph(m.n + 1, m.edges[:i] + ((a, c),) + m.edges[i + 1:]),
                      Multigraph(m.n, m.edges[:i] + m.edges[i + 1:])]
        for cand in wrong:
            same = preimage_reproduces_reference(g, cand)
            try:
                graphs._check_identity_preimage(nbr, cand)
            except InternalError:
                assert not same
                raised += 1
            else:
                assert same
    assert raised >= 500


def test_clique_stream_is_every_clique_through_the_edge_in_order():
    """The stream ``_krausz_cover`` reads is the sorted list of all cliques
    through the edge (largest first, ties by sorted tuple), and with an
    avoided set it is that list without the cliques meeting the set."""
    rng = random.Random(2408)
    seen = 0
    for _ in range(150):
        g = random_graph(rng, rng.randint(2, 11), 0.4 + 0.6 * rng.random())
        nbr = g._nbr
        for u, v in g.edges:
            every = all_cliques_containing_edge_reference(g, u, v)
            assert [frozenset(graphs._bits(c)) for c in graphs._cliques_through(nbr, u, v, 0)] == every
            avoid = sum(1 << w for w in range(g.n) if w not in (u, v) and rng.random() < 0.3)
            assert [frozenset(graphs._bits(c)) for c in graphs._cliques_through(nbr, u, v, avoid)] \
                == [c for c in every if not any(avoid >> w & 1 for w in c)]
            seen += len(every)
    assert seen >= 5000


def test_recognition_of_long_paths_and_wide_hubs():
    """A path line graph deeper than Python's recursion limit, and a spider
    whose hub clique has 2^38 sub-cliques through its first edge: the cover
    search keeps its own stack and builds only the clique it takes."""
    n = sys.getrecursionlimit() + 500
    assert recognize_line_graph(path_graph(n)).n == n + 1
    legs = 40
    spider = Multigraph(1 + 2 * legs, [e for i in range(legs)
                                       for e in ((0, 1 + 2 * i), (1 + 2 * i, 2 + 2 * i))])
    assert recognize_line_graph(line_graph(spider)) is not None


def test_recognition_of_a_wide_hub_under_a_tight_recursion_limit():
    """The hub of a 150-leg spider is a 150-vertex clique through its first
    edge; the clique stream keeps its branches on a stack of its own, so it
    needs no frame per clique vertex."""
    legs = 150
    spider = Multigraph(1 + 2 * legs, [e for i in range(legs)
                                       for e in ((0, 1 + 2 * i), (1 + 2 * i, 2 + 2 * i))])
    g = line_graph(spider)
    with recursion_headroom(60):
        m = recognize_line_graph(g)
    assert line_graph(m) == g
    degrees = sorted(sum(v in e for e in m.edges) for v in range(m.n))
    assert degrees == [1] * legs + [2] * legs + [legs]


def test_recognize_triangle_conventions():
    # K3, not the 3-star, is the pre-image of a triangle
    m = recognize_line_graph(complete_graph(3))
    assert m.n == 3 and len(m.edges) == 3


def test_pattern_flags():
    """The graph is a pattern's one settable field: its order and shape
    flags are derived from it, and equality and hashing read the graph alone."""
    want = [(complete_graph(n), n, True, True) for n in (1, 2, 3, 4)] + [
        (path_graph(3), 3, True, False),
        (path_graph(4), 4, True, False),
        (cycle_graph(5), 5, True, False),
        (Graph(2), 2, False, False),
    ]
    for g, h, connected, complete in want:
        p = Pattern(g)
        assert (p.h, p.is_connected, p.is_complete) == (h, connected, complete)
        assert p == Pattern.of(g) and hash(p) == hash(Pattern.of(g))
    assert Pattern(path_graph(3)) != Pattern(Graph(3, [(0, 2), (1, 2)]))
    with pytest.raises(TypeError):
        Pattern(complete_graph(3), 3, True, True)
    with pytest.raises(InputError):
        Pattern.of(Graph(0))


def test_isomorphism_spot_checks():
    assert is_isomorphic(cycle_graph(4), Graph(4, [(0, 2), (2, 1), (1, 3), (3, 0)]))
    assert not is_isomorphic(cycle_graph(6), disjoint_union(complete_graph(3),
                                                            complete_graph(3)))
    assert not is_isomorphic(path_graph(4), star_graph(3))
