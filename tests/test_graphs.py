import random

import pytest

from igmatch import graphs
from igmatch.errors import InputError, SizeCapError
from igmatch.graphs import (
    Graph,
    Matching,
    Multigraph,
    Occurrence,
    Pattern,
    brute_force_mis,
    brute_force_wis,
    compatible,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_occurrences,
    find_igm,
    find_occurrence,
    find_star,
    greedy_clique_partition,
    line_graph,
    max_igm,
    path_graph,
    recognize_line_graph,
    star_free,
    star_graph,
    twin_classes,
    _occurrence_masks,
)
from oracles import (
    all_pairs_occurrence_masks,
    igm_exhaustive,
    is_isomorphic,
    is_line_graph_exhaustive,
    max_igm_exhaustive,
    mis_exhaustive,
    occurrences_exhaustive,
    subset_scan_occurrences,
    wis_exhaustive,
)
from randgen import random_connected_graph, random_connected_multigraph, random_graph


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


def test_components_and_induced():
    g = disjoint_union(path_graph(3), complete_graph(2))
    assert g.components() == [[0, 1, 2], [3, 4]]
    assert not g.is_connected()
    sub = g.induced([2, 1, 0])
    assert sub.edges == ((0, 1), (1, 2))
    h, kept = g.without({1})
    assert kept == [0, 2, 3, 4]
    assert h.edges == ((2, 3),)


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
        brute_force_mis(empty_graph(31))


def test_find_occurrence_agrees_with_exhaustive(p3, k3):
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 8), rng.random())
        for h in (p3, k3):
            occ = find_occurrence(g, h)
            exists = bool(occurrences_exhaustive(g, h.graph))
            assert (occ is not None) == exists
            if occ is not None:
                occ.check(g, h)


def test_find_occurrence_within(p3):
    g = path_graph(6)
    occ = find_occurrence(g, p3, within={0, 1, 2})
    assert occ is not None and set(occ.vertices) == {0, 1, 2}
    assert find_occurrence(g, p3, within={0, 1, 3}) is None


def test_enumerate_occurrences_vertex_sets(p3):
    g = path_graph(5)
    occs = enumerate_occurrences(g, p3)
    assert sorted(o.vertex_set() for o in occs) == [
        frozenset(s) for s in ({0, 1, 2}, {1, 2, 3}, {2, 3, 4})
    ]
    for o in occs:
        o.check(g, p3)
    # one canonical witness per vertex set
    assert len({o.vertex_set() for o in occs}) == len(occs)


def test_enumerate_occurrences_and_masks_match_the_subset_scan():
    # connected patterns grow connected sets, 2K2 and K1 + K2 still scan all
    # subsets; the order, the maps and the conflict masks must all be the old
    # ones (an isolated pattern vertex only conflicts through itself)
    patterns = [
        complete_graph(1), complete_graph(2), path_graph(3), complete_graph(3),
        path_graph(4), cycle_graph(4), star_graph(3), Graph(4, [(0, 1), (2, 3)]),
        Graph(3, [(1, 2)]),
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


def test_occurrence_check_rejects_non_induced(k2):
    g = complete_graph(3)
    with pytest.raises(InputError):
        Occurrence((0, 0)).check(g, k2)
    p2_free = Pattern.of(empty_graph(2))
    with pytest.raises(InputError):
        Occurrence((0, 1)).check(g, p2_free)


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
    assert find_igm(empty_graph(0), k3, 0).size() == 0


def test_max_igm_with_touch_constraints(k2, p3):
    rng = random.Random(77)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 7), rng.uniform(0.2, 0.6))
        h = k2 if rng.random() < 0.5 else p3
        touch = []
        for _ in range(rng.randint(0, 2)):
            size = rng.randint(1, 3)
            touch.append(frozenset(rng.sample(range(g.n), min(size, g.n))))
        got = max_igm(g, h, require_touch=touch)
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


def test_greedy_clique_partition_is_partition():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        parts = greedy_clique_partition(g)
        seen = [v for c in parts for v in c]
        assert sorted(seen) == list(range(g.n))
        for c in parts:
            assert all(g.has_edge(u, v) for u in c for v in c if u < v)


def test_twin_classes():
    # K4 collapses to one class, a path has no nontrivial twins
    assert twin_classes(complete_graph(4)) == [[0, 1, 2, 3]]
    assert twin_classes(path_graph(4)) == [[0], [1], [2], [3]]
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])  # 0,1 are true twins
    assert [c for c in twin_classes(g) if len(c) > 1] == [[0, 1]]


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


def test_recognize_triangle_conventions():
    # K3, not the 3-star, is the pre-image of a triangle
    m = recognize_line_graph(complete_graph(3))
    assert m.n == 3 and len(m.edges) == 3


def test_pattern_flags():
    assert Pattern.of(complete_graph(3)).is_complete
    assert not Pattern.of(path_graph(3)).is_complete
    assert Pattern.of(path_graph(3)).is_connected
    assert not Pattern.of(empty_graph(2)).is_connected
    with pytest.raises(InputError):
        Pattern.of(empty_graph(0))


def test_isomorphism_spot_checks():
    assert is_isomorphic(cycle_graph(4), Graph(4, [(0, 2), (2, 1), (1, 3), (3, 0)]))
    assert not is_isomorphic(cycle_graph(6), disjoint_union(complete_graph(3),
                                                            complete_graph(3)))
    assert not is_isomorphic(path_graph(4), star_graph(3))
