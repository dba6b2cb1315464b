import random
import sys

import pytest

from igmatch import graphs
from igmatch.errors import InputError, SizeCapError
from igmatch.graphs import (
    Graph,
    Matching,
    Multigraph,
    Occurrence,
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
    empty_graph,
    enumerate_occurrences,
    find_igm,
    find_occurrence,
    find_star,
    line_graph,
    max_igm,
    path_graph,
    recognize_line_graph,
    star_free,
    star_graph,
)
from oracles import (
    all_pairs_occurrence_masks,
    find_igm_reference,
    igm_exhaustive,
    is_isomorphic,
    is_line_graph_exhaustive,
    max_igm_exhaustive,
    max_igm_reference,
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
        (-1, [], "vertex count must be nonnegative, got -1"),
        (4, (e for e in [(3, 2), (0, 1), (2, 3)]), "duplicate edge (2, 3)"),
        (4, (e for e in [(3, 2), (4, 0), (3, 3)]), "edge (4, 0) out of range for n=4"),
    ]
    for n, edges, message in cases:
        with pytest.raises(InputError) as err:
            Graph(n, edges)
        assert str(err.value) == message
    assert Graph(0).edges == () and Graph(0).n == 0
    g = Graph(4, (e for e in [(3, 2), (1, 0)]))
    assert g.edges == ((0, 1), (2, 3)) and g.neighbors(3) == {2}


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
        path_graph(4), cycle_graph(4), star_graph(3), complete_graph(4),
        Graph(4, [(0, 1), (2, 3)]),
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


def test_packing_searches_return_the_reference_witnesses(k1, k2, p3, k3):
    """``find_igm`` and ``max_igm`` share one search; each still returns the
    witness of its own earlier search, and the largest packing is the first
    success of a descending ``find_igm`` ladder.  Touch sets may be empty or
    name vertices outside the host; half the cases pass a sub-list of the
    occurrences, as the kernel's stripe tables do."""
    rng = random.Random(1207)
    for _ in range(3000):
        g = random_graph(rng, rng.randint(0, 12), rng.uniform(0.1, 0.6))
        h = rng.choice((k1, k2, p3, k3))
        k = rng.randint(0, 4)
        touch = [frozenset(rng.sample(range(g.n + 2), rng.randint(0, min(3, g.n + 2))))
                 for _ in range(rng.randint(0, 3))]
        occs = enumerate_occurrences(g, h)
        if rng.random() < 0.5:
            occs = [o for o in occs if rng.random() < 0.7]
        assert (find_igm(g, h, k, occurrences=occs)
                == find_igm_reference(g, h, k, occurrences=occs))
        assert (max_igm(g, h, require_touch=touch, occurrences=occs)
                == max_igm_reference(g, h, require_touch=touch, occurrences=occs))
        ladder = (find_igm_reference(g, h, kk, occurrences=occs)
                  for kk in range(g.n // h.h, 0, -1))
        first = next((m for m in ladder if m is not None), Matching(()))
        assert max_igm(g, h, occurrences=occs) == list(first.occurrences)


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
    assert _twin_classes(complete_graph(4)) == [[0, 1, 2, 3]]
    assert _twin_classes(path_graph(4)) == [[0], [1], [2], [3]]
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])  # 0,1 are true twins
    assert [c for c in _twin_classes(g) if len(c) > 1] == [[0, 1]]


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


def test_cover_search_fails_on_a_graph_whenever_on_its_twin_reduction():
    # claw-free graphs with vertices blown up into true-twin cliques
    rng = random.Random(1206)
    failed = twinned = 0
    for _ in range(600):
        base = random_connected_graph(rng, rng.randint(5, 7), 0.3 + 0.7 * rng.random())
        copies = [rng.choice((1, 1, 2)) for _ in range(base.n)]
        ids = [list(range(sum(copies[:v]), sum(copies[:v + 1]))) for v in range(base.n)]
        edges = {(a, b) for c in ids for a in c for b in c if a < b}
        edges |= {(min(a, b), max(a, b)) for u, v in base.edges for a in ids[u] for b in ids[v]}
        g = Graph(sum(copies), sorted(edges))
        if not star_free(g, 3):
            continue
        reduced = g.induced([c[0] for c in _twin_classes(g)])
        if graphs._krausz_cover(reduced) is None:
            assert graphs._krausz_cover(g) is None
            failed += 1
            twinned += reduced.n < g.n
    assert failed >= 25 and twinned >= 10


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
