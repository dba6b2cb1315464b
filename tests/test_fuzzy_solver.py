import random

import pytest

from igmatch.errors import InputError
from igmatch.fuzzy_solver import solve_igm_fuzzy_ca, solve_igm_small_alpha
from igmatch.graphs import (
    Graph,
    Occurrence,
    Pattern,
    compatible,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
)
from igmatch.models import Arc, ArcModel, FuzzyArcModel, realize

from oracles import fuzzy_dp_profile, igm_exhaustive, max_igm_exhaustive
from randgen import random_fuzzy_arc_model


def fmodel(circ, pairs, resolutions=None):
    arcs = ArcModel(tuple(Arc(i, s, t) for i, (s, t) in enumerate(pairs)), circ)
    return FuzzyArcModel(arcs, resolutions or {})


K1 = Pattern.of(Graph(1, []))
K2 = Pattern.of(path_graph(2))
P3 = Pattern.of(path_graph(3))
K3 = Pattern.of(cycle_graph(3))


def test_compatible_examples_on_p5():
    g = path_graph(5)
    a = Occurrence((1, 2))
    assert compatible(a, Occurrence((4, 0)), g) is False  # shares no vertex but 0-1 edge
    assert compatible(Occurrence((0, 1)), Occurrence((3, 4)), g) is True
    assert compatible(Occurrence((0, 1)), Occurrence((2, 3)), g) is False
    assert compatible(a, a, g) is False


def test_fuzzy_three_far_clusters():
    model = fmodel(16, [(0, 2), (1, 3), (5, 7), (6, 8), (10, 12), (11, 13)])
    got = solve_igm_fuzzy_ca(model, K2, 3)
    assert got is not None
    assert sorted(o.vertex_set() for o in got.occurrences) == [
        {0, 1}, {2, 3}, {4, 5}]
    assert solve_igm_fuzzy_ca(model, K2, 4) is None


def test_fuzzy_clique_has_single_matching():
    model = fmodel(16, [(0, 5), (1, 6), (2, 7), (3, 8)])
    assert realize(model) == complete_graph(4)
    assert solve_igm_fuzzy_ca(model, K2, 1) is not None
    assert solve_igm_fuzzy_ca(model, K2, 2) is None


def test_fuzzy_resolution_changes_answer():
    # two arcs meeting in exactly one point: the resolution decides K2 vs 2*K1
    arcs = ((0, 2), (2, 4))
    edge = fmodel(8, arcs, {(0, 1): True})
    non_edge = fmodel(8, arcs, {(0, 1): False})
    assert solve_igm_fuzzy_ca(edge, K2, 1) is not None
    assert solve_igm_fuzzy_ca(non_edge, K2, 1) is None
    # with the non-edge resolution the two K1 occurrences are compatible
    assert solve_igm_fuzzy_ca(non_edge, K1, 2) is not None
    assert solve_igm_fuzzy_ca(edge, K1, 2) is None


def test_fuzzy_rejects_bad_arguments():
    model = fmodel(8, [(0, 2), (4, 6)])
    with pytest.raises(InputError):
        solve_igm_fuzzy_ca(model, Pattern.of(Graph(2, [])), 1)
    with pytest.raises(InputError):
        solve_igm_fuzzy_ca(model, K2, -1)
    assert solve_igm_fuzzy_ca(model, K2, 0).size() == 0


def test_fuzzy_matches_oracle():
    rng = random.Random(101)
    for _ in range(25):
        model = random_fuzzy_arc_model(rng, rng.randint(1, 9))
        g = realize(model)
        for h in (K1, K2, P3, K3):
            for k in (1, 2, 3):
                got = solve_igm_fuzzy_ca(model, h, k)
                assert (got is not None) == igm_exhaustive(g, h.graph, k), (
                    model, h.graph.edges, k)
                if got is not None:
                    assert got.size() == k


def test_fuzzy_resolution_flip_keeps_solver_exact():
    rng = random.Random(103)
    flips = 0
    for _ in range(12):
        model = random_fuzzy_arc_model(rng, rng.randint(2, 7))
        for pair in sorted(model.resolutions):
            res = dict(model.resolutions)
            res[pair] = not res[pair]
            flipped = FuzzyArcModel(model.arcs, res)
            g = realize(flipped)
            for k in (1, 2):
                got = solve_igm_fuzzy_ca(flipped, K2, k)
                assert (got is not None) == igm_exhaustive(g, K2.graph, k)
            flips += 1
    assert flips >= 5


def test_fuzzy_profile_maximum_is_the_optimum():
    rng = random.Random(107)
    checked = 0
    for _ in range(15):
        model = random_fuzzy_arc_model(rng, rng.randint(2, 8))
        g = realize(model)
        for h in (K2, P3):
            profile = fuzzy_dp_profile(model, h)
            opt = max_igm_exhaustive(g, h.graph)
            if profile:
                assert max(profile) == opt
                checked += 1
            else:
                assert opt == 0
    assert checked >= 8


# ---------------------------------------------------------------------------
# small-alpha solver


def test_small_alpha_k4_triangle():
    g = complete_graph(4)
    assert solve_igm_small_alpha(g, K3, 1) is not None
    assert solve_igm_small_alpha(g, K3, 2) is None


def test_small_alpha_two_triangles():
    g = disjoint_union(cycle_graph(3), cycle_graph(3))
    got = solve_igm_small_alpha(g, K3, 2)
    assert got is not None
    assert sorted(o.vertex_set() for o in got.occurrences) == [
        {0, 1, 2}, {3, 4, 5}]


def test_small_alpha_k_above_bound_is_absent():
    assert solve_igm_small_alpha(cycle_graph(5), K1, 5) is None


def test_small_alpha_rejects_large_independence():
    with pytest.raises(InputError):
        solve_igm_small_alpha(star_graph(5), K1, 1)
    # the same call goes through when the caller vouches for the bound
    assert solve_igm_small_alpha(star_graph(5), K1, 1, trust_alpha=True) is not None


def test_small_alpha_check_is_bounded_not_capped():
    # 31 vertices are past the maximum-independent-set cap; asking for five
    # independent vertices is not
    got = solve_igm_small_alpha(complete_graph(31), K2, 1)
    assert got is not None and len(got.occurrences) == 1
    five_cliques = complete_graph(27)
    for _ in range(4):
        five_cliques = disjoint_union(five_cliques, complete_graph(1))
    with pytest.raises(InputError, match="promised bound 4"):
        solve_igm_small_alpha(five_cliques, K2, 1)


def test_small_alpha_matches_oracle_on_dense_graphs():
    rng = random.Random(109)
    tested = 0
    for _ in range(40):
        n = rng.randint(3, 8)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.75
        ]
        g = Graph(n, edges)
        try:
            got1 = solve_igm_small_alpha(g, K2, 1)
        except InputError:
            continue  # alpha above the bound, outside this solver's remit
        tested += 1
        for k in (1, 2, 3):
            got = solve_igm_small_alpha(g, K2, k)
            assert (got is not None) == igm_exhaustive(g, K2.graph, k)
    assert tested >= 10
