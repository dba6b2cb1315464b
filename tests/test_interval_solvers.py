import random

import pytest

from igmatch.errors import InputError, SizeCapError
from igmatch.graphs import Graph, Pattern, cycle_graph, path_graph
from igmatch.interval_solvers import (
    interval_wis,
    solve_igm_long_proper_ca,
    solve_igm_proper_ca_disconnected,
    solve_igm_proper_interval,
    solve_isi_long_proper_ca,
)
from igmatch.models import Arc, ArcModel, Interval, IntervalModel, realize, validate_arc_model

from oracles import igm_exhaustive, max_igm_exhaustive
from randgen import random_long_proper_arc_model, random_proper_interval_model


def imodel(*pairs):
    return IntervalModel(tuple(Interval(i, l, r) for i, (l, r) in enumerate(pairs)))


def amodel(circ, *pairs):
    m = ArcModel(tuple(Arc(i, s, t) for i, (s, t) in enumerate(pairs)), circ)
    return m


# C6 as six arcs of length 3 on a circle of circumference 12, each meeting
# only its two neighbours.
C6_ARCS = amodel(12, (0, 3), (2, 5), (4, 7), (6, 9), (8, 11), (10, 1))

K1_ARCS = amodel(6, (0, 2))
K2_ARCS = amodel(6, (0, 2), (1, 3))
P3_ARCS = amodel(12, (0, 3), (2, 5), (4, 7))
K3_ARCS = amodel(12, (0, 4), (2, 6), (3, 8))

H_MODELS = {1: K1_ARCS, 2: K2_ARCS}


# ---------------------------------------------------------------------------
# interval_wis


def test_wis_three_interval_example():
    weight, size, witness = interval_wis([(0, 2, 3), (1, 4, 5), (3, 6, 3)])
    assert weight == 6
    assert size == 2
    assert witness == (0, 2)


def test_wis_single_interval():
    assert interval_wis([(5, 9, 7)]) == (7, 1, (0,))


def test_wis_disjoint_sum():
    items = [(0, 1, 2), (2, 3, 4), (5, 8, 1)]
    assert interval_wis(items) == (7, 3, (0, 1, 2))


def test_wis_lex_tie_break():
    # both single choices weigh 1; the smaller index wins
    assert interval_wis([(0, 2, 1), (1, 3, 1)])[2] == (0,)


def test_wis_rejects_bad_input():
    with pytest.raises(InputError):
        interval_wis([(3, 1, 2)])
    with pytest.raises(InputError):
        interval_wis([(0, 1, -2)])


def test_wis_matches_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 9)
        items = []
        for _ in range(n):
            l = rng.randint(0, 15)
            r = l + rng.randint(0, 6)
            items.append((l, r, rng.randint(0, 5)))
        best = 0
        for mask in range(1 << n):
            sel = [i for i in range(n) if mask >> i & 1]
            ok = all(
                max(items[a][0], items[b][0]) > min(items[a][1], items[b][1])
                for x, a in enumerate(sel)
                for b in sel[x + 1:]
            )
            if ok:
                best = max(best, sum(items[i][2] for i in sel))
        weight, _, witness = interval_wis(items)
        assert weight == best
        # the witness must itself be independent and reach the optimum
        assert sum(items[i][2] for i in witness) == best
        for x, a in enumerate(witness):
            for b in witness[x + 1:]:
                assert max(items[a][0], items[b][0]) > min(items[a][1], items[b][1])


# ---------------------------------------------------------------------------
# proper interval solver


def test_proper_interval_two_far_edges():
    model = imodel((0, 2), (1, 3), (5, 7), (6, 8))
    got = solve_igm_proper_interval(model, Pattern.of(path_graph(2)), 2)
    assert got is not None
    assert sorted(o.vertex_set() for o in got.occurrences) == [{0, 1}, {2, 3}]
    assert solve_igm_proper_interval(model, Pattern.of(path_graph(2)), 3) is None


def test_proper_interval_k_zero():
    model = imodel((0, 2), (1, 3))
    assert solve_igm_proper_interval(model, Pattern.of(path_graph(2)), 0).size() == 0


def test_proper_interval_rejects_disconnected_pattern():
    model = imodel((0, 2), (4, 6))
    with pytest.raises(InputError):
        solve_igm_proper_interval(model, Pattern.of(Graph(2, [])), 1)


def test_proper_interval_rejects_improper_model():
    model = imodel((0, 10), (2, 3))
    with pytest.raises(InputError):
        solve_igm_proper_interval(model, Pattern.of(path_graph(2)), 1)


def test_proper_interval_matches_oracle():
    rng = random.Random(23)
    patterns = [
        Pattern.of(Graph(1, [])),
        Pattern.of(path_graph(2)),
        Pattern.of(path_graph(3)),
        Pattern.of(cycle_graph(3)),
    ]
    for _ in range(30):
        model = random_proper_interval_model(rng, rng.randint(1, 9))
        g = realize(model)
        for h in patterns:
            for k in (1, 2, 3):
                got = solve_igm_proper_interval(model, h, k)
                assert (got is not None) == igm_exhaustive(g, h.graph, k)
                if got is not None:
                    assert got.size() == k


def test_proper_interval_optimum_equals_oracle_maximum():
    rng = random.Random(31)
    h = Pattern.of(path_graph(2))
    for _ in range(12):
        model = random_proper_interval_model(rng, rng.randint(2, 9))
        g = realize(model)
        opt = max_igm_exhaustive(g, h.graph)
        k = 0
        while solve_igm_proper_interval(model, h, k + 1) is not None:
            k += 1
        assert k == opt


# ---------------------------------------------------------------------------
# induced subgraph isomorphism on long proper circular-arc models


def test_isi_c6_contains_p3():
    occ = solve_isi_long_proper_ca(C6_ARCS, P3_ARCS)
    assert occ is not None
    occ.check(realize(C6_ARCS), Pattern.of(realize(P3_ARCS)))


def test_isi_c6_has_no_triangle():
    assert solve_isi_long_proper_ca(C6_ARCS, K3_ARCS) is None


def test_isi_identity():
    assert solve_isi_long_proper_ca(C6_ARCS, C6_ARCS) is not None


def test_isi_identity_sweep_random_models():
    rng = random.Random(47)
    for _ in range(15):
        m = random_long_proper_arc_model(rng, rng.randint(1, 8))
        occ = solve_isi_long_proper_ca(m, m)
        assert occ is not None
        occ.check(realize(m), Pattern.of(realize(m)))


def test_isi_rejects_non_long_host():
    # three long arcs jointly covering the circle
    covering = amodel(12, (0, 6), (5, 11), (10, 3))
    assert not validate_arc_model(covering).long
    with pytest.raises(InputError):
        solve_isi_long_proper_ca(covering, K2_ARCS)


def test_isi_matches_direct_search():
    rng = random.Random(59)
    pairs = 0
    for _ in range(40):
        mg = random_long_proper_arc_model(rng, rng.randint(1, 7))
        mh = rng.choice([K1_ARCS, K2_ARCS, P3_ARCS, K3_ARCS])
        if len(mg) < len(mh):
            continue
        g = realize(mg)
        hp = Pattern.of(realize(mh))
        got = solve_isi_long_proper_ca(mg, mh)
        from igmatch.graphs import find_occurrence

        assert (got is not None) == (find_occurrence(g, hp) is not None)
        if got is not None:
            got.check(g, hp)
        pairs += 1
    assert pairs >= 20


# ---------------------------------------------------------------------------
# long proper circular-arc solver


def test_ca_two_antipodal_clusters():
    model = amodel(20, (0, 3), (1, 4), (10, 13), (11, 14))
    got = solve_igm_long_proper_ca(model, Pattern.of(path_graph(2)), 2)
    assert got is not None
    assert sorted(o.vertex_set() for o in got.occurrences) == [{0, 1}, {2, 3}]


def test_ca_c6_k2_matching():
    h = Pattern.of(path_graph(2))
    got = solve_igm_long_proper_ca(C6_ARCS, h, 2)
    assert got is not None
    assert got.size() == 2
    assert solve_igm_long_proper_ca(C6_ARCS, h, 3) is None


def test_ca_k_zero_and_negative():
    h = Pattern.of(path_graph(2))
    assert solve_igm_long_proper_ca(C6_ARCS, h, 0).size() == 0
    with pytest.raises(InputError):
        solve_igm_long_proper_ca(C6_ARCS, h, -1)


def test_ca_single_wrapping_occurrence_needs_fallback():
    # H = C6 occupies the whole circle, so every cut destroys it and only the
    # augmented-graph fallback can certify k = 1
    h = Pattern.of(cycle_graph(6))
    got = solve_igm_long_proper_ca(C6_ARCS, h, 1, model_h=C6_ARCS)
    assert got is not None
    assert got.occurrences[0].vertex_set() == set(range(6))
    assert solve_igm_long_proper_ca(C6_ARCS, h, 2, model_h=C6_ARCS) is None


def test_ca_fallback_without_pattern_model_is_an_error():
    h = Pattern.of(cycle_graph(6))
    with pytest.raises(InputError):
        solve_igm_long_proper_ca(C6_ARCS, h, 1)


def test_ca_matches_oracle():
    rng = random.Random(67)
    patterns = [
        (Pattern.of(Graph(1, [])), K1_ARCS),
        (Pattern.of(path_graph(2)), K2_ARCS),
        (Pattern.of(path_graph(3)), P3_ARCS),
        (Pattern.of(cycle_graph(3)), K3_ARCS),
    ]
    for _ in range(25):
        model = random_long_proper_arc_model(rng, rng.randint(1, 9))
        g = realize(model)
        for h, mh in patterns:
            for k in (1, 2, 3):
                got = solve_igm_long_proper_ca(model, h, k, model_h=mh)
                assert (got is not None) == igm_exhaustive(g, h.graph, k), (
                    model, h.graph.edges, k)
                if got is not None:
                    assert got.size() == k


def test_ca_cut_completeness_at_oracle_maximum():
    # whenever the true optimum is at least 2 the cut sweep alone must reach it
    rng = random.Random(71)
    h = Pattern.of(path_graph(2))
    seen_big = 0
    for _ in range(40):
        model = random_long_proper_arc_model(rng, rng.randint(4, 10))
        g = realize(model)
        opt = max_igm_exhaustive(g, h.graph)
        if opt < 2:
            continue
        seen_big += 1
        assert solve_igm_long_proper_ca(model, h, opt) is not None
        assert solve_igm_long_proper_ca(model, h, opt + 1) is None
    assert seen_big >= 5


# ---------------------------------------------------------------------------
# disconnected patterns on proper circular-arc models


def test_disconnected_four_isolated_arcs():
    model = amodel(16, (0, 1), (4, 5), (8, 9), (12, 13))
    h = Pattern.of(Graph(2, []))
    got = solve_igm_proper_ca_disconnected(model, h, 2)
    assert got is not None
    assert got.size() == 2


def test_disconnected_clique_has_no_independent_pair():
    model = amodel(16, (0, 5), (1, 6), (2, 7), (3, 8))
    h = Pattern.of(Graph(2, []))
    assert solve_igm_proper_ca_disconnected(model, h, 1) is None


def test_disconnected_rejects_connected_pattern():
    with pytest.raises(InputError):
        solve_igm_proper_ca_disconnected(C6_ARCS, Pattern.of(path_graph(2)), 1)


def test_disconnected_size_cap():
    model = amodel(16, (0, 1), (4, 5), (8, 9), (12, 13))
    h = Pattern.of(Graph(2, []))
    with pytest.raises(SizeCapError):
        solve_igm_proper_ca_disconnected(model, h, 5)


def test_disconnected_on_non_long_model():
    # proper but not long: three arcs jointly covering the circle (a triangle)
    model = amodel(12, (0, 6), (5, 11), (10, 3))
    h = Pattern.of(Graph(2, []))
    assert solve_igm_proper_ca_disconnected(model, h, 1) is None


def test_disconnected_matches_oracle():
    rng = random.Random(83)
    h = Pattern.of(Graph(3, [(1, 2)]))  # K1 + K2
    for _ in range(20):
        model = random_long_proper_arc_model(rng, rng.randint(3, 9))
        g = realize(model)
        for k in (1, 2):
            got = solve_igm_proper_ca_disconnected(model, h, k)
            assert (got is not None) == igm_exhaustive(g, h.graph, k)
