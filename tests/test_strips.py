import random

import pytest

from igmatch import graphs
from igmatch.color_coding import solve_igm_claw_free
from igmatch.errors import InputError, SizeCapError
from igmatch.graphs import (
    Graph,
    Matching,
    Occurrence,
    Pattern,
    complete_graph,
    cycle_graph,
    find_igm,
    path_graph,
    star_free,
    star_graph,
)
from igmatch.models import Arc, ArcModel, FuzzyArcModel
from igmatch.strips import (
    Strip,
    StripStructure,
    boundary_clique,
    classify_strip,
    line_graph_strip_structure,
    strip_invariant_failures,
    strip_image,
    trivial_strip_structure,
    validate_strip_structure,
)

from igmatch.trace import recording
from oracles import covered_subgraph, g_map_pair_failures
from randgen import random_connected_graph, random_graph, random_line_graph


def spot(host_vertex: int) -> Strip:
    g = Graph(3, [(0, 1), (0, 2)])
    return Strip(graph=g, z=frozenset({1, 2}), g_map={0: host_vertex})


def fam_of(circ, *pairs) -> FuzzyArcModel:
    arcs = ArcModel(tuple(Arc(i, s, t) for i, (s, t) in enumerate(pairs)), circ)
    return FuzzyArcModel(arcs, {})


# ---------------------------------------------------------------------------
# hand fixture: a 16-vertex claw-free host with an eight-strip decomposition
#
# Strips by edge id: 0 and 3..6 are spots (single host vertices 8, 9, 10,
# 13, 7), 1 is a one-boundary stripe (vertex 14), 2 a two-boundary stripe
# on {11, 12, 15}, 7 a two-boundary stripe on the dense block {0..6}.

FIG_EDGES = [
    (0, 2), (1, 3), (0, 4), (0, 5), (2, 5), (5, 6), (4, 5), (4, 6), (1, 6),
    (3, 6),
    (1, 7), (3, 7),
    (0, 8), (2, 8),
    (8, 9), (9, 10), (7, 10),
    (11, 12), (11, 15), (12, 15),
    (7, 13), (10, 13), (12, 13),
    (9, 11), (8, 11),
    (8, 14), (11, 14), (9, 14),
]


def fig_host() -> Graph:
    return Graph(16, FIG_EDGES)


def fig_structure() -> StripStructure:
    block = Graph(9, [
        (0, 2), (1, 3), (0, 4), (0, 5), (2, 5), (5, 6), (4, 5), (4, 6),
        (1, 6), (3, 6),
        (7, 0), (7, 2), (8, 1), (8, 3),
    ])
    triple = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 0), (4, 1)])
    strips = {
        0: spot(8),
        1: Strip(graph=Graph(2, [(0, 1)]), z=frozenset({1}), g_map={0: 14}),
        2: Strip(graph=triple, z=frozenset({3, 4}), g_map={0: 11, 1: 12, 2: 15}),
        3: spot(9),
        4: spot(10),
        5: spot(13),
        6: spot(7),
        7: Strip(graph=block, z=frozenset({7, 8}), g_map={i: i for i in range(7)}),
    }
    return StripStructure(
        r_vertices=(0, 1, 2, 3, 4, 5),
        edges=(
            (0, (0, 2)),
            (1, (2,)),
            (2, (2, 5)),
            (3, (2, 4)),
            (4, (3, 4)),
            (5, (3, 5)),
            (6, (1, 3)),
            (7, (0, 1)),
        ),
        strips=strips,
        z_assign={
            0: {0: 1, 2: 2},
            1: {2: 1},
            2: {2: 3, 5: 4},
            3: {2: 1, 4: 2},
            4: {3: 1, 4: 2},
            5: {3: 1, 5: 2},
            6: {1: 1, 3: 2},
            7: {0: 7, 1: 8},
        },
    )


# ---------------------------------------------------------------------------
# trivial structure

def test_trivial_structure_validates():
    for g in (path_graph(3), complete_graph(4)):
        ss = trivial_strip_structure(g)
        assert len(ss.edges) == 1 and ss.edges[0][1] == ()
        assert ss.r_vertices == ()
        report = validate_strip_structure(g, ss)
        assert report.ok
        assert classify_strip(ss.strips[0]) == "stripe"


def test_trivial_structure_rejects_bad_hosts():
    with pytest.raises(InputError):
        trivial_strip_structure(star_graph(3))
    with pytest.raises(InputError):
        trivial_strip_structure(Graph(0))


def test_trivial_structure_random_claw_free_hosts():
    rng = random.Random(4201)
    hits = 0
    for _ in range(120):
        g = random_connected_graph(rng, rng.randint(1, 9), 0.7)
        if not star_free(g, 3):
            continue
        hits += 1
        assert validate_strip_structure(g, trivial_strip_structure(g)).ok
    assert hits >= 25


def test_trivial_structure_on_barbell(barbell_bridge):
    assert validate_strip_structure(
        barbell_bridge, trivial_strip_structure(barbell_bridge)
    ).ok


# ---------------------------------------------------------------------------
# per-axiom diagnostics

def test_partition_failure_names_missing_vertex():
    host = path_graph(3)
    ss = StripStructure(
        r_vertices=(),
        edges=((0, ()),),
        strips={0: Strip(graph=Graph(2, [(0, 1)]), z=frozenset(), g_map={0: 0, 1: 1})},
        z_assign={0: {}},
    )
    report = validate_strip_structure(host, ss)
    assert not report.ok
    assert not report.partition.ok
    assert any("vertex 2" in f for f in report.partition.failures)


def test_partition_failure_names_double_cover():
    g = Graph(2, [])
    one = Strip(graph=Graph(1), z=frozenset(), g_map={0: 0})
    dup = Strip(graph=Graph(2, []), z=frozenset(), g_map={0: 0, 1: 1})
    ss = StripStructure(
        r_vertices=(),
        edges=((0, ()), (1, ())),
        strips={0: one, 1: dup},
        z_assign={0: {}, 1: {}},
    )
    report = validate_strip_structure(g, ss)
    assert not report.partition.ok
    assert any("vertex 0" in f and "[0, 1]" in f for f in report.partition.failures)


def test_claw_inside_strip_is_caught():
    claw = star_graph(3)
    ss = StripStructure(
        r_vertices=(),
        edges=((0, ()),),
        strips={0: Strip(graph=claw, z=frozenset(), g_map={v: v for v in range(4)})},
        z_assign={0: {}},
    )
    report = validate_strip_structure(claw, ss)
    assert not report.claw_free.ok
    assert "claw" in report.claw_free.failures[0]
    assert report.partition.ok and report.edge_cover.ok


def test_missing_z_assignment_is_caught():
    g = Graph(1)
    ss = StripStructure(
        r_vertices=(7,),
        edges=((0, (7,)),),
        strips={0: Strip(graph=Graph(2, [(0, 1)]), z=frozenset({1}), g_map={0: 0})},
        z_assign={0: {}},
    )
    report = validate_strip_structure(g, ss)
    assert not report.z_assignment.ok
    assert report.boundary_cliques.ok and report.partition.ok


def test_boundary_clique_violation_is_caught():
    host = path_graph(3)
    left = Strip(graph=Graph(2, [(0, 1)]), z=frozenset({1}), g_map={0: 0})
    right = Strip(
        graph=Graph(3, [(0, 1), (2, 0)]), z=frozenset({2}), g_map={0: 2, 1: 1}
    )
    ss = StripStructure(
        r_vertices=(5,),
        edges=((0, (5,)), (1, (5,))),
        strips={0: left, 1: right},
        z_assign={0: {5: 1}, 1: {5: 2}},
    )
    report = validate_strip_structure(host, ss)
    assert not report.boundary_cliques.ok
    assert any("0 and 2 non-adjacent" in f for f in report.boundary_cliques.failures)


def test_uncovered_edge_is_caught():
    host = path_graph(3)
    a = Strip(graph=Graph(1), z=frozenset(), g_map={0: 0})
    b = Strip(graph=Graph(2, [(0, 1)]), z=frozenset(), g_map={0: 1, 1: 2})
    ss = StripStructure(
        r_vertices=(),
        edges=((0, ()), (1, ())),
        strips={0: a, 1: b},
        z_assign={0: {}, 1: {}},
    )
    report = validate_strip_structure(host, ss)
    assert not report.edge_cover.ok
    assert "(0,1)" in report.edge_cover.failures[0]
    assert report.partition.ok and report.boundary_cliques.ok


def test_empty_hyperedge_warning_when_mixed():
    # valid and supported: the claw-free driver peels the strip-edge without
    # strip-vertices off as a free piece
    g = Graph(2, [])
    ss = StripStructure(
        r_vertices=(9,),
        edges=((0, ()), (1, (9,))),
        strips={
            0: Strip(graph=Graph(1), z=frozenset(), g_map={0: 0}),
            1: Strip(graph=Graph(2, [(0, 1)]), z=frozenset({1}), g_map={0: 1}),
        },
        z_assign={0: {}, 1: {9: 1}},
    )
    report = validate_strip_structure(g, ss)
    assert report.ok


def test_strip_invariant_failures_direct():
    bad_z = Strip(graph=Graph(2, [(0, 1)]), z=frozenset({0, 1}), g_map={})
    msgs = strip_invariant_failures(bad_z)
    assert any("not independent" in m for m in msgs)
    assert any("no interior" in m for m in msgs)

    lonely = Strip(graph=Graph(2, []), z=frozenset({1}), g_map={0: 0})
    assert any("empty" in m for m in strip_invariant_failures(lonely))

    ragged = Strip(
        graph=Graph(4, [(3, 0), (3, 1), (0, 2)]), z=frozenset({3}),
        g_map={0: 0, 1: 1, 2: 2},
    )
    assert any("not a clique" in m for m in strip_invariant_failures(ragged))

    squash = Strip(graph=Graph(2, []), z=frozenset(), g_map={0: 4, 1: 4})
    assert any("injective" in m for m in strip_invariant_failures(squash))

    twisted = Strip(graph=Graph(2, [(0, 1)]), z=frozenset(), g_map={0: 0, 1: 2})
    host = path_graph(3)
    assert any("edge-preserving" in m for m in strip_invariant_failures(twisted, host))
    assert strip_invariant_failures(twisted) == []


# ---------------------------------------------------------------------------
# classification

def test_g_map_check_matches_the_all_pairs_reference():
    """The neighbour walk reports the same pairs, in the same order, as the
    all-pairs comparison, on faithful hosts and on perturbed hosts and maps."""
    rng = random.Random(20261018)
    outcomes = set()
    for _ in range(300):
        j = random_graph(rng, rng.randint(2, 9), rng.random())
        z = frozenset(rng.sample(range(j.n), rng.randint(0, j.n - 1)))
        interior = [v for v in range(j.n) if v not in z]
        n = rng.randint(max(2, len(interior)), len(interior) + 4)
        g_map = dict(zip(interior, rng.sample(range(n), len(interior))))
        edges = {tuple(sorted((g_map[a], g_map[b])))
                 for a, b in j.edges if a in g_map and b in g_map}
        for _ in range(rng.randint(0, 3)):
            u, v = rng.sample(range(n), 2)
            edges ^= {(min(u, v), max(u, v))}
        if len(interior) > 1 and rng.random() < 0.4:
            a, b = rng.sample(interior, 2)
            if rng.random() < 0.5:
                g_map[a], g_map[b] = g_map[b], g_map[a]
            else:
                g_map[a] = g_map[b]  # no longer injective
        s = Strip(graph=j, z=z, g_map=g_map)
        g = Graph(n, sorted(edges))
        got = [m for m in strip_invariant_failures(s, g) if m.startswith("g_map not edge")]
        assert got == g_map_pair_failures(s, g)
        outcomes.add((len(set(g_map.values())) < len(g_map), bool(got)))
    assert {(False, False), (False, True), (True, True)} <= outcomes


def test_classify_spot_stripe_neither():
    assert classify_strip(spot(0)) == "spot"

    k3_plus_z = Strip(
        graph=Graph(4, [(0, 1), (0, 2), (1, 2), (3, 0), (3, 1)]),
        z=frozenset({3}), g_map={0: 0, 1: 1, 2: 2},
    )
    assert classify_strip(k3_plus_z) == "stripe"

    both_ends = Strip(
        graph=Graph(4, [(2, 0), (3, 0), (0, 1)]), z=frozenset({2, 3}),
        g_map={0: 0, 1: 1},
    )
    assert classify_strip(both_ends) == "neither"

    no_z = Strip(graph=path_graph(3), z=frozenset(), g_map={0: 0, 1: 1, 2: 2})
    assert classify_strip(no_z) == "stripe"


# ---------------------------------------------------------------------------
# the figure fixture

def test_fig_host_is_claw_free():
    assert star_free(fig_host(), 3)


def test_fig_structure_validates():
    report = validate_strip_structure(fig_host(), fig_structure())
    for check in report.all_checks():
        assert check.ok, (check.name, check.failures)


def test_fig_strip_classification():
    ss = fig_structure()
    kinds = {eid: classify_strip(ss.strips[eid]) for eid, _ in ss.edges}
    assert kinds == {
        0: "spot", 1: "stripe", 2: "stripe", 3: "spot",
        4: "spot", 5: "spot", 6: "spot", 7: "stripe",
    }


def test_fig_boundary_cliques():
    ss = fig_structure()
    assert boundary_clique(ss, 0) == frozenset({0, 2, 8})
    assert boundary_clique(ss, 1) == frozenset({1, 3, 7})
    assert boundary_clique(ss, 2) == frozenset({8, 9, 11, 14})
    assert boundary_clique(ss, 3) == frozenset({7, 10, 13})
    assert boundary_clique(ss, 4) == frozenset({9, 10})
    assert boundary_clique(ss, 5) == frozenset({12, 13})


def test_fig_conformance_without_certificates():
    # every stripe interior has independence number at most 4, so the
    # pipeline packs each one by bounded search and notes nothing
    g, ss = fig_host(), fig_structure()
    k2 = Pattern.of(complete_graph(2))
    for k in (1, 2):
        with recording() as notes:
            m = solve_igm_claw_free(g, k2, k, ss=ss)
        m.check(g, k2)
        assert notes == []


# ---------------------------------------------------------------------------
# covered subgraph

def test_covered_subgraph_empty_matching():
    assert covered_subgraph(fig_structure(), Matching(())) == ((), ())


def test_covered_subgraph_interior_only():
    # host vertex 15 sits inside stripe 2 and in no boundary clique
    cov = covered_subgraph(fig_structure(), Matching((Occurrence((15,)),)))
    assert cov == ((2,), ())


def test_covered_subgraph_boundary_vertex():
    cov = covered_subgraph(fig_structure(), Matching((Occurrence((8,)),)))
    assert cov == ((0,), (0, 2))


def test_covered_subgraph_bounds_for_solver_matchings():
    g = fig_host()
    ss = fig_structure()
    h = Pattern.of(complete_graph(2))
    for k in (1, 2):
        m = find_igm(g, h, k)
        assert m is not None
        m.check(g, h)
        edge_ids, vertex_ids = covered_subgraph(ss, m)
        assert len(edge_ids) <= h.h * k
        assert len(vertex_ids) <= 2 * h.h * k


# ---------------------------------------------------------------------------
# line-graph structures

def test_line_graph_structure_of_path():
    p3 = path_graph(3)
    ss = line_graph_strip_structure(p3)
    assert ss is not None
    assert len(ss.r_vertices) == 2
    sizes = [len(ms) for _, ms in ss.edges]
    assert sizes == [1, 2, 1]
    assert classify_strip(ss.strips[1]) == "spot"
    assert classify_strip(ss.strips[0]) == "stripe"
    assert validate_strip_structure(p3, ss).ok
    assert all(classify_strip(s) in ("spot", "stripe") for s in ss.strips.values())


def test_line_graph_structure_of_triangle():
    k3 = complete_graph(3)
    ss = line_graph_strip_structure(k3)
    assert ss is not None
    assert len(ss.r_vertices) == 3
    assert sorted(ms for _, ms in ss.edges) == [(0, 1), (0, 2), (1, 2)]
    assert all(classify_strip(s) == "spot" for s in ss.strips.values())
    assert validate_strip_structure(k3, ss).ok


def test_line_graph_structure_absent_for_star():
    assert line_graph_strip_structure(star_graph(3)) is None


def test_line_graph_structure_random_sweep():
    rng = random.Random(90210)
    for _ in range(40):
        g, _pre = random_line_graph(rng, max_edges=8)
        ss = line_graph_strip_structure(g)
        assert ss is not None
        assert validate_strip_structure(g, ss).ok
        assert all(classify_strip(s) in ("spot", "stripe") for s in ss.strips.values())
        images = [strip_image(ss, eid) for eid, _ in ss.edges]
        assert sorted(v for img in images for v in img) == list(range(g.n))


# ---------------------------------------------------------------------------
# conformance: strip shapes and certificates, checked at solver entry

def _one_edge_structure(strip: Strip, members=()) -> StripStructure:
    rs = tuple(sorted(members))
    zs = sorted(strip.z)
    return StripStructure(
        r_vertices=rs,
        edges=((0, members),),
        strips={0: strip},
        z_assign={0: {r: zs[i] for i, r in enumerate(members)}},
    )


K1 = Pattern.of(Graph(1, []))


def test_conformance_rejects_three_boundary_stripe():
    j = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 0), (4, 1), (5, 2)])
    s = Strip(graph=j, z=frozenset({3, 4, 5}), g_map={0: 0, 1: 1, 2: 2})
    assert classify_strip(s) == "stripe"
    ss = StripStructure(
        r_vertices=(0, 1),
        edges=((0, (0, 1)),),
        strips={0: s},
        z_assign={0: {0: 3, 1: 4}},
    )
    with pytest.raises(InputError, match="3 but edge has 2 members"):
        solve_igm_claw_free(complete_graph(3), K1, 1, ss=ss)


def test_conformance_rejects_large_alpha_under_an_alpha4_claim():
    # a one-boundary strip with five isolated interior vertices, and the
    # whole of a six-vertex edgeless host, where the unchecked claim used to
    # cap the answer at 4 copies
    j = Graph(6, [(5, 0)])
    s = Strip(graph=j, z=frozenset({5}), g_map={i: i for i in range(5)})
    g6 = Graph(6, [])
    for g, ss in ((Graph(5, []), _one_edge_structure(s, members=(9,))),
                  (g6, trivial_strip_structure(g6))):
        for k in (0, 5):
            with pytest.raises(InputError, match="'alpha4' claimed"):
                solve_igm_claw_free(g, K1, k, ss=ss, certificates={0: "alpha4"})
    five = solve_igm_claw_free(g6, K1, 5, ss=trivial_strip_structure(g6))
    assert len(five.occurrences) == 5


def test_conformance_accepts_consistent_fuzzy_certificate():
    j = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 0), (4, 1)])
    s = Strip(graph=j, z=frozenset({4}), g_map={i: i for i in range(4)})
    fam = fam_of(8, (0, 3), (2, 5), (4, 7), (6, 1))
    ss = _one_edge_structure(s, members=(9,))
    g = cycle_graph(4)
    got = solve_igm_claw_free(g, K1, 2, ss=ss, certificates={0: fam})
    assert got == solve_igm_claw_free(g, K1, 2, ss=ss) is not None


def test_conformance_rejects_inconsistent_fuzzy_certificate():
    j = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 0), (4, 1)])
    s = Strip(graph=j, z=frozenset({4}), g_map={i: i for i in range(4)})
    ss = _one_edge_structure(s, members=(9,))
    path = fam_of(12, (0, 3), (2, 5), (4, 7), (6, 9))
    with pytest.raises(InputError, match="disagree"):
        solve_igm_claw_free(cycle_graph(4), K1, 1, ss=ss, certificates={0: path})
    short = fam_of(12, (0, 3), (2, 5), (4, 7))
    with pytest.raises(InputError, match="3 arcs for 4 interior vertices"):
        solve_igm_claw_free(cycle_graph(4), K1, 1, ss=ss, certificates={0: short})


def test_conformance_alpha4_claim_on_oversized_strip(monkeypatch):
    # 32 isolated interior vertices: past the brute_force_mis cap, but the
    # bounded query still refutes the claim; past its own cap it raises
    j = Graph(33, [(32, 0)])
    s = Strip(graph=j, z=frozenset({32}), g_map={i: i for i in range(32)})
    ss = _one_edge_structure(s, members=(9,))
    g = Graph(32, [])
    with pytest.raises(InputError, match="'alpha4' claimed"):
        solve_igm_claw_free(g, K1, 1, ss=ss, certificates={0: "alpha4"})

    monkeypatch.setattr(graphs, "WIS_CAP_DEFAULT", 31)
    with pytest.raises(SizeCapError):
        solve_igm_claw_free(g, K1, 1, ss=ss, certificates={0: "alpha4"})


def test_conformance_rejects_bad_certificate_inputs():
    ss = _one_edge_structure(spot(0), members=(3, 4))
    g = Graph(1, [])
    with pytest.raises(InputError):
        solve_igm_claw_free(g, K1, 1, ss=ss, certificates={5: "alpha4"})
    with pytest.raises(InputError):
        solve_igm_claw_free(g, K1, 1, ss=ss, certificates={0: "alpha5"})
