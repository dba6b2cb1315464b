"""Reduction rules, the strip-graph bounding loop, and the selection-clique
weighted-independent-set encoding, checked against exhaustive oracles."""

import itertools
import random

import pytest

from igmatch import kernel
from igmatch.errors import InputError, InternalError
from igmatch.graphs import (
    Graph,
    Multigraph,
    Occurrence,
    Pattern,
    brute_force_wis,
    complete_graph,
    cycle_graph,
    find_igm,
    line_graph,
    path_graph,
)
from igmatch.kernel import (
    WisInstance,
    _distributions,
    _promising_copies,
    _prune_useless_vertices,
    _reduction_step,
    _strip_edge_ceiling,
    _stripe_table,
    bound_strip_graph,
    build_wis_instance,
    derive_strip_structure,
    kernelize,
)
from igmatch.strips import Strip, StripStructure, classify_strip, validate_strip_structure

from igmatch.trace import recording
from oracles import igm_exhaustive, occurrences_exhaustive, wis_reference
from randgen import random_connected_multigraph, random_graph, random_line_graph
from test_color_coding import c11_two_stripes, two_stripe_p4


# ---------------------------------------------------------------------------
# hand fixtures

def spider_line_graph(legs: int, length: int) -> Graph:
    """Line graph of a star of `legs` paths: a K_legs hub plus pendant paths.

    Host ids: hub vertices 0..legs-1, then leg i continues at
    legs + (length-1)*i .. legs + (length-1)*(i+1) - 1.
    """
    edges = [(a, b) for a, b in itertools.combinations(range(legs), 2)]
    for i in range(legs):
        prev = i
        for step in range(length - 1):
            nxt = legs + (length - 1) * i + step
            edges.append((prev, nxt))
            prev = nxt
    return Graph(legs + legs * (length - 1), edges)


def four_gadget_host():
    """Four pendant stripes around one clique, each hiding a shielded triangle.

    Gadget i: stem a_i (host i) in the hub K4, then b,c,d forming a triangle
    behind the stem.  The strip graphs are z-a-b-c-d with the triangle on
    b,c,d, so the region beyond N[z] still holds a K3.
    """
    edges = [(a, b) for a, b in itertools.combinations(range(4), 2)]
    strips = {}
    z_assign = {}
    jg = Graph(5, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4)])
    for i in range(4):
        b, c, d = 4 + 3 * i, 5 + 3 * i, 6 + 3 * i
        edges += [(i, b), (b, c), (b, d), (c, d)]
        strips[i] = Strip(graph=jg, z=frozenset({0}), g_map={1: i, 2: b, 3: c, 4: d})
        z_assign[i] = {0: 0}
    g = Graph(16, edges)
    ss = StripStructure(
        r_vertices=(0,),
        edges=tuple((i, (0,)) for i in range(4)),
        strips=strips,
        z_assign=z_assign,
    )
    return g, ss


def three_stem_host():
    """Hub triangle of stems with a pendant tip each; tips join no triangle."""
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])
    jg = path_graph(3)
    ss = StripStructure(
        r_vertices=(0,),
        edges=((0, (0,)), (1, (0,)), (2, (0,))),
        strips={
            i: Strip(graph=jg, z=frozenset({0}), g_map={1: i, 2: 3 + i})
            for i in range(3)
        },
        z_assign={i: {0: 0} for i in range(3)},
    )
    return g, ss


def stripes_and_spots_pair():
    """One strip-vertex pair carrying four tiny stripes and three spots.

    Hosts 0..3 and 4..7 are the stripe boundaries (u_i - v_i inside strip i),
    hosts 8..10 the spot bodies; C(r0) = {0..3, 8..10}, C(r1) = {4..7, 8..10}.
    """
    c0 = [0, 1, 2, 3, 8, 9, 10]
    c1 = [4, 5, 6, 7, 8, 9, 10]
    edges = set()
    for clique in (c0, c1):
        edges.update(itertools.combinations(clique, 2))
    for i in range(4):
        edges.add((i, 4 + i))
    p4 = path_graph(4)
    p3 = path_graph(3)
    strips = {}
    z_assign = {}
    eids = []
    for i in range(4):
        strips[i] = Strip(graph=p4, z=frozenset({0, 3}), g_map={1: i, 2: 4 + i})
        z_assign[i] = {0: 0, 1: 3}
        eids.append((i, (0, 1)))
    for j in range(3):
        strips[4 + j] = Strip(graph=p3, z=frozenset({0, 2}), g_map={1: 8 + j})
        z_assign[4 + j] = {0: 0, 1: 2}
        eids.append((4 + j, (0, 1)))
    g = Graph(11, sorted(edges))
    return g, StripStructure((0, 1), tuple(eids), strips, z_assign)


def parallel_stripes_host(pairs):
    """Strip-vertex pairs (2p, 2p + 1), each joined by parallel stripes and
    then spots; ``pairs[p]`` is (stripes, spots), and strip-edges are
    numbered in that order.

    A stripe is the path z - u - m - v - z, with u in C(2p) and v in
    C(2p + 1); a spot's one vertex lies in both cliques.  Removing N[Z]
    leaves a stripe only m and a spot nothing, so no strip-edge is
    promising for K2, and the m's are independent.
    """
    edges, strips, z_assign, eids = set(), {}, {}, []
    n = 0
    for p, (stripes, spots) in enumerate(pairs):
        x, y = 2 * p, 2 * p + 1
        cx, cy = [], []
        for _ in range(stripes):
            u, m, v = n, n + 1, n + 2
            n += 3
            edges.update({(u, m), (m, v)})
            cx.append(u)
            cy.append(v)
            strips[len(eids)] = Strip(graph=path_graph(5), z=frozenset({0, 4}),
                                      g_map={1: u, 2: m, 3: v})
            z_assign[len(eids)] = {x: 0, y: 4}
            eids.append((len(eids), (x, y)))
        for _ in range(spots):
            cx.append(n)
            cy.append(n)
            strips[len(eids)] = Strip(graph=path_graph(3), z=frozenset({0, 2}), g_map={1: n})
            z_assign[len(eids)] = {x: 0, y: 2}
            eids.append((len(eids), (x, y)))
            n += 1
        for clique in (cx, cy):
            edges.update(itertools.combinations(clique, 2))
    ss = StripStructure(tuple(range(2 * len(pairs))), tuple(eids), strips, z_assign)
    return Graph(n, sorted(edges)), ss


def five_spot_triangle():
    """Strip-graph triangle with parallel spots: two on (0,1), one on (0,2),
    two on (1,2); C(0) = {0,1,2}, C(1) = {0,1,3,4}, C(2) = {2,3,4}."""
    edges = set()
    for clique in ([0, 1, 2], [0, 1, 3, 4], [2, 3, 4]):
        edges.update(itertools.combinations(clique, 2))
    g = Graph(5, sorted(edges))
    p3 = path_graph(3)
    members = [(0, 1), (0, 1), (0, 2), (1, 2), (1, 2)]
    ss = StripStructure(
        r_vertices=(0, 1, 2),
        edges=tuple((i, members[i]) for i in range(5)),
        strips={
            i: Strip(graph=p3, z=frozenset({0, 2}), g_map={1: i}) for i in range(5)
        },
        z_assign={i: {members[i][0]: 0, members[i][1]: 2} for i in range(5)},
    )
    return g, ss


def mixed_spot_stripe():
    """A P5 stripe hanging off a triangle of cliques that share three spots.

    C(r0) = {4, 5, 6}, C(r1) = {5, 7}, C(r2) = {6, 7}; the stripe body is
    the path 0..4 guarded at host 4.
    """
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4),
                  (4, 5), (4, 6), (5, 6), (5, 7), (6, 7)])
    p3 = path_graph(3)
    j0 = path_graph(6)
    ss = StripStructure(
        r_vertices=(0, 1, 2),
        edges=((0, (0,)), (1, (0, 1)), (2, (0, 2)), (3, (1, 2))),
        strips={
            0: Strip(graph=j0, z=frozenset({5}), g_map={i: i for i in range(5)}),
            1: Strip(graph=p3, z=frozenset({0, 2}), g_map={1: 5}),
            2: Strip(graph=p3, z=frozenset({0, 2}), g_map={1: 6}),
            3: Strip(graph=p3, z=frozenset({0, 2}), g_map={1: 7}),
        },
        z_assign={0: {0: 5}, 1: {0: 0, 1: 2}, 2: {0: 0, 2: 2}, 3: {1: 0, 2: 2}},
    )
    return g, ss


def forked_star_line_graph(legs: int) -> Graph:
    """Line graph of a star whose every leaf forks into two pendant edges.

    The star edges form the hub clique, and each leg adds the triangle of its
    star edge and its two fork edges, so every copy of K3 meets the hub.
    """
    edges = []
    for i in range(legs):
        m = 1 + 3 * i
        edges += [(0, m), (m, m + 1), (m, m + 2)]
    return line_graph(Multigraph(1 + 3 * legs, edges))


def long_leg_spider(legs: int) -> Graph:
    """Line graph of a star with one pendant edge per leaf and a second one
    beyond the first leaf.

    Two disjoint copies of K2 exist, the far end of the long leg and a hub
    edge, yet the greedy matching's first copy lies in the hub and blocks
    every other copy.
    """
    edges = [(0, i) for i in range(1, legs + 1)]
    edges += [(i, legs + i) for i in range(1, legs + 1)] + [(legs + 1, 2 * legs + 1)]
    return line_graph(Multigraph(2 * legs + 2, edges))


def sunlet_bundle(extra: int) -> Graph:
    """The C5 sunlet's line graph with ``extra`` more copies of one cycle edge."""
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5 + i) for i in range(5)]
    return line_graph(Multigraph(10, edges + [(0, 1)] * extra))


def wheel_plus_path():
    """W5 (claw-free, not a line graph) next to a long path component."""
    edges = [(0, i) for i in range(1, 6)]
    edges += [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    edges += [(6 + i, 7 + i) for i in range(12)]
    return Graph(19, edges)


def two_far_claims_host():
    """The host of test_two_far_claims_on_one_clique_conflict."""
    return Graph(6, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 5),
                     (2, 3), (2, 4), (2, 5), (3, 5)])


def sunlet_line_graph(r: int) -> Graph:
    """Line graph of the cycle C_r with a pendant edge at every cycle vertex."""
    edges = [(i, (i + 1) % r) for i in range(r)] + [(i, r + i) for i in range(r)]
    return line_graph(Multigraph(2 * r, edges))


def wis_answer(inst: WisInstance) -> bool:
    return brute_force_wis(inst.graph, inst.weights, inst.k_card, inst.k_weight)[0]


def promising(ss: StripStructure, hp: Pattern) -> dict:
    """Each strip-edge to whether its strip holds a copy avoiding N[Z]."""
    return {eid: occ is not None for eid, occ in _promising_copies(ss, hp).items()}


# ---------------------------------------------------------------------------
# pattern gate

def test_entry_points_reject_unusable_patterns(p3, k1, k2):
    # kernelize gates the pattern once, with or without a supplied structure
    g, ss = two_stripe_p4()
    for hp in (p3, k1):
        for supplied in (None, ss):
            with pytest.raises(InputError):
                kernelize(g, hp, 2, ss=supplied)


# ---------------------------------------------------------------------------
# pruning

def test_prune_drops_vertices_outside_every_copy(k2, k3):
    g = Graph(4, [(0, 1), (0, 2), (1, 2)])
    pruned = _prune_useless_vertices(g, k2)
    assert pruned.n == 3 and len(pruned.edges) == 3

    k3_host = complete_graph(3)
    assert _prune_useless_vertices(k3_host, k3) is k3_host


def test_prune_preserves_answers_on_random_hosts(k2, k3):
    rng = random.Random(4821)
    for _ in range(15):
        g = random_graph(rng, rng.randint(4, 9), 0.4)
        for hp in (k2, k3):
            pruned = _prune_useless_vertices(g, hp)
            for k in (1, 2):
                assert igm_exhaustive(g, hp.graph, k) == igm_exhaustive(
                    pruned, hp.graph, k
                )


# ---------------------------------------------------------------------------
# the dis-degree rule: deleting C(r) at 2h(k-1) + h distinct neighbours

def _dis_degree_notes(g, hp, k):
    with recording() as notes:
        br = bound_strip_graph(g, hp, k)
    return br, [n for n in notes if n.startswith("dis-degree")]


def test_dis_degree_collapses_parallel_edges(k2):
    # ten parallel strip-edges and one more edge at a strip-vertex reach the
    # threshold 10 of K2 at k = 3, but with two distinct neighbours the rule
    # stays idle and the reduction step thins the parallel strips instead
    g = sunlet_bundle(9)
    with recording() as notes:
        br = bound_strip_graph(g, k2, 3)
    assert br.status == "reduced"
    assert not any(n.startswith("dis-degree") for n in notes)
    assert any(n.startswith("reduction step") for n in notes)
    assert wis_answer(kernelize(g, k2, 3)) is False
    assert igm_exhaustive(g, k2.graph, 3) is False


def test_dis_degree_rule_fires_on_a_nine_spoke_hub(k3):
    # the threshold for K3 at k = 2 is 9: nine spokes fire the rule, eight do not
    g = forked_star_line_graph(9)
    br, fired = _dis_degree_notes(g, k3, 2)
    assert len(fired) == 1 and fired[0].endswith("target now 1")
    assert br.status == "decided" and br.witness is None
    assert igm_exhaustive(g, k3.graph, 2) is False

    g = forked_star_line_graph(8)
    br, fired = _dis_degree_notes(g, k3, 2)
    assert not fired and br.status == "reduced"
    assert wis_answer(kernelize(g, k3, 2)) is igm_exhaustive(g, k3.graph, 2) is False


def test_dis_degree_rule_preserves_a_yes_answer(k2):
    # the threshold for K2 at k = 2 is 6; the greedy matching stops at one
    # copy, so the rule fires and the lowered target still answers yes
    g = long_leg_spider(6)
    br, fired = _dis_degree_notes(g, k2, 2)
    assert len(fired) == 1
    assert br.status == "decided" and br.witness is not None
    assert igm_exhaustive(g, k2.graph, 2) is True


def test_dis_degree_rule_refuses_below_threshold(k2):
    # five distinct neighbours stay below the threshold 6 of K2 at k = 2
    g = long_leg_spider(5)
    br, fired = _dis_degree_notes(g, k2, 2)
    assert not fired and br.status == "reduced"
    assert wis_answer(kernelize(g, k2, 2)) is igm_exhaustive(g, k2.graph, 2) is True


# ---------------------------------------------------------------------------
# promising strip-edges

def test_spots_are_never_promising(k2, k3):
    ss = derive_strip_structure(complete_graph(7))
    for hp in (k2, k3):
        assert set(promising(ss, hp).values()) == {False}


def test_shielded_triangles_are_promising(k2, k3):
    _, ss = four_gadget_host()
    assert all(promising(ss, k3).values())
    assert all(promising(ss, k2).values())


def test_thin_stripes_are_not_promising(k2):
    # both bodies vanish once N[Z] is removed from the strip graph
    _, ss = two_stripe_p4()
    assert set(promising(ss, k2).values()) == {False}


# ---------------------------------------------------------------------------
# the parallel-strip reduction step

def test_reduction_thins_parallel_spots_to_pattern_order(k2):
    g = complete_graph(7)
    ss = derive_strip_structure(g)
    g2, ss2 = _reduction_step(g, ss, 0, 1, k2, _promising_copies(ss, k2))
    assert len(ss2.edges) == 2
    assert g2.n == 2
    for k in (1, 2):
        assert igm_exhaustive(g, k2.graph, k) == igm_exhaustive(g2, k2.graph, k)


def test_reduction_prefers_stripes_over_spots(k2):
    g, ss = stripes_and_spots_pair()
    g2, ss2 = _reduction_step(g, ss, 1, 0, k2, _promising_copies(ss, k2))
    survivors = {eid for eid, _ in ss2.edges}
    assert survivors == {0, 1, 2, 3}
    assert all(classify_strip(ss2.strips[e]) == "stripe" for e in survivors)
    assert g2.n == 8
    for k in (1, 2):
        assert igm_exhaustive(g, k2.graph, k) == igm_exhaustive(g2, k2.graph, k)


def test_the_loop_thins_a_pair_of_stripes_to_the_stock(k2):
    # more than 2h = 4 non-promising strip-edges join strip-vertices 0 and 1;
    # the second pair's four stripes, within the stock, lift the
    # independence number to 5, and at k = 10 neither the greedy matching nor
    # the dis-degree rule settles anything first, so the loop itself fires
    # the reduction step on (0, 1); the thinned structure stays valid, and
    # the next round finds the strip graph bounded
    cases = [
        (6, 2, [0, 1, 2, 3]),  # above 2h stripes: the first 2h stay
        (3, 3, [0, 1, 2]),  # h to 2h stripes: every stripe stays, the spots go
        (1, 5, [0, 1]),  # below h stripes: one spot tops the stock up to h
    ]
    for stripes, spots, kept in cases:
        g, ss = parallel_stripes_host([(stripes, spots), (4, 0)])
        validate_strip_structure(g, ss)
        with recording() as notes:
            br = bound_strip_graph(g, k2, 10, ss=ss)
        assert notes[0] == "reduction step thinned the strips between 0 and 1"
        assert notes[1].startswith("strip graph bounded")
        assert br.status == "reduced" and br.k == 10
        pair = [eid for eid, ms in br.ss.edges if ms == (0, 1)]
        assert pair == kept
        side = [eid for eid, ms in br.ss.edges if ms == (2, 3)]
        assert side == list(range(stripes + spots, stripes + spots + 4))
        # a deleted stripe takes its three vertices from the host, a spot one
        gone = [eid for eid in range(stripes + spots) if eid not in kept]
        assert g.n - br.graph.n == sum(3 if eid < stripes else 1 for eid in gone)
        validate_strip_structure(br.graph, br.ss)


def test_reduction_requires_an_overloaded_pair(k2):
    # two parallel non-promising stripes are within the stock of 2h, so the
    # loop leaves the supplied structure as it is
    g, ss = c11_two_stripes()
    with recording() as notes:
        br = bound_strip_graph(g, k2, 4, ss=ss)
    assert br.status == "reduced" and br.ss is ss
    assert not any(n.startswith("reduction step") for n in notes)


# ---------------------------------------------------------------------------
# the bounding loop

# what kernelize raises for the two-stripe P4 structure on the 4-cycle,
# whose closing edge lies in no strip and no C(r)
P4_ON_C4 = ("invalid strip-structure (host edges covered: "
            "edge (0,3) lies in no strip and no C(r))")


def test_bound_validates_its_arguments(k2):
    # kernelize checks what the bounding loop receives, once, before it runs
    g, ss = two_stripe_p4()
    with pytest.raises(InputError):
        kernelize(g, k2, -1)
    with pytest.raises(InputError) as exc:
        kernelize(cycle_graph(4), k2, 2, ss=ss)
    assert str(exc.value) == P4_ON_C4


def test_bound_decides_target_zero(k2):
    br = bound_strip_graph(path_graph(4), k2, 0)
    assert br.status == "decided" and br.witness is not None
    assert not br.witness.occurrences


def test_bound_decides_when_pruning_empties_the_host(k3):
    br = bound_strip_graph(path_graph(4), k3, 1)
    assert br.status == "decided" and br.witness is None


def test_bound_decides_small_independence_directly(k2):
    with recording() as notes:
        br = bound_strip_graph(complete_graph(4), k2, 2)
    assert br.status == "decided" and br.witness is None
    assert any("independence" in n for n in notes)


def test_bound_greedy_settles_an_easy_yes(k2):
    with recording() as notes:
        br = bound_strip_graph(path_graph(29), k2, 2)
    assert br.status == "decided" and br.witness is not None
    assert len(br.witness.occurrences) == 2
    assert any("greedy" in n for n in notes)


def test_bound_faulty_greedy_witness_is_an_internal_error(k2, monkeypatch):
    # a fault in the solver's own witness must not be blamed on the caller
    touching = [Occurrence((0, 1)), Occurrence((2, 3))]
    monkeypatch.setattr(kernel, "_greedy_maximal_matching", lambda g, h: touching)
    with pytest.raises(InternalError):
        bound_strip_graph(path_graph(29), k2, 2)


def test_bound_promising_stock_settles_a_yes(k3):
    g, ss = four_gadget_host()
    with recording() as notes:
        br = bound_strip_graph(g, k3, 3, ss=ss)
    assert br.status == "decided" and br.witness is not None
    assert len(br.witness.occurrences) == 3
    assert any("promising" in n for n in notes)
    assert igm_exhaustive(g, k3.graph, 3) is True


def test_bound_reduces_with_a_certified_ceiling(k2):
    with recording() as notes:
        br = bound_strip_graph(path_graph(29), k2, 14)
    assert br.status == "reduced"
    assert br.k == 14
    assert len(br.ss.edges) <= _strip_edge_ceiling(2, 14)
    assert any("bounded" in n for n in notes)


def test_kernel_size_does_not_grow_with_the_host(k2, monkeypatch):
    """The polynomial kernel as a count ladder: the C5 sunlet with 5 to 80
    parallel copies of one cycle edge (line graphs of 15 to 90 vertices)
    kernelizes, for K2 and k = 3, to one 70-vertex, 469-edge WIS instance,
    and every bounded strip graph met on the way is within the certified
    ceiling.  The parallel-strip reduction step is what keeps it constant."""
    bounded = []
    bound = kernel.bound_strip_graph

    def recorded(*args, **kwargs):
        bounded.append(bound(*args, **kwargs))
        return bounded[-1]

    monkeypatch.setattr(kernel, "bound_strip_graph", recorded)
    for extra in (5, 10, 20, 40, 80):
        wis = kernelize(sunlet_bundle(extra), k2, 3)
        assert (wis.graph.n, len(wis.graph.edges)) == (70, 469), extra
    reduced = [br for br in bounded if br.status == "reduced"]
    assert len(reduced) == 5
    assert all(len(br.ss.edges) <= _strip_edge_ceiling(2, br.k) for br in reduced)


def test_bound_partial_when_no_structure_exists(k2):
    with recording() as notes:
        br = bound_strip_graph(wheel_plus_path(), k2, 7)
    assert br.status == "partial"
    assert br.ss is None
    assert any("not a line graph" in n for n in notes)


def test_bound_runs_the_same_loop_on_a_supplied_structure(k2):
    # a supplied structure is bounded to the end, like a derived one
    edges = [(a, b) for a, b in itertools.combinations(range(7), 2)]
    edges += [(i, 7) for i in range(7)]
    edges += [(7 + i, 8 + i) for i in range(8)]
    g = Graph(16, edges)
    ss = derive_strip_structure(g)
    with recording() as notes:
        br = bound_strip_graph(g, k2, 6, ss=ss)
    assert br.status == "reduced"
    assert br.ss is not None
    assert len(br.ss.edges) == len(ss.edges) - 5
    assert notes[0].startswith("reduction step")

    with recording() as full_notes:
        full = bound_strip_graph(g, k2, 6)
    assert full.status == "reduced"
    assert len(full.ss.edges) <= _strip_edge_ceiling(2, 6)
    assert (br.graph, br.ss, notes) == (full.graph, full.ss, full_notes)


def test_bound_re_derives_the_structure_once_pruning_bites(k3):
    # pruning drops the supplied structure; the pruned host, the hub
    # triangle, is a line graph whose independence number settles the answer
    g, ss = three_stem_host()
    with recording() as notes:
        br = bound_strip_graph(g, k3, 2, ss=ss)
    assert br.status == "decided" and br.witness is None
    assert br.ss is None
    assert br.graph == complete_graph(3)
    assert notes[0] == "pruned 3 vertices that join no copy"
    assert any("independence" in n for n in notes)
    assert igm_exhaustive(g, k3.graph, 2) is False


def _hubbed_multigraph(rng) -> Multigraph:
    """A star whose legs each end in a pendant edge, with up to six copies of
    one hub edge and a few random edges: in its line graph the dis-degree
    rule, pruning and the reduction step all fire at small targets."""
    d = rng.randint(4, 8)
    n = 2 * d + 1
    edges = [(0, i) for i in range(1, d + 1)] + [(i, d + i) for i in range(1, d + 1)]
    edges += [(1, 2)] * rng.randint(0, 6)
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 4))]
    return Multigraph(n, edges)


def test_bound_supplying_the_derived_structure_changes_nothing(k2, k3):
    rng = random.Random(7)
    seen = set()
    for i in range(160):
        if i % 2:
            n = rng.randint(6, 12)
            mg = random_connected_multigraph(rng, n, rng.randint(n, n + 6))
        else:
            mg = _hubbed_multigraph(rng)
        g = line_graph(mg)
        ss = derive_strip_structure(g)
        for hp in (k2, k3):
            for k in (2, 3, 4, 5, 6):
                with recording() as want_notes:
                    want = bound_strip_graph(g, hp, k)
                with recording() as notes:
                    got = bound_strip_graph(g, hp, k, ss=ss)
                assert (got, notes) == (want, want_notes), (i, hp.h, k)
                seen.update(note.split()[0] for note in notes)
    # every rule of the loop fired somewhere
    assert {"pruned", "dis-degree", "reduction", "greedy", "independence"} <= seen


def wheel_stripes_host():
    """Two pendant stripes whose interiors are 5-wheels, and a pendant path
    stripe, glued at strip-vertex 0.

    Each wheel faces C(0) with a rim edge (hosts 0, 1 and 2, 3); its other
    rim vertices and its hub follow.  The path a - b (hosts 12, 13) faces
    C(0) with a, so b joins no triangle.  The host is claw-free, and not a
    line graph.
    """
    rim, hub, z = range(5), 5, 6
    jw = Graph(7, [(i, (i + 1) % 5) for i in rim] + [(hub, i) for i in rim] + [(z, 0), (z, 1)])
    edges, strips, z_assign, c0 = set(), {}, {}, [12]
    for w in range(2):
        g_map = {0: 2 * w, 1: 2 * w + 1}
        g_map.update({j: 2 + 4 * w + j for j in range(2, 6)})
        edges.update((g_map[a], g_map[b]) for a, b in jw.edges if z not in (a, b))
        c0 += [2 * w, 2 * w + 1]
        strips[w] = Strip(graph=jw, z=frozenset({z}), g_map=g_map)
        z_assign[w] = {0: z}
    edges.add((12, 13))
    strips[2] = Strip(graph=path_graph(3), z=frozenset({0}), g_map={1: 12, 2: 13})
    z_assign[2] = {0: 0}
    edges.update(itertools.combinations(sorted(c0), 2))
    ss = StripStructure((0,), ((0, (0,)), (1, (0,)), (2, (0,))), strips, z_assign)
    return Graph(14, sorted(edges)), ss


def test_bound_falls_back_to_the_latest_valid_structure(k3):
    # pruning drops the supplied structure and the pruned host is not a line
    # graph, so the loop returns the latest state with a valid structure,
    # here the supplied one on the unpruned host, and kernelize encodes it
    g, ss = wheel_stripes_host()
    validate_strip_structure(g, ss)
    assert derive_strip_structure(g) is None
    answers = []
    for k in (2, 3, 4):
        with recording() as notes:
            br = bound_strip_graph(g, k3, k, ss=ss)
        assert notes == ["pruned 1 vertices that join no copy",
                         "host is not a line graph; cannot derive a strip structure"]
        assert br.status == "partial"
        assert (br.graph, br.k, br.ss) == (g, k, ss)
        inst = kernelize(g, k3, k, ss=ss)
        assert len(inst.tags) > 1
        answers.append(wis_answer(inst))
        assert answers[-1] == (find_igm(g, k3, k) is not None)
    assert answers == [True, False, False]


# ---------------------------------------------------------------------------
# stripe behaviour weights

def test_profile_weight_fixed_points(k2):
    tight = Strip(graph=path_graph(4), z=frozenset({0, 3}), g_map={1: 0, 2: 1})
    # reserving nothing still bans both N[z]'s, which covers the whole body
    for flip in (False, True):
        table = _stripe_table(tight, k2, flip)
        assert table[0, 0, "I"] == 0
        assert table == _oracle_table(tight, k2, flip)

    loose_z = Strip(graph=Graph(3, [(1, 2)]), z=frozenset({0}), g_map={1: 0, 2: 1})
    # a boundary that does not exist can never be touched
    table = _stripe_table(loose_z, k2, False)
    assert (-1,) not in table
    assert table[(0,)] == 1
    assert table == _oracle_table(loose_z, k2, False)


def _profile_weight_oracle(strip, i, j, f, hp):
    """Exhaustive re-derivation: loop over reservations, ban their closed
    neighbourhoods, and take the best compatible family of copies."""
    jg = strip.graph
    zs = sorted(strip.z)
    body = set(strip.interior())
    occ_sets = sorted(
        {frozenset(o) for o in occurrences_exhaustive(jg, hp.graph) if set(o) <= body},
        key=sorted,
    )
    spec = [(zs[0], i)] + ([(zs[1], j)] if len(zs) == 2 else [])
    pools, touch = [], []
    for z, t in spec:
        boundary = sorted(set(jg.neighbors(z)) - strip.z)
        if t == -1:
            if not boundary:
                return None
            touch.append(boundary)
        else:
            pools.append((z, t, boundary))
    if f == "C" and len(pools) == 2 and sum(t for _, t, _ in pools) >= hp.h:
        return None

    def compatible(combo):
        for a, b in itertools.combinations(combo, 2):
            if a & b or any(jg.has_edge(u, v) for u in a for v in b):
                return False
        return True

    best = None
    for picks in itertools.product(*[itertools.combinations(b, t) for _, t, b in pools]):
        sets = [set(p) for p in picks]
        if len(sets) == 2:
            union = sets[0] | sets[1]
            if sets[0] & sets[1]:
                continue
            crossing = any(jg.has_edge(u, v) for u in sets[0] for v in sets[1])
            if f == "I" and crossing:
                continue
            if f == "C" and not all(
                jg.has_edge(u, v) for u, v in itertools.combinations(sorted(union), 2)
            ):
                continue
        banned = set()
        for (z, _, _), pick in zip(pools, picks):
            for v in set(pick) | {z}:
                banned |= jg.closed_neighborhood(v)
        usable = [o for o in occ_sets if o <= body - banned]
        for r in range(len(usable), -1, -1):
            if best is not None and r <= best:
                break
            for combo in itertools.combinations(usable, r):
                if not compatible(combo):
                    continue
                union = set().union(*combo) if combo else set()
                if all(union & set(t) for t in touch):
                    best = r
                    break
    return best


def _oracle_table(strip, hp, flip):
    """The oracle's weight for every key of ``_stripe_table``, in its
    order; with ``flip`` a key's indices name the larger z first."""
    span = range(-1, hp.h)
    if len(strip.z) == 1:
        want = {(a,): _profile_weight_oracle(strip, a, None, None, hp) for a in span}
    else:
        want = {
            (a, b, f): _profile_weight_oracle(strip, *((b, a) if flip else (a, b)), f, hp)
            for a, b, f in itertools.product(span, span, ("I", "C"))
        }
    return {key: w for key, w in want.items() if w is not None}


def test_profile_weights_match_the_exhaustive_trace(k2, k3):
    plain = Strip(
        graph=path_graph(6), z=frozenset({0, 5}), g_map={i: i - 1 for i in range(1, 5)}
    )
    # boundaries {1} and {2} are adjacent, so clique-flavour reservations exist
    bridged = Strip(
        graph=Graph(6, [(0, 1), (1, 2), (2, 5), (2, 3), (3, 4)]),
        z=frozenset({0, 5}),
        g_map={i: i - 1 for i in range(1, 5)},
    )
    single = Strip(
        graph=path_graph(7), z=frozenset({0}), g_map={i: i - 1 for i in range(1, 7)}
    )
    for hp in (k2, k3):
        for s in (plain, bridged):
            for flip in (False, True):
                got = _stripe_table(s, hp, flip)
                want = _oracle_table(s, hp, flip)
                assert list(got.items()) == list(want.items()), (flip, hp.h)
        got = _stripe_table(single, hp, False)
        assert list(got.items()) == list(_oracle_table(single, hp, False).items())


# ---------------------------------------------------------------------------
# demand distributions

def test_distribution_normalization(k2):
    # patterns list their edges by id even when the structure lists its
    # edges in another order, and the idle pattern comes first
    _, ss = mixed_spot_stripe()
    shuffled = StripStructure(ss.r_vertices, ss.edges[::-1], ss.strips, ss.z_assign)
    for r in ss.r_vertices:
        got = _distributions(shuffled, r, k2)
        assert got[0] == () and set(got) == set(_distributions(ss, r, k2))
        assert all(list(d) == sorted(d) and all(c > 0 for _, c in d) for d in got)
        assert all(sum(c for _, c in d) == 2 for d in got[1:])


def test_distributions_cap_spots_at_one(k2, k3):
    _, ss = mixed_spot_stripe()
    at_r0 = _distributions(ss, 0, k2)
    expected = {
        (),
        ((0, 2),),
        ((0, 1), (1, 1)),
        ((0, 1), (2, 1)),
        ((1, 1), (2, 1)),
    }
    assert set(at_r0) == expected
    # two spots alone cannot supply three vertices
    assert set(_distributions(ss, 1, k3)) == {()}
    assert set(_distributions(ss, 1, k2)) == {(), ((1, 1), (3, 1))}


# ---------------------------------------------------------------------------
# the weighted independent set instance

def test_build_counts_selection_cliques(k2):
    g, ss = five_spot_triangle()
    inst = build_wis_instance(ss, k2, 2)
    assert inst.k_card == 8
    assert inst.k_weight == 2
    assert len(inst.cliques) == 8
    flat = sorted(v for c in inst.cliques for v in c)
    assert flat == list(range(inst.graph.n))
    assert len(set(inst.tags)) == inst.graph.n


def test_build_emits_trivial_yes_on_heavy_strips(k2):
    host = path_graph(8)
    ss = StripStructure(
        r_vertices=(0,),
        edges=((0, (0,)),),
        strips={0: Strip(graph=path_graph(9), z=frozenset({0}),
                         g_map={i: i - 1 for i in range(1, 9)})},
        z_assign={0: {0: 0}},
    )
    inst = build_wis_instance(ss, k2, 2)
    assert inst.tags == ("trivial:yes",)
    assert wis_answer(inst) is True
    assert igm_exhaustive(host, k2.graph, 2) is True


def test_build_settles_tiny_targets_directly(k2, k3):
    # bounding settles every target below 2, so no encoding is built for one
    g, ss = two_stripe_p4()
    assert kernelize(g, k2, 0, ss=ss).tags == ("trivial:yes",)
    assert kernelize(g, k2, 1, ss=ss).tags == ("trivial:yes",)
    assert kernelize(g, k3, 1, ss=ss).tags == ("trivial:no",)


def test_build_rejects_boundaryless_strip_edges(k2):
    ss = StripStructure(
        r_vertices=(),
        edges=((0, ()),),
        strips={0: Strip(graph=complete_graph(2), z=frozenset(), g_map={0: 0, 1: 1})},
        z_assign={0: {}},
    )
    with pytest.raises(InputError) as exc:
        kernelize(complete_graph(2), k2, 2, ss=ss)
    assert str(exc.value) == "0-member strip-edges carry no boundary; peel their strips off first"


def test_build_rejects_invalid_structures(k2):
    # kernelize validates a supplied structure, so the encoding can trust it
    g, ss = two_stripe_p4()
    with pytest.raises(InputError) as exc:
        kernelize(cycle_graph(4), k2, 2, ss=ss)
    assert str(exc.value) == P4_ON_C4
    # a structure that meets the gluing axioms, but whose one strip is
    # neither a spot nor a stripe: its vertex 1 sees both z's, and vertex 3
    # keeps it from being a spot.  The validator's last check refuses it.
    jg = Graph(4, [(0, 1), (1, 2), (1, 3), (0, 3)])
    odd = StripStructure((0, 1), ((0, (0, 1)),), {0: Strip(jg, frozenset({0, 2}), {1: 0, 3: 1})},
                         {0: {0: 0, 1: 2}})
    for entry in (validate_strip_structure, lambda g, ss: kernelize(g, k2, 2, ss=ss)):
        with pytest.raises(InputError) as exc:
            entry(complete_graph(2), odd)
        assert str(exc.value) == ("invalid strip-structure (spots and stripes: "
                                  "strip-edge 0 is neither a spot nor a stripe)")


def test_two_far_claims_on_one_clique_conflict(k2):
    """Two spots meeting at a strip-vertex cannot serve copies confined to
    two different far cliques; both bodies sit inside the shared clique, so
    the copies would touch.  This host used to decode to a bogus yes."""
    g = two_far_claims_host()
    ss = derive_strip_structure(g)
    inst = build_wis_instance(ss, k2, 2)
    assert igm_exhaustive(g, k2.graph, 2) is False
    assert wis_answer(inst) is False


def test_build_matches_the_matching_oracle_on_hand_fixtures(k2, k3):
    cases = []
    g, ss = two_stripe_p4()
    cases += [(g, ss, k2, k) for k in (2, 3)]
    g, ss = c11_two_stripes()
    cases += [(g, ss, k2, k) for k in (2, 3, 4)]
    cases.append((g, ss, k3, 2))
    g, ss = mixed_spot_stripe()
    cases += [(g, ss, hp, k) for hp in (k2, k3) for k in (2, 3)]
    g, ss = five_spot_triangle()
    cases += [(g, ss, hp, 2) for hp in (k2, k3)]
    for g, ss, hp, k in cases:
        validate_strip_structure(g, ss)
        inst = build_wis_instance(ss, hp, k)
        assert wis_answer(inst) == igm_exhaustive(g, hp.graph, k), (hp.h, k)


def test_build_matches_the_matching_oracle_on_random_line_graphs(k2, k3):
    rng = random.Random(991)
    seen = 0
    while seen < 15:
        g, _ = random_line_graph(rng, max_edges=10)
        if not 0 < g.n <= 12 or any(not g.neighbors(v) for v in range(g.n)):
            continue
        ss = derive_strip_structure(g)
        if ss is None:
            continue
        seen += 1
        for hp in (k2, k3):
            for k in (2, 3):
                inst = build_wis_instance(ss, hp, k)
                assert wis_answer(inst) == igm_exhaustive(g, hp.graph, k)


def test_full_cardinality_selections_pick_one_per_clique(k2):
    g, ss = c11_two_stripes()
    inst = build_wis_instance(ss, k2, 3)
    ok, chosen = brute_force_wis(inst.graph, inst.weights, inst.k_card, inst.k_weight)
    assert ok
    picked = set(chosen)
    for clique in inst.cliques:
        assert len(picked & set(clique)) == 1


def _planted_selection_question(rng):
    """1-7 cliques of 1-4 consecutive vertices with random cross edges, and
    a cardinality target of one vertex per clique, one less, or random."""
    sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 7))]
    starts = list(itertools.accumulate(sizes, initial=0))
    n, m = starts[-1], len(sizes)
    edges = {e for a, b in zip(starts, starts[1:]) for e in itertools.combinations(range(a, b), 2)}
    p = rng.uniform(0.2, 0.5)
    edges |= {e for e in itertools.combinations(range(n), 2) if rng.random() < p}
    weights = [rng.randint(0, 2) for _ in range(n)]
    k_card = rng.choice((m, m - 1, rng.randint(0, m)))
    return Graph(n, sorted(edges)), weights, k_card, rng.randint(0, m)


def test_wis_witnesses_match_the_static_bound_reference(k2, k3):
    """Same answer and same witness as the static-bound search, on random
    weighted graphs, on planted selection cliques and on every
    selection-clique encoding of the fixtures."""
    questions = []
    rng = random.Random(2024)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(0, 16), rng.uniform(0.05, 0.9))
        weights = [rng.randint(0, 6) for _ in range(g.n)]
        questions.append((g, weights, rng.randint(0, 7), rng.randint(0, 25)))
    # planted cliques, 813 of them tight at the root (one vertex from every
    # clique of the partition), which random graphs rarely are; 144 of
    # these searches propagate
    rng = random.Random(7031)
    questions += [_planted_selection_question(rng) for _ in range(2000)]
    # the encodings the tests above build from the hand fixtures ...
    g = two_far_claims_host()
    builds = [(*two_stripe_p4(), hp, k) for hp in (k2, k3) for k in (2, 3)]
    builds += [(*c11_two_stripes(), hp, k) for hp in (k2, k3) for k in (2, 3, 4)]
    builds += [(*mixed_spot_stripe(), hp, k) for hp in (k2, k3) for k in (2, 3)]
    builds += [(*five_spot_triangle(), hp, 2) for hp in (k2, k3)]
    builds += [(*stripes_and_spots_pair(), k2, 2), (g, derive_strip_structure(g), k2, 2)]
    # ... and from the random line graphs
    rng = random.Random(991)
    seen = 0
    while seen < 15:
        g, _ = random_line_graph(rng, max_edges=10)
        if not 0 < g.n <= 12 or any(not g.neighbors(v) for v in range(g.n)):
            continue
        ss = derive_strip_structure(g)
        if ss is None:
            continue
        seen += 1
        builds += [(g, ss, hp, k) for hp in (k2, k3) for k in (2, 3)]
    for g, ss, hp, k in builds:
        inst = build_wis_instance(ss, hp, k)
        questions.append((inst.graph, inst.weights, inst.k_card, inst.k_weight))
    # the benchmark-sized encoding: K2 on the C5 sunlet at its optimum 2 (yes)
    # and one past it (no), 60 vertices in 15 selection cliques each
    g = sunlet_line_graph(5)
    ss = derive_strip_structure(g)
    for k in (2, 3):
        inst = build_wis_instance(ss, k2, k)
        assert inst.graph.n == 60 and inst.k_card == 15
        assert wis_answer(inst) == igm_exhaustive(g, k2.graph, k) == (k == 2)
        questions.append((inst.graph, inst.weights, inst.k_card, inst.k_weight))
    # the benchmark's other encoded no-instances, one past the optimum, where
    # the search propagates: K3 on the C5 sunlet, and K2 on the sunlet with
    # five parallel copies of one cycle edge (the reduction step fires)
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5 + i) for i in range(5)]
    bundle = line_graph(Multigraph(10, edges + [(0, 1)] * 5))
    for g, hp, k, n in ((sunlet_line_graph(5), k3, 2, 60), (bundle, k2, 3, 70)):
        assert igm_exhaustive(g, hp.graph, k - 1) and not igm_exhaustive(g, hp.graph, k)
        inst = kernelize(g, hp, k)
        assert inst.graph.n == n and len(inst.cliques) == inst.k_card
        questions.append((inst.graph, inst.weights, inst.k_card, inst.k_weight))
    for g, weights, k_card, k_weight in questions:
        want = wis_reference(g, weights, k_card, k_weight)
        assert brute_force_wis(g, weights, k_card, k_weight) == want, (g.n, k_card, k_weight)


def wis_size_ceiling(ss: StripStructure, h: int) -> int:
    """The paper's cap on the number of selection vertices for a structure.

    Per strip-edge at most 2(h+2)^2 behaviours; per strip-vertex at most
    2^(h-1) N^h + 1 demand patterns (each pattern is a multiset partition of
    h, at most 2^(h-1) of them, assigned to at most N^h edge choices) plus N
    stick-out choices; per ordered pair at most 4N spanning choices and per
    triple 3.
    """
    n_e = len(ss.edges)
    n_r = len(ss.r_vertices)
    per_edge = 2 * (h + 2) ** 2
    per_r = 2 ** (h - 1) * max(n_e, 1) ** h + 1 + n_e
    pairs = n_r * (n_r - 1) // 2
    triples = n_r * (n_r - 1) * (n_r - 2) // 6
    return n_e * per_edge + n_r * per_r + pairs * 4 * n_e + triples * 3


def test_build_respects_the_size_ceiling_and_weight_cap(k2, k3):
    cases = [
        (*c11_two_stripes(), k2, 4),
        (*mixed_spot_stripe(), k3, 2),
        (*five_spot_triangle(), k2, 2),
        (*stripes_and_spots_pair(), k2, 2),
    ]
    for g, ss, hp, k in cases:
        inst = build_wis_instance(ss, hp, k)
        assert inst.graph.n > 1, "fixture unexpectedly trivial"
        assert inst.graph.n <= wis_size_ceiling(ss, hp.h)
        assert max(inst.weights) <= k - 1


# ---------------------------------------------------------------------------
# end-to-end kernelization

def test_kernelize_passes_through_decided_answers(k2):
    with recording() as notes:
        inst = kernelize(complete_graph(4), k2, 2)
    assert inst.tags == ("trivial:no",)
    assert wis_answer(inst) is False
    assert any("independence" in n for n in notes)
    assert notes[-1] == "bounding settled the answer: no"

    inst = kernelize(path_graph(29), k2, 2)
    assert inst.tags == ("trivial:yes",)
    assert wis_answer(inst) is True


def test_kernelize_encodes_a_bounded_manual_structure(k2):
    g, ss = c11_two_stripes()
    with recording() as notes:
        inst = kernelize(g, k2, 4, ss=ss)
    assert inst.graph.n > 1
    assert wis_answer(inst) is False
    assert igm_exhaustive(g, k2.graph, 4) is False
    # the supplied structure is bounded as it stands, with no re-derivation
    assert notes[0] == "strip graph bounded: 2 strip-edges (ceiling 1034)"


def test_kernelize_raises_when_no_structure_survives(k2, k3):
    with pytest.raises(InputError):
        kernelize(wheel_plus_path(), k2, 7)
    # an isolated vertex more: the message names every bounding step, in order
    g = wheel_plus_path()
    with pytest.raises(InputError) as exc:
        kernelize(Graph(g.n + 1, g.edges), k2, 7)
    assert str(exc.value) == (
        "cannot kernelize: pruned 1 vertices that join no copy; host is not a "
        "line graph; cannot derive a strip structure"
    )
    # a supplied structure that pruning drops is re-derived, not refused
    g, ss = three_stem_host()
    assert wis_answer(kernelize(g, k3, 2, ss=ss)) is False
