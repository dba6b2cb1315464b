import functools
import hashlib
import itertools
import random
from collections import Counter

import pytest

import igmatch.color_coding as cc

from igmatch.errors import InputError, SizeCapError
from igmatch.graphs import (
    Graph,
    Matching,
    Multigraph,
    Occurrence,
    Pattern,
    brute_force_mis,
    complete_graph,
    cycle_graph,
    disjoint_union,
    find_igm,
    line_graph,
    path_graph,
    star_graph,
)
from igmatch.fuzzy_solver import solve_igm_fuzzy_ca
from igmatch.models import Arc, ArcModel, FuzzyArcModel, realize
from igmatch.strips import (
    Strip,
    StripStructure,
    line_graph_strip_structure,
    trivial_strip_structure,
    validate_strip_structure,
)
from igmatch.color_coding import (
    Base,
    BaseEdge,
    BaseSurjection,
    ElementColoring,
    _step5_coloring,
    base_palette,
    blank,
    coloring_family,
    global_matching_step,
    solve_igm_claw_free,
    solve_strip_interiors,
    structure_elements,
)
from igmatch import strips
from igmatch.trace import recording
from oracles import (
    all_colorings,
    base_invariant_failures,
    base_stream_reference,
    canonical_base_key_reference,
    check_condition1,
    check_condition2,
    covered_subgraph,
    embeddings_reference,
    natural_coloring_reference,
    placements_reference,
)


# ---------------------------------------------------------------------------
# hand-built structures reused across the file

def two_stripe_p4():
    """P4 split into two one-boundary stripes glued at strip-vertex 0.

    Each strip is the path j0-j1-z with body {j0, j1}; strip 0 covers host
    {0, 1}, strip 1 covers {3, 2}, and C(0) = {1, 2} is the middle edge.
    """
    j = Graph(3, [(0, 1), (1, 2)])
    return path_graph(4), StripStructure(
        r_vertices=(0,),
        edges=((0, (0,)), (1, (0,))),
        strips={
            0: Strip(graph=j, z=frozenset({2}), g_map={0: 0, 1: 1}),
            1: Strip(graph=j, z=frozenset({2}), g_map={0: 3, 1: 2}),
        },
        z_assign={0: {0: 2}, 1: {0: 2}},
    )


def path6_stripe():
    """A single stripe: z = j0 guards v1; the body v1..v6 maps to host 0..5."""
    return StripStructure(
        r_vertices=(0,),
        edges=((0, (0,)),),
        strips={
            0: Strip(
                graph=path_graph(7),
                z=frozenset({0}),
                g_map={i: i - 1 for i in range(1, 7)},
            )
        },
        z_assign={0: {0: 0}},
    )


def c11_two_stripes():
    """C11 as two stripes glued at both ends (hand alternative to a line-graph
    root)."""
    g = cycle_graph(11)
    # strip 0: body 0..5, z at both ends; strip 1: body 6..10
    j0 = path_graph(8)
    j1 = path_graph(7)
    ss = StripStructure(
        r_vertices=(0, 1),
        edges=((0, (0, 1)), (1, (0, 1))),
        strips={
            0: Strip(graph=j0, z=frozenset({0, 7}), g_map={i: i - 1 for i in range(1, 7)}),
            1: Strip(graph=j1, z=frozenset({0, 6}), g_map={i: i + 5 for i in range(1, 6)}),
        },
        # C(0) = {0, 10} and C(1) = {5, 6}, the two gluing edges of the cycle
        z_assign={0: {0: 0, 1: 7}, 1: {0: 6, 1: 0}},
    )
    return g, ss


def full_budget(h, k) -> dict:
    """A shape budget that restricts nothing: no plan has more than hk edges."""
    return {(kind, nm): h.h * k for kind, nm, _slots in cc._NEW_EDGE_SHAPES}


def all_bases(h, k):
    return cc._base_stream(h, k, full_budget(h, k))


def surj_single_edge():
    return BaseSurjection({0: 0}, {0: {0: 0}})


T10 = (1, 0)
T11 = (1, 1)


# ---------------------------------------------------------------------------
# base enumeration against an independent hand enumeration

def _norm(base, gperm, vperm):
    """Multiset of edge descriptors under a group and vertex relabeling."""
    out = []
    for fe in base.edges:
        if fe.kind == "spot":
            tk = fe.spot_token
            out.append(
                ("spot", frozenset(vperm[m] for m in fe.members),
                 (gperm[tk[0]], tk[1]) if tk else None)
            )
        else:
            ends = frozenset(
                (vperm[m], frozenset((gperm[g], hv) for (g, hv) in bd))
                for m, bd in zip(fe.members, fe.boundaries)
            )
            inner = frozenset((gperm[g], hv) for (g, hv) in fe.interior)
            out.append(("stripe", ends, inner))
    return frozenset(out) if len(set(out)) == len(out) else tuple(sorted(map(repr, out)))


def bases_isomorphic(a, b):
    if a.n_vertices != b.n_vertices or len(a.edges) != len(b.edges):
        return False
    groups = sorted({g for fe in a.edges for (g, _hv) in fe.tokens()})
    if sorted({g for fe in b.edges for (g, _hv) in fe.tokens()}) != groups:
        return False
    ident = {g: g for g in groups}
    target = _norm(b, ident, {v: v for v in range(b.n_vertices)})
    for gp in itertools.permutations(groups):
        gperm = dict(zip(groups, gp))
        for vp in itertools.permutations(range(a.n_vertices)):
            vperm = dict(enumerate(vp))
            if _norm(a, gperm, vperm) == target:
                return True
    return False


def all_k1_bases_by_hand():
    """Every base shape for a single token, written out explicitly."""
    t = T10
    none = frozenset()
    return [
        Base(2, (BaseEdge("spot", (0, 1), spot_token=t),)),
        Base(1, (BaseEdge("stripe", (0,), interior=frozenset({t}), boundaries=(none,)),)),
        Base(1, (BaseEdge("stripe", (0,), boundaries=(frozenset({t}),)),)),
        Base(2, (BaseEdge("stripe", (0, 1), interior=frozenset({t}), boundaries=(none, none)),)),
        Base(2, (BaseEdge("stripe", (0, 1), boundaries=(frozenset({t}), none)),)),
        Base(2, (BaseEdge("stripe", (0, 1), boundaries=(frozenset({t}), frozenset({t}))),)),
    ]


def test_single_token_bases_match_hand_enumeration(k1):
    got = list(all_bases(k1, 1))
    want = all_k1_bases_by_hand()
    assert len(got) == len(want) == 6
    for w in want:
        assert sum(1 for b in got if bases_isomorphic(b, w)) == 1


def test_enumerated_bases_are_pairwise_nonisomorphic(k2):
    got = list(all_bases(k2, 1))
    assert len(got) == 39
    for i, a in enumerate(got):
        for b in got[i + 1:]:
            assert not bases_isomorphic(a, b)


def test_enumerated_bases_assign_all_tokens_and_pass_conditions(p3, k2):
    for h, k in ((p3, 1), (k2, 2)):
        n = 0
        for b in all_bases(h, k):
            n += 1
            assert base_invariant_failures(b, h, k) == [], (h.graph, k, b)
        assert n > 0


def test_enumerate_bases_cap_and_degenerate_k(k3, k2):
    with pytest.raises(SizeCapError):
        all_bases(k3, 3)  # hk = 9 over the default cap
    assert list(all_bases(k2, 0)) == []


# the streams whose every base is pinned, as (pattern, k, shape budget);
# budgets as _shaped_bases receives them, None for the full budget.  The
# last stream is a base-cache key of the ``clawfree`` benchmark workload; the
# two before it glue several groups onto two-member stripes, where a key that
# forgot which end of an edge another edge is glued to would merge classes.
PINNED_STREAMS = (
    ("k2", 2, {("spot", 2): 4}),
    ("k2", 3, {("spot", 2): 6}),
    ("p3", 2, {("spot", 2): 6}),
    ("k2", 1, None),
    ("p3", 1, None),
    ("k3", 1, None),
    ("k1", 2, None),
    ("k2", 2, {("stripe", 1): 2, ("stripe", 2): 2}),
    ("k3", 2, {("spot", 2): 6}),
)

PATTERNS = {
    "k1": Pattern.of(complete_graph(1)),
    "k2": Pattern.of(complete_graph(2)),
    "k3": Pattern.of(complete_graph(3)),
    "p3": Pattern.of(path_graph(3)),
}


@functools.cache
def streamed_bases(i: int) -> tuple:
    """(pattern, bases) of ``PINNED_STREAMS[i]``, streamed once per session."""
    name, k, budget = PINNED_STREAMS[i]
    h = PATTERNS[name]
    return h, tuple(cc._base_stream(h, k, budget or full_budget(h, k)))


def stream_digest(bases) -> str:
    """sha256 over the bases in stream order, each edge serialized as (kind,
    members, spot token, sorted interior, sorted boundary sets); never the
    repr of a frozenset, whose order depends on how the set was built."""
    d = hashlib.sha256()
    for b in bases:
        edges = tuple(
            (fe.kind, fe.members, fe.spot_token, tuple(sorted(fe.interior)),
             tuple(tuple(sorted(bd)) for bd in fe.boundaries))
            for fe in b.edges
        )
        d.update(repr((b.n_vertices, edges)).encode() + b"\n")
    return d.hexdigest()


# (base count, stream_digest) per PINNED_STREAMS entry; a generator rewrite
# must reproduce every base in the same order
PINNED_DIGESTS = (
    (3, "554955db32af779d52d80f5dbce266a46f5f6c1ece84e0ddc74af9e5bfdd3524"),
    (4, "9da580fa8752f7ea79cee815ab4ad622a5aa818724b172f8062c0ce831a06e42"),
    (1, "a8d6c78035b0a8f47d8e8daeabe303095e0b8359eafb9434323dbc09b44e3a98"),
    (39, "f738e86c491eb20eb6b4df860de74376bcef879eb83100d624eecf21e30ee1e7"),
    (145, "37290d1f7af8aafcc44928e9cef07063a6a0d055fd9a85726c52a3e9ecc2f8d3"),
    (353, "a1bc471697a8f8ae4e3322e0757a4fd9c3b7be5c31357cf3e5ce0eab66fa1025"),
    (50, "e3510eda9af1ddfcd372dadce344ec1751b52f157f918d1cb362e94adb4ba1c1"),
    (555, "ef4b3f14f0f6e026ff1bad4f2f79f8421773d42cda71dd1a201dfc1de982ab91"),
    (21, "a168372fd8c4eb3175c0bb795a375260688780f4f38331fbb70fc8904ae3e5b5"),
)


def test_base_streams_are_pinned():
    got = []
    for i in range(len(PINNED_STREAMS)):
        _h, bases = streamed_bases(i)
        got.append((len(bases), stream_digest(bases)))
    assert got == list(PINNED_DIGESTS)


def test_streamed_bases_keep_the_base_invariants():
    """Nothing checks a base when it is built; every pinned base must still
    be well formed, hold all hk tokens and pass both token conditions."""
    for i, (_name, k, _budget) in enumerate(PINNED_STREAMS):
        h, bases = streamed_bases(i)
        for b in bases:
            assert base_invariant_failures(b, h, k) == [], (PINNED_STREAMS[i], b)


def test_base_stream_matches_the_brute_force_key():
    """The stream skips gluings and keys by orbit; the plain generator over
    every gluing, deduplicated by the brute-force key, must yield the same
    bases in the same order."""
    got = [streamed_bases(i)[1] for i in range(len(PINNED_STREAMS))]
    want = [
        tuple(base_stream_reference(PATTERNS[h], k, b or full_budget(PATTERNS[h], k),
                                    canonical_base_key_reference))
        for h, k, b in PINNED_STREAMS
    ]
    assert [len(s) for s in got] == [3, 4, 1, 39, 145, 353, 50, 555, 21]
    assert got == want


def _counted_stream(monkeypatch, h, k, budget, limit=None):
    """(bases, ``_glued_base`` calls, ``_base_key`` calls, prefixes refuted
    by condition 1) of the first ``limit`` bases of a stream, all if None."""
    calls = Counter()

    def count(mp, name, counts=lambda _out: True):
        real = getattr(cc, name)

        def counted(*args):
            out = real(*args)
            calls[name] += counts(out)
            return out

        mp.setattr(cc, name, counted)

    with monkeypatch.context() as mp:
        count(mp, "_glued_base")
        count(mp, "_base_key")
        count(mp, "_seats_shared", counts=lambda met: not met)
        bases = tuple(itertools.islice(cc._base_stream(h, k, budget), limit))
    return bases, calls["_glued_base"], calls["_base_key"], calls["_seats_shared"]


def test_base_stream_work_is_pinned_by_counts(monkeypatch):
    """Gluings built, keys computed and prefixes cut by condition 1, so
    that a lost pruning fails here.

    For comparison, ``base_stream_reference`` builds 7,569 gluings for K3,
    k = 2 on six spots and 4,746 for K1, k = 5 on two two-member stripes,
    and a minimum over all k! group relabelings per gluing takes 3,872 and
    569,520 keys.  A stream that tests condition 1 on each whole glued base
    builds 841 and 3,943 gluings."""
    got = []
    for name, k, budget in (("k3", 2, {("spot", 2): 6}), ("k1", 5, {("stripe", 2): 2})):
        bases, *counts = _counted_stream(monkeypatch, PATTERNS[name], k, budget)
        got.append((len(bases), *counts))
    # every gluing built passes condition 1: one own key per gluing, plus k!
    # per kept base; K1 has no edge, so condition 1 cuts nothing
    assert got == [(21, 121, 121 + 21 * 2, 96), (77, 3943, 3943 + 77 * 120, 0)]


# full-shape streams with their length, their ``_glued_base`` calls and the
# digest of the stream a whole-base condition 1 test yields; P3, k = 2 by
# its first 1,000 bases, which the whole-base test took 113,237 gluings for
FULL_SHAPE_STREAMS = (
    ("k2", 2, None, 2173, 6891,
     "ee06f590d20e702e12f7cb8c8ac32fc2c14b5d2c697b6126a613c9e90cbb6dd7"),
    ("p3", 2, 1000, 1000, 2823,
     "396dec58134471d1250972be77c3fc01dfdf63463228ad42bebf25963322e991"),
)


def test_full_shape_streams_are_pinned(monkeypatch):
    for name, k, limit, n, glued, digest in FULL_SHAPE_STREAMS:
        h = PATTERNS[name]
        bases, calls, _keys, _cut = _counted_stream(monkeypatch, h, k, full_budget(h, k), limit)
        assert (len(bases), calls, stream_digest(bases)) == (n, glued, digest), name


@pytest.mark.slow
def test_the_full_p3_k2_stream_finishes(monkeypatch):
    """All three shapes at hk each.  A whole-base condition 1 test yields
    the same stream, with the same digest, from 10,929,550 gluings; that
    took minutes, this takes under one."""
    h = PATTERNS["p3"]
    bases, calls, _keys, _cut = _counted_stream(monkeypatch, h, 2, full_budget(h, 2))
    assert (len(bases), calls, stream_digest(bases)) == (
        36848, 136159, "59036a4435087b41b25e9c40c45dd2d4b4409fc048ae6cded9f675a273492b9f")


# ---------------------------------------------------------------------------
# the two token conditions on hand-built bases

def test_condition1_same_edge_interior_pair(k2):
    b = Base(1, (BaseEdge("stripe", (0,), interior=frozenset({T10, T11}),
                          boundaries=(frozenset(),)),))
    assert check_condition1(b, k2)


def test_condition1_rejects_disjoint_edges(k2):
    b = Base(2, (
        BaseEdge("stripe", (0,), boundaries=(frozenset({T10}),)),
        BaseEdge("stripe", (1,), boundaries=(frozenset({T11}),)),
    ))
    assert not check_condition1(b, k2)


def test_condition1_accepts_shared_glued_vertex(k2):
    b = Base(1, (
        BaseEdge("stripe", (0,), boundaries=(frozenset({T10}),)),
        BaseEdge("stripe", (0,), boundaries=(frozenset({T11}),)),
    ))
    assert check_condition1(b, k2)
    assert check_condition2(b, k2)


def test_condition2_rejects_two_groups_at_a_vertex(k1):
    b = Base(1, (
        BaseEdge("stripe", (0,), boundaries=(frozenset({(1, 0)}),)),
        BaseEdge("stripe", (0,), boundaries=(frozenset({(2, 0)}),)),
    ))
    assert not check_condition2(b, k1)


def test_condition2_wants_a_pattern_clique(k3, p3):
    adjacent = Base(1, (BaseEdge("stripe", (0,), boundaries=(frozenset({T10, T11}),)),))
    assert check_condition2(adjacent, k3)
    ends = Base(1, (BaseEdge("stripe", (0,), boundaries=(frozenset({(1, 0), (1, 2)}),)),))
    assert not check_condition2(ends, p3)


# ---------------------------------------------------------------------------
# coloring families

# the 20 draws of seed 7 below, as palette indices per element
SEED7_DRAWS = [
    (1, 0, 1, 2, 0, 0), (2, 0, 1, 2, 0, 2), (0, 0, 0, 1, 1, 0), (0, 0, 2, 1, 0, 2),
    (0, 0, 2, 2, 2, 0), (2, 2, 1, 0, 0, 0), (2, 0, 1, 1, 0, 2), (0, 2, 1, 2, 2, 0),
    (0, 2, 2, 2, 0, 1), (0, 2, 2, 0, 2, 0), (2, 0, 1, 2, 2, 1), (1, 1, 2, 1, 1, 1),
    (0, 0, 2, 0, 0, 2), (1, 2, 1, 1, 2, 1), (1, 2, 0, 0, 2, 1), (0, 1, 0, 1, 1, 0),
    (2, 0, 2, 2, 1, 1), (2, 1, 2, 1, 2, 1), (0, 0, 1, 1, 2, 2), (0, 0, 2, 2, 1, 2),
]


def test_random_family_is_seed_deterministic():
    elements = tuple(("rv", i) for i in range(6))
    palette = (("v", 0), ("v", 1), ("v", 2))
    a = [f.colors for f in coloring_family(elements, palette, trials=20, seed=7)]
    b = [f.colors for f in coloring_family(elements, palette, trials=20, seed=7)]
    c = [f.colors for f in coloring_family(elements, palette, trials=20, seed=8)]
    assert a == b
    assert a != c
    assert [tuple(f[e][1] for e in elements) for f in a] == SEED7_DRAWS
    with pytest.raises(InputError):
        coloring_family(elements, palette)


# ---------------------------------------------------------------------------
# blanking

def natural_p4_coloring():
    return ElementColoring({
        ("rv", 0): ("v", 0),
        ("int", 0): ("intc", 0),
        ("bnd", 0, 0): ("bndc", 0, 0),
        ("int", 1): ("v", 0),
        ("bnd", 1, 0): ("v", 0),
    })


def p4_base():
    return Base(1, (BaseEdge("stripe", (0,), interior=frozenset({T10}),
                             boundaries=(frozenset({T11}),)),))


def test_blank_hand_trace_on_two_stripes():
    g, ss = two_stripe_p4()
    assert validate_strip_structure(g, ss).ok
    out = blank(natural_p4_coloring(), ss, p4_base())
    assert out is not None
    f2, surj = out
    assert surj.edge_map == {0: 0}
    assert surj.alignment == {0: {0: 0}}
    assert f2.colors == {
        ("rv", 0): ("v", 0),
        ("int", 0): ("intc", 0),
        ("bnd", 0, 0): ("bndc", 0, 0),
    }


def test_blank_is_idempotent():
    _g, ss = two_stripe_p4()
    base = p4_base()
    f2, surj = blank(natural_p4_coloring(), ss, base)
    again = blank(f2, ss, base)
    assert again == (f2, surj)


def test_blank_fails_when_a_color_disappears():
    _g, ss = two_stripe_p4()
    base = p4_base()
    # vertex colors everywhere: both edges blanked, edge colors missing
    flat = ElementColoring({el: ("v", 0) for el in structure_elements(ss)})
    assert blank(flat, ss, base) is None
    # boundary and interior colors swapped on the surviving edge
    swapped = ElementColoring({
        ("rv", 0): ("v", 0),
        ("int", 0): ("bndc", 0, 0),
        ("bnd", 0, 0): ("intc", 0),
        ("int", 1): ("v", 0),
        ("bnd", 1, 0): ("v", 0),
    })
    assert blank(swapped, ss, base) is None


def test_embedded_surjections_are_what_blanking_leaves(k2, p3):
    """Exhaustive mode skips colorings: each embedding's surjection must be
    the one blanking leaves of the coloring that paints exactly it."""
    structures = (
        two_stripe_p4()[1],
        c11_two_stripes()[1],
        line_graph_strip_structure(path_graph(8)),
    )
    runs = 0
    for ss in structures:
        profiles = cc._strip_profiles(ss)
        supply = Counter(profiles.values())
        for h, k in ((k2, 1), (p3, 1), (k2, 2)):
            shapes = tuple(sorted((s, min(c, h.h * k)) for s, c in supply.items()))
            for base in cc._shaped_bases(h, k, shapes):
                for vmap, emap in cc._embeddings(base, ss, cc._strip_index(ss, profiles)):
                    f = natural_coloring_reference(base, ss, vmap, emap)
                    out = blank(f, ss, base)
                    assert out is not None
                    assert out[1] == cc._embedded_surjection(base, (vmap, emap))
                    runs += 1
    assert runs > 100


def test_embeddings_match_the_scan_reference(k1, k2, p3, k3):
    """The anchored search emits every embedding of the full scan, in its
    order, on spots, one- and two-member stripes, parallel spots and parallel
    stripes."""
    from randgen import random_connected_multigraph

    cycle = [(i, (i + 1) % 11) for i in range(11)]
    structures = [
        two_stripe_p4()[1],
        c11_two_stripes()[1],
        path6_stripe(),
        line_graph_strip_structure(line_graph(Multigraph(11, cycle + [(0, 4), (2, 7)]))),
    ]
    rng = random.Random(1)
    for _ in range(3):
        mg = random_connected_multigraph(rng, 4, 4)
        structures.append(line_graph_strip_structure(line_graph(mg)))
    parallel_spots = mixed_vertex = refuted = 0
    for ss in structures:
        profiles = cc._strip_profiles(ss)
        index = cc._strip_index(ss, profiles)
        parallel_spots += index.most.get(("spot", 2), 0) > 1
        mixed_vertex += any(
            (("spot", 2), r) in index.incident and (("stripe", 1), r) in index.incident
            for r in ss.r_vertices
        )
        for h, top in ((k1, 5), (k2, 3), (p3, 2), (k3, 2)):
            for k in range(1, top + 1):
                shapes = tuple(sorted((s, min(len(e), h.h * k)) for s, e in index.by_shape.items()))
                for base in cc._shaped_bases(h, k, shapes):
                    want = list(embeddings_reference(base, ss, profiles))
                    assert list(cc._embeddings(base, ss, index)) == want
                    refuted += not want
    assert parallel_spots and mixed_vertex and refuted


# ---------------------------------------------------------------------------
# strip interiors (step 4 fixtures, derived by brute-forcing realizations)

def test_interior_solver_boundary_plus_interior_token(k2):
    ss = path6_stripe()
    base = Base(1, (BaseEdge("stripe", (0,), interior=frozenset({T11}),
                             boundaries=(frozenset({T10}),)),))
    assignments, kp = solve_strip_interiors(ss, base, surj_single_edge(), k2, {})
    assert kp == 1
    a = assignments[0]
    assert a.x_vertices == {T10: 0, T11: 1}
    assert a.interior_matching == (Occurrence((3, 4)),)


def test_interior_solver_unconstrained_stripe(k2):
    ss = path6_stripe()
    base = Base(1, (BaseEdge("stripe", (0,), boundaries=(frozenset(),)),))
    assignments, kp = solve_strip_interiors(ss, base, surj_single_edge(), k2, {})
    assert kp == 2
    assert assignments[0].x_vertices == {}


def test_interior_solver_pigeonhole_drops_the_edge(k2):
    ss = path6_stripe()
    base = Base(1, (BaseEdge("stripe", (0,),
                             boundaries=(frozenset({T10, T11}),)),))
    assignments, kp = solve_strip_interiors(ss, base, surj_single_edge(), k2, {})
    assert assignments == {} and kp == 0


def test_interior_solver_through_fuzzy_certificate(k2):
    ss = path6_stripe()
    base = Base(1, (BaseEdge("stripe", (0,), interior=frozenset({T11}),
                             boundaries=(frozenset({T10}),)),))
    fam = _path_certificate(6)
    assert realize(fam) == path_graph(6)
    assignments, kp = solve_strip_interiors(ss, base, surj_single_edge(), k2, {0: fam})
    assert kp == 1
    assert assignments[0].interior_matching == (Occurrence((3, 4)),)


def test_token_placements_match_the_reference():
    # the placements are the induced maps of the token graph, in the order the
    # token-by-token search listed them (dict order included); no token at all
    # has the one empty placement
    from randgen import random_graph

    rng = random.Random(31)
    patterns = [Pattern.of(hg) for hg in (complete_graph(2), path_graph(3), complete_graph(3),
                                          cycle_graph(4), Graph(3, [(1, 2)]))]
    total = empty = 0
    for _ in range(300):
        J = random_graph(rng, rng.randint(0, 9), rng.random())
        h = rng.choice(patterns)
        groups = range(1, rng.randint(1, 3) + 1)
        tokens = sorted((g, hv) for g in groups for hv in range(h.h) if rng.random() < 0.5)
        allowed = {t: sorted(v for v in range(J.n) if rng.random() < 0.6) for t in tokens}
        got = cc._token_placements(J, h, tokens, [allowed[t] for t in tokens])
        want = placements_reference(J, h, tokens, allowed)
        assert [list(x.items()) for x in got] == [list(x.items()) for x in want], (J.edges, tokens)
        total += len(got)
        empty += not tokens
    assert cc._token_placements(path_graph(3), patterns[0], [], []) == [{}]
    assert empty and total > 500


# ---------------------------------------------------------------------------
# global assembly (step 5)

def test_assembly_vacuous_when_interiors_cover_k(k2):
    g, ss = two_stripe_p4()
    assert global_matching_step(g, ss, {}, k2, 1, 1) == []


def test_assembly_finds_one_occurrence_per_group(k2):
    from igmatch.color_coding import StripAssignment

    g, ss = two_stripe_p4()
    sa = StripAssignment({T10: 0, T11: 1}, ())
    got = global_matching_step(g, ss, {0: sa}, k2, 1, 0)
    assert got == [Occurrence((0, 1))]
    assert _step5_coloring({0: sa}) == {0: 1, 1: 1}


def test_assembly_skips_classes_missing_a_pattern_vertex(k2):
    from igmatch.color_coding import StripAssignment

    g, ss = two_stripe_p4()
    sa = StripAssignment({T10: 0}, ())
    assert global_matching_step(g, ss, {0: sa}, k2, 1, 0) is None


# ---------------------------------------------------------------------------
# the full pipeline against the literal coloring family

def test_literal_exhaustive_family_reproduces_the_answer(k2):
    """Drive blank/interiors/assembly over every coloring of every base.

    Shape-incompatible bases must die in blanking; compatible ones must
    recover the known matching, and every accepted run must satisfy the
    color-class independence property.
    """
    g, ss = two_stripe_p4()
    elements = structure_elements(ss)
    successes = 0
    for base in all_bases(k2, 1):
        shapes = {(fe.kind, len(fe.members)) for fe in base.edges}
        if shapes != {("stripe", 1)}:
            if len(base_palette(base)) ** len(elements) <= 1000:
                assert all(
                    blank(f, ss, base) is None
                    for f in all_colorings(elements, base_palette(base))
                )
            continue
        for f in all_colorings(elements, base_palette(base)):
            out = blank(f, ss, base)
            if out is None:
                continue
            _f2, surj = out
            assignments, kp = solve_strip_interiors(ss, base, surj, k2, {})
            extra = global_matching_step(g, ss, assignments, k2, 1, kp)
            if extra is None:
                continue
            colors = _step5_coloring(assignments)
            for v, i in colors.items():
                for u in g.neighbors(v):
                    assert colors.get(u, 0) in (0, i)
            pool = [o for e in sorted(assignments)
                    for o in assignments[e].interior_matching] + extra
            Matching(tuple(pool[:1])).check(g, k2)
            successes += 1
    assert successes > 0
    assert find_igm(g, k2, 1) is not None


# ---------------------------------------------------------------------------
# driver

def test_driver_two_disjoint_triangles(k3):
    g = disjoint_union(complete_graph(3), complete_graph(3))
    m = solve_igm_claw_free(g, k3, 2)
    assert m is not None
    m.check(g, k3)
    assert solve_igm_claw_free(g, k3, 3) is None


def test_driver_matches_oracle_on_a_long_path_line_graph(k2, k3, p3):
    g = path_graph(12)  # the line graph of a 13-path; independence number 6
    assert brute_force_mis(g)[0] > 4
    for h in (k2, p3, k3):
        for k in (1, 2):
            want = find_igm(g, h, k)
            got = solve_igm_claw_free(g, h, k)
            assert (got is None) == (want is None)
            if got is not None:
                got.check(g, h)


def test_driver_witness_covers_few_strips(k2):
    g = path_graph(12)
    ss = line_graph_strip_structure(g)
    m = solve_igm_claw_free(g, k2, 2, ss=ss)
    edge_ids, vertex_ids = covered_subgraph(ss, m)
    assert len(edge_ids) <= 2 * 2
    assert len(vertex_ids) <= 2 * 2 * 2


def test_driver_on_a_tree_line_graph_with_spots(k2, k3, p3):
    # line graph of a 13-vertex caterpillar: spots inside, stripes at the tips
    medges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
              (2, 8), (3, 9), (4, 10), (5, 11), (6, 12)]
    n = len(medges)
    host = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                     if set(medges[i]) & set(medges[j])])
    assert brute_force_mis(host)[0] > 4
    ss = line_graph_strip_structure(host)
    assert ss is not None
    for h, k in ((k2, 2), (p3, 2), (k3, 1)):
        want = find_igm(host, h, k)
        got = solve_igm_claw_free(host, h, k, ss=ss)
        assert (got is None) == (want is None)
        if got is not None:
            got.check(host, h)


def test_driver_deterministic(k2):
    g = path_graph(12)
    a = solve_igm_claw_free(g, k2, 2)
    b = solve_igm_claw_free(g, k2, 2)
    assert a == b


def test_driver_hand_structure_on_a_cycle(k2, k3):
    g, ss = c11_two_stripes()
    assert validate_strip_structure(g, ss).ok
    for h, k in ((k2, 1), (k2, 2), (k3, 1)):
        want = find_igm(g, h, k)
        got = solve_igm_claw_free(g, h, k, ss=ss)
        assert (got is None) == (want is None)
        if got is not None:
            got.check(g, h)


def test_driver_random_colorings_are_sound_and_seeded(k2, k3):
    g, ss = c11_two_stripes()
    m = solve_igm_claw_free(g, k2, 1, ss=ss, coloring="random", trials=30000, seed=11)
    # a verified hit for this seed (random mode may miss); pinning the witness
    # pins the draw sequence
    assert [o.vertices for o in m.occurrences] == [(1, 2)]
    m.check(g, k2)
    again = solve_igm_claw_free(g, k2, 1, ss=ss, coloring="random", trials=30000, seed=11)
    assert m == again
    # a triangle-free host can never produce a spurious triangle matching
    assert solve_igm_claw_free(g, k3, 1, ss=ss, coloring="random", trials=2000, seed=3) is None


def test_driver_trivial_source_peels_free_components(k2):
    g = disjoint_union(path_graph(2), path_graph(2))
    for _ in range(3):
        g = disjoint_union(g, path_graph(2))
    assert g.n == 10 and brute_force_mis(g)[0] == 5
    ss = trivial_strip_structure(g)
    m = solve_igm_claw_free(g, k2, 5, ss=ss)
    assert m is not None and len(m.occurrences) == 5
    m.check(g, k2)
    assert solve_igm_claw_free(g, k2, 6, ss=ss) is None
    # same through the default source, which splits components itself
    assert solve_igm_claw_free(g, k2, 5) is not None


def test_driver_certificate_reaches_peeled_chunks(k2):
    arcs = ArcModel(tuple(Arc(i, 20 * i, (20 * i + 25) % 220) for i in range(11)), 220)
    fam = FuzzyArcModel(arcs, {})
    g = realize(fam)
    ss = trivial_strip_structure(g)
    m = solve_igm_claw_free(g, k2, 3, ss=ss, certificates={0: fam})
    assert m is not None
    m.check(g, k2)


def test_driver_input_errors(k2, p3):
    with pytest.raises(InputError):
        solve_igm_claw_free(star_graph(3), k2, 1)  # the host is itself a claw
    with pytest.raises(InputError):
        solve_igm_claw_free(path_graph(4), Pattern.of(Graph(2, [])), 1)
    with pytest.raises(InputError):
        solve_igm_claw_free(path_graph(4), k2, -1)
    with pytest.raises(InputError):
        solve_igm_claw_free(path_graph(4), k2, 1, coloring="sideways")
    with pytest.raises(InputError):
        solve_igm_claw_free(path_graph(4), k2, 1, coloring="random")  # no trials
    with pytest.raises(InputError, match="strip-structure"):
        solve_igm_claw_free(path_graph(4), k2, 1, certificates={0: "alpha4"})


def test_driver_rejects_negative_trials(k2):
    # small-alpha host (answered before any coloring) and pipeline host alike
    for g in (path_graph(4), path_graph(12)):
        with pytest.raises(InputError, match="non-negative trial count"):
            solve_igm_claw_free(g, k2, 1, coloring="random", trials=-1)


def test_driver_size_cap_on_token_count(k2, k3):
    # a yes-instance (P12 holds four induced K2 copies) with hk = 8 reaches
    # the pipeline, whose bases are capped at six tokens
    with pytest.raises(SizeCapError):
        solve_igm_claw_free(path_graph(12), k2, 4)
    # a triangle-free host: the packing search refutes K3, k = 3, before
    # the pipeline and its cap
    assert solve_igm_claw_free(path_graph(12), k3, 3) is None


def test_driver_rejects_invalid_structure(k2):
    g, ss = two_stripe_p4()
    broken = StripStructure(
        r_vertices=ss.r_vertices,
        edges=ss.edges,
        strips={0: ss.strips[0], 1: Strip(graph=ss.strips[1].graph,
                                          z=frozenset({2}),
                                          g_map={0: 3, 1: 1})},
        z_assign=ss.z_assign,
    )
    with pytest.raises(InputError, match="invalid strip-structure"):
        solve_igm_claw_free(path_graph(4), k2, 1, ss=broken)


def test_driver_k0_and_small_hosts(k2):
    assert solve_igm_claw_free(path_graph(4), k2, 0) == Matching(())
    assert solve_igm_claw_free(Graph(0, []), k2, 1) is None
    assert solve_igm_claw_free(Graph(1, []), k2, 1) is None


# ---------------------------------------------------------------------------
# pinned witnesses, one case per dispatch route: a change in the order the
# router tries things shows up here as a different witness

def _square_of_cycle(n):
    return Graph(n, sorted({tuple(sorted((i, (i + d) % n))) for i in range(n) for d in (1, 2)}))


def _c11_fuzzy():
    arcs = ArcModel(tuple(Arc(i, 20 * i, (20 * i + 25) % 220) for i in range(11)), 220)
    return FuzzyArcModel(arcs, {})


def _pinned_cases(k2, k3, p3):
    p12 = path_graph(12)
    c11, c11ss = c11_two_stripes()
    fam = _c11_fuzzy()
    return [
        # independence number at most 4
        (cycle_graph(9), k2, 3, {}, [(0, 1), (3, 4), (6, 7)]),
        (cycle_graph(9), p3, 2, {}, [(0, 1, 2), (4, 5, 6)]),
        # disconnected, independence number above 4
        (disjoint_union(path_graph(5), path_graph(7)), k2, 3, {}, [(0, 1), (3, 4), (5, 6)]),
        (disjoint_union(path_graph(3), cycle_graph(11)), k2, 3, {}, [(0, 1), (3, 4), (6, 7)]),
        (disjoint_union(path_graph(3), cycle_graph(11)), p3, 2, {}, [(0, 1, 2), (3, 4, 5)]),
        # a connected line graph
        (p12, k2, 2, {}, [(1, 2), (4, 5)]),
        (p12, p3, 2, {}, [(1, 2, 3), (5, 6, 7)]),
        (p12, k3, 1, {}, None),
        # supplied structures
        (p12, k2, 2, {"ss": trivial_strip_structure(p12)}, [(1, 2), (4, 5)]),
        (p12, p3, 2, {"ss": line_graph_strip_structure(p12)}, [(1, 2, 3), (5, 6, 7)]),
        (c11, k2, 2, {"ss": c11ss}, [(3, 4), (0, 1)]),
        (c11, p3, 1, {"ss": c11ss}, [(1, 2, 3)]),
        (path_graph(6), k2, 2, {"ss": path6_stripe()}, [(0, 1), (3, 4)]),
        # a fuzzy model certifying the trivial strip
        (realize(fam), k2, 3, {"ss": trivial_strip_structure(realize(fam)),
                               "certificates": {0: fam}}, [(0, 1), (3, 4), (6, 7)]),
    ]


def test_driver_pinned_witnesses(k2, k3, p3):
    for g, h, k, kwargs, want in _pinned_cases(k2, k3, p3):
        with recording() as notes:
            got = solve_igm_claw_free(g, h, k, **kwargs)
        assert (None if got is None else [o.vertices for o in got.occurrences]) == want
        assert notes == []
    # a host given as a fuzzy model has an entry of its own
    got = solve_igm_fuzzy_ca(_c11_fuzzy(), p3, 2)
    assert [o.vertices for o in got.occurrences] == [(0, 1, 2), (4, 5, 6)]


def test_driver_fallback_logs_one_deviation(monkeypatch, k2, k3):
    """The fallback answers with the chunk's packing search, which keeps
    the answer it found while the budgeted refutation ran: one enumeration
    and one search per solve (a refutation and a separate fallback search
    made 2 and 2), with ``find_igm``'s witness."""
    g = _square_of_cycle(15)  # independence number 5, not a line graph
    assert brute_force_mis(g)[0] == 5 and line_graph_strip_structure(g) is None
    enumerated = _counting(monkeypatch, "enumerate_occurrences")
    searched = _counting(monkeypatch, "packing")
    for h, k, want in ((k2, 2, [(0, 1), (4, 5)]), (k3, 2, [(0, 1, 2), (5, 6, 7)])):
        del enumerated[:], searched[:]
        with recording() as notes:
            got = solve_igm_claw_free(g, h, k)
        assert [o.vertices for o in got.occurrences] == want
        assert len(notes) == 1 and "exhaustively" in notes[0]
        assert (len(enumerated), len(searched)) == (1, 1)
        assert got == find_igm(g, h, k)


def _counting(monkeypatch, name):
    import igmatch.color_coding as cc

    calls = []
    original = getattr(cc, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cc, name, counted)
    return calls


def test_driver_tests_independence_once_per_chunk(monkeypatch, k2):
    calls = _counting(monkeypatch, "brute_force_mis")
    assert solve_igm_claw_free(path_graph(12), k2, 2) is not None
    assert len(calls) == 1


def test_driver_refutes_a_no_instance_before_the_pipeline(monkeypatch, k2):
    """K2, k = 3 on the line graph of the C5 sunlet (independence number 5)
    has no matching.  The pipeline proved it by running out of surjections
    (5,100 interior packings, about 1 s cold); the packing search refutes it
    after one enumeration, so no structure is derived, no base stream is read
    and no interior is packed."""
    lg = line_graph(Multigraph(10, [(i, (i + 1) % 5) for i in range(5)]
                               + [(i, 5 + i) for i in range(5)]))
    assert brute_force_mis(lg)[0] == 5
    enumerated = _counting(monkeypatch, "enumerate_occurrences")
    shaped = _counting(monkeypatch, "_shaped_bases")
    packed = _counting(monkeypatch, "solve_strip_interiors")
    derived = _counting(monkeypatch, "line_graph_strip_structure")
    assert solve_igm_claw_free(lg, k2, 3) is None
    assert (len(enumerated), len(shaped), len(packed), len(derived)) == (1, 0, 0, 0)
    # a count the search does not refute runs the pipeline, as before
    got = solve_igm_claw_free(lg, k2, 2)
    assert [o.vertices for o in got.occurrences] == [(0, 1), (3, 8)]
    assert len(shaped) == 1 and len(derived) == 1


def test_driver_validates_a_supplied_structure_once(monkeypatch, k2):
    """A supplied structure is checked once, at entry; the line-graph
    structure the router derives is valid by construction and never
    checked (checking it made 1 call)."""
    g = path_graph(12)
    ss = line_graph_strip_structure(g)
    calls = _counting(monkeypatch, "validate_strip_structure")
    assert solve_igm_claw_free(g, k2, 2, ss=ss) is not None
    assert len(calls) == 1
    del calls[:]
    assert solve_igm_claw_free(g, k2, 2) is not None
    assert calls == []


def test_driver_settles_each_chunk_once(monkeypatch, k2):
    """The ladder asks a chunk for 1, 2, ... copies; the independence test,
    structure work and fallback note happen once per chunk, not per
    rung (settling per rung made 4 calls and 3 notes, 5 calls, and 31
    calls)."""
    calls = _counting(monkeypatch, "brute_force_mis")
    g = _square_of_cycle(15)
    with recording() as notes:
        got = solve_igm_claw_free(g, k2, 3, ss=trivial_strip_structure(g))
    assert [o.vertices for o in got.occurrences] == [(0, 1), (4, 5), (8, 9)]
    assert len(calls) == 2 and len(notes) == 1
    del calls[:]
    got = solve_igm_claw_free(disjoint_union(path_graph(3), cycle_graph(11)), k2, 3)
    assert [o.vertices for o in got.occurrences] == [(0, 1), (3, 4), (6, 7)]
    assert len(calls) == 3
    # a disconnected strip body on the ladder: each component settled once
    del calls[:]
    g = path_graph(2)
    for _ in range(4):
        g = disjoint_union(g, path_graph(2))
    got = solve_igm_claw_free(g, k2, 5, ss=trivial_strip_structure(g))
    assert [o.vertices for o in got.occurrences] == [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
    assert len(calls) == 2 + 5


def test_driver_checks_fuzzy_models_at_entry(k2):
    # two disjoint arcs realize two isolated vertices, not an edge
    two_arcs = FuzzyArcModel(ArcModel((Arc(0, 0, 10), Arc(1, 20, 30)), 100), {})
    assert realize(two_arcs) == Graph(2, [])
    g = complete_graph(2)
    # strip certificates are checked whether or not the search would reach
    # them: the body of a strip-edge without strip-vertices at k = 0, a strip
    # of a host with independence number 2, and one the first witness skips
    with pytest.raises(InputError, match="certificate for strip-edge 0"):
        solve_igm_claw_free(g, k2, 0, ss=trivial_strip_structure(g),
                            certificates={0: two_arcs})
    stub = FuzzyArcModel(ArcModel((Arc(0, 0, 5),), 100), {})
    p4, p4ss = two_stripe_p4()
    with pytest.raises(InputError, match="certificate for strip-edge 0"):
        solve_igm_claw_free(p4, k2, 1, ss=p4ss, certificates={0: stub})
    c11, c11ss = c11_two_stripes()
    with pytest.raises(InputError, match="certificate for strip-edge 1"):
        solve_igm_claw_free(c11, k2, 1, ss=c11ss, certificates={1: stub})


def test_driver_rejects_bad_certificates_at_entry(k2):
    # the interior solver trusts its certificates, so the entry rejects one
    # for an unknown strip-edge, a value that is neither a model nor
    # "alpha4", and a model that misfits its strip
    g, ss = path_graph(6), path6_stripe()
    stub = FuzzyArcModel(ArcModel((Arc(0, 0, 5),), 100), {})
    for certs, message in (({5: "alpha4"}, "unknown strip-edge 5"),
                           ({0: "bogus"}, "fuzzy arc model or 'alpha4'"),
                           ({0: stub}, "has 1 arcs for 6 interior vertices")):
        with pytest.raises(InputError, match=message):
            solve_igm_claw_free(g, k2, 1, ss=ss, certificates=certs)


def _path_certificate(t):
    """A fuzzy arc model of the t-vertex path, arc i for path vertex i."""
    return FuzzyArcModel(ArcModel(tuple(Arc(i, 10 * i, 10 * i + 12) for i in range(t)), 1000), {})


def test_driver_notes_exhaustive_interior_packing_once_per_strip_edge(k2, p3):
    """Stripes cut into 8-12 host vertices have path interiors, and some
    residual interiors left by a realization have independence number above
    4.  Without a certificate their packing is solved exhaustively, which
    the solve notes once per strip-edge; a path fuzzy arc model of every
    stripe packs the same interiors without the note and changes no
    witness."""
    from randgen import random_subdivided_structure

    rng = random.Random(0)
    noted = 0
    for _ in range(40):
        n = rng.randint(3, 4)
        g, ss = random_subdivided_structure(rng, n, rng.randint(n, n + 2), cut=(8, 12))
        if g.n > 30:  # the host's own independence test would raise SizeCapError
            continue
        certs = {eid: _path_certificate(len(ss.strips[eid].interior()))
                 for eid, _ in ss.edges if strips.classify_strip(ss.strips[eid]) == "stripe"}
        for h in (k2, p3):
            with recording() as notes:
                want = solve_igm_claw_free(g, h, 1, ss=ss)
            edges = [note.split(":")[0] for note in notes]
            assert all("interior packing solved exhaustively" in note for note in notes)
            assert len(edges) == len(set(edges))
            noted += len(edges)
            with recording() as notes:
                assert solve_igm_claw_free(g, h, 1, ss=ss, certificates=certs) == want
            assert notes == []
    assert noted == 5


def test_driver_fits_each_certificate_once(monkeypatch, k2):
    # fitting once per surjection made 32 fits here
    calls = _counting(monkeypatch, "_require_fitting")
    c11, c11ss = c11_two_stripes()
    certs = {0: _path_certificate(6), 1: _path_certificate(5)}
    got = solve_igm_claw_free(c11, k2, 3, ss=c11ss, certificates=certs)
    assert got == solve_igm_claw_free(c11, k2, 3, ss=c11ss) is not None
    assert sorted(args[1] for args in calls) == [0, 1]


def test_random_coloring_classifies_each_strip_once(monkeypatch, k2):
    # blanking classified every strip again on every draw: 72,406 calls here
    real = strips.classify_strip
    classified = []

    def counted(s):
        classified.append(id(s))
        return real(s)

    for module in (strips, cc):  # every binding, so a re-import cannot hide calls
        if getattr(module, "classify_strip", None) is real:
            monkeypatch.setattr(module, "classify_strip", counted)
    c11, c11ss = c11_two_stripes()
    solve_igm_claw_free(c11, k2, 2, ss=c11ss, coloring="random", trials=200, seed=5)
    assert sorted(classified) == sorted(id(s) for s in c11ss.strips.values())


def test_driver_true_alpha4_claims_change_no_witness(k2, p3):
    # both stripes of C11 have bodies of independence number 3; the claim
    # replaces the per-residue independence test when packing interiors
    c11, c11ss = c11_two_stripes()
    claims = {0: "alpha4", 1: "alpha4"}
    for h, k in ((k2, 1), (k2, 2), (p3, 1)):
        want = solve_igm_claw_free(c11, h, k, ss=c11ss)
        assert want is not None
        assert solve_igm_claw_free(c11, h, k, ss=c11ss, certificates=claims) == want


# ---------------------------------------------------------------------------
# randomized oracle equivalence (small hosts, every dispatch path)

def test_driver_matches_oracle_on_random_line_graphs(k2, k3, p3):
    from randgen import random_line_graph

    rng = random.Random(20260815)
    done = 0
    for _ in range(40):
        g, _m = random_line_graph(rng, max_edges=9)
        if g.n > 12:
            continue
        ss = line_graph_strip_structure(g)
        for h in (k2, p3, k3):
            for k in (1, 2):
                want = find_igm(g, h, k)
                got = solve_igm_claw_free(g, h, k, ss=ss)
                assert (got is None) == (want is None)
                if got is not None:
                    got.check(g, h)
                done += 1
    assert done >= 60
