"""Cross-solver property tests on proper interval hosts and line graphs.

A proper interval model, lifted to arcs on a circle one point longer than
its rightmost end, is also a long proper circular-arc model and a fuzzy
arc model whose one-point intersections are edges; its graph is claw-free.
So five solvers answer the same question on it, and for clique patterns
the kernel does too.  Models come from the benchmark's constructive
generator (``perfbench/gen.py``), drawn by ``hypothesis`` from a seed.

A line graph of a random connected multigraph (``randgen``) goes through
the claw-free entry by three routes, with no structure, with the trivial
one and with the line-graph one, and each must answer as ``find_igm`` does.
On the disjoint union of two such hosts the largest matching is the sum of
the parts' largest, and the answer is monotone in k.  A host built with a
subdivided structure (``randgen.random_subdivided_structure``, whose
stripes have path interiors) goes through the entry with that structure
and with the trivial one, and beside a triangle with no structure and with
the trivial one; each must answer as ``find_igm`` does, monotone in k.
The same builds go through ``kernelize`` with their structure, and where it
encodes an instance the weighted independent set answer must be
``find_igm``'s.

On random proper interval and long proper arc models (``randgen``) the
answers are monotone in k and agree with ``find_igm``, and two interval
models placed side by side have the sum of the two optima, on a line and,
as long proper arcs in disjoint sectors of one circle, on a circle.
"""

import random

from hypothesis import given, settings, strategies as st

from igmatch.color_coding import solve_igm_claw_free
from igmatch.errors import InputError
from igmatch.fuzzy_solver import solve_igm_fuzzy_ca
from igmatch.graphs import (
    Graph,
    Pattern,
    brute_force_wis,
    complete_graph,
    disjoint_union,
    find_igm,
    line_graph,
    path_graph,
)
from igmatch.interval_solvers import solve_igm_long_proper_ca, solve_igm_proper_interval
from igmatch.kernel import kernelize
from igmatch.models import (
    Arc,
    ArcModel,
    FuzzyArcModel,
    Interval,
    IntervalModel,
    ModelReport,
    intersection_kind,
    realize,
    validate_arc_model,
)
from igmatch.strips import line_graph_strip_structure, trivial_strip_structure

from gen import proper_interval_model
from randgen import (
    random_connected_multigraph,
    random_long_proper_arc_model,
    random_proper_interval_model,
    random_subdivided_structure,
)


K2 = Pattern.of(complete_graph(2))
P3 = Pattern.of(path_graph(3))
K3 = Pattern.of(complete_graph(3))


def _lifted(model):
    """The intervals as arcs on a circle of circumference max r + 1, as a
    plain and as a fuzzy model; no arc wraps, so the arcs leave a gap and
    meet exactly where the intervals do."""
    items = model.items
    arcs = ArcModel([Arc(iv.id, iv.l, iv.r) for iv in items],
                    max(iv.r for iv in items) + 1)
    single = {(i, j): True for i in range(len(items)) for j in range(i + 1, len(items))
              if intersection_kind(arcs, i, j) == "single-point"}
    return arcs, FuzzyArcModel(arcs, single)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12))
def test_solvers_agree_on_proper_interval_hosts(seed, n):
    rng = random.Random(seed)
    model = proper_interval_model(rng, n)
    arcs, fuzzy = _lifted(model)
    g = realize(model)
    assert realize(arcs) == g == realize(fuzzy)
    perm = list(range(n))
    rng.shuffle(perm)
    moved = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
    for h in (K2, P3, K3):
        for k in (1, 2, 3):
            want = find_igm(g, h, k)
            answers = {
                "interval": solve_igm_proper_interval(model, h, k),
                "long arcs": solve_igm_long_proper_ca(arcs, h, k),
                "fuzzy arcs": solve_igm_fuzzy_ca(fuzzy, h, k),
                "claw-free": solve_igm_claw_free(g, h, k),
                "find_igm": want,
            }
            for name, got in answers.items():
                assert (got is None) == (want is None), (name, seed, n, h.graph, k)
                if got is not None:
                    got.check(g, h)
            for got in (solve_igm_claw_free(moved, h, k), find_igm(moved, h, k)):
                assert (got is None) == (want is None), ("relabelled", seed, n, h.graph, k)
                if got is not None:
                    got.check(moved, h)
            if h.is_complete:
                try:
                    inst = kernelize(g, h, k)
                except InputError:
                    continue
                yes, _ = brute_force_wis(inst.graph, inst.weights, inst.k_card, inst.k_weight)
                assert yes == (want is not None), ("kernel", seed, n, h.graph, k)


# each pattern with every k that keeps hk within the claw-free entry's cap of 6
LADDERS = ((K2, (1, 2, 3)), (P3, (1, 2)), (K3, (1, 2)))


def _line_host(seed, n, extra):
    return line_graph(random_connected_multigraph(random.Random(seed), n, n - 1 + extra))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 7), extra=st.integers(0, 4))
def test_structure_routes_agree_on_line_graphs(seed, n, extra):
    g = _line_host(seed, n, extra)
    routes = {"none": None, "trivial": trivial_strip_structure(g),
              "line graph": line_graph_strip_structure(g)}
    for h, ks in LADDERS:
        for k in ks:
            want = find_igm(g, h, k) is not None
            for name, ss in routes.items():
                got = solve_igm_claw_free(g, h, k, ss=ss)
                assert (got is not None) == want, (name, seed, n, extra, h.graph, k)
                if got is not None:
                    got.check(g, h)


def _ladder(g, h, ks):
    """The claw-free entry's answers for each k, as booleans."""
    return [solve_igm_claw_free(g, h, k) is not None for k in ks]


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seeds=st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1)),
       n=st.tuples(st.integers(2, 6), st.integers(2, 6)),
       extra=st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_disjoint_unions_add_their_largest_matchings(seeds, n, extra):
    a, b = (_line_host(*args) for args in zip(seeds, n, extra))
    union = disjoint_union(a, b)
    for h, ks in LADDERS:
        answers = [_ladder(g, h, ks) for g in (a, b, union)]
        for yes in answers:
            assert yes == sorted(yes, reverse=True), (seeds, n, extra, h.graph)
        # a part at the top of the ladder may hold more; the sum is capped too
        most_a, most_b, most = (sum(yes) for yes in answers)
        assert most == min(most_a + most_b, ks[-1]), (seeds, n, extra, h.graph)


# each pattern with every k that keeps hk at most 4
SMALL_LADDERS = ((K2, (1, 2)), (P3, (1,)), (K3, (1,)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4), extra=st.integers(0, 1),
       cut=st.sampled_from([(2, 3), (4, 7)]))
def test_subdivided_structures_agree_with_find_igm(seed, n, extra, cut):
    # At most four edges cut into at most seven vertices: within the
    # independence test's cap of 30 host vertices.  Beside a triangle the
    # host is a component of its own, asked for 1, 2, ... copies, and with
    # the trivial structure the union's one strip is a free-standing piece.
    g, ss = random_subdivided_structure(random.Random(seed), n, max(2, n - 1 + extra), cut)
    routes = [(g, "subdivided", ss), (g, "trivial", trivial_strip_structure(g))]
    union = disjoint_union(g, complete_graph(3))
    if union.n <= 30:
        routes += [(union, "components", None),
                   (union, "trivial union", trivial_strip_structure(union))]
    for h, ks in SMALL_LADDERS:
        for host, name, route in routes:
            want = [find_igm(host, h, k) is not None for k in ks]
            got = [solve_igm_claw_free(host, h, k, ss=route) for k in ks]
            for m in got:
                if m is not None:
                    m.check(host, h)
            yes = [m is not None for m in got]
            assert yes == want, (name, seed, n, extra, cut, h.graph)
            assert yes == sorted(yes, reverse=True), (name, seed, n, extra, cut, h.graph)


def test_kernel_answers_on_subdivided_structures_agree_with_find_igm():
    # Each supplied structure holds two-member stripes, which no derived
    # structure has.  Bounding starts from it, and a rule that drops it
    # (pruning or clique deletion) hands the next round a re-derived
    # structure, so every call answers.
    rng = random.Random(2)
    answered = yes = 0
    for _ in range(60):
        n = rng.randint(2, 5)
        g, ss = random_subdivided_structure(rng, n, rng.randint(n, n + 3),
                                            rng.choice([(2, 3), (4, 7)]))
        for h in (K2, K3):
            for k in (1, 2, 3, 4):
                inst = kernelize(g, h, k, ss=ss)
                got, _ = brute_force_wis(inst.graph, inst.weights, inst.k_card, inst.k_weight)
                assert got == (find_igm(g, h, k) is not None), (g.edges, h.graph, k)
                answered += 1
                yes += got
    assert (answered, yes) == (480, 241)


def _optimum(solve, model, g, h):
    """The largest k ``solve`` answers on ``model``, after checking that its
    answers from k = 1 up to one past the last k with room for k copies go
    from yes to no and agree with ``find_igm`` on the host ``g``."""
    ks = range(1, g.n // h.h + 2)
    yes = []
    for k in ks:
        got = solve(model, h, k)
        if got is not None:
            got.check(g, h)
        yes.append(got is not None)
    assert yes == [find_igm(g, h, k) is not None for k in ks], (h.graph,)
    assert yes == sorted(yes, reverse=True), (h.graph,)
    return sum(yes)


def _side_by_side(a, b):
    """The intervals of ``b`` placed right of all of ``a``'s, ids after a's."""
    shift = max(iv.r for iv in a.items) + 1
    return IntervalModel(list(a.items) + [Interval(len(a) + iv.id, iv.l + shift, iv.r + shift)
                                          for iv in b.items])


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.tuples(st.integers(1, 9), st.integers(1, 9)))
def test_side_by_side_interval_models_add_their_optima(seed, n):
    rng = random.Random(seed)
    a, b = (random_proper_interval_model(rng, m) for m in n)
    both = _side_by_side(a, b)
    assert realize(both) == disjoint_union(realize(a), realize(b))
    for h in (K2, P3, K3):
        opts = [_optimum(solve_igm_proper_interval, m, realize(m), h) for m in (a, b, both)]
        assert opts[2] == opts[0] + opts[1], (seed, n, h.graph)


def test_interval_models_in_disjoint_sectors_of_a_circle_add_their_optima():
    # two proper interval models laid one after the other on a circle with
    # room to spare, no arc wrapping: the arcs leave a gap, so the model is
    # long, and the parts meet nowhere, so it stays proper
    rng = random.Random(36)
    for _ in range(25):
        a, b = (proper_interval_model(rng, rng.randint(1, 8)) for _ in range(2))
        both = _side_by_side(a, b)
        arcs = ArcModel([Arc(iv.id, iv.l, iv.r) for iv in both.items],
                        max(iv.r for iv in both.items) + 1 + rng.randint(1, 4))
        assert validate_arc_model(arcs) == ModelReport(proper=True, long=True)
        assert realize(arcs) == disjoint_union(realize(a), realize(b))
        for h in (K2, P3):
            parts = [_optimum(solve_igm_proper_interval, m, realize(m), h) for m in (a, b)]
            whole = _optimum(solve_igm_long_proper_ca, arcs, realize(arcs), h)
            assert whole == sum(parts), (a.items, b.items, h.graph)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 10))
def test_long_proper_arc_answers_are_monotone_in_k(seed, n):
    # n <= 10: the rejection sampler stalls on long proper models by n ~ 20
    model = random_long_proper_arc_model(random.Random(seed), n)
    for h in (K2, P3, K3):
        _optimum(solve_igm_long_proper_ca, model, realize(model), h)
