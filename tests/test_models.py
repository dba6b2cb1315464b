import itertools
import os
import random
import sys
from fractions import Fraction

import pytest

from igmatch import models
from igmatch.errors import InputError
from igmatch.graphs import Graph, Pattern, complete_graph, enumerate_occurrences, path_graph, star_free
from igmatch.models import (
    Arc,
    ArcModel,
    CutResult,
    FuzzyArcModel,
    Interval,
    IntervalModel,
    ModelReport,
    cut_at_point,
    equivalence_points_doubled,
    intersection_kind,
    realize,
    validate_arc_model,
    validate_interval_model,
)
from oracles import (
    arc_contains,
    covers_circle,
    long_by_pairs_and_triples,
    model_report_reference,
    realize_reference,
)
from randgen import random_long_proper_arc_model, random_proper_interval_model


def arcs(c, *pairs):
    return ArcModel([Arc(i, s, t) for i, (s, t) in enumerate(pairs)], c)


# independent membership test: doubled point p2 lies on closed arc (s,t)
# iff its clockwise offset from s does not exceed the arc's length
def _on_arc(p2, s, t, c):
    c2 = 2 * c
    return (p2 - 2 * s) % c2 <= (2 * t - 2 * s) % c2


def _covers_all_sample_points(model, ids):
    c2 = 2 * model.circumference
    return all(
        any(_on_arc(p2, model.arcs[i].s, model.arcs[i].t, model.circumference)
            for i in ids)
        for p2 in range(c2)
    )


def _long_by_sampling(model):
    n = len(model.arcs)
    for size in (2, 3):
        for ids in itertools.combinations(range(n), size):
            if _covers_all_sample_points(model, ids):
                return False
    return True


def _delete_arc(model, victim):
    kept = [a for a in model.arcs if a.id != victim]
    return ArcModel(
        [Arc(i, a.s, a.t) for i, a in enumerate(kept)], model.circumference
    )


def test_interval_realize_basic():
    m = IntervalModel([Interval(0, 0, 2), Interval(1, 1, 3), Interval(2, 4, 6)])
    g = realize(m)
    assert g.n == 3 and g.edges == ((0, 1),)


def test_interval_model_rejections():
    with pytest.raises(InputError):
        Interval(0, 3, 3)
    with pytest.raises(InputError):
        IntervalModel([Interval(0, 0, 1), Interval(2, 2, 3)])


def test_arc_model_rejections():
    with pytest.raises(InputError):
        ArcModel([Arc(0, 0, 0)], 8)
    with pytest.raises(InputError):
        ArcModel([Arc(0, 0, 9)], 8)
    with pytest.raises(InputError):
        ArcModel([Arc(1, 0, 1)], 8)


def test_arc_model_refuses_non_integer_coordinates():
    # with real endpoints, arcs 0 and 1 overlap in [0.1, 0.2], which the
    # doubled-coordinate probes would call a single point
    with pytest.raises(InputError, match=r"arc 0: endpoints must be integers in \[0,2\), got \(0,0.2\)"):
        ArcModel([Arc(0, 0, 0.2), Arc(1, 0.1, 0.3), Arc(2, 1, 1.5)], 2)
    with pytest.raises(InputError, match="circumference must be a positive integer"):
        ArcModel([Arc(0, 0, 1)], 2.5)
    with pytest.raises(InputError, match="circumference must be a positive integer"):
        ArcModel([Arc(0, 0, 1)], "8")
    assert ArcModel([Arc(0, 0, 1)], 2).circumference == 2


def test_arc_triangle_realization():
    m = arcs(12, (0, 5), (4, 9), (8, 1))
    g = realize(m)
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert covers_circle(m) and not validate_arc_model(m).long


def test_arc_flags_on_sparse_model():
    m = arcs(12, (0, 3), (2, 5), (6, 9))
    assert validate_arc_model(m) == ModelReport(proper=True, long=True)
    assert not covers_circle(m)


def test_containment_breaks_properness():
    m = arcs(12, (0, 4), (1, 3))
    assert not validate_arc_model(m).proper
    assert arc_contains(m, 0, 1) and not arc_contains(m, 1, 0)


def test_duplicated_arcs_are_not_proper():
    # two equal arcs each hold the other
    rep = validate_arc_model(arcs(12, (0, 4), (0, 4), (6, 9)))
    assert not rep.proper and rep.long


def test_wraparound_containment():
    m = arcs(10, (8, 4), (9, 2))
    assert arc_contains(m, 0, 1)
    assert intersection_kind(m, 0, 1) == "multi"


def test_single_point_intersections():
    m = arcs(8, (0, 2), (2, 4))
    assert intersection_kind(m, 0, 1) == "single-point"
    # touching across the origin
    m = arcs(8, (6, 0), (0, 3))
    assert intersection_kind(m, 0, 1) == "single-point"
    # two isolated touch points count as more than one element
    m = arcs(12, (0, 6), (6, 0))
    assert intersection_kind(m, 0, 1) == "multi"


def _random_small_arc_model(rng):
    # circumference 1 to 9 makes shared endpoints, touching ends, duplicate
    # and wrapping arcs common; circumference 1 admits no arc at all
    c = rng.randint(1, 9)
    n = rng.randint(0, 6) if c > 1 else 0
    arcs_ = []
    for i in range(n):
        s = rng.randrange(c)
        arcs_.append(Arc(i, s, (s + rng.randint(1, c - 1)) % c))
    return ArcModel(arcs_, c)


def _sampled_arc(model, i):
    c = model.circumference
    a = model.arcs[i]
    return frozenset(p2 for p2 in range(2 * c) if _on_arc(p2, a.s, a.t, c))


def test_arc_geometry_matches_point_sampling():
    # pieces cut out by integer endpoints are single even points or hold
    # at least three doubled points, so the sampled count decides the kind
    rng = random.Random(2024)
    kinds = set()
    wrapped = 0
    for _ in range(300):
        m = _random_small_arc_model(rng)
        n = len(m.arcs)
        pts = [_sampled_arc(m, i) for i in range(n)]
        wrapped += sum(a.t < a.s for a in m.arcs)
        for i, j in itertools.product(range(n), repeat=2):
            common = len(pts[i] & pts[j])
            want = "empty" if common == 0 else "single-point" if common == 1 else "multi"
            assert intersection_kind(m, i, j) == want, (m.arcs, i, j)
            assert arc_contains(m, i, j) == (pts[j] <= pts[i]), (m.arcs, i, j)
            kinds.add(want)
        for size in range(n + 1):
            for ids in itertools.combinations(range(n), size):
                assert covers_circle(m, ids) == _covers_all_sample_points(m, ids), (
                    m.arcs, ids)
    assert kinds == {"empty", "single-point", "multi"} and wrapped


def _proper_by_definition(members):
    """No item's sampled point set inside another's."""
    n = len(members)
    return not any(i != j and members[j] <= members[i] for i in range(n) for j in range(n))


def test_report_flags_match_definitions():
    rng = random.Random(77)
    seen = set()
    for _ in range(300):
        m = _random_small_arc_model(rng)
        want = _proper_by_definition([_sampled_arc(m, i) for i in range(len(m.arcs))])
        assert validate_arc_model(m).proper == want, m.arcs
        seen.add(want)

        items = []
        for i in range(rng.randint(0, 6)):
            l = rng.randint(0, 8)
            items.append(Interval(i, l, l + rng.randint(1, 4)))
        want = _proper_by_definition([frozenset(range(it.l, it.r + 1)) for it in items])
        assert validate_interval_model(IntervalModel(items)) == ModelReport(want, True), items
        seen.add(want)
    # the flag is seen both set and cleared
    assert seen == {True, False}


def test_fuzzy_realize_follows_resolutions():
    base = arcs(8, (0, 2), (2, 4))
    g0 = realize(FuzzyArcModel(base, {(0, 1): False}))
    assert g0.edges == ()
    g1 = realize(FuzzyArcModel(base, {(0, 1): True}))
    assert g1.edges == ((0, 1),)


def test_fuzzy_resolution_bookkeeping():
    base = arcs(8, (0, 2), (2, 4))
    with pytest.raises(InputError):
        FuzzyArcModel(base, {})
    with pytest.raises(InputError):
        FuzzyArcModel(base, {(0, 1): True, (1, 0): False})
    far = arcs(8, (0, 2), (4, 6))
    with pytest.raises(InputError):
        FuzzyArcModel(far, {(0, 1): True})


def test_equivalence_points_single_arc():
    pts = equivalence_points_doubled(arcs(8, (0, 4)))
    assert set(pts) >= {0, 4, 8, 12}


def test_equivalence_points_empty_model():
    assert equivalence_points_doubled(ArcModel([], 8)) == [0]


def test_equivalence_points_are_exhaustive():
    # every point of the circle shares its containment set with some representative
    rng = random.Random(42)
    for _ in range(20):
        n = rng.randint(1, 6)
        c = 10
        arcs_ = []
        for i in range(n):
            s = rng.randrange(c)
            t = (s + rng.randint(1, c - 1)) % c
            arcs_.append(Arc(i, s, t))
        m = ArcModel(arcs_, c)
        reps = equivalence_points_doubled(m)
        rep_sets = set()
        for p2 in reps:
            rep_sets.add(frozenset(
                i for i in range(n) if _on_arc(p2, m.arcs[i].s, m.arcs[i].t, c)
            ))
        for p2 in range(2 * c):
            s = frozenset(
                i for i in range(n) if _on_arc(p2, m.arcs[i].s, m.arcs[i].t, c)
            )
            assert s in rep_sets


def test_cut_at_point_examples():
    m = arcs(12, (0, 3), (2, 5), (6, 9))
    res = cut_at_point(m, 20)
    assert res.kept_ids == (0, 1, 2) and len(res.intervals) == 3
    res2 = cut_at_point(m, 4)
    assert res2.kept_ids == (2,)
    assert len(res2.intervals) == 1


def test_cut_at_point_rejects_a_non_integer_point():
    m = arcs(12, (0, 3), (2, 5), (6, 9))
    for p in (Fraction(5), 10.0, "10"):
        with pytest.raises(InputError):
            cut_at_point(m, p)


def test_cut_realization_is_induced_subgraph():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(1, 8)
        c = rng.randint(6, 20)
        arcs_ = []
        for i in range(n):
            s = rng.randrange(c)
            t = (s + rng.randint(1, c - 1)) % c
            arcs_.append(Arc(i, s, t))
        m = ArcModel(arcs_, c)
        g = realize(m)
        for p2 in equivalence_points_doubled(m):
            res = cut_at_point(m, p2)
            sub = g.induced(list(res.kept_ids))
            assert realize(res.intervals).edges == sub.edges


def test_every_cut_of_a_proper_model_is_proper():
    # the long-arc sweep hands each cut straight to the interval step, which
    # relies on this instead of validating every cut
    rng = random.Random(515)
    cuts = 0
    for trial in range(600):
        if trial % 2:
            m = _random_small_arc_model(rng)
        else:
            # equal lengths and distinct starts: proper, often not long
            c = rng.randint(2, 12)
            length = rng.randint(1, c - 1)
            starts = rng.sample(range(c), rng.randint(1, c))
            m = arcs(c, *((s, (s + length) % c) for s in starts))
        if not validate_arc_model(m).proper:
            continue
        for p2 in equivalence_points_doubled(m):
            cut = cut_at_point(m, p2)
            assert validate_interval_model(cut.intervals).proper, (m.arcs, p2)
            cuts += len(cut.kept_ids) > 1
    assert cuts > 500


def test_cut_at_uncovered_point_preserves_everything():
    rng = random.Random(11)
    tried = 0
    while tried < 12:
        m = random_long_proper_arc_model(rng, rng.randint(2, 7))
        if covers_circle(m):
            continue
        tried += 1
        g = realize(m)
        for p2 in equivalence_points_doubled(m):
            if any(_on_arc(p2, a.s, a.t, m.circumference) for a in m.arcs):
                continue
            res = cut_at_point(m, p2)
            assert res.kept_ids == tuple(range(len(m.arcs)))
            assert realize(res.intervals).edges == g.edges


def test_deletion_monotonicity():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 7)
        c = rng.randint(6, 18)
        arcs_ = []
        for i in range(n):
            s = rng.randrange(c)
            t = (s + rng.randint(1, c - 1)) % c
            arcs_.append(Arc(i, s, t))
        m = ArcModel(arcs_, c)
        victim = rng.randrange(n)
        kept = [i for i in range(n) if i != victim]
        assert realize(_delete_arc(m, victim)).edges == realize(m).induced(kept).edges


def test_long_flag_matches_point_sampling():
    rng = random.Random(71)
    seen_long = seen_short = 0
    for _ in range(40):
        n = rng.randint(2, 6)
        c = rng.randint(6, 16)
        arcs_ = []
        for i in range(n):
            s = rng.randrange(c)
            t = (s + rng.randint(1, c - 1)) % c
            arcs_.append(Arc(i, s, t))
        m = ArcModel(arcs_, c)
        rep = validate_arc_model(m)
        assert rep.long == _long_by_sampling(m)
        seen_long += rep.long
        seen_short += not rep.long
    assert seen_long and seen_short  # the sweep exercised both outcomes


def test_greedy_longness_matches_pairs_and_triples():
    # small circumferences make touching ends, shared endpoints and duplicate
    # arcs common; the greedy walk must agree with trying every pair and triple
    rng = random.Random(4242)
    seen = {True: 0, False: 0}
    touching = 0
    for _ in range(4000):
        c = rng.randint(1, 12)
        n = rng.randint(0, 7) if c > 1 else 0
        arcs_ = []
        for i in range(n):
            s = rng.randrange(c)
            arcs_.append(Arc(i, s, (s + rng.randint(1, c - 1)) % c))
        m = ArcModel(arcs_, c)
        want = long_by_pairs_and_triples(m)
        assert validate_arc_model(m).long == want, m.arcs
        seen[want] += 1
        touching += any(intersection_kind(m, i, j) == "single-point"
                        for i, j in itertools.combinations(range(n), 2))
    assert min(seen.values()) > 1000 and touching > 1000


def test_random_proper_interval_models_are_claw_free_and_proper():
    rng = random.Random(88)
    for _ in range(30):
        m = random_proper_interval_model(rng, rng.randint(1, 14))
        assert validate_interval_model(m).proper
        assert star_free(realize(m), 3)


def test_realize_arc_clique():
    # all arcs through one region pairwise intersect
    m = arcs(20, (0, 10), (2, 12), (4, 14))
    assert realize(m).edges == complete_graph(3).edges


def _random_differential_model(rng, kind):
    """A model of 0-14 items on a small line or circle, so that shared
    endpoints and touching ends are common; a third of the items copy an
    earlier one, and fuzzy models resolve each one-point pair at random."""
    n = rng.randint(0, 14)
    if kind == "interval":
        ends = []
        for _ in range(n):
            l = rng.randint(0, 10)
            ends.append(rng.choice(ends) if ends and rng.random() < 0.3
                        else (l, l + rng.randint(1, 5)))
        return IntervalModel([Interval(i, l, r) for i, (l, r) in enumerate(ends)])
    c = rng.randint(2, 16)
    ends = []
    for _ in range(n):
        s = rng.randrange(c)
        ends.append(rng.choice(ends) if ends and rng.random() < 0.3
                    else (s, (s + rng.randint(1, c - 1)) % c))
    model = arcs(c, *ends)
    if kind == "arc":
        return model
    return FuzzyArcModel(model, {
        (i, j): rng.random() < 0.5
        for i, j in itertools.combinations(range(n), 2)
        if intersection_kind(model, i, j) == "single-point"
    })


def test_models_match_the_all_pairs_reference():
    # realize and the reports read one table per model; the reference tests
    # every pair with the single-pair definitions
    rng = random.Random(1515)
    seen = {"wrapping": 0, "duplicate": 0, "shared": 0, "resolved": set(), "proper": set(),
            "long": set()}
    for trial in range(3000):
        kind = ("interval", "arc", "fuzzy")[trial % 3]
        m = _random_differential_model(rng, kind)
        assert realize(m).edges == realize_reference(m).edges, (kind, m)
        if kind == "interval":
            ends = [(it.l, it.r) for it in m.items]
            assert validate_interval_model(m) == model_report_reference(m), ends
        else:
            a = m if kind == "arc" else m.arcs
            ends = [(x.s, x.t) for x in a.arcs]
            rep = validate_arc_model(a)
            assert rep == model_report_reference(a), (a.circumference, ends)
            seen["wrapping"] += any(t < s for s, t in ends)
            seen["proper"].add(rep.proper)
            seen["long"].add(rep.long)
        seen["duplicate"] += len(set(ends)) < len(ends)
        points = [v for pair in ends for v in pair]
        seen["shared"] += len(set(points)) < len(points)
        if kind == "fuzzy":
            seen["resolved"] |= set(m.resolutions.values())
            if m.resolutions:
                pair = min(m.resolutions)
                rest = {p: b for p, b in m.resolutions.items() if p != pair}
                with pytest.raises(InputError, match=rf"one-point pair \({pair[0]}, {pair[1]}\)"):
                    FuzzyArcModel(m.arcs, rest)
    assert min(seen["wrapping"], seen["duplicate"], seen["shared"]) > 500, seen
    assert seen["resolved"] == seen["proper"] == seen["long"] == {True, False}


def _bench_gen():
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    if bench not in sys.path:
        sys.path.append(bench)
    import gen

    return gen


def test_model_passes_make_no_per_pair_calls(monkeypatch):
    # realize and validation read the span table; the single-pair helpers
    # stay the definitions the tests check against, and nothing else
    gen = _bench_gen()
    calls = {}
    for name in ("point_in_arc", "intersection_kind"):
        def counted(*args, _f=getattr(models, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*args)

        monkeypatch.setattr(models, name, counted)
    rng = random.Random(7)
    long_arcs = gen.long_proper_arc_model(rng, 20)
    fuzzy = gen.fuzzy_arc_model(rng, 20, 12)
    intervals = gen.proper_interval_model(rng, 48)
    calls.clear()
    for m in (long_arcs, fuzzy, intervals):
        assert realize(m).edges
    assert validate_arc_model(long_arcs).long
    validate_arc_model(fuzzy.arcs)
    assert validate_interval_model(intervals).proper
    assert calls == {}


def test_enumeration_reads_the_pattern_once_per_call(monkeypatch):
    # the search reads the pattern through its plan, built once per pattern,
    # so the pattern's has_edge count does not grow with the host
    gen = _bench_gen()
    h = Pattern.of(path_graph(3))
    counts = []
    plain = Graph.has_edge

    def counted(self, u, v):
        if self is h.graph:
            counts[-1] += 1
        return plain(self, u, v)

    monkeypatch.setattr(Graph, "has_edge", counted)
    found = []
    for n in (20, 60):
        g = realize(gen.proper_interval_model(random.Random(n), n))
        counts.append(0)
        found.append(len(enumerate_occurrences(g, h)))
    assert counts[0] == counts[1] and found[1] > 2 * found[0] > 0, (counts, found)
