import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import igmatch.interval_solvers as interval_solvers
from igmatch.errors import InputError, InternalError
from igmatch.graphs import (
    Graph,
    Pattern,
    complete_graph,
    cycle_graph,
    enumerate_occurrences,
    find_igm,
    occurrence_maps,
    path_graph,
)
from igmatch.interval_solvers import (
    _arc_table,
    _circular_packing,
    _cut_solve,
    _dedup_points,
    _span_classes,
    interval_wis,
    solve_igm_long_proper_ca,
    solve_igm_proper_interval,
)
from igmatch.models import (
    Arc,
    ArcModel,
    Interval,
    IntervalModel,
    arc_cover,
    cut_at_point,
    equivalence_points_doubled,
    point_in_arc,
    realize,
)

import gen  # the benchmark's constructive model generators
import oracle  # the benchmark's independent optima
from oracles import (
    _best_weight_reference,
    _occ_sets_compatible,
    arc_cover_reference,
    igm_exhaustive,
    max_igm_exhaustive,
    occurrences_exhaustive,
)
from pinned import assert_pinned
from randgen import (
    random_fuzzy_arc_model,
    random_long_proper_arc_model,
    random_proper_interval_model,
)


def imodel(*pairs):
    return IntervalModel(tuple(Interval(i, l, r) for i, (l, r) in enumerate(pairs)))


def amodel(circ, *pairs):
    m = ArcModel(tuple(Arc(i, s, t) for i, (s, t) in enumerate(pairs)), circ)
    return m


# C6 as six arcs of length 3 on a circle of circumference 12, each meeting
# only its two neighbours.
C6_ARCS = amodel(12, (0, 3), (2, 5), (4, 7), (6, 9), (8, 11), (10, 1))


# ---------------------------------------------------------------------------
# interval_wis


def test_wis_three_interval_example():
    size, witness = interval_wis([(0, 2), (1, 4), (3, 6)])
    assert size == 2
    assert witness == (0, 2)


def test_wis_single_interval():
    assert interval_wis([(5, 9)]) == (1, (0,))


def test_wis_disjoint_sum():
    assert interval_wis([(0, 1), (2, 3), (5, 8)]) == (3, (0, 1, 2))


def test_wis_lex_tie_break():
    # both single choices are maximum; the smaller index wins
    assert interval_wis([(0, 2), (1, 3)])[1] == (0,)


def test_wis_matches_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 9)
        spans = []
        for _ in range(n):
            l = rng.randint(0, 15)
            spans.append((l, l + rng.randint(0, 6)))

        def disjoint(a, b):
            return max(spans[a][0], spans[b][0]) > min(spans[a][1], spans[b][1])

        best = 0
        for mask in range(1 << n):
            sel = [i for i in range(n) if mask >> i & 1]
            if all(disjoint(a, b) for a, b in itertools.combinations(sel, 2)):
                best = max(best, len(sel))
        size, witness = interval_wis(spans)
        assert size == len(witness) == best
        # the witness must itself be independent
        assert all(disjoint(a, b) for a, b in itertools.combinations(witness, 2))


def test_wis_witness_matches_the_scan_reference():
    # the witness is the one the earlier rebuild, which scanned every chosen
    # interval, returned (pinned by digest per interval count); ties (shared
    # endpoints, equal intervals) are where the lexicographically smallest
    # witness is decided
    rng = random.Random(1206)
    answers = {}
    for _ in range(1500):
        n = rng.randint(0, 12)
        spans = []
        for _ in range(n):
            l = rng.randint(0, 12)
            spans.append((l, l + rng.randint(0, 4)))
        answers.setdefault(f"{n} intervals", []).append(interval_wis(spans))
    assert sum(map(len, answers.values())) == 1500
    assert_pinned("test_wis_witness_matches_the_scan_reference", answers)


# ---------------------------------------------------------------------------
# proper interval solver


def test_proper_interval_two_far_edges():
    model = imodel((0, 2), (1, 3), (5, 7), (6, 8))
    got = solve_igm_proper_interval(model, Pattern.of(path_graph(2)), 2)
    assert got is not None
    assert sorted(sorted(o.vertices) for o in got.occurrences) == [[0, 1], [2, 3]]
    assert solve_igm_proper_interval(model, Pattern.of(path_graph(2)), 3) is None


def test_proper_interval_k_zero():
    model = imodel((0, 2), (1, 3))
    assert solve_igm_proper_interval(model, Pattern.of(path_graph(2)), 0).size() == 0


def test_proper_interval_rejects_disconnected_pattern():
    model = imodel((0, 2), (4, 6))
    with pytest.raises(InputError, match="graphs.find_igm answers a disconnected one"):
        solve_igm_proper_interval(model, Pattern.of(Graph(2, [])), 1)


def test_proper_interval_rejects_improper_model():
    model = imodel((0, 10), (2, 3))
    with pytest.raises(InputError):
        solve_igm_proper_interval(model, Pattern.of(path_graph(2)), 1)


def test_long_proper_arcs_reject_a_model_that_is_not_both():
    contained = ArcModel([Arc(0, 0, 10), Arc(1, 2, 3)], 20)
    covering = ArcModel([Arc(0, 0, 12), Arc(1, 10, 2)], 20)
    for model in (contained, covering):
        with pytest.raises(InputError, match="must be proper and long"):
            solve_igm_long_proper_ca(model, Pattern.of(path_graph(2)), 1)


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
# long proper circular-arc solver


def test_ca_two_antipodal_clusters():
    model = amodel(20, (0, 3), (1, 4), (10, 13), (11, 14))
    got = solve_igm_long_proper_ca(model, Pattern.of(path_graph(2)), 2)
    assert got is not None
    assert sorted(sorted(o.vertices) for o in got.occurrences) == [[0, 1], [2, 3]]


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
    # direct-search fallback can certify k = 1
    h = Pattern.of(cycle_graph(6))
    occs = enumerate_occurrences(realize(C6_ARCS), h)
    assert [sorted(o.vertices) for o in occs] == [list(range(6))]
    over = arc_cover(C6_ARCS)
    table = _arc_table(C6_ARCS, occurrence_maps(realize(C6_ARCS), h), over)
    assert table == ([], [])
    for p2, removed in _dedup_points(C6_ARCS, over):
        kept = cut_at_point(C6_ARCS, p2).kept_ids
        assert removed == sum(1 << v for v in range(len(C6_ARCS.arcs)) if v not in kept)
        assert removed & sum(1 << v for v in occs[0].vertices)
        assert _cut_solve(C6_ARCS, 1, p2, removed, table) is None
    got = solve_igm_long_proper_ca(C6_ARCS, h, 1)
    assert got is not None
    assert sorted(got.occurrences[0].vertices) == list(range(6))


def test_ca_wrapping_occurrence_without_pattern_model():
    h = Pattern.of(cycle_graph(6))
    got = solve_igm_long_proper_ca(C6_ARCS, h, 1)
    assert got is not None
    got.check(realize(C6_ARCS), h)
    assert solve_igm_long_proper_ca(C6_ARCS, h, 2) is None


def test_ca_matches_oracle():
    rng = random.Random(67)
    patterns = [
        Pattern.of(Graph(1, [])),
        Pattern.of(path_graph(2)),
        Pattern.of(path_graph(3)),
        Pattern.of(cycle_graph(3)),
    ]
    for _ in range(25):
        model = random_long_proper_arc_model(rng, rng.randint(1, 9))
        g = realize(model)
        for h in patterns:
            for k in (1, 2, 3):
                got = solve_igm_long_proper_ca(model, h, k)
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


def test_long_arc_table_matches_the_per_cut_reference():
    # the witnesses of the earlier solver, which rebuilt the (leftmost,
    # rightmost) classes of each cut from scratch, pinned by digest per model;
    # constructive long proper models, and k runs from 1 to one past the
    # optimum, so every yes-instance witness and every full no-instance sweep
    # compares
    patterns = [Pattern.of(Graph(1, [])), Pattern.of(path_graph(2)), Pattern.of(path_graph(3)),
                Pattern.of(cycle_graph(3)), Pattern.of(path_graph(4))]
    # the C6 occurrence wraps the circle, so every cut destroys it
    cases = [("C6", C6_ARCS, Pattern.of(cycle_graph(6)))]
    for seed, n in enumerate((6, 6, 7, 8, 9, 10, 12, 14, 16, 18, 20, 30)):
        rng = random.Random(seed)
        model = gen.long_proper_arc_model(rng, n, length=rng.randint(2, min(15, n - 1)))
        cases += [(f"seed {seed}", model, h) for h in patterns]
    solved = 0
    witnesses = {}
    for name, model, h in cases:
        k = 1
        while True:
            got = solve_igm_long_proper_ca(model, h, k)
            witnesses.setdefault(name, []).append(got)
            if got is None:
                break
            got.check(realize(model), h)
            assert got.size() == k
            solved += 1
            k += 1
    assert solved == 152 and sum(map(len, witnesses.values())) == 213
    assert_pinned("test_long_arc_table_matches_the_per_cut_reference", witnesses)


# ---------------------------------------------------------------------------
# the class table, built from the occurrence search's maps

CLASS_PATTERNS = [Pattern.of(complete_graph(2)), Pattern.of(path_graph(3)),
                  Pattern.of(complete_graph(3)), Pattern.of(path_graph(4))]


def _span_key(model, vs):
    """(leftmost, rightmost) item of an occurrence, or None when its arcs
    cover the circle: on a line the item starting first and the one ending
    last, and on a circle the same, read clockwise from a doubled point no
    arc of the occurrence holds."""
    if isinstance(model, IntervalModel):
        return (min(vs, key=lambda v: model.items[v].l), max(vs, key=lambda v: model.items[v].r))
    c2 = 2 * model.circumference
    bare = next((p for p in range(c2) if not any(point_in_arc(model, v, p) for v in vs)), None)
    if bare is None:
        return None
    return (min(vs, key=lambda v: (2 * model.arcs[v].s - bare) % c2),
            max(vs, key=lambda v: (2 * model.arcs[v].t - bare) % c2))


def _class_table(model, h, maps):
    """The class table the solver builds: an arc model's ``_arc_table``, and
    for an interval model the one ``solve_igm_proper_interval`` hands on."""
    if isinstance(model, ArcModel):
        return _arc_table(model, maps, arc_cover(model)).classes
    built = []

    def spy(maps, keyed):
        built.append(_span_classes(maps, keyed))
        return built[-1]

    with mock.patch.object(interval_solvers, "_span_classes", spy):
        solve_igm_proper_interval(model, h, 1)
    return built[0]


def _check_class_table(model, h):
    """The table built from the search's maps against the first occurrence
    per key in ``enumerate_occurrences``' canonical order; returns how many
    representatives share their vertex set with another map."""
    g = realize(model)
    want = {}
    for occ in enumerate_occurrences(g, h):
        key = _span_key(model, occ.vertices)
        if key is not None:
            want.setdefault(key, occ.vertices)
    maps = occurrence_maps(g, h)
    got = _class_table(model, h, maps)
    assert [(key, rep) for key, (_, rep) in got] == sorted(want.items()), (model, h.graph.edges)
    assert all(mask == sum(1 << v for v in rep) for _, (mask, rep) in got)
    sets = [frozenset(t) for t in maps]
    return sum(sets.count(frozenset(rep)) > 1 for _, (_, rep) in got)


def _relabelled_intervals(rng, model):
    ids = rng.sample(range(len(model)), len(model))
    return IntervalModel([Interval(ids[it.id], it.l, it.r) for it in model.items])


def test_class_table_matches_the_canonical_first_occurrences():
    # seeded benchmark models, relabelled so the search's map order and the
    # canonical order part; P4's twin swaps do not generate its automorphisms,
    # so each of its vertex sets has two maps and the smaller must represent it
    rng = random.Random(4040)
    models = []
    for n in (6, 12, 20, 30, 48):
        models.append(_relabelled_intervals(rng, gen.proper_interval_model(rng, n)))
        arc_n = min(n, 30)
        models.append(_relabelled(rng, gen.long_proper_arc_model(
            rng, arc_n, length=rng.randint(2, min(15, arc_n - 1)))))
    models.append(C6_ARCS)
    tied = sum(_check_class_table(m, h) for m in models for h in CLASS_PATTERNS)
    assert not CLASS_PATTERNS[3]._plan.twin_generated
    assert tied == 533


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12))
def test_class_table_matches_on_the_cross_solver_models(seed, n):
    # the cross-solver tests' models: a proper interval model, its lift to
    # arcs on a circle one point longer than its rightmost end, and a random
    # long proper arc model
    rng = random.Random(seed)
    model = gen.proper_interval_model(rng, n)
    lifted = ArcModel([Arc(iv.id, iv.l, iv.r) for iv in model.items],
                      max(iv.r for iv in model.items) + 1)
    arcs = random_long_proper_arc_model(rng, min(n, 10))
    for m in (model, lifted, arcs, _relabelled_intervals(rng, model)):
        for h in CLASS_PATTERNS:
            _check_class_table(m, h)


def _sweep_models():
    # constructive long proper models, n = 6..30, three seeds each; the
    # starts run round the whole circle, so the last arcs wrap past 0
    for n in range(6, 31):
        for seed in range(3):
            rng = random.Random(1000 * n + seed)
            yield gen.long_proper_arc_model(rng, n, length=rng.randint(2, min(15, n - 1)))


def _fuzzy_cover_models():
    # the arcs of fuzzy models from both generators, n = 4..30; their ends
    # sit on an even grid, so arcs share ends and many wrap past 0
    for n in range(4, 31, 2):
        rng = random.Random(n)
        yield gen.fuzzy_arc_model(rng, n, max(2, n // 2 + 2)).arcs
        yield random_fuzzy_arc_model(rng, n, max(4, n // 2 + 2)).arcs


def test_cover_sweep_matches_the_per_arc_reference():
    # the points probed are the long-arc cuts, the points just before each
    # start and just past each end, and the fuzzy cuts just past each start
    counts = []
    for models in ([C6_ARCS, *_sweep_models()], list(_fuzzy_cover_models())):
        probes = wrapping = at_zero = 0
        for model in models:
            over, ref = arc_cover(model), arc_cover_reference(model)
            points = (equivalence_points_doubled(model)
                      + [2 * a.s + d for a in model.arcs for d in (-1, 1)]
                      + [2 * a.t + 1 for a in model.arcs])
            for p2 in points:
                assert over(p2) == ref(p2), (model.arcs, p2)
            probes += len(points)
            wrapping += sum(a.t < a.s for a in model.arcs)
            at_zero += sum(a.s == 0 for a in model.arcs)  # probed at -1
        counts.append((probes, wrapping, at_zero))
    assert counts == [(8614, 172, 23), (1998, 74, 53)]


def test_cut_count_matches_best_weight_at_every_cut(monkeypatch):
    # a cut model is built iff the count reaches k, so building one at
    # k = opt and none at k = opt + 1 pins the count to the interval step's
    # optimum over the kept classes
    built = []
    monkeypatch.setattr(interval_solvers, "cut_at_point",
                        lambda model, p2: built.append(p2) or cut_at_point(model, p2))
    patterns = [Pattern.of(Graph(1, [])), Pattern.of(path_graph(2)), Pattern.of(path_graph(3))]
    cuts = 0
    for model in _sweep_models():
        over = arc_cover(model)
        g = realize(model)
        points = _dedup_points(model, over)
        for h in patterns:
            table = _arc_table(model, occurrence_maps(g, h), over)
            for p2, removed in points:
                cut = cut_at_point(model, p2)
                spans = dict(zip(cut.kept_ids, cut.intervals.items))
                aux = [(spans[lm].l, spans[rm].r, 1)
                       for (lm, rm), (mask, _) in table.classes if not mask & removed]
                opt = _best_weight_reference(aux, range(len(aux)))
                if opt:
                    assert _cut_solve(model, opt, p2, removed, table) is not None
                    assert built.pop() == p2
                assert _cut_solve(model, opt + 1, p2, removed, table) is None
                assert not built
                cuts += 1
    assert cuts == 7731


def _best_cut_count(model, table, points):
    """The most kept classes with pairwise disjoint cut intervals, over every cut."""
    best = 0
    for p2, removed in points:
        cut = cut_at_point(model, p2)
        spans = dict(zip(cut.kept_ids, cut.intervals.items))
        aux = [(spans[lm].l, spans[rm].r, 1)
               for (lm, rm), (mask, _) in table.classes if not mask & removed]
        best = max(best, _best_weight_reference(aux, range(len(aux))))
    return best


def _relabelled(rng, model):
    ids = rng.sample(range(len(model.arcs)), len(model.arcs))
    return ArcModel([Arc(ids[a.id], a.s, a.t) for a in model.arcs], model.circumference)


def _check_circular_count(models, patterns):
    # the count that refutes a no-instance before any cut is swept equals
    # the best count of any cut, capped at k; on a small host it is the
    # largest induced matching, or 1 where every occurrence wraps the circle
    checked = exhaustive = 0
    for model in models:
        over = arc_cover(model)
        g = realize(model)
        points = _dedup_points(model, over)
        for h in patterns:
            occs = enumerate_occurrences(g, h)
            table = _arc_table(model, occurrence_maps(g, h), over)
            best = _best_cut_count(model, table, points)
            for k in sorted({1, 2, best, best + 1}):
                assert _circular_packing(table, 2 * model.circumference, k) == min(best, k), \
                    (model.arcs, h.graph.edges, k)
            if len(occs) <= 9:
                assert max(best, min(1, len(occs))) == max_igm_exhaustive(g, h.graph)
                exhaustive += 1
            checked += 1
    return checked, exhaustive


def test_circular_count_is_the_best_cut_count():
    rng = random.Random(353)
    small = [_relabelled(rng, random_long_proper_arc_model(rng, n, circ))
             for n, circ in ((3, 12), (5, 20), (6, 30), (8, 40), (10, 60)) for _ in range(4)]
    bench = [gen.long_proper_arc_model(random.Random(seed), 20) for seed in (301, 302, 303)]
    sweep = itertools.islice(_sweep_models(), 0, None, 3)  # one seed per n
    models = [*sweep, *small, *(_relabelled(rng, m) for m in bench)]
    patterns = [Pattern.of(path_graph(2)), Pattern.of(path_graph(3)), Pattern.of(path_graph(4))]
    assert _check_circular_count(models, patterns) == (144, 74)


@pytest.mark.slow
def test_circular_count_is_the_best_cut_count_on_large_models():
    rng = random.Random(359)
    models = [_relabelled(rng, gen.long_proper_arc_model(random.Random(seed), n))
              for n, seed in ((80, 301), (80, 302), (400, 301))]
    patterns = [Pattern.of(path_graph(2)), Pattern.of(path_graph(3)), Pattern.of(path_graph(4))]
    assert _check_circular_count(models, patterns) == (9, 0)


def test_cut_sweep_rejects_a_class_over_the_cut_point():
    # a removed mask that misses the arcs over p2 leaves the class {0, 1}
    # alive across the cut, with its cut start past its cut end
    model = amodel(20, (0, 3), (1, 4), (10, 13), (11, 14))
    maps = occurrence_maps(realize(model), Pattern.of(path_graph(2)))
    table = _arc_table(model, maps, arc_cover(model))
    assert _cut_solve(model, 2, 4, 0b0011, table) is None
    with pytest.raises(InternalError, match="wraps past cut point 4"):
        _cut_solve(model, 2, 4, 0, table)


def _ladder_pairs(kind, model, g, hn, he):
    """The distinct (leftmost, rightmost) items of the pattern's copies,
    worked out per copy from the model's coordinates."""
    pairs = set()
    for o in oracle.occurrence_sets(g, hn, he):
        if kind == "interval":
            items = [model.items[v] for v in o]
            pairs.add((min(items, key=lambda it: it.l).id, max(items, key=lambda it: it.r).id))
            continue
        c = model.circumference
        arcs = [model.arcs[v] for v in o]

        def reach(a, b):  # clockwise from a's start to b's end, round b's start
            return (b.s - a.s) % c + (b.t - b.s) % c

        # the union starts at the start with the shortest clockwise reach
        first = min(arcs, key=lambda a: max(reach(a, b) for b in arcs))
        pairs.add((first.id, max(arcs, key=lambda b: reach(first, b)).id))
    return len(pairs)


def test_arc_ladders_keep_one_class_per_end_pair_and_sweep_no_refuted_cut(monkeypatch):
    # doubling ladders of the benchmark's proper interval and long proper
    # arc models, K2 and P3 at k = opt and k = opt + 1, opt from the
    # benchmark's oracle: every solve keeps one class per (leftmost,
    # rightmost) pair, a long-arc solve tries at most one cut per distinct
    # cut point, and a refuted k >= 2 tries none.  The arcs take the
    # intervals' length, 8, not the default 15, whose P3 copies at n = 160
    # keep the oracle's all-pairs circular schedule busy for a second
    counts = {"classes": [], "cuts": 0, "points": []}

    def classes(*args, _fn=interval_solvers._span_classes):
        out = _fn(*args)
        counts["classes"].append(len(out))
        return out

    def cut_solve(*args, _fn=interval_solvers._cut_solve):
        counts["cuts"] += 1
        return _fn(*args)

    def points(*args, _fn=interval_solvers._dedup_points):
        out = _fn(*args)
        counts["points"].append(len(out))
        return out

    monkeypatch.setattr(interval_solvers, "_span_classes", classes)
    monkeypatch.setattr(interval_solvers, "_cut_solve", cut_solve)
    monkeypatch.setattr(interval_solvers, "_dedup_points", points)
    patterns = {"K2": (Pattern.of(complete_graph(2)), 2, 1), "P3": (Pattern.of(path_graph(3)), 3, 2)}
    got = {}
    for n in (20, 40, 80, 160):
        ladders = {
            "interval": (gen.proper_interval_model(random.Random(n), n), solve_igm_proper_interval,
                         oracle.interval_optimum),
            "long-arc": (gen.long_proper_arc_model(random.Random(n), n, length=8),
                         solve_igm_long_proper_ca, oracle.arc_optimum),
        }
        for kind, (model, solve, optimum) in ladders.items():
            g = realize(model)
            for name, (h, hn, he) in patterns.items():
                opt = optimum(model, hn, he)
                pairs = _ladder_pairs(kind, model, g, hn, he)
                row = [opt, pairs]
                for k in (opt, opt + 1):
                    counts.update(classes=[], cuts=0, points=[])
                    assert (solve(model, h, k) is not None) == (k == opt)
                    assert counts["classes"] == [pairs]
                    if kind == "long-arc":
                        # (cuts tried, distinct cut points)
                        row.append((counts["cuts"], sum(counts["points"])))
                        assert counts["cuts"] <= sum(counts["points"])
                got[kind, n, name] = tuple(row)
    # (opt, classes, then per long-arc solve at opt and opt + 1 the cuts
    # tried and the cut points); the classes grow linearly with n, and a
    # refuted opt + 1 >= 2 sweeps no cut
    assert got == {
        ("interval", 20, "K2"): (5, 37), ("interval", 20, "P3"): (3, 33),
        ("long-arc", 20, "K2"): (5, 48, (2, 40), (0, 0)),
        ("long-arc", 20, "P3"): (2, 51, (1, 40), (0, 0)),
        ("interval", 40, "K2"): (10, 77), ("interval", 40, "P3"): (7, 73),
        ("long-arc", 40, "K2"): (9, 94, (1, 80), (0, 0)),
        ("long-arc", 40, "P3"): (5, 91, (1, 80), (0, 0)),
        ("interval", 80, "K2"): (20, 157), ("interval", 80, "P3"): (13, 153),
        ("long-arc", 80, "K2"): (19, 189, (1, 160), (0, 0)),
        ("long-arc", 80, "P3"): (11, 185, (1, 160), (0, 0)),
        ("interval", 160, "K2"): (40, 317), ("interval", 160, "P3"): (27, 313),
        ("long-arc", 160, "K2"): (36, 374, (1, 320), (0, 0)),
        ("long-arc", 160, "P3"): (23, 357, (1, 320), (0, 0)),
    }


# ---------------------------------------------------------------------------
# disconnected patterns on proper circular-arc models, answered by find_igm
# on the realized host: the arc unions of an induced matching's copies are
# pairwise disjoint, so two or more of them leave a point of the circle
# uncovered, and a cut there keeps the whole matching


def test_disconnected_four_isolated_arcs():
    model = amodel(16, (0, 1), (4, 5), (8, 9), (12, 13))
    h = Pattern.of(Graph(2, []))
    got = find_igm(realize(model), h, 2)
    assert got is not None
    assert got.size() == 2


def test_disconnected_clique_has_no_independent_pair():
    model = amodel(16, (0, 5), (1, 6), (2, 7), (3, 8))
    h = Pattern.of(Graph(2, []))
    assert find_igm(realize(model), h, 1) is None


def test_disconnected_matches_oracle():
    rng = random.Random(83)
    h = Pattern.of(Graph(3, [(1, 2)]))  # K1 + K2
    for _ in range(20):
        model = random_long_proper_arc_model(rng, rng.randint(3, 9))
        g = realize(model)
        for k in (1, 2):
            got = find_igm(g, h, k)
            assert (got is not None) == igm_exhaustive(g, h.graph, k)


def test_disconnected_matches_exhaustive_on_equal_length_arcs():
    """find_igm answers as the exhaustive oracle does on proper models of
    equal-length arcs, long or not, and each witness is k copies of H that
    are pairwise disjoint and non-adjacent."""
    rng = random.Random(2606)
    patterns = [Pattern(Graph(2)), Pattern(Graph(3, [(1, 2)])),
                Pattern(Graph(4, [(0, 1), (2, 3)])), Pattern(Graph(4, [(1, 2), (2, 3)]))]
    yes = solves = 0
    for _ in range(40):
        circ = rng.randint(8, 40)
        n = rng.randint(2, min(circ, 9))
        length = rng.randint(1, circ // 3)
        arcs = [Arc(i, s, (s + length) % circ) for i, s in enumerate(rng.sample(range(circ), n))]
        g = realize(ArcModel(arcs, circ))
        for h in patterns:
            embeddings = set(occurrences_exhaustive(g, h.graph))
            for k in range(1, 8 // h.h + 1):
                got = find_igm(g, h, k)
                assert (got is not None) == igm_exhaustive(g, h.graph, k), (arcs, circ, h.graph, k)
                if got is not None:
                    copies = [o.vertices for o in got.occurrences]
                    assert len(copies) == k and embeddings.issuperset(copies)
                    assert _occ_sets_compatible(g, [frozenset(c) for c in copies])
                solves += 1
                yes += got is not None
    assert (solves, yes) == (400, 110)
