import random

import pytest

import igmatch.fuzzy_solver as fuzzy_solver
from igmatch.errors import InputError, InternalError
from igmatch.fuzzy_solver import solve_igm_fuzzy_ca
from igmatch.graphs import (
    Graph,
    Occurrence,
    Pattern,
    _occurrence_masks,
    brute_force_wis,
    compatible,
    complete_graph,
    cycle_graph,
    disjoint_union,
    enumerate_occurrences,
    find_igm,
    path_graph,
)
from igmatch.models import Arc, ArcModel, FuzzyArcModel, realize

import gen
from oracles import fuzzy_dp_profile, igm_exhaustive, max_igm_exhaustive
from pinned import assert_pinned
from randgen import random_fuzzy_arc_model


def fmodel(circ, pairs, resolutions=None):
    arcs = ArcModel(tuple(Arc(i, s, t) for i, (s, t) in enumerate(pairs)), circ)
    return FuzzyArcModel(arcs, resolutions or {})


K1 = Pattern.of(Graph(1, []))
K2 = Pattern.of(path_graph(2))
P3 = Pattern.of(path_graph(3))
K3 = Pattern.of(cycle_graph(3))
P4 = Pattern.of(path_graph(4))


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
    assert sorted(sorted(o.vertices) for o in got.occurrences) == [[0, 1], [2, 3], [4, 5]]
    assert solve_igm_fuzzy_ca(model, K2, 4) is None


def test_fuzzy_clique_has_single_matching():
    model = fmodel(16, [(0, 5), (1, 6), (2, 7), (3, 8)])
    assert realize(model) == complete_graph(4)
    assert solve_igm_fuzzy_ca(model, K2, 1) is not None
    assert solve_igm_fuzzy_ca(model, K2, 2) is None


def test_fuzzy_single_occurrence_is_revalidated(monkeypatch):
    # k = 1 returns the first occurrence without the chain program; it still
    # goes through the re-check, which blames the solver for a bad answer
    model = fmodel(16, [(0, 2), (1, 3), (5, 7), (6, 8)])
    seen = []

    def spy(found, g, h, what):
        seen.append((found, what))
        return found

    monkeypatch.setattr(fuzzy_solver, "revalidated", spy)
    got = solve_igm_fuzzy_ca(model, K2, 1)
    assert seen == [(got, "single occurrence")]
    assert got.occurrences == (Occurrence((0, 1)),)
    monkeypatch.undo()
    monkeypatch.setattr(fuzzy_solver, "realize", lambda m: Graph(4, [(0, 1)]))
    monkeypatch.setattr(fuzzy_solver, "enumerate_occurrences", lambda g, h: [Occurrence((0, 2))])
    with pytest.raises(InternalError):
        solve_igm_fuzzy_ca(model, K2, 1)


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


def test_residual_chain_matches_the_reference_star_by_star():
    # the per-solve table and per-star sweep give every star the (length,
    # chain) of the earlier per-star program, which cut, sorted and grouped
    # the survivors again for each star, early stops included; pinned by
    # digest per trial.  That program was cubic in the occurrence count, so
    # larger occurrence lists are left to the pinned corpus and the
    # solve-level tests
    rng = random.Random(113)
    stars = sizes = 0
    chains = {}
    for trial in range(24):
        n = 4 + trial * 26 // 23
        if trial % 2:
            model = gen.fuzzy_arc_model(rng, n, max(2, n // 2 + 2))
        else:
            model = random_fuzzy_arc_model(rng, n, max(4, n // 2 + 2))
        g = realize(model)
        for h in (K2, P3, K3, P4):
            occs = enumerate_occurrences(g, h)
            if not occs or len(occs) > 150:
                continue
            _, conflict = _occurrence_masks(g, occs)
            table = fuzzy_solver._ChainTable(model, g, occs)
            for star in range(len(occs)):
                # a chain holds fewer occurrences than there are, so the
                # last stop is never reached
                for stop_at in (2, 3, 4, len(occs)):
                    length, chain = got = fuzzy_solver._residual_chain(table, star, stop_at)
                    assert length == len(chain)
                    assert not any(conflict[i] & (1 << j) for i in (star, *chain) for j in chain)
                    chains.setdefault(f"trial {trial}", []).append(got)
                stars += 1
            sizes = max(sizes, n)
    assert (stars, sizes, sum(map(len, chains.values()))) == (3291, 30, 13164)
    assert_pinned("test_residual_chain_matches_the_reference_star_by_star", chains)


def _check_fuzzy_count(models, patterns):
    # the count that refutes a no-instance before the star loop equals one
    # plus the best star's chain, capped at k, and 0 with no occurrence; the
    # star chains it keeps are the witness loop's own; on a small host it
    # is the largest induced matching.  Also returns each model's star chain
    # lengths, per pattern
    checked = exhaustive = 0
    lengths = []
    for model in models:
        g = realize(model)
        lengths.append([])
        for h in patterns:
            occs = enumerate_occurrences(g, h)
            table = fuzzy_solver._ChainTable(model, g, occs)
            # a chain holds fewer occurrences than there are, so it never stops early
            star_lengths = [fuzzy_solver._residual_chain(table, star, len(occs))[0]
                            for star in range(len(occs))]
            lengths[-1].append(star_lengths)
            best = max((1 + length for length in star_lengths), default=0)
            for k in sorted({1, 2, best, best + 1}):
                swept = {}
                assert fuzzy_solver._most_compatible(table, k, swept) == min(best, k), \
                    (model.arcs.arcs, h.graph.edges, k)
                for star, found in swept.items():
                    assert found == fuzzy_solver._residual_chain(table, star, k - 1)
            if len(occs) <= 9:
                assert best == max_igm_exhaustive(g, h.graph)
                exhaustive += 1
            checked += 1
    return checked, exhaustive, lengths


def test_fuzzy_count_is_the_best_star():
    # the star chain lengths are the earlier per-star program's, pinned by
    # digest per model
    rng = random.Random(131)
    models = [random_fuzzy_arc_model(rng, n, max(4, n // 2 + 2)) for n in range(2, 12)]
    models += [gen.fuzzy_arc_model(random.Random(seed), 20, 12) for seed in (301, 302)]
    checked, exhaustive, lengths = _check_fuzzy_count(models, (K2, P3, P4))
    assert (checked, exhaustive) == (36, 20)
    n40 = gen.fuzzy_arc_model(random.Random(301), 40, 24)
    checked, exhaustive, (n40_lengths,) = _check_fuzzy_count([n40], (K2,))
    assert (checked, exhaustive) == (1, 0)
    found = {f"model {i}": model_lengths for i, model_lengths in enumerate(lengths)}
    assert_pinned("test_fuzzy_count_is_the_best_star", {**found, "n40": n40_lengths})


@pytest.mark.slow
def test_fuzzy_count_is_the_best_star_on_large_models():
    n40 = gen.fuzzy_arc_model(random.Random(302), 40, 24)
    checked, exhaustive, (n40_lengths,) = _check_fuzzy_count([n40], (P3,))
    assert (checked, exhaustive) == (1, 0)
    assert_pinned("test_fuzzy_count_is_the_best_star_on_large_models", {"n40": n40_lengths})
    n80 = [gen.fuzzy_arc_model(random.Random(seed), 80, 40) for seed in (7, 301)]
    assert _check_fuzzy_count(n80, (K2,))[:2] == (2, 0)


def test_wrap_check_names_the_reference_arc():
    # with the star's conflicts dropped, survivors have arcs over the cut;
    # the sweep blames the arc and occurrence the earlier per-star program
    # blamed (pinned by digest)
    model = random_fuzzy_arc_model(random.Random(127), 12, 8)
    g = realize(model)
    occs = enumerate_occurrences(g, P3)
    table = fuzzy_solver._ChainTable(model, g, occs)
    full = (1 << len(occs)) - 1
    raised = []
    for star in range(len(occs)):
        table.free[table.position[star]] = full
        with pytest.raises(InternalError, match="wraps the cut point") as got:
            fuzzy_solver._residual_chain(table, star, len(occs))
        raised.append(got.value)
    assert len(raised) == 23
    assert_pinned("test_wrap_check_names_the_reference_arc", {"seed 127": raised})


def test_fuzzy_no_instance_builds_one_table(monkeypatch):
    # 840 K2 occurrences, none of which reaches k: the table and the
    # conflict masks are built once per solve, and only the 143
    # occurrences over the count's cut point, the fewest over any odd
    # point past an arc end, are the star of a sweep
    model = gen.fuzzy_arc_model(random.Random(7), 80, 40)
    counts = dict.fromkeys(("_ChainTable", "_occurrence_masks", "_residual_chain"), 0)
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(fuzzy_solver, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(fuzzy_solver, name, counted)
    assert solve_igm_fuzzy_ca(model, K2, 1000) is None
    assert counts == {"_ChainTable": 1, "_occurrence_masks": 1, "_residual_chain": 143}


# ---------------------------------------------------------------------------
# hosts of independence number at most 4: the packing search over every
# occurrence (``find_igm``) answers them, checked against exhaustive search


def test_small_alpha_k4_triangle():
    g = complete_graph(4)
    for k, want in ((1, True), (2, False)):
        assert (find_igm(g, K3, k) is not None) == igm_exhaustive(g, K3.graph, k) == want


def test_small_alpha_two_triangles():
    g = disjoint_union(cycle_graph(3), cycle_graph(3))
    got = find_igm(g, K3, 2)
    assert got is not None and igm_exhaustive(g, K3.graph, 2)
    assert sorted(sorted(o.vertices) for o in got.occurrences) == [[0, 1, 2], [3, 4, 5]]


def test_small_alpha_k_above_bound_is_absent():
    assert find_igm(cycle_graph(5), K1, 5) is None
    assert not igm_exhaustive(cycle_graph(5), K1.graph, 5)


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
        if brute_force_wis(g, [1] * n, 5, 0)[0]:
            continue  # five independent vertices: not a small-independence host
        tested += 1
        for k in (1, 2, 3):
            got = find_igm(g, K2, k)
            assert (got is not None) == igm_exhaustive(g, K2.graph, k)
    assert tested == 40
