"""Pinned witnesses of every case of the benchmark's ``clawfree`` workload.

The cases of seeds 301-303 (line graphs of cyclic, path and tree preimages,
exhaustive and seeded random colorings) are rebuilt with
``perfbench/workloads.py``, which is imported and never changed, and every
solve must give the answer recorded in ``clawfree_witnesses.json``,
occurrence for occurrence.  A solve that raises ``SizeCapError`` is pinned
as that class name: the path and tree hosts above the independence-number
cap do so today, and lifting that cap is meant to change exactly those rows.

The file was recorded before the embedding search drew its candidates from
anchored lists.

The workload's hosts are line graphs, whose strips have one-vertex
interiors.  ``clawfree_subdivided_witnesses.json`` pins, the same way, the
solves of K2, P3 and K3 at k = 1 over seeded subdivided structures
(``randgen.random_subdivided_structure`` with edges cut into 4 to 7 host
vertices), whose stripes have path interiors: with no certificates and with
a path fuzzy arc model on every stripe.  It was recorded before the solver
took the kind of each strip from the structure and checked certificates
only at entry.  Its rows for a third set, a true "alpha4" claim on every
strip, were dropped with that kind of certificate; each equalled the row
without certificates.

Rewrite the files only for an intended witness change:

    PYTHONPATH=src:perfbench python tests/test_clawfree_corpus.py
"""

import collections
import json
import math
import os
import random

import igmatch.color_coding as cc
from igmatch.errors import SizeCapError
from igmatch.graphs import OutOfBudget, Pattern, complete_graph, path_graph
from igmatch.strips import classify_strip, line_graph_strip_structure, validate_strip_structure

import workloads
from randgen import random_subdivided_structure
from test_color_coding import _counting, _path_certificate

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "clawfree_witnesses.json")
SUBDIVIDED_FIXTURE = os.path.join(HERE, "clawfree_subdivided_witnesses.json")
SEEDS = (301, 302, 303)
SUBDIVIDED_SEED = 1206
SUBDIVIDED = 16


def _clawfree_cases(seed):
    return workloads.clawfree(random.Random(seed))


def _witnesses(seed):
    return [[case.label, _witness(lambda case=case: case.solve(None))]
            for case in _clawfree_cases(seed)]


def _witness(solve):
    """The occurrences ``solve()`` finds as lists, None, or "SizeCapError"."""
    try:
        found = solve()
    except SizeCapError:
        return "SizeCapError"
    return None if found is None else [list(o.vertices) for o in found.occurrences]


def _subdivided_rows():
    """[label, witness] per subdivided structure, pattern and certificate set."""
    rng = random.Random(SUBDIVIDED_SEED)
    patterns = {"K2": complete_graph(2), "P3": path_graph(3), "K3": complete_graph(3)}
    for i in range(SUBDIVIDED):
        n = rng.randint(3, 4)
        g, ss = random_subdivided_structure(rng, n, rng.randint(n, n + 2), cut=(4, 7))
        certificate_sets = {
            "none": None,
            "paths": {eid: _path_certificate(len(ss.strips[eid].interior()))
                      for eid, _ in ss.edges if classify_strip(ss.strips[eid]) == "stripe"},
        }
        for pn, hg in patterns.items():
            for cn, certs in certificate_sets.items():
                yield [f"sub{i}-{pn}-{cn}", _witness(lambda: cc.solve_igm_claw_free(
                    g, Pattern.of(hg), 1, ss=ss, certificates=certs))]


def workload_hosts(monkeypatch, *seeds) -> list:
    """The hosts the workload draws for ``seeds``, in order."""
    hosts = []
    real = workloads.line_graph

    def capture(m):
        hosts.append(real(m))
        return hosts[-1]

    with monkeypatch.context() as m:
        m.setattr(workloads, "line_graph", capture)
        for seed in seeds:
            _clawfree_cases(seed)
    return hosts


def test_line_graph_structures_of_the_hosts_are_valid(monkeypatch):
    """The router trusts ``line_graph_strip_structure`` without a check (its
    docstring says why).  On every host the workload draws for the corpus
    seeds, the structure passes ``validate_strip_structure``."""
    hosts = workload_hosts(monkeypatch, *SEEDS)
    assert len(hosts) >= len(SEEDS) * 24
    for g in hosts:
        ss = line_graph_strip_structure(g)
        assert ss is not None
        validate_strip_structure(g, ss)


def test_subdivided_witnesses_are_pinned(monkeypatch):
    with open(SUBDIVIDED_FIXTURE) as f:
        pinned = json.load(f)
    real = cc.solve_strip_interiors
    packed = []

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        packed.append(out[1] > 0)
        return out

    monkeypatch.setattr(cc, "solve_strip_interiors", counted)
    got = list(_subdivided_rows())
    assert len(got) == len(pinned) == 6 * SUBDIVIDED
    for g, w in zip(got, pinned):
        assert g == w
    # the solves pack stripe interiors, not only realize boundary tokens (22
    # interior-solver calls pack a copy; 11 more came from the dropped rows)
    assert sum(packed) >= 16


def test_subdivided_interiors_are_packed_by_one_search(monkeypatch):
    """Over the 96 subdivided solves, each residual interior that holds a
    copy is packed by one largest-packing search, 11 in all.  The 18 exact
    searches are the router's on chunks of independence number at most 4,
    and the 78 budgeted ones its refutations.  The router asks each chunk
    for five independent vertices once (96 questions); a chunk that has
    them has every k up to five, and every k here is 1, so no "k
    independent vertices?" question precedes a refutation.  The interior
    packing asks only "five independent vertices?", and only to decide the
    exhaustive-packing note: 11 questions.  On the 144 solves the
    corpus held before its "alpha4" rows were dropped, the descending
    ``find_igm`` ladder that the largest-packing search replaced made 26
    calls where it makes 22, and ``find_igm``, ``max_igm`` and
    ``packing_refuted``, which ran the three kinds before ``packing`` did,
    were called 27, 22 and 117 times."""
    real = cc.packing
    kinds = []

    def counted(g, occs, goal, require_touch=(), budget=math.inf):
        kinds.append("largest" if goal is None else "exact" if budget == math.inf else "budgeted")
        return real(g, occs, goal, require_touch, budget)

    monkeypatch.setattr(cc, "packing", counted)
    asked = _counting(monkeypatch, "brute_force_wis")
    assert len(list(_subdivided_rows())) == 96
    assert collections.Counter(kinds) == {"exact": 18, "largest": 11, "budgeted": 78}
    assert collections.Counter(args[2] for args in asked) == {5: 96 + 11}


def test_clawfree_workload_witnesses_are_pinned():
    with open(FIXTURE) as f:
        pinned = json.load(f)
    assert sorted(pinned) == [str(s) for s in SEEDS]
    for seed in SEEDS:
        want = pinned[str(seed)]
        got = _witnesses(seed)
        assert len(got) == len(want) == 104
        for i, (g, w) in enumerate(zip(got, want)):
            assert g == w, (seed, i)


def test_the_pipeline_answers_no_on_the_k3_no_instances(monkeypatch):
    """The router refutes every K3, k = 2 no-instance of the workload by the
    packing search, so the pipeline no longer meets them through the entry.
    Run directly over each host's line-graph structure, it still answers
    None on all 45 of the corpus seeds."""
    calls = []
    monkeypatch.setattr(workloads, "solve_igm_claw_free",
                        lambda g, h, k, **kwargs: calls.append((g, h, k)))
    for seed in SEEDS:
        for case in _clawfree_cases(seed):
            if case.label == "cyclic-K3-k2" and not case.expected:
                case.solve(None)
    assert len(calls) == 45
    cfg = cc._RunConfig("exhaustive", None, None)
    for g, h, k in calls:
        assert cc._assembled(g, h, [], line_graph_strip_structure(g), {}, cfg)(k) is None


def test_a_spent_refutation_budget_changes_no_answer(monkeypatch):
    """With no nodes to spend, the packing search refutes nothing and every
    count falls through to the pipeline: the first K3 yes-instance and the
    first K3 no-instance of seed 301 keep their pinned witness and answer,
    and the no-instance reads base streams again."""
    with open(FIXTURE) as f:
        pinned = json.load(f)["301"]
    monkeypatch.setattr(cc, "_REFUTE_BUDGET", 0)
    shaped = _counting(monkeypatch, "_shaped_bases")
    rows = list(zip(_clawfree_cases(301), pinned))
    for expected in (True, False):
        case, (label, want) = next((c, row) for c, row in rows
                                   if c.label == "cyclic-K3-k2" and c.expected == expected)
        assert label == case.label and (want is not None) == expected
        del shaped[:]
        assert _witness(lambda: case.solve(None)) == want
        assert shaped


def test_no_corpus_refutation_visits_more_than_8_nodes(monkeypatch):
    """The comment on ``_REFUTE_BUDGET`` says no solve of the pinned corpora
    visits more than 8 nodes in its budgeted packing search: with the
    budget at 8, none of the seed 301-303 workload cases or the subdivided
    solves runs out of it (the longest visits 6 and 2 nodes today)."""
    monkeypatch.setattr(cc, "_REFUTE_BUDGET", 8)
    real = cc.packing
    budgeted, spent = [], []

    def counted(g, occs, goal, require_touch=(), budget=math.inf):
        if budget < math.inf:
            budgeted.append(goal)
        try:
            return real(g, occs, goal, require_touch, budget)
        except OutOfBudget:
            spent.append((g, goal))
            raise

    monkeypatch.setattr(cc, "packing", counted)
    for seed in SEEDS:
        _witnesses(seed)
    list(_subdivided_rows())
    assert budgeted and spent == []


def _write_subdivided():
    with open(SUBDIVIDED_FIXTURE, "w") as f:
        rows = [json.dumps(row) for row in _subdivided_rows()]
        f.write("[\n" + ",\n".join(rows) + "\n]\n")


if __name__ == "__main__":
    _write_subdivided()
    with open(FIXTURE, "w") as f:
        f.write("{\n")
        for n, seed in enumerate(SEEDS):
            f.write(f'"{seed}": [\n')
            rows = _witnesses(seed)
            f.write(",\n".join(json.dumps(r) for r in rows))
            f.write("\n]" + (",\n" if n + 1 < len(SEEDS) else "\n"))
        f.write("}\n")
