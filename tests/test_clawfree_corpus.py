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
vertices), whose stripes have path interiors: with no certificates, with a
true "alpha4" claim on every strip and with a path fuzzy arc model on every
stripe.  It was recorded before the solver took the kind of each strip from
the structure and checked certificates only at entry.

Rewrite the files only for an intended witness change:

    PYTHONPATH=src python tests/test_clawfree_corpus.py
"""

import json
import os
import random
import sys

import igmatch.color_coding as cc
from igmatch.errors import SizeCapError
from igmatch.graphs import Pattern, complete_graph, path_graph
from igmatch.strips import classify_strip, line_graph_strip_structure, validate_strip_structure

from randgen import random_subdivided_structure
from test_color_coding import _counting, _path_certificate

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "clawfree_witnesses.json")
SUBDIVIDED_FIXTURE = os.path.join(HERE, "clawfree_subdivided_witnesses.json")
SEEDS = (301, 302, 303)
SUBDIVIDED_SEED = 1206
SUBDIVIDED = 16


def _workloads():
    bench = os.path.join(os.path.dirname(HERE), "perfbench")
    if bench not in sys.path:
        sys.path.append(bench)
    import workloads

    return workloads


def _clawfree_cases(seed):
    return _workloads().clawfree(random.Random(seed))


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
            "alpha4": {eid: "alpha4" for eid, _ in ss.edges},
            "paths": {eid: _path_certificate(len(ss.strips[eid].interior()))
                      for eid, _ in ss.edges if classify_strip(ss.strips[eid]) == "stripe"},
        }
        for pn, hg in patterns.items():
            for cn, certs in certificate_sets.items():
                yield [f"sub{i}-{pn}-{cn}", _witness(lambda: cc.solve_igm_claw_free(
                    g, Pattern.of(hg), 1, ss=ss, certificates=certs))]


def test_line_graph_structures_of_the_hosts_are_valid(monkeypatch):
    """The router trusts ``line_graph_strip_structure`` without a check (its
    docstring says why).  On every host the workload draws for the corpus
    seeds, the structure passes ``validate_strip_structure``."""
    workloads = _workloads()
    hosts = []
    real = workloads.line_graph

    def capture(m):
        hosts.append(real(m))
        return hosts[-1]

    monkeypatch.setattr(workloads, "line_graph", capture)
    for seed in SEEDS:
        _clawfree_cases(seed)
    assert len(hosts) >= len(SEEDS) * 24
    for g in hosts:
        ss = line_graph_strip_structure(g)
        assert ss is not None and validate_strip_structure(g, ss).ok


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
    assert len(got) == len(pinned) == 9 * SUBDIVIDED
    for g, w in zip(got, pinned):
        assert g == w
    # the solves pack stripe interiors, not only realize boundary tokens
    assert sum(packed) >= 25


def test_subdivided_interiors_are_packed_by_one_search(monkeypatch):
    """Over the 144 subdivided solves, each residual interior that holds a
    copy is packed by one ``max_igm`` call, 22 in all; the descending
    ``find_igm`` ladder it replaced made 26 calls here.  The 27 ``find_igm``
    calls are the router's bounded searches on chunks of independence number
    at most 4.  The router tests
    each chunk's independence number once (144 calls).  The interior
    packing asks only the bounded question "five independent vertices?",
    and only to decide the exhaustive-packing note: 11 questions, beside
    the 207 that check the "alpha4" claims (it computed the independence
    number, 11 of 155 ``brute_force_mis`` calls here)."""
    found = _counting(monkeypatch, "find_igm")
    packed = _counting(monkeypatch, "max_igm")
    tested = _counting(monkeypatch, "brute_force_mis")
    asked = _counting(monkeypatch, "brute_force_wis")
    assert len(list(_subdivided_rows())) == 144
    assert (len(found), len(packed), len(tested), len(asked)) == (27, 22, 144, 218)


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
