"""Pinned selection-clique encodings of ``kernel.build_wis_instance``.

Every build is reduced to a sha256 digest of its graph, weights, targets,
tags, cliques and the notes it makes to ``igmatch.trace``, so a vertex id,
tag, weight, clique, note or consistency edge that moves changes the
digest.  The builds are:

- the hand fixtures of ``test_kernel.py``, and ``lopsided_stripe_pair``,
  whose two-member stripe has different ends, so that reading a profile
  key against the wrong end of its strip changes a weight;
- seeded random line graphs, whose structures hold spots and one-member
  stripes only;
- seeded subdivided structures (``randgen.random_subdivided_structure``),
  which add two-member stripes parallel to spots, so the spanning copies
  (types IIa and IIb) and triangle copies (type III) meet every rule.  K4
  is among their patterns because for h <= 3 the type IIa budget test
  a + b = h - l cannot be told apart from a + b <= h - l;
- the encodings that the benchmark's ``kernel`` workload builds on seed
  301, rebuilt with ``perfbench/workloads.py``, which is imported and never
  changed.

``kernel_instances.json`` was recorded before the encoding kept one profile
table per stripe and one loop over spanning copies, and before that table
was filled in one pass over its strip (``kernel._stripe_table``), which
enumerates the strip's copies once instead of once per key.  A second test
counts those enumerations on the subdivided builds.  Rewrite the file only
for an intended change to the encoding:

    PYTHONPATH=src python tests/test_kernel_corpus.py
"""

import functools
import hashlib
import itertools
import json
import os
import random
import sys

from igmatch import graphs, kernel, strips
from igmatch.graphs import Graph, Pattern, complete_graph, path_graph
from igmatch.strips import Strip, StripStructure, classify_strip
from igmatch.trace import recording

from oracles import wis_forward_check_reference
from randgen import random_line_graph, random_subdivided_structure
from test_color_coding import c11_two_stripes, two_stripe_p4
from test_kernel import (
    five_spot_triangle,
    four_gadget_host,
    mixed_spot_stripe,
    stripes_and_spots_pair,
    sunlet_line_graph,
    three_stem_host,
    two_far_claims_host,
)

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "kernel_instances.json")
PATTERNS = {h: Pattern.of(complete_graph(h)) for h in (2, 3, 4)}
WORKLOAD_SEED = 301
LINE_GRAPHS = 16
SUBDIVIDED = 40


def lopsided_stripe_pair():
    """A two-member stripe whose ends differ, beside a parallel spot.

    Stripe body: the path 0-1 and the triangle {1, 2, 3}; host 2 faces
    C(r0) = {2, 4} and host 0 faces C(r1) = {0, 4}, with host 4 the spot.
    Only the end at r0 meets the triangle, so the profile weights of K3
    tell the ends apart, and r0 faces the larger z of J.
    """
    g = Graph(5, [(0, 1), (1, 2), (1, 3), (2, 3), (0, 4), (2, 4)])
    jg = Graph(6, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4), (3, 5)])
    ss = StripStructure(
        r_vertices=(0, 1),
        edges=((0, (0, 1)), (1, (0, 1))),
        strips={0: Strip(jg, frozenset({0, 5}), {1: 0, 2: 1, 3: 2, 4: 3}),
                1: Strip(path_graph(3), frozenset({0, 2}), {1: 4})},
        z_assign={0: {0: 5, 1: 0}, 1: {0: 0, 1: 2}},
    )
    return g, ss


def _hand_builds():
    hosts = [two_stripe_p4(), c11_two_stripes(), mixed_spot_stripe(), five_spot_triangle(),
             stripes_and_spots_pair(), four_gadget_host(), three_stem_host(),
             lopsided_stripe_pair()]
    for g in (two_far_claims_host(), sunlet_line_graph(5)):
        hosts.append((g, kernel.derive_strip_structure(g)))
    for i, (g, ss) in enumerate(hosts):
        for h in (2, 3):
            for k in (2, 3):
                yield f"hand{i}-K{h}-k{k}", g, ss, PATTERNS[h], k


def _line_graph_builds():
    rng = random.Random(991)
    seen = 0
    while seen < LINE_GRAPHS:
        g, _ = random_line_graph(rng, max_edges=10)
        if any(not g.neighbors(v) for v in range(g.n)):
            continue
        ss = kernel.derive_strip_structure(g)
        for h in (2, 3):
            yield f"line{seen}-K{h}", g, ss, PATTERNS[h], rng.randint(2, 3)
        seen += 1


def _subdivided_builds():
    rng = random.Random(4417)
    for i in range(SUBDIVIDED):
        n = rng.randint(3, 5)
        g, ss = random_subdivided_structure(rng, n, rng.randint(n + 1, n + 4))
        for h in (2, 3, 4):
            yield f"sub{i}-K{h}", g, ss, PATTERNS[h], rng.randint(2, 3)


class _Captured(Exception):
    pass


def _workload_builds():
    """The build_wis_instance calls of the ``kernel`` workload, not run."""
    bench = os.path.join(os.path.dirname(HERE), "perfbench")
    if bench not in sys.path:
        sys.path.append(bench)
    import workloads

    class StopAtSolve:
        def add(self, *_):
            raise _Captured  # kernelize returned without an encoding

    calls = []

    def capture(*args):
        calls.append((f"workload{len(calls)}",) + args)
        raise _Captured

    real = kernel.build_wis_instance
    kernel.build_wis_instance = capture
    try:
        for case in workloads.kernel(random.Random(WORKLOAD_SEED)):
            try:
                case.solve(StopAtSolve())
            except _Captured:
                pass
    finally:
        kernel.build_wis_instance = real
    return calls


def test_derived_structures_are_valid(monkeypatch):
    """The bounding loop uses what ``derive_strip_structure`` returns
    without a check (its docstring says why).  Every structure it returns while the corpus is
    built passes ``validate_strip_structure``, and so does the glued
    structure of two corpus hosts side by side, as no corpus host is
    disconnected."""
    derived = []
    real = kernel.derive_strip_structure

    def capture(g):
        derived.append((g, real(g)))
        return derived[-1][1]

    monkeypatch.setattr(kernel, "derive_strip_structure", capture)
    for builds in (_hand_builds(), _line_graph_builds()):
        list(builds)
    _workload_builds()
    kernel.derive_strip_structure(graphs.disjoint_union(derived[0][0], derived[-1][0]))
    assert len(derived) == 87 and len(derived[-1][0].components()) == 2
    for g, ss in derived:
        assert ss is not None
        strips.validate_strip_structure(g, ss)


def test_deleted_strips_leave_valid_structures(monkeypatch):
    """A reduction step deletes whole strips and uses the structure it gets
    back without a check (the ``_delete_strips`` docstring says why).  Every
    structure it returns passes ``validate_strip_structure``: while the
    corpus hosts are bounded, with their structures supplied and derived;
    while the benchmark's cases are kernelized, whose parallel-edge cases
    fire the reduction step; and when a seeded random proper subset of a
    corpus structure's strips is deleted, as the argument holds for any."""
    kept = []
    real = kernel._delete_strips

    def capture(g, ss, drop):
        kept.append(real(g, ss, drop))
        return kept[-1]

    monkeypatch.setattr(kernel, "_delete_strips", capture)
    rng = random.Random(5501)
    for builds in (_hand_builds(), _line_graph_builds(), _subdivided_builds()):
        for _, g, ss, hp, k in builds:
            kernel.bound_strip_graph(g, hp, k, ss=ss)
            kernel.bound_strip_graph(g, hp, k)
            eids = [eid for eid, _ in ss.edges]
            kernel._delete_strips(g, ss, rng.sample(eids, rng.randrange(len(eids))))
    bounded = len(kept) - 192
    _workload_builds()
    # bounding settles each corpus host, or finds it small, before any
    # reduction step; the workload's parallel-edge cases take 8
    assert (bounded, len(kept) - 192 - bounded) == (0, 8)
    for g, ss in kept:
        strips.validate_strip_structure(g, ss)


def _instances():
    # the encoding reads no host, so the corpus builds drop theirs
    hosted = itertools.chain(_hand_builds(), _line_graph_builds(), _subdivided_builds())
    builds = [(label, ss, hp, k) for label, _, ss, hp, k in hosted] + _workload_builds()
    for label, ss, hp, k in builds:
        with recording() as notes:
            inst = kernel.build_wis_instance(ss, hp, k)
        yield label, inst, tuple(notes)


@functools.cache
def _built_instances() -> tuple:
    """``_instances()``, built once for the tests that read them."""
    return tuple(_instances())


def _digest(inst, notes) -> str:
    fields = (inst.graph.n, inst.graph.edges, inst.weights, inst.k_card, inst.k_weight,
              inst.tags, inst.cliques, notes)
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def test_kernel_encodings_are_pinned():
    with open(FIXTURE) as f:
        pinned = json.load(f)
    got, tags = [], set()
    for label, inst, notes in _built_instances():
        got.append([label, _digest(inst, notes)])
        tags.update(inst.tags)
    assert [r[0] for r in got] == [r[0] for r in pinned]
    assert sum(r[0].startswith("workload") for r in got) == 38
    # every kind of spanning copy occurs, and so do two-member stripes
    assert {"span", "spanout", "triple"} <= {t.split(":")[0] for t in tags}
    assert any(t.startswith("stripe:") and ":j" in t for t in tags)
    for g, w in zip(got, pinned):
        assert g == w, g[0]


def test_subdivided_and_workload_encodings_match_the_wis_reference():
    """The WIS search gives the same answer and witness as the forward-check
    search on the two-member-stripe encodings and on the benchmark's
    encodings, whose no-instances are where it propagates."""
    solved = 0
    for label, inst, _ in _built_instances():
        if label.startswith(("sub", "workload")):
            question = (inst.graph, inst.weights, inst.k_card, inst.k_weight)
            assert graphs.brute_force_wis(*question) == wis_forward_check_reference(*question), label
            solved += 1
    assert solved == 120 + 38


def _counted(monkeypatch, module, name) -> list:
    """Count the calls of ``module.name`` through every igmatch binding of it."""
    real = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("igmatch")
                and getattr(mod, name, None) is real):
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def test_subdivided_builds_table_each_stripe_once(monkeypatch):
    # classifications are counted from the draw on: the generator validates
    # each structure, and the validator's spot-or-stripe check settles the
    # strip kinds that the builds then read
    classified = _counted(monkeypatch, strips, "classify_strip")
    builds = list(_subdivided_builds())
    stripes = sum(classify_strip(ss.strips[eid]) == "stripe"
                  for _, _, ss, _, _ in builds for eid, _ in ss.edges)
    enumerated = _counted(monkeypatch, graphs, "enumerate_occurrences")
    packed = _counted(monkeypatch, graphs, "packing")
    for _, _, ss, hp, k in builds:
        kernel.build_wis_instance(ss, hp, k)
    # one enumeration per stripe table, and one classification per strip of
    # each of the 40 structures, which three builds share; the per-key
    # weights of the earlier encoding made 11,868 enumerations, 13,986
    # classifications and 6,031 packings on these builds, and classifying
    # again per strip-vertex made 2,118 classifications
    assert len(enumerated) == stripes == 393
    assert len(classified) == 240
    assert len(packed) < 6031


if __name__ == "__main__":
    with open(FIXTURE, "w") as f:
        rows = [json.dumps([label, _digest(inst, notes)]) for label, inst, notes in _instances()]
        f.write("[\n" + ",\n".join(rows) + "\n]\n")
