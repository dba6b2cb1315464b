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
table per stripe and one loop over spanning copies, before that table was
filled in one pass over its strip (``kernel._stripe_table``), which
enumerates the strip's copies once instead of once per key, before a build
shared one table among its stripes of one shape (graph, z's and
orientation), and before the consistency graph was built from adjacency
masks.  Other tests count those enumerations on the subdivided builds (one
per stripe shape per build), check each mask-built graph against the
checked constructor, and pin how often the final WIS solves of the
benchmark's encodings propagate.  Rewrite the file only for an intended
change to the encoding:

    PYTHONPATH=src:perfbench python tests/test_kernel_corpus.py
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

import workloads
from oracles import igm_exhaustive
from pinned import assert_pinned
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


def test_a_shared_stripe_table_is_read_in_each_stripe_orientation():
    """Two copies of the lopsided stripe, parallel to one spot, face r0 from
    opposite ends.  Their strips are one graph with one z, so a build fills
    one table for both ends' orientations and must read it flipped for one
    of them.  The encoding equals that of the same structure with the
    second stripe relabelled (v -> 5 - v), which shares no table, and its
    answer is the host's."""
    jg = Graph(6, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4), (3, 5)])
    first, second = {1: 0, 2: 1, 3: 2, 4: 3}, {1: 4, 2: 5, 3: 6, 4: 7}
    inner = [(1, 2), (2, 3), (2, 4), (3, 4)]
    edges = [(m[u], m[v]) for m in (first, second) for u, v in inner]
    # C(r0) = {2, 4, 8} and C(r1) = {0, 6, 8}, host 8 being the spot
    edges += [(2, 4), (2, 8), (4, 8), (0, 6), (0, 8), (6, 8)]
    g = Graph(9, edges)

    def structure(j2, z_at_r0, g_map):
        return StripStructure(
            r_vertices=(0, 1),
            edges=((0, (0, 1)), (1, (0, 1)), (2, (0, 1))),
            strips={0: Strip(jg, frozenset({0, 5}), first),
                    1: Strip(path_graph(3), frozenset({0, 2}), {1: 8}),
                    2: Strip(j2, frozenset({0, 5}), g_map)},
            z_assign={0: {0: 5, 1: 0}, 1: {0: 0, 1: 2}, 2: {0: z_at_r0, 1: 5 - z_at_r0}},
        )

    shared = structure(jg, 0, second)
    relabelled = structure(Graph(6, [(5 - u, 5 - v) for u, v in jg.edges]), 5,
                           {5 - j: v for j, v in second.items()})
    for ss in (shared, relabelled):
        strips.validate_strip_structure(g, ss)
    for h in (2, 3):
        for k in (2, 3):
            inst = kernel.build_wis_instance(shared, PATTERNS[h], k)
            assert inst == kernel.build_wis_instance(relabelled, PATTERNS[h], k), (h, k)
            answer = graphs.brute_force_wis(inst.graph, inst.weights, inst.k_card, inst.k_weight)
            assert answer[0] == igm_exhaustive(g, PATTERNS[h].graph, k), (h, k)


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
    """The WIS search gives the same answer and witness as the search with
    the forward check and no propagation, on the two-member-stripe encodings
    and on the benchmark's encodings, whose no-instances are where it
    propagates; pinned by digest per pattern of the subdivided encodings,
    and for the benchmark's encodings as one group."""
    witnesses = {}
    for label, inst, _ in _built_instances():
        if label.startswith(("sub", "workload")):
            group = "workload" if label.startswith("workload") else "sub " + label.split("-")[1]
            question = (inst.graph, inst.weights, inst.k_card, inst.k_weight)
            witnesses.setdefault(group, []).append(graphs.brute_force_wis(*question))
    assert sum(map(len, witnesses.values())) == 120 + 38
    assert_pinned("test_subdivided_and_workload_encodings_match_the_wis_reference", witnesses)


def test_encodings_build_the_graph_the_checked_constructor_builds():
    """The encoding writes its consistency edges as adjacency masks and
    builds its graph from them unchecked; the public constructor, given the
    edges derived from those masks, builds the same graph."""
    for label, inst, _ in _built_instances():
        checked = Graph(inst.graph.n, inst.graph.edges)
        assert inst.graph == checked, label
        assert hash(inst.graph) == hash(checked), label
        assert inst.graph._nbr == checked._nbr, label


def test_workload_solves_propagate_a_pinned_number_of_times(monkeypatch):
    """The final WIS solves of the benchmark's 38 encodings, all of them
    no-instances, close their blocked sets 925 times in all.  The
    weight-tight rule of ``brute_force_wis`` cut that from 1,091: it blocks
    vertices too light to reach the target, so fewer nodes are searched.
    Each encoding is tight at the root (one vertex per selection clique).
    Propagating from there, instead of waiting until the forward check had
    cut as many nodes as there are cliques, raised the count from 842: the
    nodes searched before that point are closed now too.  Closing them cuts
    their subtrees early, so the searches evaluate 1,169 nodes where they
    evaluated 3,198."""
    questions = [(inst.graph, inst.weights, inst.k_card, inst.k_weight)
                 for label, inst, _ in _built_instances() if label.startswith("workload")]
    propagated = _counted(monkeypatch, graphs, "_propagate")
    answers = [graphs.brute_force_wis(*q)[0] for q in questions]
    assert len(answers) == 38 and not any(answers)
    assert len(propagated) == 925


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
    # a build tables each stripe shape once: the strip's graph and z, and
    # whether its first member faces the larger z
    shapes = sum(len({(ss.strips[eid].graph, ss.strips[eid].z,
                       ss.z_assign[eid][ms[0]] != min(ss.strips[eid].z))
                      for eid, ms in ss.edges if classify_strip(ss.strips[eid]) == "stripe"})
                 for _, _, ss, _, _ in builds)
    enumerated = _counted(monkeypatch, graphs, "enumerate_occurrences")
    packed = _counted(monkeypatch, graphs, "packing")
    for _, _, ss, hp, k in builds:
        kernel.build_wis_instance(ss, hp, k)
    # one enumeration per stripe shape, and one classification per strip of
    # each of the 40 structures, which three builds share; the per-key
    # weights of the earlier encoding made 11,868 enumerations, 13,986
    # classifications and 6,031 packings on these builds, classifying again
    # per strip-vertex made 2,118 classifications, and one table per stripe
    # made 393 enumerations, one for each of the 393 stripes
    assert stripes == 393
    assert len(enumerated) == shapes == 300
    assert len(classified) == 240
    assert len(packed) < 6031


if __name__ == "__main__":
    with open(FIXTURE, "w") as f:
        rows = [json.dumps([label, _digest(inst, notes)]) for label, inst, notes in _instances()]
        f.write("[\n" + ",\n".join(rows) + "\n]\n")
