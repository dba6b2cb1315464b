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

import hashlib
import json
import os
import random
import sys

from igmatch import graphs, kernel, strips
from igmatch.graphs import Graph, Pattern, complete_graph, path_graph
from igmatch.strips import Strip, StripStructure, classify_strip
from igmatch.trace import recording

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


def _instances():
    for builds in (_hand_builds(), _line_graph_builds(), _subdivided_builds(),
                   _workload_builds()):
        for label, g, ss, hp, k in builds:
            with recording() as notes:
                inst = kernel.build_wis_instance(g, ss, hp, k)
            yield label, inst, tuple(notes)


def _digest(inst, notes) -> str:
    fields = (inst.graph.n, inst.graph.edges, inst.weights, inst.k_card, inst.k_weight,
              inst.tags, inst.cliques, notes)
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def test_kernel_encodings_are_pinned():
    with open(FIXTURE) as f:
        pinned = json.load(f)
    got, tags = [], set()
    for label, inst, notes in _instances():
        got.append([label, _digest(inst, notes)])
        tags.update(inst.tags)
    assert [r[0] for r in got] == [r[0] for r in pinned]
    assert sum(r[0].startswith("workload") for r in got) == 38
    # every kind of spanning copy occurs, and so do two-member stripes
    assert {"span", "spanout", "triple"} <= {t.split(":")[0] for t in tags}
    assert any(t.startswith("stripe:") and ":j" in t for t in tags)
    for g, w in zip(got, pinned):
        assert g == w, g[0]


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
    builds = list(_subdivided_builds())
    stripes = sum(classify_strip(ss.strips[eid]) == "stripe"
                  for _, _, ss, _, _ in builds for eid, _ in ss.edges)
    enumerated = _counted(monkeypatch, graphs, "enumerate_occurrences")
    classified = _counted(monkeypatch, strips, "classify_strip")
    packed = _counted(monkeypatch, graphs, "max_igm")
    for _, g, ss, hp, k in builds:
        kernel.build_wis_instance(g, ss, hp, k)
    # one enumeration per stripe table; the per-key weights of the earlier
    # encoding made 11,868 enumerations, 13,986 classifications and 6,031
    # packings on these builds
    assert len(enumerated) == stripes == 393
    assert len(classified) < 13986
    assert len(packed) < 6031


if __name__ == "__main__":
    with open(FIXTURE, "w") as f:
        rows = [json.dumps([label, _digest(inst, notes)]) for label, inst, notes in _instances()]
        f.write("[\n" + ",\n".join(rows) + "\n]\n")
