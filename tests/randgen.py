"""Seeded random instance generators shared across the test suite.

Every generator takes an explicit random.Random so sweeps are reproducible.
Model generators construct instances that satisfy the documented invariants
by design and double-check them through the public validators.
"""

import collections
import random

from igmatch.graphs import Graph, Multigraph, line_graph


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Random spanning tree plus extra edges with probability p."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a = order[i]
        b = order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return Graph(n, sorted(edges))


def random_connected_multigraph(rng: random.Random, n: int, m: int) -> Multigraph:
    """Connected multigraph on n >= 2 vertices with exactly m >= n-1 edges."""
    assert n >= 2 and m >= n - 1
    edges = []
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a = order[i]
        b = order[rng.randrange(i)]
        edges.append((min(a, b), max(a, b)))
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    rng.shuffle(edges)
    return Multigraph(n, edges)


def random_line_graph(rng: random.Random, max_edges: int = 10) -> tuple[Graph, Multigraph]:
    """A random connected line graph together with the pre-image it came from."""
    m = rng.randint(2, max_edges)
    n = rng.randint(2, max(2, min(m + 1, 7)))
    mg = random_connected_multigraph(rng, n, m)
    return line_graph(mg), mg


def random_subdivided_structure(rng: random.Random, n: int, m: int, cut: tuple = (2, 3)):
    """Line graph of a random multigraph with some edges subdivided, and its
    strip structure.

    The multigraph is connected, with n vertices and m >= 2 edges; its
    vertices of degree at least two are the strip-vertices.  About half the
    edges are cut, each into ``rng.randint(*cut)`` host vertices (the
    default draws the same numbers as before ``cut`` existed).  Each original
    edge stays one strip whatever it was cut into: an uncut edge between two
    strip-vertices is a spot, and every other edge is a path stripe with a z
    at each non-pendant end.  A cut edge between two strip-vertices is a
    two-member stripe, which no line-graph structure has.  Returns
    (host, structure).
    """
    from igmatch.strips import Strip, StripStructure, validate_strip_structure

    assert m >= 2
    mg = random_connected_multigraph(rng, n, m)
    degree = collections.Counter(v for e in mg.edges for v in e)
    r_vertices = [v for v in range(n) if degree[v] >= 2]
    edges, strips, z_assign = [], {}, {}
    host_edges = set()
    ends = {v: [] for v in range(n)}  # host vertices whose edge piece meets v
    nxt = 0
    for eid, (a, b) in enumerate(mg.edges):
        t = 1 if rng.random() < 0.5 else rng.randint(*cut)
        body = list(range(nxt, nxt + t))
        nxt += t
        host_edges.update(zip(body, body[1:]))
        if rng.random() < 0.5:
            a, b = b, a
        ends[a].append(body[0])
        ends[b].append(body[-1])
        # J: the path 0..t-1 standing for body, then one z per member end
        j_edges = [(i, i + 1) for i in range(t - 1)]
        assign = {}
        for r, last in ((a, 0), (b, t - 1)):
            if r in r_vertices:
                assign[r] = t + len(assign)
                j_edges.append((last, assign[r]))
        edges.append((eid, tuple(assign)))
        strips[eid] = Strip(Graph(t + len(assign), j_edges), frozenset(assign.values()),
                            dict(enumerate(body)))
        z_assign[eid] = assign
    for here in ends.values():
        for i, u in enumerate(here):
            host_edges.update((min(u, v), max(u, v)) for v in here[i + 1:])
    g = Graph(nxt, sorted(host_edges))
    ss = StripStructure(tuple(r_vertices), tuple(edges), strips, z_assign)
    validate_strip_structure(g, ss)
    return g, ss


def random_proper_interval_model(rng: random.Random, n: int, span: int = 40):
    """Distinct left endpoints and right endpoints in the same order.

    Both endpoint sequences strictly increase, so no interval contains
    another: the model is proper.
    """
    from igmatch.models import Interval, IntervalModel

    lefts = sorted(rng.sample(range(span), n))
    rights = []
    prev = None
    for i, l in enumerate(lefts):
        lo = l + 1 if prev is None else max(l + 1, prev + 1)
        rights.append(lo + rng.randrange(4))
        prev = rights[-1]
    return IntervalModel([Interval(i, lefts[i], rights[i]) for i in range(n)])


def random_long_proper_arc_model(rng: random.Random, n: int, circ: int = 60):
    """Proper circular-arc model whose arcs are pairwise non-covering.

    Starts are distinct and sorted; lengths below circ/3 guarantee no three
    arcs cover the circle only heuristically, so the result is validated and
    regenerated until both properness and longness hold.
    """
    from igmatch.models import Arc, ArcModel, validate_arc_model

    while True:
        starts = sorted(rng.sample(range(circ), n))
        arcs = []
        for i, s in enumerate(starts):
            length = 1 + rng.randrange(max(1, circ // 3 - 1))
            arcs.append(Arc(i, s, (s + length) % circ))
        model = ArcModel(arcs, circ)
        report = validate_arc_model(model)
        if report.proper and report.long:
            return model


def random_fuzzy_arc_model(rng: random.Random, n: int, circ_units: int = 12):
    """Fuzzy circular-arc model with deliberate shared endpoints.

    Endpoints are drawn from a coarse grid so single-point intersections
    occur often; each such pair gets a random resolution bit.
    """
    from igmatch.models import Arc, ArcModel, FuzzyArcModel, intersection_kind

    circ = 2 * circ_units
    arcs = []
    for i in range(n):
        s = 2 * rng.randrange(circ_units)
        length = 2 * rng.randint(1, max(1, circ_units // 3))
        arcs.append(Arc(i, s, (s + length) % circ))
    model = ArcModel(arcs, circ)
    resolutions = {}
    for i in range(n):
        for j in range(i + 1, n):
            if intersection_kind(model, i, j) == "single-point":
                resolutions[(i, j)] = rng.random() < 0.5
    return FuzzyArcModel(model, resolutions)
