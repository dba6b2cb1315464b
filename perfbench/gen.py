"""Seeded, constructive instance generators for the benchmark.

Every generator takes an explicit ``random.Random`` and builds an instance
that has the wanted property by construction; none rejects whole instances,
so none stalls as sizes grow (unlike rejection-sampling long arc models).
"""

from igmatch.graphs import Multigraph
from igmatch.models import Arc, ArcModel, FuzzyArcModel, Interval, IntervalModel, intersection_kind


def proper_interval_model(rng, n, spacing=3, length=8):
    """Unit-length intervals with jittered, strictly increasing left ends.

    Equal lengths and strictly increasing left ends make the right ends
    strictly increasing too, so no interval contains another: the model is
    proper.  Regular spacing keeps the amount of work steady from seed to
    seed; the jitter and the seed still change the graph."""
    return IntervalModel([
        Interval(i, spacing * i + rng.randrange(spacing), spacing * i + length)
        for i in range(n)
    ])


def long_proper_arc_model(rng, n, spacing=3, length=15):
    """n arcs of one length L < C/3 with distinct, jittered starts.

    Equal lengths make the model proper (no arc contains another), and any
    three arcs cover at most 3L < C points, so no two or three arcs cover the
    circle: the model is long.  Starts 3i + jitter on a circle of 3n points
    are distinct, so L < n keeps it long."""
    circ = spacing * n
    if 3 * length >= circ:
        raise ValueError("arcs too long for a long model")
    return ArcModel([
        Arc(i, s, (s + length) % circ)
        for i, s in enumerate(spacing * i + rng.randrange(spacing) for i in range(n))
    ], circ)


def fuzzy_arc_model(rng, n, grid):
    """Arcs with endpoints on a coarse even grid, so one-point intersections
    are common; half of those pairs, chosen by the seed, are edges.
    Starts go round the grid in turn, so every grid point starts about the
    same number of arcs, and the spans are the same multiset for every seed
    in a seeded order, which keeps the amount of work steady from seed to
    seed."""
    circ = 2 * grid
    top = max(1, grid // 4)
    spans = [2 * (1 + i % top) for i in range(n)]
    rng.shuffle(spans)
    arcs = []
    for i in range(n):
        s = 2 * (i % grid)
        arcs.append(Arc(i, s, (s + spans[i]) % circ))
    model = ArcModel(arcs, circ)
    single = [(i, j) for i in range(n) for j in range(i + 1, n)
              if intersection_kind(model, i, j) == "single-point"]
    rng.shuffle(single)
    half = len(single) // 2
    resolutions = {pair: k < half for k, pair in enumerate(single)}
    return FuzzyArcModel(model, resolutions)


def relabel(rng, nv, edges):
    """The same multigraph with shuffled vertex ids and edge order."""
    perm = list(range(nv))
    rng.shuffle(perm)
    out = [tuple(sorted((perm[a], perm[b]))) for a, b in edges]
    rng.shuffle(out)
    return Multigraph(nv, out)


def cyclic_preimage(rng, nv, extra):
    """Connected, triangle-free simple graph with minimum degree two.

    A Hamilton cycle plus ``extra`` chords that close no triangle.  The
    cycle alone has matching number nv // 2, so nv >= 10 gives a line graph
    with independence number at least 5.  Connected, triangle-free and simple
    on more than four vertices, the line graph determines this preimage
    (Whitney), so the recognised strip structure has spots only."""
    edges = {(i, (i + 1) % nv) for i in range(nv)}
    edges = {tuple(sorted(e)) for e in edges}
    adj = {v: set() for v in range(nv)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    want = len(edges) + extra
    while len(edges) < want:
        a, b = rng.sample(range(nv), 2)
        e = tuple(sorted((a, b)))
        if e in edges or adj[a] & adj[b]:
            continue
        edges.add(e)
        adj[a].add(b)
        adj[b].add(a)
    return relabel(rng, nv, sorted(edges))


def path_preimage(rng, n_edges):
    """The path with n_edges edges; its line graph is the path on n_edges
    vertices."""
    return relabel(rng, n_edges + 1, [(i, i + 1) for i in range(n_edges)])


def tree_preimage(rng, n_edges):
    """A random tree with n_edges edges (random attachment)."""
    edges = [(rng.randrange(i), i) for i in range(1, n_edges + 1)]
    return relabel(rng, n_edges + 1, edges)
