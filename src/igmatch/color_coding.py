"""Fixed-parameter pipeline for induced pattern matchings over strip-structures.

The exponential part of the search lives entirely in objects whose size is a
function of h*k: *bases* (candidate shapes for the part of a strip-graph that
a size-k matching can touch, annotated with which of the hk matching-vertex
tokens sit where) and colorings that transfer a base onto the concrete
strip-structure.  Everything after a coloring survives blanking is
polynomial: realize the boundary tokens inside each strip, pack additional
pattern copies into what is left of the interiors, then assemble per-group
occurrences across strips.

Token groups are numbered 1..k so the assembly step can reuse group ids as
vertex colors, with 0 meaning "not a realized boundary vertex".

The driver's exhaustive coloring mode does not materialize the full
palette^elements product.  A run depends on a coloring only through the
surjection that blanking leaves of it, and a run whose surjection strictly
contains another finds at least as much; so it suffices to try, per base,
the surjection of each embedding of the base into the strip-graph: the one
blanking leaves of the coloring that paints exactly that embedding.  Those
surjections are built straight from the embeddings, with no coloring in
between.  A successful run of any other coloring implies a matching exists,
in which case the embedding of that matching's own base succeeds too; hence
the answers coincide with the full family while the work stays proportional
to the number of embeddings.  Only the seeded random mode draws colorings
and blanks them.  It draws each coloring as palette indices, one per
structure element, from the stream the literal family of tuple colors
draws from, and blanks it through a table built once per base; the literal
family and its blanking are kept in ``tests/oracles.py``, which a
differential test holds to the same survivors in the same order.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import random
from dataclasses import dataclass

from .errors import InputError, InternalError, SizeCapError, expect_type
from .graphs import (
    ALPHA_BOUND,
    MIS_CAP_DEFAULT,
    Graph,
    Matching,
    Occurrence,
    OutOfBudget,
    Pattern,
    brute_force_wis,
    enumerate_occurrences,
    find_occurrence,
    induced_maps,
    packing,
    revalidated,
    star_free,
)
from .models import Arc, ArcModel, FuzzyArcModel, realize
from .fuzzy_solver import solve_igm_fuzzy_ca
from .strips import StripStructure, line_graph_strip_structure, validate_strip_structure
from .trace import note

# the claw-free entry and its size cap; the benchmark's layers keep their names unexported
__all__ = ["HK_CAP_DEFAULT", "solve_igm_claw_free"]

HK_CAP_DEFAULT = 6
# node budget of the router's packing refutation (``_route``, step 3): about
# 10 ms of search; no solve of the pinned corpora or the benchmark visits
# more than 8 nodes (``tests/test_clawfree_corpus.py`` checks the corpora)
_REFUTE_BUDGET = 10_000


@dataclass(frozen=True)
class BaseEdge:
    """One edge of a base hypergraph together with its token annotation.

    ``members`` lists the one or two endpoint vertex ids in increasing
    order.  A spot has two members and puts its single token on the edge
    itself; a stripe splits its tokens between the interior set and
    per-endpoint boundary sets (``boundaries[i]`` belongs to ``members[i]``).
    A token may sit in both boundary sets of a two-ended stripe, but never
    in a boundary and the interior at once.  Only ``_glued_bases`` builds
    base edges, in this normal form; nothing checks it again.
    """

    kind: str
    members: tuple
    spot_token: tuple | None = None
    interior: frozenset = frozenset()
    boundaries: tuple = ()

    def tokens(self) -> frozenset:
        if self.kind == "spot":
            return frozenset(() if self.spot_token is None else (self.spot_token,))
        out = set(self.interior)
        for bd in self.boundaries:
            out |= bd
        return frozenset(out)


@dataclass(frozen=True)
class Base:
    """A candidate shape for the touched part of a strip-graph.

    Vertices are 0..n_vertices-1 and every one of them lies on an edge; each
    token belongs to at most one edge.  ``_glued_bases`` builds every base
    with these properties (``tests/oracles.py::base_invariant_failures``
    checks them on the pinned streams); the constructor checks nothing.
    """

    n_vertices: int
    edges: tuple


def _tokens_meet(toks, h: Pattern) -> bool:
    """Tokens that meet at one point form one group, pairwise adjacent in H."""
    if len({g for (g, _hv) in toks}) > 1:
        return False
    hvs = sorted({hv for (_g, hv) in toks})
    return all(
        h.graph.has_edge(u, v) for i, u in enumerate(hvs) for v in hvs[i + 1 :]
    )


# ---------------------------------------------------------------------------
# base enumeration


def _token_order(h: Pattern, k: int) -> list:
    # breadth-first within each group, so that every token after the first of
    # a connected component has an already-placed neighbor constraining it
    order = []
    seen = [False] * h.h
    for root in range(h.h):
        if seen[root]:
            continue
        queue = [root]
        seen[root] = True
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in sorted(h.graph.neighbors(v)):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return [(g, hv) for g in range(1, k + 1) for hv in order]


_NEW_EDGE_SHAPES = (
    ("spot", 2, None),
    ("stripe", 1, frozenset()),
    ("stripe", 1, frozenset((0,))),
    ("stripe", 2, frozenset()),
    ("stripe", 2, frozenset((0,))),  # {1} is symmetric on a fresh edge
    ("stripe", 2, frozenset((0, 1))),
)

_SLOT_CHOICES = {
    0: (frozenset(),),
    1: (frozenset(), frozenset((0,))),
    2: (frozenset(), frozenset((0,)), frozenset((1,)), frozenset((0, 1))),
}


def _placement_ok(tok, ei, slots, edges, placed, h) -> bool:
    g, hv = tok
    # a same-edge boundary position shared with another token forces, after
    # gluing, a common base vertex: reject group/clique violations right away
    # (only stripes are extended; spots are created full)
    if ei < len(edges):
        for tok2, slots2 in edges[ei]["slots"].items():
            if slots & slots2 and not _tokens_meet((tok, tok2), h):
                return False
    # adjacency constraints against already placed neighbors of the group
    for hv2 in h.graph.neighbors(hv):
        tok2 = (g, hv2)
        if tok2 not in placed:
            continue
        ei2, slots2 = placed[tok2]
        if ei2 == ei:
            continue
        if not slots or not slots2:
            return False  # cross-edge neighbors both need a boundary seat
    return True


def _token_plans(h: Pattern, order: list, budget: dict):
    """Depth-first token placement; yields edge lists before endpoint gluing.

    ``budget`` caps how many edges of each (kind, member count) shape a plan
    may create; gluing never changes shapes, so plans exceeding the supply of
    a concrete strip-structure can be skipped without losing any of its
    embeddable bases.
    """
    return _plans(h, order, budget, [], {}, {}, 0)


def _plans(h: Pattern, order: list, budget: dict, edges: list, placed: dict,
           created: dict, i: int):
    """The plans placing ``order[i:]`` after ``edges``.  Module level, so a
    search leaves no reference cycle."""
    if i == len(order):
        yield [dict(e, slots=dict(e["slots"])) if e["kind"] == "stripe" else dict(e) for e in edges]
        return
    tok = order[i]
    for ei, edge in enumerate(edges):
        if edge["kind"] == "spot":
            continue  # spots are created full
        for slots in _SLOT_CHOICES[edge["nm"]]:
            if not _placement_ok(tok, ei, slots, edges, placed, h):
                continue
            edge["slots"][tok] = slots
            placed[tok] = (ei, slots)
            yield from _plans(h, order, budget, edges, placed, created, i + 1)
            del edge["slots"][tok]
            del placed[tok]
    for kind, nm, slots in _NEW_EDGE_SHAPES:
        shape = (kind, nm)
        if created.get(shape, 0) >= budget.get(shape, 0):
            continue
        eff = frozenset((0, 1)) if kind == "spot" else slots
        if not _placement_ok(tok, len(edges), eff, edges, placed, h):
            continue
        if kind == "spot":
            edges.append({"kind": "spot", "nm": 2, "token": tok})
        else:
            edges.append({"kind": "stripe", "nm": nm, "slots": {tok: slots}})
        created[shape] = created.get(shape, 0) + 1
        placed[tok] = (len(edges) - 1, eff)
        yield from _plans(h, order, budget, edges, placed, created, i + 1)
        edges.pop()
        created[shape] -= 1
        del placed[tok]


def _glued_bases(plan, h: Pattern):
    """All ways to identify edge endpoints that pass both token conditions,
    yielding concrete bases.

    Glued endpoints become one base vertex, numbered by block; each edge
    lists its endpoints in ascending vertex order, with its boundary sets in
    the same order, which is the normal form of ``BaseEdge``.  The two ends
    of a swap-symmetric edge, a two-member edge whose ends seat the same
    tokens, are glued in one order only.  ``_base_stream`` argues that this
    drops only repeated bases, and that the per-plan tables below refute
    each failing gluing at its shortest failing prefix.
    """
    endpoints = [(ei, p) for ei, edge in enumerate(plan) for p in range(edge["nm"])]
    # the tokens with a boundary seat at each endpoint; a spot's token sits at both
    seats = {(ei, p): frozenset((plan[ei]["token"],)) if plan[ei]["kind"] == "spot"
             else frozenset(t for t, s in plan[ei]["slots"].items() if p in s)
             for ei, p in endpoints}
    seconds = {(ei, 1) for ei, edge in enumerate(plan)
               if edge["nm"] == 2 and seats[ei, 0] == seats[ei, 1]}
    at: dict = {}  # token -> the endpoints it sits at, all on its one edge
    for ep, toks in seats.items():
        for t in toks:
            at.setdefault(t, []).append(ep)
    # condition 1, keyed by the last endpoint of an edge: the seat lists of
    # each pair of H-adjacent tokens of one group on it and on an earlier edge
    pairs: dict = {}
    for (g, u), mine in at.items():
        ei = mine[0][0]
        for v in h.graph.neighbors(u):
            theirs = at.get((g, v))
            if theirs and theirs[0][0] < ei:
                pairs.setdefault((ei, plan[ei]["nm"] - 1), []).append((mine, theirs))
    return _gluings((plan, h, endpoints, seconds, seats, pairs, {}), [], 0, -1)


def _seats_shared(pairs, where: dict) -> bool:
    """Condition 1 on a gluing prefix: each pair of seat lists has one
    endpoint from each in the same block; ``where`` maps endpoints to blocks."""
    return all(any(where[a] == where[b] for a in mine for b in theirs)
               for mine, theirs in pairs)


def _gluings(ctx, blocks: list, i: int, prev: int):
    """The bases gluing ``endpoints[i:]`` into ``blocks`` or new blocks;
    ``prev`` is the block of ``endpoints[i - 1]``, and an endpoint in
    ``seconds`` joins only a block after it.  ``ctx`` holds the per-plan
    tables of ``_glued_bases`` and ``where``, the block of each placed
    endpoint.  Module level, so a search leaves no reference cycle."""
    plan, h, endpoints, seconds, seats, pairs, where = ctx
    if i == len(endpoints):
        yield _glued_base(plan, blocks)
        return
    ep = endpoints[i]
    for bi in range(prev + 1 if ep in seconds else 0, len(blocks)):
        blk = blocks[bi]
        if any(e2 == ep[0] for (e2, _p) in blk):
            continue  # two endpoints of one edge stay distinct
        blk.append(ep)
        where[ep] = bi
        if (_tokens_meet(set().union(*(seats[e] for e in blk)), h)
                and _seats_shared(pairs.get(ep, ()), where)):
            yield from _gluings(ctx, blocks, i + 1, bi)
        blk.pop()
    blocks.append([ep])
    where[ep] = len(blocks) - 1
    if _seats_shared(pairs.get(ep, ()), where):
        yield from _gluings(ctx, blocks, i + 1, len(blocks) - 1)
    blocks.pop()


def _glued_base(plan, blocks: list) -> Base:
    """The base of ``plan`` with the endpoints of each block as one vertex."""
    vid = {}
    for bi, blk in enumerate(blocks):
        for ep in blk:
            vid[ep] = bi
    base_edges = []
    for ei, edge in enumerate(plan):
        ends = sorted(range(edge["nm"]), key=lambda p: vid[(ei, p)])
        members = tuple(vid[(ei, p)] for p in ends)
        if edge["kind"] == "spot":
            base_edges.append(BaseEdge("spot", members, spot_token=edge["token"]))
        else:
            interior = frozenset(t for t, s in edge["slots"].items() if not s)
            bnds = tuple(
                frozenset(t for t, s in edge["slots"].items() if p in s) for p in ends
            )
            base_edges.append(
                BaseEdge("stripe", members, interior=interior, boundaries=bnds)
            )
    return Base(len(blocks), tuple(base_edges))


def _base_key(base: Base, gmap: dict):
    """Key of ``base`` with each group g renamed ``gmap[g]``, independent of
    vertex names and edge order.

    Each base vertex gets a descriptor: the sorted tuple of (edge payload,
    boundary tokens at this end), one pair per edge end glued there.  The
    payload is the edge's kind, member count, spot or interior tokens and
    sorted pair of boundary sets.  The key is the sorted tuple of the vertex
    descriptors.  No edge order or end flip needs searching: every base edge
    carries a token and no token sits on two edges, so a payload names its
    edge; the two ends of an edge are distinct vertices, so the edge's
    members are exactly the vertices whose descriptors hold its payload.
    The key thus rebuilds the relabelled base up to vertex names: two bases
    have equal keys under one relabeling exactly when renaming vertices
    turns one into the other.
    """

    def toks(ts):
        return tuple(sorted((gmap[g], hv) for (g, hv) in ts))

    ends: list = [[] for _ in range(base.n_vertices)]
    for fe in base.edges:
        if fe.kind == "spot":
            at = ((), ())
            payload = ("spot", 2, toks(fe.tokens()), at)
        else:
            at = tuple(toks(bd) for bd in fe.boundaries)
            payload = ("stripe", len(at), toks(fe.interior), tuple(sorted(at)))
        for b, bd in zip(fe.members, at):
            ends[b].append((payload, bd))
    return tuple(sorted(tuple(sorted(e)) for e in ends))


def _base_stream(h: Pattern, k: int, budget: dict):
    """Bases of k groups of h tokens, up to isomorphism, lazily.

    Every emitted base assigns all hk tokens, gives every edge at least one
    token (an edge a matching touches always holds a matching vertex), and
    satisfies both token conditions.  Generation places tokens one at a time
    (each constrained by previously placed group neighbors), then glues edge
    endpoints in all admissible ways.  Both conditions are tested on each
    prefix of a gluing, so every gluing that reaches ``_glued_base`` passes
    both, and only the orbit deduplication below drops any of them:

    - Condition 2: the tokens at a base vertex form one group and an
      H-clique.  ``_tokens_meet`` is a pairwise test, so a set of tokens
      passes it exactly when every pair in it does.  The tokens at a base
      vertex are those seated at the endpoints glued there: each pair at one
      stripe end was tested by ``_placement_ok`` when the later of the two
      was placed (a spot end holds one token), and ``_gluings`` tests all
      tokens of a block whenever an endpoint joins it.
    - Condition 1: two H-adjacent tokens of one group on different edges
      have boundary seats at a common base vertex.  ``_placement_ok`` gives
      both tokens of such a pair a boundary seat, and ``_glued_bases`` lists
      the pair, as the endpoints each one sits at, under the last endpoint
      of the later edge; each pair is listed once.  A gluing is a restricted
      growth string over the endpoints, ordered by edge (Knuth, TAOCP 4A,
      7.2.1.5): when that endpoint is placed, every endpoint of both edges
      has its block, and gluing on only adds later endpoints to blocks.  So
      the pair's verdict on the prefix is its verdict on every completion,
      and ``_gluings`` cuts a failing prefix there.

    The oracle test ``test_streamed_bases_keep_the_base_invariants`` checks
    both conditions, with the rest of the base invariants, on every pinned
    base, and the pinned streams are those of a generator that tested
    condition 1 on each whole glued base.

    ``budget`` caps the edges of each (kind, member count) shape, as in
    ``_token_plans``; since every edge carries a token, a budget of hk per
    shape leaves the stream unrestricted.
    Of each isomorphism class only the first base generated is kept: two
    bases are isomorphic when a group relabeling and a renaming of vertices
    turn one into the other.  The stream is therefore deterministic and
    duplicate-free; ``test_base_streams_are_pinned`` holds the digests of
    nine streams, base by base in stream order, and
    ``test_base_stream_matches_the_brute_force_key`` those of the plain
    generator over every gluing with a brute-force key.  Two shortcuts
    keep the same bases in the same order, with the same vertex numbering:

    - Each swap-symmetric edge is glued once.  A gluing is a restricted
      growth string over the endpoints (an endpoint joins an earlier block
      or opens the next one), and ``_gluings`` yields them in lexicographic
      order; the two ends of a two-member edge are consecutive endpoints.
      On a swap-symmetric edge both ends hold the same tokens.  Suppose its
      second end joins block b1 and its first end block b0 > b1.  Then b1
      existed before the first end was placed, so exchanging the two ends
      gives a gluing that is lexicographically smaller, opens b0 (if the
      first end opened it) one step later with nothing in between, changes
      nothing after, and so obeys this rule on every edge.  Every block
      keeps its tokens, so each prefix passes the condition 2 test exactly
      when the original's does, and ``_glued_base`` builds the same base
      from both: the edge's members are the set {b0, b1} either way, and its
      boundary sets are equal.  Each condition 1 verdict is the verdict on
      the whole gluing's base, so the two gluings pass the same pairs.  So
      the skipped gluing repeats a base generated before it, which the
      deduplication below would drop.
    - Deduplication is by orbit.  ``_base_key`` under one group relabeling
      is a complete invariant for renaming vertices, so a base's key under
      its own labels equals the key of a kept base under some relabeling
      exactly when the two are isomorphic.  Each gluing is keyed once, under
      its own labels; when a base is kept, its keys under all k! relabelings
      join ``seen``.  That keeps and drops the same bases as keying every
      gluing by its minimum over the k! relabelings.

    The ``HK_CAP_DEFAULT`` size cap is checked eagerly, on the call itself.
    """
    hk = h.h * k
    if hk > HK_CAP_DEFAULT:
        raise SizeCapError("bases: |V(H)| * k", hk, HK_CAP_DEFAULT)

    def gen():
        if hk == 0:
            return  # no tokens, and every base edge must carry one
        groups = range(1, k + 1)
        own = {g: g for g in groups}
        relabelings = [dict(zip(groups, p)) for p in itertools.permutations(groups)]
        seen = set()
        for plan in _token_plans(h, _token_order(h, k), budget):
            for base in _glued_bases(plan, h):
                if _base_key(base, own) in seen:
                    continue
                seen.update(_base_key(base, gmap) for gmap in relabelings)
                yield base

    return gen()


_SHAPED_CACHE: dict = {}


def _shaped_bases(h: Pattern, k: int, shapes: tuple) -> tuple:
    """Bases restricted to the edge shapes a concrete structure offers.

    ``shapes`` is a sorted tuple of ((kind, member count), available count)
    pairs.  Cached: solving many instances over structurally similar inputs
    pays the enumeration once.
    """
    key = (h, k, shapes)
    hit = _SHAPED_CACHE.get(key)
    if hit is None:
        hit = _SHAPED_CACHE[key] = tuple(_base_stream(h, k, dict(shapes)))
    return hit


# ---------------------------------------------------------------------------
# random colorings and blanking


@dataclass(frozen=True)
class BaseSurjection:
    """Maps surviving strip-edges onto base edges.

    ``edge_map[eid]`` is the index of the base edge a surviving strip-edge
    maps onto, and ``alignment[eid]`` pairs each of its members with the
    base vertex its boundary lines up with.
    """

    edge_map: dict
    alignment: dict


@dataclass(frozen=True)
class _DrawTable:
    """The elements of one structure and the palette of one base, by index.

    A draw colors each element with a palette index.  The elements are the
    strip-vertices in ``ss.r_vertices`` order, then per strip-edge, in
    ``ss.edges`` order, its part (a spot, or a stripe's interior) and,
    unless it is a spot, its boundary at each member.  The palette lists
    the base's vertex colors 0..n_vertices-1, then per base edge its part
    color and, on a stripe, a boundary color per member.  ``strips`` holds
    (eid, kind, members, part position, boundary positions) per strip-edge;
    ``parts`` maps a part color to (kind, base edge index), ``boundary``
    maps (base edge index, base vertex) to a boundary color, and ``ends``
    holds the members of each base edge.
    """

    n_colors: int
    n_elements: int
    n_vertices: int
    r_vertices: tuple
    strips: tuple
    parts: dict
    boundary: dict
    ends: tuple


def _draw_table(ss: StripStructure, base: Base) -> _DrawTable:
    strips = []
    at = len(ss.r_vertices)
    for eid, members in ss.edges:
        kind = ss.kinds[eid]
        nb = 0 if kind == "spot" else len(members)
        strips.append((eid, kind, members, at, tuple(range(at + 1, at + 1 + nb))))
        at += 1 + nb
    parts: dict = {}
    boundary: dict = {}
    c = base.n_vertices
    for fi, fe in enumerate(base.edges):
        parts[c] = (fe.kind, fi)
        c += 1
        if fe.kind == "stripe":
            for b in fe.members:
                boundary[fi, b] = c
                c += 1
    ends = tuple(fe.members for fe in base.edges)
    return _DrawTable(c, at, base.n_vertices, ss.r_vertices, tuple(strips), parts, boundary, ends)


def _draws(n_colors: int, n_elements: int, trials: int, seed):
    """``trials`` draws of ``n_elements`` palette indices each, from ``seed``.

    ``Random.choice(seq)`` is ``seq[self._randbelow(len(seq))]`` on CPython
    3.10-3.13, so choosing from ``range(n_colors)`` yields the index of the
    color that choosing from the palette itself yields: the stream is that
    of the literal coloring family, which ``tests/oracles.py`` keeps as
    ``coloring_family`` (``SEED7_DRAWS`` pins both).
    """
    choice, colors = random.Random(seed).choice, range(n_colors)
    for _ in range(trials):
        yield [choice(colors) for _ in range(n_elements)]


def blank(draw: list, table: _DrawTable):
    """The surjection blanking leaves of a drawn coloring, or None when some
    palette color no longer appears.

    Strip-vertices keep their color only if it is a vertex color; a
    strip-edge keeps its colors only if its part has the part color of a
    same-kind base edge, the surviving vertex colors at its members are
    that edge's ends, and a stripe's boundaries have the boundary colors of
    those ends.  A kept strip-edge shows every color of its base edge, and
    every base vertex lies on a base edge, so all colors appear exactly
    when every base edge keeps a strip-edge.  A draw whose strip-vertices
    miss a vertex color is rejected before any strip-edge is read: no
    strip-edge can keep a base edge at that vertex.  The decision is that
    of blanking the literal coloring (``tests/oracles.py::blank_reference``).
    """
    nv = table.n_vertices
    vkeep = {r: c for r, c in zip(table.r_vertices, draw) if c < nv}
    if len(set(vkeep.values())) < nv:
        return None
    edge_map: dict = {}
    alignment: dict = {}
    for eid, kind, members, at, bnd_at in table.strips:
        hit = table.parts.get(draw[at])
        if hit is None or hit[0] != kind:
            continue
        fi = hit[1]
        ends = table.ends[fi]
        align = {r: vkeep.get(r) for r in members}
        if len(members) != len(ends) or set(align.values()) != set(ends):
            continue
        if any(draw[p] != table.boundary[fi, align[r]] for r, p in zip(members, bnd_at)):
            continue
        edge_map[eid] = fi
        alignment[eid] = align
    if len(set(edge_map.values())) < len(table.ends):
        return None
    return BaseSurjection(edge_map, alignment)


def _drawn_surjections(ss: StripStructure, base: Base, trials: int, seed):
    """The surjections blanking leaves of ``trials`` seeded colorings of
    ``ss`` by the palette of ``base``, in draw order."""
    table = _draw_table(ss, base)
    for draw in _draws(table.n_colors, table.n_elements, trials, seed):
        surj = blank(draw, table)
        if surj is not None:
            yield surj


# ---------------------------------------------------------------------------
# strip interiors


@dataclass(frozen=True)
class StripAssignment:
    """Chosen token realization and interior packing for one strip-edge."""

    x_vertices: dict  # token -> host vertex
    interior_matching: tuple  # occurrences in host coordinates


def _checked_certificates(ss: StripStructure, certificates) -> dict:
    """The per-strip certificates as a dict, each a fuzzy arc model that
    realizes the interior of its strip: arc i stands for the i-th interior
    vertex of J in increasing order, and the realized graph must reproduce
    the interior edge for edge."""
    if certificates is not None and not isinstance(certificates, dict):
        raise InputError("certificates must map strip-edge ids to fuzzy arc models")
    certs = dict(certificates or {})
    for eid, cert in certs.items():
        if eid not in ss.strips:
            raise InputError(f"certificate for unknown strip-edge {eid}")
        if not isinstance(cert, FuzzyArcModel):
            raise InputError(f"certificate for strip-edge {eid} must be a fuzzy arc model")
        s = ss.strips[eid]
        interior = s.interior()
        if len(cert.arcs.arcs) != len(interior):
            raise InputError(
                f"certificate for strip-edge {eid} has {len(cert.arcs.arcs)} arcs"
                f" for {len(interior)} interior vertices"
            )
        got, want = realize(cert), s.graph.induced(interior)
        if got != want:
            a, b = min(set(got.edges) ^ set(want.edges))
            raise InputError(
                f"certificate for strip-edge {eid}: arcs ({a},{b}) disagree"
                f" with J pair ({interior[a]},{interior[b]})"
            )
    return certs


def _sub_fuzzy_model(fam: FuzzyArcModel, positions) -> FuzzyArcModel:
    # dropping arcs never creates new one-point intersections, so the kept
    # resolutions stay exactly the required ones
    arcs = fam.arcs.arcs
    new_arcs = tuple(Arc(i, arcs[p].s, arcs[p].t) for i, p in enumerate(positions))
    idx = {p: i for i, p in enumerate(positions)}
    res = {
        (idx[a], idx[b]): bit
        for (a, b), bit in fam.resolutions.items()
        if a in idx and b in idx
    }
    return FuzzyArcModel(ArcModel(new_arcs, fam.arcs.circumference), res)


def _max_interior_matching(sub: Graph, kept, h: Pattern, s, cert) -> tuple:
    """Largest induced matching in a residual interior, in ``sub`` coordinates,
    and whether it was packed exhaustively.

    ``kept`` lists, per ``sub`` vertex, the J vertex it came from.
    """
    if sub.n < h.h:
        return (), False
    if isinstance(cert, FuzzyArcModel):
        order = s.interior()
        pos = {jid: i for i, jid in enumerate(order)}
        positions = [pos[j] for j in kept]
        fam = _sub_fuzzy_model(cert, positions)
        for kk in range(sub.n // h.h, 0, -1):
            m = solve_igm_fuzzy_ca(fam, h, kk)
            if m is not None:
                return m.occurrences, False
        return (), False
    occs = enumerate_occurrences(sub, h)
    if not occs:
        return (), False
    # one search either way; it counts as exhaustive only when a tested
    # independence number of at most 4 does not cap the packing at four copies
    exhaustive = brute_force_wis(sub, [1] * sub.n, ALPHA_BOUND + 1, 0)[0]
    return tuple(packing(sub, occs, None)), exhaustive


def _token_placements(J: Graph, h: Pattern, tokens: list, domains: list) -> list[dict]:
    """The injective placements of the ``(group, pattern vertex)`` tokens in
    J, token i on a vertex of ``domains[i]``, adjacent exactly where two
    tokens share a group and are joined in H, in lexicographic order: the
    induced maps of the token graph with those adjacencies."""
    pairs = itertools.combinations(enumerate(tokens), 2)
    tg = Graph._from_pairs(len(tokens), [(i, j) for (i, (ga, a)), (j, (gb, b)) in pairs
                                         if ga == gb and h.graph.has_edge(a, b)])
    return [dict(zip(tokens, phi)) for phi in induced_maps(J, tg, domains)]


def _realize_edge(ss, eid, fe: BaseEdge, align, h, cert):
    s = ss.strips[eid]
    if fe.kind == "spot":
        w = s.interior()[0]
        x = {} if fe.spot_token is None else {fe.spot_token: s.g_map[w]}
        return StripAssignment(x, ())
    J = s.graph
    za = ss.z_assign[eid]
    members = tuple(sorted(za))
    bnd = {r: J.neighbors(za[r]) for r in members}
    body = set(s.interior())
    strict = body - set().union(*bnd.values()) if bnd else set(body)
    tokens_at = {r: fe.boundaries[fe.members.index(align[r])] for r in members}
    bgroups = {g for r in members for (g, _hv) in tokens_at[r]}
    T = sorted(t for t in fe.tokens() if t[0] in bgroups)
    allowed = []  # per token of T, the J vertices it may take
    for t in T:
        seats = {r for r in members if t in tokens_at[r]}
        if seats:
            dom = set.intersection(*(set(bnd[r]) for r in seats))
            for r in members:
                if r not in seats:
                    dom -= bnd[r]
        else:
            dom = strict
        if not dom:
            return None
        allowed.append(dom)
    best = None
    exhaustive = False
    for x in _token_placements(J, h, T, allowed):
        removed = J.closed_neighborhood_of_set(set(x.values()) | set(s.z))
        sub, kept = J.without(removed)
        occs, packed_exhaustively = _max_interior_matching(sub, kept, h, s, cert)
        exhaustive |= packed_exhaustively
        if best is None or len(occs) > len(best[1]):
            host = tuple(
                Occurrence(tuple(s.g_map[kept[v]] for v in o.vertices)) for o in occs
            )
            best = (x, host)
    if exhaustive:
        note(
            f"strip-edge {eid}: interior packing solved exhaustively"
            " (no certificate, independence number above 4)"
        )
    if best is None:
        return None
    x, host = best
    return StripAssignment({t: s.g_map[v] for t, v in x.items()}, host)


def solve_strip_interiors(ss: StripStructure, base: Base, surj: BaseSurjection, h: Pattern,
                          certs: dict):
    """Realize boundary-group tokens per surviving strip-edge and pack the rest.

    For each surviving edge: gather the tokens of every group that holds a
    boundary seat on the matched base edge, enumerate their placements
    (boundary tokens go to exactly the boundaries they are assigned to,
    interior tokens strictly inside), and keep the placement that leaves room
    for the most additional pattern copies in the interior with the
    placement's closed neighborhood removed.  Edges with token demands but no
    consistent placement are dropped, as if blanked.  Returns the surviving
    assignments and k', the total number of packed interior occurrences.

    ``certs`` maps strip-edges to fuzzy arc models that
    ``solve_igm_claw_free`` has already fitted to their strips at entry
    (``_checked_certificates``); they are trusted here, not checked again
    per surjection.
    """
    out: dict = {}
    kp = 0
    for eid in sorted(surj.edge_map):
        fe = base.edges[surj.edge_map[eid]]
        res = _realize_edge(ss, eid, fe, surj.alignment.get(eid, {}), h, certs.get(eid))
        if res is None:
            continue
        out[eid] = res
        kp += len(res.interior_matching)
    return out, kp


# ---------------------------------------------------------------------------
# global assembly


def _step5_coloring(assignments) -> dict:
    """Host-vertex color map induced by realized tokens (group ids, >= 1)."""
    out: dict = {}
    for eid in sorted(assignments):
        for (g, _hv), v in sorted(assignments[eid].x_vertices.items()):
            if out.get(v, g) != g:
                raise InternalError(f"vertex {v} realized for two token groups")
            out[v] = g
    return out


def global_matching_step(g: Graph, ss: StripStructure, assignments, h: Pattern, k: int, k_prime: int):
    """Search one pattern occurrence inside each token-group color class.

    Returns the found occurrences when at least k - k' classes deliver one
    (an empty list when k' already covers k), else None.
    """
    need = k - k_prime
    if need <= 0:
        return []
    for eid in sorted(assignments):
        image = set(ss.strips[eid].g_map.values())
        if not set(assignments[eid].x_vertices.values()) <= image:
            raise InternalError(f"realized vertices escape strip-edge {eid}")
    classes: dict = {}
    for v, grp in _step5_coloring(assignments).items():
        classes.setdefault(grp, []).append(v)
    found = []
    for grp in sorted(classes):
        occ = find_occurrence(g, h, within=classes[grp])
        if occ is not None:
            found.append(occ)
    return found if len(found) >= need else None


# ---------------------------------------------------------------------------
# driver


@dataclass(frozen=True)
class _RunConfig:
    mode: str
    trials: int | None
    seed: int | None


def _strip_profiles(ss: StripStructure) -> dict:
    return {eid: (ss.kinds[eid], len(members)) for eid, members in ss.edges}


@dataclass(frozen=True)
class _StripIndex:
    """Candidate lists of the embedding search, built once per structure.

    ``by_shape`` lists the strip-edges of each (kind, member count) shape and
    ``incident`` those of a shape at a strip-vertex, both in ``ss.edges``
    order; ``most`` is the largest number of strip-edges of a shape on one
    member tuple.
    """

    by_shape: dict
    incident: dict
    most: dict


def _strip_index(ss: StripStructure, profiles: dict) -> _StripIndex:
    by_shape: dict = {}
    incident: dict = {}
    for eid, members in ss.edges:
        by_shape.setdefault(profiles[eid], []).append(eid)
        for r in members:
            incident.setdefault((profiles[eid], r), []).append(eid)
    most: dict = {}
    on_tuple = collections.Counter((profiles[eid], members) for eid, members in ss.edges)
    for (shape, _members), c in on_tuple.items():
        most[shape] = max(most.get(shape, 0), c)
    return _StripIndex(by_shape, incident, most)


def _alignment_options(f_members, e_members):
    if len(f_members) == 1:
        return [((f_members[0], e_members[0]),)]
    (b1, b2), (r1, r2) = f_members, e_members
    return [((b1, r1), (b2, r2)), ((b1, r2), (b2, r1))]


def _maps(steps, members: dict, index: _StripIndex):
    """An iterator of (vmap, emap), one per injective map of the (shape,
    members) steps in order; emap is keyed by step position."""
    return _maps_from(steps, members, index, {}, {}, set(), set(), 0)


def _maps_from(steps, members: dict, index: _StripIndex, vmap: dict, emap: dict,
               used: set, rused: set, fi: int):
    """The maps of ``steps[fi:]`` extending ``vmap`` and ``emap``.  Module
    level, so a search leaves no reference cycle."""
    if fi == len(steps):
        yield dict(vmap), dict(emap)
        return
    shape, fm = steps[fi]
    anchored = [index.incident.get((shape, vmap[b]), ()) for b in fm if b in vmap]
    cands = min(anchored, key=len) if anchored else index.by_shape.get(shape, ())
    for eid in cands:
        if eid in used:
            continue
        for pairs in _alignment_options(fm, members[eid]):
            added = []
            for b, r in pairs:
                if b in vmap:
                    if vmap[b] != r:
                        break
                elif r in rused:
                    break
                else:
                    added.append((b, r))
            else:
                for b, r in added:
                    vmap[b] = r
                    rused.add(r)
                emap[fi] = eid
                used.add(eid)
                yield from _maps_from(steps, members, index, vmap, emap, used, rused, fi + 1)
                del emap[fi]
                used.discard(eid)
                for b, r in added:
                    del vmap[b]
                    rused.discard(r)


def _embeddings(base: Base, ss: StripStructure, index: _StripIndex):
    """Injective shape-preserving maps of the base into the strip-graph.

    Base edges are mapped in index order, each onto an unused strip-edge of
    its shape under one of its alignments.  A base edge with a member that is
    already mapped (an anchor) draws its candidates from the strip-edges of
    its shape at the anchor's image, since any other strip-edge misses that
    image and fails every alignment; an unanchored one draws from all
    strip-edges of its shape.  Both lists are subsequences of ``ss.edges``
    order, so the maps come out in the order of a full scan of ``ss.edges``
    per base edge.

    Two refutations run first, and each holds for every map, so neither
    changes the output.  A base with more edges of one shape on one member
    tuple than ``index.most`` allows has no map, since an injective map sends
    them to as many strip-edges on one member tuple.  Nor has a base with a
    connected part (a component of the graph its two-member edges span on the
    base vertices) that has no map of its own, since a map of the base
    restricts to one of each part; this saves searching that part again under
    every placement of the parts before it.
    """
    steps = [((fe.kind, len(fe.members)), fe.members) for fe in base.edges]
    on_tuple = collections.Counter(steps)
    if any(c > index.most.get(shape, 0) for (shape, _m), c in on_tuple.items()):
        return
    members = dict(ss.edges)
    pairs = {fm for _shape, fm in steps if len(fm) == 2}
    comps = Graph._from_pairs(base.n_vertices, pairs).components()
    parts = ([step for step in steps if step[1][0] in comp] for comp in comps)
    if len(comps) > 1 and any(next(_maps(p, members, index), None) is None for p in parts):
        return
    yield from _maps(steps, members, index)


def _embedded_surjection(base: Base, emb) -> BaseSurjection:
    """The surjection blanking leaves of the coloring that paints exactly
    the embedding ``emb`` (every other element gets a color that blanks)."""
    vmap, emap = emb
    return BaseSurjection(
        {eid: fi for fi, eid in emap.items()},
        {eid: {vmap[b]: b for b in base.edges[fi].members} for fi, eid in emap.items()},
    )


def _pipeline(g, h, k, ss, certs, cfg: _RunConfig):
    index = _strip_index(ss, _strip_profiles(ss))
    # a plan never creates more than hk edges, so higher supply is equivalent
    hk = h.h * k
    shapes = tuple(sorted((s, min(len(eids), hk)) for s, eids in index.by_shape.items()))
    for base in _shaped_bases(h, k, shapes):
        if cfg.mode == "exhaustive":
            # one surjection per embedding, built directly (module docstring)
            embs = _embeddings(base, ss, index)
            surjections = (_embedded_surjection(base, emb) for emb in embs)
        else:
            # the paper's color coding: draw colorings, keep what blanking
            # leaves of them
            surjections = _drawn_surjections(ss, base, cfg.trials, cfg.seed)
        for surj in surjections:
            assignments, kp = solve_strip_interiors(ss, base, surj, h, certs)
            extra = global_matching_step(g, ss, assignments, h, k, kp)
            if extra is None:
                continue
            pool = [
                o
                for eid in sorted(assignments)
                for o in assignments[eid].interior_matching
            ]
            pool.extend(extra)
            if len(pool) < k:
                raise InternalError("assembly produced fewer occurrences than promised")
            return Matching(tuple(pool[:k]))
    return None


def _pieces(triples, h, cfg: _RunConfig) -> list:
    """(settle, host id map) per (graph, host id map, certificate) triple.

    ``settle()`` returns the piece's route, settled on first use and kept,
    so the rungs of an outer ladder never settle a piece twice.
    """
    return [
        (functools.cache(functools.partial(_route, sub, h, cert, cfg)), to_host)
        for sub, to_host, cert in triples
    ]


def _collect(pieces, k) -> list:
    """Up to k pattern copies gathered piece by piece, in host ids.

    ``pieces`` (from ``_pieces``) are parts of a host with no edges between
    them.  Each is asked for 1, 2, ... copies until it fails; its last
    success is mapped back to the host.
    """
    collected: list = []
    for settle, to_host in pieces:
        found = ()
        for kk in range(1, k - len(collected) + 1):
            m = settle()(kk)
            if m is None:
                break
            found = m.occurrences
        collected.extend(Occurrence(tuple(to_host[v] for v in o.vertices)) for o in found)
        if len(collected) >= k:
            break
    return collected


def _assembled(g, h, pieces, ss, certs, cfg: _RunConfig):
    """solve(kk): copies from the free-standing ``pieces`` first, then the
    pipeline over ``ss`` (None: none) for whatever they leave of kk."""

    def solve(kk):
        collected = _collect(pieces, kk)
        if len(collected) < kk:
            m = None
            if ss is not None:
                m = _pipeline(g, h, kk - len(collected), ss, certs, cfg)
            if m is None:
                return None
            collected.extend(m.occurrences)
        return revalidated(Matching(tuple(collected)), g, h, "assembled matching")

    return solve


def _structured(g, h, ss, certs, cfg: _RunConfig):
    """The pipeline over a valid structure, as solve(kk).

    Strip-edges without strip-vertices have no boundaries, hence no edges to
    the rest of the host: their bodies are solved first as free-standing
    pieces, and the pipeline covers the other strip-edges, over ``ss`` itself
    when there are no free pieces (keeping its settled strip kinds), else over
    ``ss`` without them, whose ids stay well formed as nothing else changes.
    """
    free = [(ss.strips[e].graph, ss.strips[e].g_map, certs.get(e)) for e, m in ss.edges if not m]
    pieces = _pieces(free, h, cfg)
    rest = tuple((e, m) for e, m in ss.edges if m)
    if not rest:
        return _assembled(g, h, pieces, None, None, cfg)
    if free:
        strips = {e: ss.strips[e] for e, _m in rest}
        ss = StripStructure(ss.r_vertices, rest, strips, {e: ss.z_assign[e] for e in strips})
    return _assembled(g, h, pieces, ss, certs, cfg)


def _route(g0, h, cert, cfg: _RunConfig):
    """Settle how one chunk is solved: the host, a component, or a strip body.

    ``cert`` is what is known about the chunk: nothing (None), a fuzzy arc
    model realizing it (checked at entry), or a validated (strip-structure,
    certificates) pair.  Returns ``solve(kk)``, which finds kk >= 1 copies
    or returns None; the work that does not depend on kk is done once per
    chunk, not once per call.  The first step that applies decides:

      1. fewer vertices than the pattern: no matching;
      2. a fuzzy model: the fuzzy arc solver; no ``ALPHA_BOUND`` + 1
         independent vertices: the chunk's packing search, and kk above
         ``ALPHA_BOUND``: no matching (the search is exact, so the bound
         suffices).  A chunk that has them and more than ``MIS_CAP_DEFAULT``
         vertices raises ``SizeCapError``;
      3. no kk independent vertices (asked only for kk above five, as the
         chunk has five), or the chunk's packing search proves, within
         ``_REFUTE_BUDGET`` nodes, that no kk occurrences pack: no matching;
      4. a supplied structure: the pipeline over it;
      5. several components: each settled on its own, combined additively;
      6. a line graph: the pipeline over its strip-structure, trusted as built;
      7. otherwise the chunk's packing search, noted once to ``igmatch.trace``.

    The chunk's packing search, ``search(kk, budget)``, runs ``packing`` over
    the chunk's occurrences, one per vertex set, enumerated on its first
    call.  It keeps each count's finished answer, so step 7 reuses step 3's
    witness, and a search that runs out of budget raises ``OutOfBudget`` and
    keeps nothing.  Step 3 is exact.  A matching of size kk is a packing of
    kk occurrences (pairwise disjoint, with no edge between two), so it
    holds kk independent vertices, and the search visits every packing its
    bounds do not prove too small, so when it finishes without one, there is
    no matching.  Steps 2 and 3 ask ``brute_force_wis`` at unit weight for
    five independent vertices once per chunk, and for each count kk above
    five before the budgeted search, which can run out on a count above the
    independence number.  A search that reaches its node budget answers
    nothing: steps 4-7 run as they would without it, and nothing is noted.
    Enumeration is polynomial for a fixed pattern and the budget is a
    constant, so step 3 keeps the route's worst case fixed-parameter
    tractable.  Steps 4-7 are settled on the first call that step 3 does not
    refute, so a refuted count costs no structure work, and every count that
    is not refuted gets the pipeline's witness, or the search's in step 7.
    """
    if g0.n < h.h:
        return lambda kk: None
    if isinstance(cert, FuzzyArcModel):
        return lambda kk: solve_igm_fuzzy_ca(cert, h, kk)
    five = brute_force_wis(g0, [1] * g0.n, ALPHA_BOUND + 1, 0)[0]
    if five and g0.n > MIS_CAP_DEFAULT:
        raise SizeCapError("claw-free chunk with five independent vertices", g0.n, MIS_CAP_DEFAULT)
    answers = {}  # kk -> the finished search's matching or None

    @functools.cache
    def occurrences():
        return enumerate_occurrences(g0, h)

    def search(kk, budget=math.inf):
        if kk not in answers:
            found = packing(g0, occurrences(), kk, budget=budget)
            answers[kk] = None if found is None else Matching(tuple(found))
        return answers[kk]

    if not five:
        return lambda kk: None if kk > ALPHA_BOUND else search(kk)

    @functools.cache
    def settle():
        if cert is not None:
            return _structured(g0, h, *cert, cfg)
        comps = g0.components()
        if len(comps) > 1:
            pieces = _pieces([(g0.induced(c), c, None) for c in comps], h, cfg)
            return _assembled(g0, h, pieces, None, None, cfg)
        lg = line_graph_strip_structure(g0)
        if lg is None:
            note(f"component of {g0.n} vertices solved exhaustively (no structure found)")
            return search
        return _structured(g0, h, lg, {}, cfg)

    def solve(kk):
        try:
            if (kk > ALPHA_BOUND + 1 and not brute_force_wis(g0, [1] * g0.n, kk, 0)[0]
                    or search(kk, _REFUTE_BUDGET) is None):
                return None
        except OutOfBudget:
            pass
        return settle()(kk)

    return solve


def solve_igm_claw_free(
    g: Graph,
    h: Pattern,
    k: int,
    ss: StripStructure | None = None,
    certificates=None,
    coloring: str = "exhaustive",
    trials: int | None = None,
    seed: int | None = None,
) -> Matching | None:
    """Find k pairwise disjoint, pairwise non-adjacent induced copies of h.

    A supplied ``ss`` must be a strip structure of ``g`` whose strips are
    spots or stripes; ``validate_strip_structure`` checks it up front, and
    its optional per-strip ``certificates`` are checked with it, so an
    invalid structure, or a certificate that is not a fuzzy arc model
    realizing the interior of its strip, raises on every host and every k,
    whether or not the search would reach it.  A host given as a fuzzy
    circular-arc model goes to ``solve_igm_fuzzy_ca`` instead, the entry for
    that question.  Then the first rule that applies decides: k = 0 gives
    the empty matching, a host smaller than h gives None; a host without
    five independent vertices goes to an exact packing search over the
    host's occurrences.  A host that has them and more than
    ``MIS_CAP_DEFAULT`` vertices raises ``SizeCapError``.  Otherwise a host
    without k independent vertices (asked for k above five) gives None (k
    copies need k pairwise non-adjacent vertices), and so does a k for which
    that search, run within a fixed node budget, finds no k pairwise
    disjoint, non-adjacent copies.  For any other k the base-times-coloring
    pipeline runs over ``ss`` when given; its strip-edges without
    strip-vertices are solved first, each body as a host of its own.
    Without ``ss``, a disconnected host is split into components solved the
    same way and combined additively, a connected line graph uses
    ``line_graph_strip_structure``, and any other host falls back to the
    packing search run to its end, which keeps the answer the budgeted
    search found; this is noted once to ``igmatch.trace``, as is each
    strip-edge whose interior is packed exhaustively.  A piece of the host
    that is asked for 1, 2, ... copies in turn settles its route once, not
    once per count.  Pass ``ss=trivial_strip_structure(g)`` to wrap the
    whole host in one strip.

    Exhaustive coloring mode is exact.  Random mode draws ``trials``
    colorings per base from ``random.Random(seed)``, as palette indices
    (``_draws``), and keeps the surjections blanking leaves of them
    (``blank``, which rejects a draw whose strip-vertices miss a vertex
    color before it reads a strip-edge; that early-out is exact).  It never
    reports false positives but may miss.  Bases are capped
    at ``HK_CAP_DEFAULT`` tokens, so only a k that reaches the pipeline can
    raise ``SizeCapError`` for it.  Any matching the pipeline assembles has
    been re-validated against the host.
    """
    expect_type(g, Graph)
    expect_type(h, Pattern)
    if type(k) is not int or k < 0:
        raise InputError("k must be a nonnegative integer")
    if not h.is_connected:
        raise InputError("pattern must be connected; graphs.find_igm answers a disconnected one")
    if not star_free(g, 3):
        raise InputError("host graph is not claw-free")
    if coloring not in ("exhaustive", "random"):
        raise InputError(f"unknown coloring mode {coloring!r}")
    if coloring == "random" and (type(trials) is not int or trials < 0):
        raise InputError(
            f"random coloring mode needs a non-negative trial count, an int, got {trials!r}")
    if coloring == "random" and seed is not None and type(seed) is not int:
        raise InputError(f"random coloring mode needs an int or None seed, got {seed!r}")
    cert = None
    if ss is not None:
        validate_strip_structure(g, ss)
        cert = (ss, _checked_certificates(ss, certificates))
    elif certificates:
        raise InputError("certificates need an explicit strip-structure")
    if k == 0:
        return Matching(())
    return _route(g, h, cert, _RunConfig(coloring, trials, seed))(k)
