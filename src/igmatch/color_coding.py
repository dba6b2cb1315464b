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
palette^elements product.  Colorings that agree on their unblanked part run
identically, and a run whose surviving surjection strictly contains another
finds at least as much; so it suffices to try, per base, one coloring for
each embedding of the base into the strip-graph (everything else painted
with colors that force blanking).  A successful run of any other coloring
implies a matching exists, in which case the natural coloring of that
matching's own base succeeds too; hence the answers coincide with the full
family while the work stays proportional to the number of embeddings.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import InputError, InternalError, SizeCapError
from .graphs import (
    Graph,
    Matching,
    Occurrence,
    Pattern,
    brute_force_mis,
    enumerate_occurrences,
    find_igm,
    find_occurrence,
    max_igm,
    star_free,
)
from .models import Arc, ArcModel, FuzzyArcModel, realize
from .fuzzy_solver import solve_igm_fuzzy_ca, solve_igm_small_alpha
from .strips import (
    StripStructure,
    _fuzzy_cert_consistent,
    classify_strip,
    line_graph_strip_structure,
    validate_strip_structure,
)

__all__ = [
    "Base",
    "BaseEdge",
    "BaseSurjection",
    "ElementColoring",
    "StripAssignment",
    "HK_CAP_DEFAULT",
    "COLORING_CAP_DEFAULT",
    "token_set",
    "enumerate_bases",
    "check_condition1",
    "check_condition2",
    "structure_elements",
    "base_palette",
    "coloring_family",
    "blank",
    "solve_strip_interiors",
    "step5_coloring",
    "global_matching_step",
    "solve_igm_claw_free",
]

HK_CAP_DEFAULT = 6
COLORING_CAP_DEFAULT = 1_000_000


def token_set(h: Pattern, k: int) -> tuple:
    """All hk tokens: one per (group 1..k, pattern vertex)."""
    if k < 0:
        raise InputError("k must be non-negative")
    return tuple((g, hv) for g in range(1, k + 1) for hv in range(h.h))


def _check_token(t) -> None:
    if (
        not isinstance(t, tuple)
        or len(t) != 2
        or not all(isinstance(x, int) for x in t)
        or t[0] < 1
        or t[1] < 0
    ):
        raise InputError(f"token must be a (group >= 1, pattern vertex) pair, got {t!r}")


@dataclass(frozen=True)
class BaseEdge:
    """One edge of a base hypergraph together with its token annotation.

    ``members`` lists the one or two endpoint vertex ids in increasing
    order.  A spot puts its single token on the edge itself; a stripe splits
    its tokens between the interior set and per-endpoint boundary sets
    (``boundaries[i]`` belongs to ``members[i]``).  A token may sit in both
    boundary sets of a two-ended stripe, but never in a boundary and the
    interior at once.
    """

    kind: str
    members: tuple
    spot_token: tuple | None = None
    interior: frozenset = frozenset()
    boundaries: tuple = ()

    def __post_init__(self):
        if self.kind not in ("spot", "stripe"):
            raise InputError(f"unknown base edge kind {self.kind!r}")
        members = tuple(self.members)
        if not 1 <= len(members) <= 2 or len(set(members)) != len(members):
            raise InputError(f"base edge needs 1 or 2 distinct members, got {members!r}")
        if any(not isinstance(b, int) or b < 0 for b in members):
            raise InputError(f"base edge members must be vertex ids, got {members!r}")
        boundaries = tuple(frozenset(bd) for bd in self.boundaries)
        if members != tuple(sorted(members)):
            members = tuple(reversed(members))
            if len(boundaries) == 2:
                boundaries = tuple(reversed(boundaries))
        if self.kind == "spot":
            if len(members) != 2:
                raise InputError("a spot edge has exactly two members")
            if self.interior or boundaries:
                raise InputError("spot edges carry no interior or boundary token sets")
            if self.spot_token is not None:
                _check_token(self.spot_token)
        else:
            if self.spot_token is not None:
                raise InputError("stripe edges carry no spot token")
            if len(boundaries) != len(members):
                raise InputError(
                    f"stripe edge on {len(members)} members needs as many boundary sets"
                )
            for t in self.interior:
                _check_token(t)
            for bd in boundaries:
                for t in bd:
                    _check_token(t)
            spill = frozenset(self.interior) & frozenset().union(*boundaries)
            if spill:
                raise InputError(
                    f"tokens {sorted(spill)} assigned to both interior and a boundary"
                )
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "interior", frozenset(self.interior))
        object.__setattr__(self, "boundaries", boundaries)

    def tokens(self) -> frozenset:
        if self.kind == "spot":
            return frozenset(() if self.spot_token is None else (self.spot_token,))
        out = set(self.interior)
        for bd in self.boundaries:
            out |= bd
        return frozenset(out)

    def boundary_vertices(self, token) -> frozenset:
        """Members at whose boundary the token sits; a spot token counts at both."""
        if self.kind == "spot":
            return frozenset(self.members if token == self.spot_token else ())
        return frozenset(
            self.members[i] for i, bd in enumerate(self.boundaries) if token in bd
        )


@dataclass(frozen=True)
class Base:
    """A candidate shape for the touched part of a strip-graph.

    Vertices are 0..n_vertices-1 and every one of them lies on an edge; each
    token belongs to at most one edge.
    """

    n_vertices: int
    edges: tuple

    def __post_init__(self):
        edges = tuple(self.edges)
        if not edges:
            raise InputError("a base needs at least one edge")
        owner: dict = {}
        used: set = set()
        for i, fe in enumerate(edges):
            if not isinstance(fe, BaseEdge):
                raise InputError("base edges must be BaseEdge instances")
            for b in fe.members:
                if b >= self.n_vertices:
                    raise InputError(f"edge member {b} out of range for {self.n_vertices} vertices")
                used.add(b)
            for t in fe.tokens():
                if t in owner:
                    raise InputError(f"token {t} assigned to edges {owner[t]} and {i}")
                owner[t] = i
        if used != set(range(self.n_vertices)):
            raise InputError("every base vertex must lie on some edge")
        object.__setattr__(self, "edges", edges)

    def tokens(self) -> frozenset:
        out = set()
        for fe in self.edges:
            out |= fe.tokens()
        return frozenset(out)


def check_condition1(base: Base, h: Pattern) -> bool:
    """Tokens of adjacent pattern vertices share an edge or glued boundaries.

    For every pattern edge and every group with both tokens present: either
    the two tokens sit on the same base edge, or their edges share a vertex
    at whose boundaries both tokens are assigned.
    """
    where: dict = {}
    for i, fe in enumerate(base.edges):
        for t in fe.tokens():
            where[t] = (i, fe.boundary_vertices(t))
    groups = {g for (g, _hv) in where}
    for g in groups:
        for u, v in h.graph.edges:
            tu, tv = (g, u), (g, v)
            if tu not in where or tv not in where:
                continue
            ei, bu = where[tu]
            ej, bv = where[tv]
            if ei == ej:
                continue
            if not (bu & bv):
                return False
    return True


def check_condition2(base: Base, h: Pattern) -> bool:
    """Boundary tokens meeting at a vertex form one group and an H-clique."""
    at: dict = {}
    for fe in base.edges:
        for t in fe.tokens():
            for b in fe.boundary_vertices(t):
                at.setdefault(b, set()).add(t)
    for toks in at.values():
        if len({g for (g, _hv) in toks}) > 1:
            return False
        hvs = sorted({hv for (_g, hv) in toks})
        for i, u in enumerate(hvs):
            for v in hvs[i + 1 :]:
                if not h.graph.has_edge(u, v):
                    return False
    return True


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


def _positions(tok, edge) -> frozenset:
    if edge["kind"] == "spot":
        return frozenset((0, 1))
    return edge["slots"][tok]


def _placement_ok(tok, ei, slots, edges, placed, h) -> bool:
    g, hv = tok
    # a same-edge boundary position shared with another token forces, after
    # gluing, a common base vertex: reject group/clique violations right away
    edge = edges[ei] if ei < len(edges) else None
    if edge is not None:
        for tok2 in edge["slots"] if edge["kind"] == "stripe" else ():
            common = slots & edge["slots"][tok2]
            if not common:
                continue
            g2, hv2 = tok2
            if g2 != g or not h.graph.has_edge(hv, hv2):
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


def _token_plans(h: Pattern, order: list, budget: dict | None = None):
    """Depth-first token placement; yields edge lists before endpoint gluing.

    ``budget`` caps how many edges of each (kind, member count) shape a plan
    may create; gluing never changes shapes, so plans exceeding the supply of
    a concrete strip-structure can be skipped without losing any of its
    embeddable bases.
    """
    edges: list = []
    placed: dict = {}
    created: dict = {}

    def rec(i: int):
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
                yield from rec(i + 1)
                del edge["slots"][tok]
                del placed[tok]
        for kind, nm, slots in _NEW_EDGE_SHAPES:
            shape = (kind, nm)
            if budget is not None and created.get(shape, 0) >= budget.get(shape, 0):
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
            yield from rec(i + 1)
            edges.pop()
            created[shape] -= 1
            del placed[tok]

    yield from rec(0)


def _block_tokens(plan, block) -> set:
    out = set()
    for ei, p in block:
        edge = plan[ei]
        if edge["kind"] == "spot":
            out.add(edge["token"])
        else:
            out |= {t for t, slots in edge["slots"].items() if p in slots}
    return out


def _block_ok(plan, block, h) -> bool:
    toks = _block_tokens(plan, block)
    if len({g for (g, _hv) in toks}) > 1:
        return False
    hvs = sorted({hv for (_g, hv) in toks})
    for i, u in enumerate(hvs):
        for v in hvs[i + 1 :]:
            if not h.graph.has_edge(u, v):
                return False
    return True


def _glued_bases(plan, h: Pattern):
    """All ways to identify edge endpoints, yielding concrete bases."""
    endpoints = [(ei, p) for ei, edge in enumerate(plan) for p in range(edge["nm"])]
    blocks: list = []

    def build() -> Base:
        vid = {}
        for bi, blk in enumerate(blocks):
            for ep in blk:
                vid[ep] = bi
        base_edges = []
        for ei, edge in enumerate(plan):
            members = tuple(vid[(ei, p)] for p in range(edge["nm"]))
            if edge["kind"] == "spot":
                base_edges.append(BaseEdge("spot", members, spot_token=edge["token"]))
            else:
                interior = frozenset(t for t, s in edge["slots"].items() if not s)
                bnds = tuple(
                    frozenset(t for t, s in edge["slots"].items() if p in s)
                    for p in range(edge["nm"])
                )
                base_edges.append(
                    BaseEdge("stripe", members, interior=interior, boundaries=bnds)
                )
        return Base(len(blocks), tuple(base_edges))

    def rec(i: int):
        if i == len(endpoints):
            yield build()
            return
        ep = endpoints[i]
        for blk in blocks:
            if any(e2 == ep[0] for (e2, _p) in blk):
                continue  # two endpoints of one edge stay distinct
            blk.append(ep)
            if _block_ok(plan, blk, h):
                yield from rec(i + 1)
            blk.pop()
        blocks.append([ep])
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(0)


def _canonical_base_key(base: Base):
    """Label-independent key: minimum over group relabelings and reflections."""
    groups = sorted({g for (g, _hv) in base.tokens()})
    flippable = [i for i, fe in enumerate(base.edges) if len(fe.members) == 2]
    best = None
    for perm in itertools.permutations(groups):
        gmap = {g: i + 1 for i, g in enumerate(perm)}

        def tok(t, gmap=gmap):
            return (gmap[t[0]], t[1])

        descs = []
        for fe in base.edges:
            if fe.kind == "spot":
                payload = ("spot", tok(fe.spot_token) if fe.spot_token else None)
            else:
                bnds = tuple(tuple(sorted(map(tok, bd))) for bd in fe.boundaries)
                payload = (
                    "stripe",
                    len(fe.members),
                    tuple(sorted(map(tok, fe.interior))),
                    min(bnds, bnds[::-1]),
                )
            descs.append(payload)
        edge_order = sorted(range(len(base.edges)), key=lambda i: descs[i])
        # token payloads make edges nearly always distinguishable; permute
        # only within runs of equal descriptors to stay exact
        runs, start = [], 0
        for i in range(1, len(edge_order) + 1):
            if i == len(edge_order) or descs[edge_order[i]] != descs[edge_order[start]]:
                runs.append(edge_order[start:i])
                start = i
        for ordering in itertools.product(*[itertools.permutations(r) for r in runs]):
            flat = [i for run in ordering for i in run]
            for flips in itertools.product(
                (False, True), repeat=len([i for i in flat if i in flippable])
            ):
                flippos = iter(flips)
                names: dict = {}
                key = []
                for i in flat:
                    fe = base.edges[i]
                    members = fe.members
                    bnds = fe.boundaries
                    if len(members) == 2 and next(flippos):
                        members = members[::-1]
                        bnds = bnds[::-1]
                    ids = []
                    for b in members:
                        if b not in names:
                            names[b] = len(names)
                        ids.append(names[b])
                    if fe.kind == "spot":
                        key.append(("spot", tuple(ids), tok(fe.spot_token) if fe.spot_token else None))
                    else:
                        key.append(
                            (
                                "stripe",
                                tuple(ids),
                                tuple(sorted(map(tok, fe.interior))),
                                tuple(tuple(sorted(map(tok, bd))) for bd in bnds),
                            )
                        )
                cand = tuple(key)
                if best is None or cand < best:
                    best = cand
    return best


def _base_stream(h: Pattern, k: int, budget: dict | None):
    """Bases of k groups of h tokens, up to isomorphism, lazily.

    ``budget`` is passed to ``_token_plans`` (None: unrestricted).  The size
    cap is checked eagerly, on the call itself.
    """
    hk = h.h * k
    if hk > HK_CAP_DEFAULT:
        raise SizeCapError("enumerate_bases", hk, HK_CAP_DEFAULT)

    def gen():
        if hk == 0:
            return  # no tokens, and every base edge must carry one
        seen = set()
        for plan in _token_plans(h, _token_order(h, k), budget):
            for base in _glued_bases(plan, h):
                if not check_condition1(base, h) or not check_condition2(base, h):
                    continue
                key = _canonical_base_key(base)
                if key in seen:
                    continue
                seen.add(key)
                yield base

    return gen()


def enumerate_bases(h: Pattern, k: int):
    """Stream all bases for k groups of h tokens, up to isomorphism.

    Every emitted base assigns all hk tokens, gives every edge at least one
    token (an edge a matching touches always holds a matching vertex), and
    satisfies both token conditions.  Generation places tokens one at a time
    (each constrained by previously placed group neighbors), then glues edge
    endpoints in all admissible ways; isomorphic duplicates are removed via
    a canonical key, so the stream is deterministic and duplicate-free.
    Raises a size-cap error when hk exceeds ``HK_CAP_DEFAULT``.
    """
    if k < 0:
        raise InputError("k must be non-negative")
    return _base_stream(h, k, None)


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
# elements, palettes, colorings


def structure_elements(ss: StripStructure) -> tuple:
    """Colorable items of a strip-structure, in canonical order."""
    out = [("rv", r) for r in ss.r_vertices]
    for eid, members in ss.edges:
        if classify_strip(ss.strips[eid]) == "spot":
            out.append(("spot", eid))
        else:
            out.append(("int", eid))
            out.extend(("bnd", eid, r) for r in members)
    return tuple(out)


def base_palette(base: Base) -> tuple:
    """Distinct colors for the base's vertices and edge parts."""
    out = [("v", b) for b in range(base.n_vertices)]
    for fi, fe in enumerate(base.edges):
        if fe.kind == "spot":
            out.append(("spotc", fi))
        else:
            out.append(("intc", fi))
            out.extend(("bndc", fi, b) for b in fe.members)
    return tuple(out)


@dataclass(frozen=True)
class ElementColoring:
    """Partial assignment of palette colors to structure elements.

    Elements absent from ``colors`` are blank.
    """

    colors: dict

    def __post_init__(self):
        object.__setattr__(self, "colors", dict(self.colors))

    def color(self, element):
        return self.colors.get(element)


@dataclass(frozen=True)
class BaseSurjection:
    """Maps surviving strip-vertices/edges onto base vertices/edges.

    ``alignment[eid]`` pairs each member of a surviving strip-edge with the
    base vertex its boundary lines up with.
    """

    vertex_map: dict
    edge_map: dict
    alignment: dict

    def __post_init__(self):
        object.__setattr__(self, "vertex_map", dict(self.vertex_map))
        object.__setattr__(self, "edge_map", dict(self.edge_map))
        object.__setattr__(
            self, "alignment", {e: dict(a) for e, a in self.alignment.items()}
        )


def coloring_family(
    elements,
    palette,
    mode: str = "exhaustive",
    trials: int | None = None,
    seed: int | None = None,
    cap: int = COLORING_CAP_DEFAULT,
):
    """Stream colorings of ``elements`` from ``palette``.

    Exhaustive mode yields every assignment (palette^elements of them) and
    refuses with a size-cap error when that count exceeds ``cap``; random
    mode yields ``trials`` colorings drawn uniformly and reproducibly from
    ``seed``.  Random draws hit any fixed coloring with probability
    1/|palette|^|elements| per trial, so by the coupon-collector bound about
    N ln N trials (N that same power) cover every coloring in expectation;
    far fewer suffice in practice because only the handful of elements a
    matching touches must be colored right.
    """
    elements = tuple(elements)
    palette = tuple(palette)
    if len(set(elements)) != len(elements):
        raise InputError("duplicate elements")
    if len(set(palette)) != len(palette) or not palette:
        raise InputError("palette must be non-empty and duplicate-free")
    if mode == "exhaustive":
        total = len(palette) ** len(elements)
        if total > cap:
            raise SizeCapError(
                f"coloring_family: {len(palette)}^{len(elements)} exhaustive colorings"
                " (use random mode)",
                total,
                cap,
            )

        def gen_exhaustive():
            for combo in itertools.product(palette, repeat=len(elements)):
                yield ElementColoring(dict(zip(elements, combo)))

        return gen_exhaustive()
    if mode == "random":
        if trials is None or trials < 0:
            raise InputError("random mode needs a non-negative trial count")
        rng = random.Random(seed)

        def gen_random():
            for _ in range(trials):
                yield ElementColoring({el: rng.choice(palette) for el in elements})

        return gen_random()
    raise InputError(f"unknown coloring mode {mode!r}")


# ---------------------------------------------------------------------------
# blanking


def _vertex_color_id(color, base: Base):
    if (
        isinstance(color, tuple)
        and len(color) == 2
        and color[0] == "v"
        and isinstance(color[1], int)
        and 0 <= color[1] < base.n_vertices
    ):
        return color[1]
    return None


def _edge_color_id(color, tag: str, base: Base):
    if (
        isinstance(color, tuple)
        and len(color) >= 2
        and color[0] == tag
        and isinstance(color[1], int)
        and 0 <= color[1] < len(base.edges)
    ):
        return color[1]
    return None


def blank(f: ElementColoring, ss: StripStructure, base: Base):
    """Erase colors that cannot be part of a surjection onto the base.

    Strip-vertices keep their color only if it is a vertex color; a
    strip-edge keeps its colors only if its element sequence spells out the
    color sequence of a same-shape base edge whose endpoints agree with the
    surviving vertex colors.  Returns the blanked coloring plus the induced
    surjection, or None when some palette color no longer appears.  The
    procedure is a single local pass and therefore idempotent.
    """
    vkeep = {}
    for r in ss.r_vertices:
        b = _vertex_color_id(f.color(("rv", r)), base)
        if b is not None:
            vkeep[r] = b

    edge_map: dict = {}
    alignment: dict = {}
    colors: dict = {("rv", r): ("v", b) for r, b in vkeep.items()}
    present = set(colors.values())
    for eid, members in ss.edges:
        kind = classify_strip(ss.strips[eid])
        if kind == "spot":
            fi = _edge_color_id(f.color(("spot", eid)), "spotc", base)
            if fi is None or base.edges[fi].kind != "spot" or len(members) != 2:
                continue
            p, q = members
            pb, qb = base.edges[fi].members
            got = (vkeep.get(p), vkeep.get(q))
            if got == (pb, qb):
                align = {p: pb, q: qb}
            elif got == (qb, pb):
                align = {p: qb, q: pb}
            else:
                continue
            edge_map[eid] = fi
            alignment[eid] = align
            colors[("spot", eid)] = ("spotc", fi)
            present.add(("spotc", fi))
        elif kind == "stripe":
            fi = _edge_color_id(f.color(("int", eid)), "intc", base)
            if fi is None:
                continue
            fe = base.edges[fi]
            if fe.kind != "stripe" or len(fe.members) != len(members):
                continue
            orders = [fe.members]
            if len(members) == 2:
                orders.append(fe.members[::-1])
            align = None
            for cand in orders:
                pairing = dict(zip(members, cand))
                if all(vkeep.get(r) == b for r, b in pairing.items()) and all(
                    f.color(("bnd", eid, r)) == ("bndc", fi, b)
                    for r, b in pairing.items()
                ):
                    align = pairing
                    break
            if align is None:
                continue
            edge_map[eid] = fi
            alignment[eid] = align
            colors[("int", eid)] = ("intc", fi)
            present.add(("intc", fi))
            for r, b in align.items():
                colors[("bnd", eid, r)] = ("bndc", fi, b)
                present.add(("bndc", fi, b))
    if any(c not in present for c in base_palette(base)):
        return None
    return ElementColoring(colors), BaseSurjection(vkeep, edge_map, alignment)


# ---------------------------------------------------------------------------
# strip interiors


@dataclass(frozen=True)
class StripAssignment:
    """Chosen token realization and interior packing for one strip-edge."""

    eid: int
    x_vertices: dict  # token -> host vertex
    interior_matching: tuple  # occurrences in host coordinates

    def __post_init__(self):
        object.__setattr__(self, "x_vertices", dict(self.x_vertices))
        object.__setattr__(self, "interior_matching", tuple(self.interior_matching))


def _validate_certificates(ss: StripStructure, certificates) -> dict:
    certs = dict(certificates or {})
    known = {eid for eid, _m in ss.edges}
    for eid, cert in certs.items():
        if eid not in known:
            raise InputError(f"certificate for unknown strip-edge {eid}")
        if not isinstance(cert, FuzzyArcModel) and cert != "alpha4":
            raise InputError(
                f"certificate for strip-edge {eid} must be a fuzzy arc model or 'alpha4'"
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


def _max_interior_matching(sub: Graph, kept, h: Pattern, s, eid, cert, note) -> tuple:
    """Largest induced matching in a residual interior, in ``sub`` coordinates.

    ``kept`` lists, per ``sub`` vertex, the J vertex it came from.
    """
    if sub.n < h.h:
        return ()
    if isinstance(cert, FuzzyArcModel):
        order = s.interior()
        pos = {jid: i for i, jid in enumerate(order)}
        positions = [pos[j] for j in kept]
        fam = _sub_fuzzy_model(cert, positions)
        for kk in range(sub.n // h.h, 0, -1):
            m = solve_igm_fuzzy_ca(fam, h, kk)
            if m is not None:
                return m.occurrences
        return ()
    occs = enumerate_occurrences(sub, h)
    if not occs:
        return ()
    if cert == "alpha4":
        bound = 4
    else:
        alpha, _w = brute_force_mis(sub)
        bound = alpha if alpha <= 4 else None
    if bound is not None:
        for kk in range(min(bound, sub.n // h.h), 0, -1):
            m = find_igm(sub, h, kk, occurrences=occs)
            if m is not None:
                return m.occurrences
        return ()
    if eid not in note["braced"]:
        note["braced"].add(eid)
        if note["deviations"] is not None:
            note["deviations"].append(
                f"strip-edge {eid}: interior packing solved exhaustively"
                " (no certificate, independence number above 4)"
            )
    return tuple(max_igm(sub, h, occurrences=occs))


def _consistent_realizations(J: Graph, h: Pattern, tokens, allowed):
    """Injective placements honoring pattern adjacency within a group and
    non-adjacency across groups."""
    chosen: dict = {}
    used: set = set()

    def rec(i: int):
        if i == len(tokens):
            yield dict(chosen)
            return
        t = tokens[i]
        g, hv = t
        for v in allowed[t]:
            if v in used:
                continue
            ok = True
            for t2, v2 in chosen.items():
                g2, hv2 = t2
                adj = J.has_edge(v, v2)
                want = h.graph.has_edge(hv, hv2) if g2 == g else False
                if adj != want:
                    ok = False
                    break
            if ok:
                chosen[t] = v
                used.add(v)
                yield from rec(i + 1)
                del chosen[t]
                used.discard(v)

    yield from rec(0)


def _realize_edge(ss, eid, fe: BaseEdge, align, h, cert, note):
    s = ss.strips[eid]
    if fe.kind == "spot":
        w = s.interior()[0]
        x = {} if fe.spot_token is None else {fe.spot_token: s.g_map[w]}
        return StripAssignment(eid, x, ())
    members = ss.members(eid)
    J = s.graph
    za = ss.z_assign[eid]
    bnd = {r: frozenset(J.neighbors(za[r])) for r in members}
    body = set(s.interior())
    strict = body - set().union(*bnd.values()) if bnd else set(body)
    tokens_at = {r: fe.boundaries[fe.members.index(align[r])] for r in members}
    bgroups = {g for r in members for (g, _hv) in tokens_at[r]}
    T = sorted(t for t in fe.tokens() if t[0] in bgroups)
    allowed = {}
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
        allowed[t] = sorted(dom)
    best = None
    for x in _consistent_realizations(J, h, T, allowed):
        removed = J.closed_neighborhood_of_set(set(x.values()) | set(s.z))
        sub, kept = J.without(removed)
        occs = _max_interior_matching(sub, kept, h, s, eid, cert, note)
        if best is None or len(occs) > len(best[1]):
            host = tuple(
                Occurrence(tuple(s.g_map[kept[v]] for v in o.vertices)) for o in occs
            )
            best = (x, host)
    if best is None:
        return None
    x, host = best
    return StripAssignment(eid, {t: s.g_map[v] for t, v in x.items()}, host)


def solve_strip_interiors(
    ss: StripStructure,
    base: Base,
    surj: BaseSurjection,
    h: Pattern,
    certificates=None,
    deviations=None,
):
    """Realize boundary-group tokens per surviving strip-edge and pack the rest.

    For each surviving edge: gather the tokens of every group that holds a
    boundary seat on the matched base edge, enumerate their placements
    (boundary tokens go to exactly the boundaries they are assigned to,
    interior tokens strictly inside), and keep the placement that leaves room
    for the most additional pattern copies in the interior with the
    placement's closed neighborhood removed.  Edges with token demands but no
    consistent placement are dropped, as if blanked.  Returns the surviving
    assignments and k', the total number of packed interior occurrences.
    """
    certs = _validate_certificates(ss, certificates)
    note = {"deviations": deviations, "braced": set()}
    checked: set = set()
    out: dict = {}
    kp = 0
    for eid in sorted(surj.edge_map):
        fi = surj.edge_map[eid]
        fe = base.edges[fi]
        cert = certs.get(eid)
        if isinstance(cert, FuzzyArcModel) and eid not in checked:
            msg = _fuzzy_cert_consistent(ss.strips[eid], cert)
            if msg is not None:
                raise InputError(f"certificate for strip-edge {eid}: {msg}")
            checked.add(eid)
        res = _realize_edge(ss, eid, fe, surj.alignment.get(eid, {}), h, cert, note)
        if res is None:
            continue
        out[eid] = res
        kp += len(res.interior_matching)
    return out, kp


# ---------------------------------------------------------------------------
# global assembly


def step5_coloring(assignments) -> dict:
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
    for v, grp in step5_coloring(assignments).items():
        classes.setdefault(grp, []).append(v)
    found = []
    for grp in sorted(classes):
        occ = find_occurrence(g, h, within=sorted(classes[grp]))
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


def _validated(m: Matching, g: Graph, h: Pattern) -> Matching:
    try:
        m.check(g, h)
    except InputError as exc:
        raise InternalError(f"solver assembled an invalid matching: {exc}") from exc
    return m


def _strip_profiles(ss: StripStructure) -> dict:
    prof = {}
    for eid, members in ss.edges:
        kind = classify_strip(ss.strips[eid])
        if kind == "neither":
            raise InputError(f"strip-edge {eid} is neither a spot nor a stripe")
        prof[eid] = (kind, len(members))
    return prof


def _alignment_options(f_members, e_members):
    if len(f_members) == 1:
        return [((f_members[0], e_members[0]),)]
    (b1, b2), (r1, r2) = f_members, e_members
    return [((b1, r1), (b2, r2)), ((b1, r2), (b2, r1))]


def _embeddings(base: Base, ss: StripStructure, profiles: dict):
    """Injective shape-preserving maps of the base into the strip-graph."""
    eids = [eid for eid, _m in ss.edges]
    vmap: dict = {}
    emap: dict = {}
    rused: set = set()

    def rec(fi: int):
        if fi == len(base.edges):
            yield dict(vmap), dict(emap)
            return
        fe = base.edges[fi]
        want = (fe.kind, len(fe.members))
        for eid in eids:
            if eid in emap.values() or profiles[eid] != want:
                continue
            for pairs in _alignment_options(fe.members, ss.members(eid)):
                added = []
                ok = True
                for b, r in pairs:
                    if b in vmap:
                        if vmap[b] != r:
                            ok = False
                            break
                    elif r in rused:
                        ok = False
                        break
                    else:
                        vmap[b] = r
                        rused.add(r)
                        added.append((b, r))
                if ok:
                    emap[fi] = eid
                    yield from rec(fi + 1)
                    del emap[fi]
                for b, r in added:
                    del vmap[b]
                    rused.discard(r)

    yield from rec(0)


def _natural_coloring(base: Base, ss: StripStructure, emb) -> ElementColoring:
    """The coloring whose unblanked part is exactly the given embedding."""
    vmap, emap = emb
    rinv = {r: b for b, r in vmap.items()}
    einv = {eid: fi for fi, eid in emap.items()}
    palette = base_palette(base)
    vblock = next(c for c in palette if c[0] != "v")  # blanks a strip-vertex
    eblock = ("v", 0)  # never a legal edge-element color
    colors = {}
    for el in structure_elements(ss):
        tag = el[0]
        if tag == "rv":
            colors[el] = ("v", rinv[el[1]]) if el[1] in rinv else vblock
        elif tag == "spot":
            fi = einv.get(el[1])
            colors[el] = ("spotc", fi) if fi is not None else eblock
        elif tag == "int":
            fi = einv.get(el[1])
            colors[el] = ("intc", fi) if fi is not None else eblock
        else:
            _tag, eid, r = el
            fi = einv.get(eid)
            colors[el] = ("bndc", fi, rinv[r]) if fi is not None else eblock
    return ElementColoring(colors)


def _pipeline(g, h, k, ss, certificates, cfg: _RunConfig, deviations):
    profiles = _strip_profiles(ss)
    elements = structure_elements(ss)
    supply: dict = {}
    for shape in profiles.values():
        supply[shape] = supply.get(shape, 0) + 1
    # a plan never creates more than hk edges, so higher supply is equivalent
    hk = h.h * k
    shapes = tuple(sorted((s, min(c, hk)) for s, c in supply.items()))
    for base in _shaped_bases(h, k, shapes):
        if cfg.mode == "exhaustive":
            colorings = (
                _natural_coloring(base, ss, emb)
                for emb in _embeddings(base, ss, profiles)
            )
        else:
            colorings = coloring_family(
                elements,
                base_palette(base),
                mode="random",
                trials=cfg.trials,
                seed=cfg.seed,
            )
        for f in colorings:
            blanked = blank(f, ss, base)
            if blanked is None:
                continue
            _f2, surj = blanked
            assignments, kp = solve_strip_interiors(
                ss, base, surj, h, certificates, deviations
            )
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
            return _validated(Matching(tuple(pool[:k])), g, h)
    return None


def _require_valid_structure(g, ss) -> None:
    report = validate_strip_structure(g, ss)
    if not report.ok:
        bad = next(c for c in report.all_checks() if not c.ok)
        detail = f": {bad.failures[0]}" if bad.failures else ""
        raise InputError(f"invalid strip-structure ({bad.name}{detail})")
    _strip_profiles(ss)  # rejects strips that are neither spots nor stripes


def _collect(chunks, h, k, cfg, deviations) -> list:
    """Up to k pattern copies gathered chunk by chunk, in host ids.

    ``chunks`` yields (graph, host id map, certificate) triples for pieces
    of the host with no edges between them.  Each chunk is asked for 1, 2,
    ... copies until it fails; its last success is mapped back to the host.
    """
    collected: list = []
    for sub, to_host, cert in chunks:
        found = ()
        for kk in range(1, k - len(collected) + 1):
            m = _route(sub, h, kk, cert, cfg, deviations)
            if m is None:
                break
            found = m.occurrences
        collected.extend(Occurrence(tuple(to_host[v] for v in o.vertices)) for o in found)
        if len(collected) >= k:
            break
    return collected


def _solve_structured(g, h, k, ss, certs, cfg: _RunConfig, deviations):
    """Run the pipeline over an already validated structure.

    Strip-edges without strip-vertices have no boundaries, hence no edges to
    the rest of the host: their bodies are solved first as free-standing
    chunks, and the pipeline covers whatever they leave of k.
    """
    zero = [eid for eid, members in ss.edges if not members]
    chunks = ((ss.strips[e].graph, ss.strips[e].g_map, certs.get(e)) for e in zero)
    collected = _collect(chunks, h, k, cfg, deviations)
    if len(collected) >= k:
        return _validated(Matching(tuple(collected)), g, h)
    rest = [(eid, members) for eid, members in ss.edges if members]
    if not rest:
        return None
    ss2 = StripStructure(
        ss.r_vertices,
        tuple(rest),
        {eid: ss.strips[eid] for eid, _m in rest},
        {eid: ss.z_assign[eid] for eid, _m in rest},
    )
    sub_certs = {eid: c for eid, c in certs.items() if eid in {e for e, _m in rest}}
    m2 = _pipeline(g, h, k - len(collected), ss2, sub_certs, cfg, deviations)
    if m2 is None:
        return None
    return _validated(Matching(tuple(collected + list(m2.occurrences))), g, h)


def _route(g0, h, k0, cert, cfg: _RunConfig, deviations):
    """Solve one chunk: the host, one of its components, or a strip body.

    ``cert`` is what is known about the chunk: nothing (None), a fuzzy arc
    model realizing it, the promise "alpha4", or a validated
    (strip-structure, certificates) pair.  The first step that applies
    decides:

      1. k0 = 0: the empty matching;
      2. fewer vertices than the pattern: no matching;
      3. a fuzzy model: the fuzzy arc solver; "alpha4": bounded search;
      4. independence number (computed once per chunk) at most 4: bounded
         search; k0 above it: no matching;
      5. a supplied structure: the pipeline over it;
      6. several components: each solved on its own, combined additively;
      7. a line graph: the pipeline over its strip-structure;
      8. otherwise exhaustive search, logged to ``deviations``.
    """
    if k0 == 0:
        return Matching(())
    if g0.n < h.h:
        return None
    if isinstance(cert, FuzzyArcModel):
        realized = realize(cert)
        if realized.n != g0.n or realized.edges != g0.edges:
            raise InputError("fuzzy model does not realize the graph it certifies")
        return solve_igm_fuzzy_ca(cert, h, k0)
    if cert == "alpha4":
        return solve_igm_small_alpha(g0, h, k0, trust_alpha=True)
    alpha, _w = brute_force_mis(g0)
    if alpha <= 4:
        return solve_igm_small_alpha(g0, h, k0, trust_alpha=True)
    if k0 > alpha:
        return None
    if cert is None:
        comps = g0.components()
        if len(comps) > 1:
            chunks = ((g0.induced(c), c, None) for c in comps)
            found = _collect(chunks, h, k0, cfg, deviations)
            return Matching(tuple(found)) if len(found) >= k0 else None
        lg = line_graph_strip_structure(g0)
        if lg is None:
            if deviations is not None:
                deviations.append(
                    f"component of {g0.n} vertices solved exhaustively (no structure found)"
                )
            return find_igm(g0, h, k0)
        _require_valid_structure(g0, lg)
        cert = (lg, {})
    ss, certs = cert
    return _solve_structured(g0, h, k0, ss, certs, cfg, deviations)


def solve_igm_claw_free(
    g: Graph,
    h: Pattern,
    k: int,
    ss: StripStructure | None = None,
    certificates=None,
    fuzzy_model: FuzzyArcModel | None = None,
    coloring: str = "exhaustive",
    trials: int | None = None,
    seed: int | None = None,
    deviations: list | None = None,
) -> Matching | None:
    """Find k pairwise disjoint, pairwise non-adjacent induced copies of h.

    A supplied ``ss`` (with optional per-strip ``certificates``) is
    validated up front, so an invalid structure raises on every host.  Then
    the first rule that applies decides: k = 0 gives the empty matching, a
    host smaller than h gives None; a whole-host ``fuzzy_model`` goes to the
    fuzzy arc solver; a host with independence number at most 4 goes to
    bounded search, and k above that number gives None.  Otherwise the
    base-times-coloring pipeline runs over ``ss`` when given; its
    strip-edges without strip-vertices are solved first, each body as a
    host of its own.  Without ``ss``, a disconnected host is split into
    components solved the same way and combined additively, a connected
    line graph uses ``line_graph_strip_structure``, and any other host falls
    back to exhaustive search, logged once to ``deviations``.  Pass
    ``ss=trivial_strip_structure(g)`` to wrap the whole host in one strip.

    Exhaustive coloring mode is exact; random mode (seeded, ``trials`` draws
    per base) never reports false positives but may miss.  Bases are capped
    at ``HK_CAP_DEFAULT`` tokens.  Any matching the pipeline assembles has
    been re-validated against the host.
    """
    if k < 0:
        raise InputError("k must be non-negative")
    if not h.is_connected:
        raise InputError("pattern must be connected")
    if not star_free(g, 3):
        raise InputError("host graph is not claw-free")
    if coloring not in ("exhaustive", "random"):
        raise InputError(f"unknown coloring mode {coloring!r}")
    if coloring == "random" and (trials is None or trials < 0):
        raise InputError("random coloring mode needs a non-negative trial count")
    cert = fuzzy_model
    if ss is not None:
        _require_valid_structure(g, ss)
        certs = _validate_certificates(ss, certificates)
        if cert is None:
            cert = (ss, certs)
    elif certificates:
        raise InputError("certificates need an explicit strip-structure")
    return _route(g, h, k, cert, _RunConfig(coloring, trials, seed), deviations)
