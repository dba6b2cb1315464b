"""The benchmark's workloads: seeded case lists over the public entry points.

A case is one call of a public solver on a generated instance, plus the
check of its result against an answer computed by ``oracle`` (or a closed
form).  Every call uses only the core signatures: no ``deviations=``, no
``threads=``, no ``brute_force_igm``, no unrestricted ``enumerate_bases``.
"""

import itertools

import gen
import oracle
from igmatch.color_coding import solve_igm_claw_free
from igmatch.fuzzy_solver import solve_igm_fuzzy_ca
from igmatch.graphs import Pattern, brute_force_wis, complete_graph, line_graph, path_graph
from igmatch.interval_solvers import solve_igm_long_proper_ca, solve_igm_proper_interval
from igmatch.kernel import kernelize
from igmatch.models import realize

K2 = Pattern.of(complete_graph(2))
P3 = Pattern.of(path_graph(3))
K3 = Pattern.of(complete_graph(3))


def _name(h):
    return "K2" if h.h == 2 else ("K3" if h.is_complete else "P3")


class WrongAnswer(Exception):
    """A solver returned a wrong answer or an invalid witness."""


class Case:
    """One solve: ``solve(probe)`` runs it, ``check(result)`` raises
    WrongAnswer unless the result agrees with ``expected``."""

    def __init__(self, label, solve, check, expected):
        self.label = label
        self.solve = solve
        self.check = check
        self.expected = expected


def _edges(h):
    return len(h.graph.edges)


def _matching_check(label, g, h, k, expected, may_miss=False):
    """Yes/no must equal ``expected``; a witness must be a valid size-k
    matching.  With ``may_miss`` (random coloring) None is allowed on a
    yes-instance, but a witness on a no-instance never is."""

    def check(result):
        if result is None:
            if expected and not may_miss:
                raise WrongAnswer(f"{label}: answered no, expected yes")
            return
        if not expected:
            raise WrongAnswer(f"{label}: returned a matching on a no-instance")
        if result.size() != k:
            raise WrongAnswer(f"{label}: matching of size {result.size()}, asked for {k}")
        try:
            result.check(g, h)
        except Exception as exc:  # any complaint from the validator is a wrong witness
            raise WrongAnswer(f"{label}: invalid matching: {exc}") from exc

    return check


def _claw_case(label, g, h, k, expected, **kwargs):
    def solve(probe):
        return solve_igm_claw_free(g, h, k, **kwargs)

    return Case(label, solve, _matching_check(label, g, h, k, expected,
                                              may_miss="trials" in kwargs), expected)


# ---------------------------------------------------------------------------
# clawfree

CLAW_HOSTS = 20
CLAW_PREIMAGE_N, CLAW_CHORDS = 11, 2
CLAW_PATTERNS = ((K2, 2), (K2, 3), (P3, 2), (K3, 2))
CLAW_TRIALS = 20


def clawfree(rng):
    """Line graphs of cyclic preimages (independence number >= 5, spots
    only), four pattern/k pairs each plus one random-coloring solve, and four
    31-40-vertex path or tree line graphs above the brute-force MIS cap.

    A quarter of the cyclic hosts have two induced K3 copies and the rest do
    not, so every seed has the same mix of yes- and no-instances, and the K3
    no-instances, the slowest family, hold p90 inside one family."""
    cases = []
    want = {True: CLAW_HOSTS // 4, False: CLAW_HOSTS - CLAW_HOSTS // 4}
    while want[True] or want[False]:
        g = line_graph(gen.cyclic_preimage(rng, CLAW_PREIMAGE_N, CLAW_CHORDS))
        k3_yes = oracle.graph_optimum(g, 3, 3, 2) >= 2
        if not want[k3_yes]:
            continue
        want[k3_yes] -= 1
        for h, k in CLAW_PATTERNS:
            expected = oracle.graph_optimum(g, h.h, _edges(h), k) >= k
            cases.append(_claw_case(f"cyclic-{_name(h)}-k{k}", g, h, k, expected))
        expected = oracle.graph_optimum(g, 2, 1, 2) >= 2
        cases.append(_claw_case("cyclic-K2-k2-random", g, K2, 2, expected,
                                coloring="random", trials=CLAW_TRIALS,
                                seed=rng.randrange(2 ** 31)))
    for i in range(4):
        n = rng.randint(31, 40)
        if i % 2 == 0:
            g = line_graph(gen.path_preimage(rng, n))
            expected = 3 <= (n + 1) // 3  # path on n vertices: floor((n+1)/3) K2s
            label = "path-K2-k3"
        else:
            g = line_graph(gen.tree_preimage(rng, n))
            expected = oracle.graph_optimum(g, 2, 1, 3) >= 3
            label = "tree-K2-k3"
        cases.append(_claw_case(label, g, K2, 3, expected))
    return cases


# ---------------------------------------------------------------------------
# kernel

def _sunlet(r):
    """Cycle C_r with a pendant edge at every cycle vertex."""
    return 2 * r, [(i, (i + 1) % r) for i in range(r)] + [(i, r + i) for i in range(r)]


def _bundle(r, b):
    """Sunlet with b extra parallel copies of one cycle edge."""
    nv, edges = _sunlet(r)
    return nv, edges + [(0, 1)] * b


def _spider(d):
    """Hub joined to d legs of two edges each."""
    edges = []
    for i in range(d):
        edges += [(0, 1 + 2 * i), (1 + 2 * i, 2 + 2 * i)]
    return 1 + 2 * d, edges


def _kernel_case(label, g, h, k, expected):
    def solve(probe):
        inst = kernelize(g, h, k)
        probe.add("kernel.wis.vertices", inst.graph.n)
        probe.add("kernel.wis.edges", len(inst.graph.edges))
        ok, witness = probe.span("kernel.wis_solve", brute_force_wis, inst.graph,
                                 inst.weights, inst.k_card, inst.k_weight)
        return inst, ok, witness

    def check(result):
        inst, ok, witness = result
        if ok != expected:
            raise WrongAnswer(f"{label}: WIS answered {ok}, expected {expected}")
        if ok:
            chosen = set(witness)
            if any(inst.graph.has_edge(a, b) for a, b in itertools.combinations(chosen, 2)):
                raise WrongAnswer(f"{label}: WIS witness is not independent")
            if len(chosen) < inst.k_card or sum(inst.weights[v] for v in chosen) < inst.k_weight:
                raise WrongAnswer(f"{label}: WIS witness misses the demanded size or weight")

    return Case(label, solve, check, expected)


KERNEL_ROUNDS = 30
BUNDLE_NO_EVERY = 4


def kernel(rng):
    """kernelize (line-graph provider) then brute_force_wis, for K2 and K3 at
    and just past the optimum.  Preimages are relabelled sunlets (the bounded
    structure is encoded), sunlets with a bundle of parallel edges (the
    reduction step fires) and spiders (the dis-degree rule fires).  Only
    relabelling changes between seeds, which keeps the work steady.

    Rounds alternate K2 and K3 on the sunlet.  About 80% of the solves
    settle in bounding within a millisecond, so p50 sits well inside that
    family; the encoded sunlet no-instances hold p90.  The bundle
    no-instance, the slowest, runs every BUNDLE_NO_EVERY rounds."""
    cases = []
    for rnd in range(KERNEL_ROUNDS):
        bundle_ks = ("opt", "opt+1") if rnd % BUNDLE_NO_EVERY == 0 else ("opt",)
        for name, (nv, edges), pats, ks in (
            ("sunlet", _sunlet(5), (K2 if rnd % 2 == 0 else K3,), ("opt", "opt+1")),
            ("bundle", _bundle(5, 5), (K2,), bundle_ks),
            ("spider", _spider(rng.randint(6, 7)), (K2,), ("opt", "opt+1")),
        ):
            g = line_graph(gen.relabel(rng, nv, edges))
            for h in pats:
                opt = oracle.graph_optimum(g, h.h, _edges(h), 8)
                for kname in ks:
                    k = opt if kname == "opt" else opt + 1
                    cases.append(_kernel_case(f"{name}-{_name(h)}-k{kname}", g, h, k, k <= opt))
    return cases


# ---------------------------------------------------------------------------
# arcs

ARC_ROUNDS = 12
INTERVAL_N = 48
LONG_ARC_N = 20
FUZZY_N, FUZZY_GRID = 20, 12


def _model_case(label, solver, model, g, h, k, opt):
    def solve(probe):
        return solver(model, h, k)

    return Case(label, solve, _matching_check(label, g, h, k, k <= opt), k <= opt)


def _yes_no(label, solver, model, h, opt):
    """The optimum (yes) and one past it (no)."""
    g = realize(model)
    return [_model_case(label, solver, model, g, h, k, opt) for k in (max(opt, 1), opt + 1)]


def arcs(rng):
    """Proper interval, long proper arc and fuzzy arc models with K2 and P3
    at the optimum (yes) and one past it (no).  Each round has two long-arc
    P3 models, the slowest family, so that p90 falls inside it."""
    cases = []
    for _ in range(ARC_ROUNDS):
        for h in (K2, P3):
            pi = gen.proper_interval_model(rng, INTERVAL_N)
            cases += _yes_no(f"interval-{_name(h)}", solve_igm_proper_interval, pi, h,
                             oracle.interval_optimum(pi, h.h, _edges(h)))
            for _ in range(2 if h is P3 else 1):
                la = gen.long_proper_arc_model(rng, LONG_ARC_N)
                cases += _yes_no(f"long-arc-{_name(h)}", solve_igm_long_proper_ca, la, h,
                                 oracle.arc_optimum(la, h.h, _edges(h)))
            fz = gen.fuzzy_arc_model(rng, FUZZY_N, FUZZY_GRID)
            opt = oracle.graph_optimum(oracle.fuzzy_adjacency(fz), h.h, _edges(h), FUZZY_N)
            cases += _yes_no(f"fuzzy-{_name(h)}", solve_igm_fuzzy_ca, fz, h, opt)
    return cases


WORKLOADS = {"clawfree": clawfree, "kernel": kernel, "arcs": arcs}
