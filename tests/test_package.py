"""Package-wide checks that no single module's tests would catch."""

import ast
import gc
import importlib
import inspect
import pathlib
import pkgutil
import re
import sys

import pytest

import igmatch
from igmatch.color_coding import solve_igm_claw_free
from igmatch.errors import InputError
from igmatch.fuzzy_solver import solve_igm_fuzzy_ca
from igmatch.graphs import (
    Graph,
    Multigraph,
    Pattern,
    brute_force_wis,
    complete_graph,
    cycle_graph,
    disjoint_union,
    find_igm,
    line_graph,
    path_graph,
)
from igmatch.interval_solvers import solve_igm_long_proper_ca, solve_igm_proper_interval
from igmatch.kernel import kernelize
from igmatch.models import (
    Arc,
    ArcModel,
    FuzzyArcModel,
    Interval,
    IntervalModel,
    intersection_kind,
    realize,
    validate_arc_model,
    validate_interval_model,
)
from igmatch.strips import (
    boundary_clique,
    line_graph_strip_structure,
    strip_image,
    trivial_strip_structure,
    validate_strip_structure,
)


def test_every_export_resolves():
    # a deleted function left behind in __all__ only fails on star-import
    checked = 0
    for info in pkgutil.iter_modules(igmatch.__path__):
        module = importlib.import_module(f"igmatch.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"igmatch.{info.name}.__all__ names missing {name!r}"
            checked += 1
    assert checked


def test_the_public_surface_is_pinned():
    # every module says what it exports, and the exports of all of them are
    # this one set, so growing the public surface edits this test
    surface = set()
    for info in pkgutil.iter_modules(igmatch.__path__):
        module = importlib.import_module(f"igmatch.{info.name}")
        assert hasattr(module, "__all__"), f"igmatch.{info.name} has no __all__"
        surface |= {f"{info.name}.{name}" for name in module.__all__}
    assert surface == {
        "color_coding.HK_CAP_DEFAULT", "color_coding.solve_igm_claw_free",
        "errors.InputError", "errors.InternalError", "errors.SizeCapError",
        "fuzzy_solver.solve_igm_fuzzy_ca",
        "graphs.Graph", "graphs.Matching", "graphs.Multigraph", "graphs.Occurrence",
        "graphs.Pattern", "graphs.WIS_CAP_DEFAULT", "graphs.brute_force_wis",
        "graphs.complete_graph", "graphs.cycle_graph", "graphs.disjoint_union",
        "graphs.find_igm", "graphs.line_graph", "graphs.path_graph", "graphs.star_graph",
        "interval_solvers.solve_igm_long_proper_ca",
        "interval_solvers.solve_igm_proper_interval",
        "kernel.WisInstance", "kernel.kernelize",
        "models.Arc", "models.ArcModel", "models.FuzzyArcModel", "models.Interval",
        "models.IntervalModel", "models.ModelReport", "models.intersection_kind",
        "models.realize", "models.validate_arc_model", "models.validate_interval_model",
        "strips.Strip", "strips.StripStructure", "strips.boundary_clique",
        "strips.line_graph_strip_structure", "strips.strip_image",
        "strips.trivial_strip_structure", "strips.validate_strip_structure",
        "trace.note", "trace.recording",
    }


def test_the_settable_surface_is_pinned():
    # the parameters of every exported function and constructor (for a
    # dataclass, its init fields), an optional one marked "=", so adding a
    # knob or a default edits this test, as adding an export edits the one
    # above
    surface = {}
    for info in pkgutil.iter_modules(igmatch.__path__):
        module = importlib.import_module(f"igmatch.{info.name}")
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj):
                continue
            try:
                params = inspect.signature(obj).parameters.values()
            except ValueError:
                continue  # an exception that keeps the built-in constructor
            surface[f"{info.name}.{name}"] = " ".join(
                p.name + ("=" if p.default is not p.empty else "") for p in params)
    assert surface == {
        "color_coding.solve_igm_claw_free": "g h k ss= certificates= coloring= trials= seed=",
        "errors.SizeCapError": "what actual limit",
        "fuzzy_solver.solve_igm_fuzzy_ca": "model h k",
        "graphs.Graph": "n edges=",
        "graphs.Matching": "occurrences",
        "graphs.Multigraph": "n edges=",
        "graphs.Occurrence": "vertices",
        "graphs.Pattern": "graph",
        "graphs.brute_force_wis": "g weights k_card k_weight",
        "graphs.complete_graph": "n",
        "graphs.cycle_graph": "n",
        "graphs.disjoint_union": "a b",
        "graphs.find_igm": "g h k",
        "graphs.line_graph": "m",
        "graphs.path_graph": "n",
        "graphs.star_graph": "leaves",
        "interval_solvers.solve_igm_long_proper_ca": "model h k",
        "interval_solvers.solve_igm_proper_interval": "model h k",
        "kernel.WisInstance": "graph weights k_card k_weight tags cliques",
        "kernel.kernelize": "g h k ss=",
        "models.Arc": "id s t",
        "models.ArcModel": "arcs circumference",
        "models.FuzzyArcModel": "arcs resolutions=",
        "models.Interval": "id l r",
        "models.IntervalModel": "items",
        "models.ModelReport": "proper long",
        "models.intersection_kind": "model i j",
        "models.realize": "model",
        "models.validate_arc_model": "model",
        "models.validate_interval_model": "model",
        "strips.Strip": "graph z g_map",
        "strips.StripStructure": "r_vertices edges strips z_assign",
        "strips.boundary_clique": "ss r",
        "strips.line_graph_strip_structure": "g",
        "strips.strip_image": "ss eid",
        "strips.trivial_strip_structure": "g",
        "strips.validate_strip_structure": "g ss",
        "trace.note": "text",
        "trace.recording": "",
    }


def test_no_module_imports_a_private_name_of_a_sibling():
    # a private helper lives beside its user.  The one exception is
    # graphs._occurrence_masks: perfbench/layers.py wraps it by that name,
    # so it keeps its name while two solver modules share it
    allowed = {("graphs", "_occurrence_masks")}
    found = []
    for info in pkgutil.iter_modules(igmatch.__path__):
        path = pathlib.Path(igmatch.__path__[0]) / f"{info.name}.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                source = node.module or ""
            elif (node.module or "").startswith("igmatch."):
                source = node.module.removeprefix("igmatch.")
            else:
                continue
            found += [
                (info.name, source, a.name)
                for a in node.names
                if a.name.startswith("_") and (source, a.name) not in allowed
            ]
    assert not found, f"private names imported across modules: {found}"


def test_the_oracles_import_only_the_pinned_private_names():
    # tests/oracles.py checks definitions; a copy of the package's own code
    # kept there to pin its output would read the private helpers it was
    # written over.  Only fuzzy_dp_profile imports any: it runs the
    # package's own residual chain.  Pin an output by digest instead
    # (tests/pinned.py)
    tree = ast.parse((pathlib.Path(__file__).parent / "oracles.py").read_text())
    found = {(node.module, a.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("igmatch")
             for a in node.names if a.name.startswith("_")}
    assert found == {("igmatch.fuzzy_solver", "_ChainTable"),
                     ("igmatch.fuzzy_solver", "_residual_chain")}


def test_only_graphs_touches_a_graphs_masks():
    # a Graph stores its adjacency masks only, so whatever reads or writes
    # them decides the representation: graphs.py alone reads _nbr, the
    # kernel's encoding alone hands it masks, and realize and the claw-free
    # solver's token and base graphs alone hand it pairs
    allowed = {"_nbr": set(), "_from_masks": {("kernel", "build_wis_instance")},
               "_from_pairs": {("models", "realize"), ("color_coding", "_token_placements"),
                               ("color_coding", "_embeddings")}}
    found, used = [], set()

    def visit(node, module, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and func is None:
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr in allowed:
                if (module, func) in allowed[child.attr]:
                    used.add((child.attr, module, func))
                else:
                    found.append((child.attr, module, func))
            visit(child, module, func)

    for info in pkgutil.iter_modules(igmatch.__path__):
        if info.name != "graphs":
            path = pathlib.Path(igmatch.__path__[0]) / f"{info.name}.py"
            visit(ast.parse(path.read_text()), info.name, None)
    assert not found, f"mask access outside graphs.py: {found}"
    assert used == {("_from_masks", "kernel", "build_wis_instance"),
                    ("_from_pairs", "models", "realize"),
                    ("_from_pairs", "color_coding", "_token_placements"),
                    ("_from_pairs", "color_coding", "_embeddings")}


def test_no_module_imports_a_name_it_never_uses():
    # an import a refactor leaves behind still runs and still ties the module
    # to the name; a name counts as used when the module reads it or lists it
    # in __all__
    found = []
    for path in sorted(pathlib.Path(igmatch.__path__[0]).glob("*.py")):
        tree = ast.parse(path.read_text())
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        found += [(path.name, name) for name in sorted(imported - used)]
    assert not found, f"imported names never used: {found}"


def test_every_import_is_the_standard_library_or_igmatch():
    # igmatch has no runtime dependencies; a stray third-party import would
    # pass wherever that package happens to be installed
    allowed = set(sys.stdlib_module_names) | {"igmatch"}
    found = []
    for path in sorted(pathlib.Path(igmatch.__path__[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [(path.name, n) for n in names if n.split(".")[0] not in allowed]
    assert not found, f"imports outside the standard library: {found}"


def _sunlet_line_graph():
    # the line graph of a 5-cycle with a pendant edge at each vertex: claw-free,
    # independence number 5, so both claw-free paths reach the strip structure
    return line_graph(Multigraph(10, [(i, (i + 1) % 5) for i in range(5)]
                                 + [(i, 5 + i) for i in range(5)]))


def _fuzzy_touching_arcs():
    # arcs of one length, each touching the next in a single point, resolved
    # alternately as edge and non-edge
    arcs = ArcModel([Arc(i, 3 * i, 3 * i + 3) for i in range(7)], 24)
    single = [(i, j) for i in range(7) for j in range(i + 1, 7)
              if intersection_kind(arcs, i, j) == "single-point"]
    return FuzzyArcModel(arcs, {pair: n % 2 == 0 for n, pair in enumerate(single)})


def test_solves_leave_no_cyclic_garbage():
    # a recursive search written as a nested function names itself through
    # its closure cell, so every call would leave a cycle for the collector;
    # with the collector off, a warm solve through each entry frees all it
    # made by reference counts alone
    k2, k3, p3 = (Pattern.of(g) for g in (complete_graph(2), complete_graph(3), path_graph(3)))
    two_k2 = Pattern.of(disjoint_union(k2.graph, k2.graph))
    lg = _sunlet_line_graph()
    long_arcs = ArcModel([Arc(i, 2 * i, (2 * i + 3) % 24) for i in range(12)], 24)
    fuzzy = _fuzzy_touching_arcs()

    def wis(g, h, k):
        inst = kernelize(g, h, k)
        return brute_force_wis(inst.graph, inst.weights, inst.k_card, inst.k_weight)

    solves = [
        lambda: solve_igm_claw_free(lg, k2, 2),
        lambda: solve_igm_claw_free(lg, p3, 1),
        lambda: wis(lg, k2, 3),
        lambda: wis(lg, k3, 2),
        lambda: solve_igm_long_proper_ca(long_arcs, p3, 3),
        lambda: solve_igm_long_proper_ca(long_arcs, p3, 1),
        lambda: find_igm(realize(long_arcs), two_k2, 2),
        lambda: solve_igm_fuzzy_ca(fuzzy, p3, 2),
    ]
    gc.collect()
    gc.disable()
    try:
        # the first pass also builds the base streams, unless an earlier
        # test has cached them; the second is warm
        for run in range(2):
            for i, solve in enumerate(solves):
                solve()
                assert gc.collect() == 0, (run, i)
    finally:
        gc.enable()


def test_every_entry_rejects_a_k_that_is_not_an_integer():
    # a float, a bool or a string k is refused at entry, not answered as if
    # it were a count nor failed on deep inside a search
    k2, p3 = Pattern.of(complete_graph(2)), Pattern.of(path_graph(3))
    g = cycle_graph(12)
    intervals = IntervalModel([Interval(i, 2 * i, 2 * i + 3) for i in range(8)])
    long_arcs = ArcModel([Arc(i, 2 * i, (2 * i + 3) % 24) for i in range(12)], 24)
    entries = [
        lambda k: solve_igm_claw_free(g, k2, k),
        lambda k: kernelize(g, k2, k),
        lambda k: solve_igm_proper_interval(intervals, p3, k),
        lambda k: solve_igm_long_proper_ca(long_arcs, p3, k),
        lambda k: solve_igm_fuzzy_ca(_fuzzy_touching_arcs(), k2, k),
        lambda k: find_igm(g, k2, k),
    ]
    for entry in entries:
        assert entry(2) is not None
        for k in (1.5, 2.0, "2", True, False):
            with pytest.raises(InputError, match="k must be a nonnegative integer"):
                entry(k)


def test_every_model_entry_rejects_a_model_of_the_wrong_type():
    # the fuzzy solver answered k = 1 on a plain arc or interval model and
    # raised AttributeError at k = 2; the other entries and FuzzyArcModel
    # raised AttributeError or TypeError from inside
    k2 = Pattern.of(complete_graph(2))
    intervals = IntervalModel([Interval(i, 2 * i, 2 * i + 3) for i in range(8)])
    long_arcs = ArcModel([Arc(i, 2 * i, (2 * i + 3) % 24) for i in range(12)], 24)
    fuzzy = _fuzzy_touching_arcs()
    entries = [
        ("IntervalModel", lambda m: solve_igm_proper_interval(m, k2, 1), (long_arcs, fuzzy)),
        ("IntervalModel", validate_interval_model, (long_arcs, fuzzy)),
        ("ArcModel", lambda m: solve_igm_long_proper_ca(m, k2, 1), (intervals, fuzzy)),
        ("ArcModel", validate_arc_model, (intervals, fuzzy)),
        ("ArcModel", lambda m: FuzzyArcModel(m, {}), (intervals, fuzzy)),
        ("FuzzyArcModel", lambda m: solve_igm_fuzzy_ca(m, k2, 1), (intervals, long_arcs)),
        ("FuzzyArcModel", lambda m: solve_igm_fuzzy_ca(m, k2, 2), (intervals, long_arcs)),
    ]
    for name, entry, wrong in entries:
        for model in wrong + (None, "model"):
            with pytest.raises(InputError, match=rf"an? {name}, got {type(model).__name__}"):
                entry(model)
    for resolutions, taken in (({0: True}, r"\(i, j\) pair"), ({(0, 1.0): True}, r"\(i, j\) pair"),
                               ({(0, True): True}, r"\(i, j\) pair"), ([((0, 1), True)], "dict")):
        with pytest.raises(InputError, match=taken):
            FuzzyArcModel(fuzzy.arcs, resolutions)
    assert solve_igm_fuzzy_ca(fuzzy, k2, 2) is not None


def test_every_entry_rejects_an_argument_of_the_wrong_type():
    # a Graph passed as the pattern, a host that is no Graph or a structure
    # that is no StripStructure raised AttributeError from inside, and so did
    # line_graph, disjoint_union, strip_image, boundary_clique and
    # intersection_kind on an argument of the wrong type; random
    # mode took a float or bool trial count and a list seed to the middle of
    # the search, or ran True as one trial
    k2, g = Pattern.of(complete_graph(2)), cycle_graph(12)
    intervals = IntervalModel([Interval(i, 2 * i, 2 * i + 3) for i in range(8)])
    long_arcs = ArcModel([Arc(i, 2 * i, (2 * i + 3) % 24) for i in range(12)], 24)
    ss = line_graph_strip_structure(g)
    wrong_values = {"a Graph": (k2, [1], None), "a Pattern": (complete_graph(2), "x"),
                    "a StripStructure": ("x", g), "a Multigraph": ("x", g),
                    "an ArcModel": ("x", intervals)}
    entries = [
        ("a Graph", lambda x: solve_igm_claw_free(x, k2, 2)),
        ("a Pattern", lambda x: solve_igm_claw_free(g, x, 2)),
        ("a StripStructure", lambda x: solve_igm_claw_free(g, k2, 2, ss=x)),
        ("a Graph", lambda x: kernelize(x, k2, 2)),
        ("a Pattern", lambda x: kernelize(g, x, 2)),
        ("a StripStructure", lambda x: kernelize(g, k2, 2, ss=x)),
        ("a Graph", lambda x: find_igm(x, k2, 2)),
        ("a Pattern", lambda x: find_igm(g, x, 2)),
        ("a Pattern", lambda x: solve_igm_proper_interval(intervals, x, 2)),
        ("a Pattern", lambda x: solve_igm_long_proper_ca(long_arcs, x, 2)),
        ("a Pattern", lambda x: solve_igm_fuzzy_ca(_fuzzy_touching_arcs(), x, 2)),
        ("a Graph", lambda x: brute_force_wis(x, [], 1, 0)),
        ("a Graph", lambda x: validate_strip_structure(x, ss)),
        ("a StripStructure", lambda x: validate_strip_structure(g, x)),
        ("a Graph", trivial_strip_structure),
        ("a Graph", line_graph_strip_structure),
        ("a Graph", Pattern),
        ("a Multigraph", line_graph),
        ("a Graph", lambda x: disjoint_union(x, g)),
        ("a Graph", lambda x: disjoint_union(g, x)),
        ("a StripStructure", lambda x: strip_image(x, 0)),
        ("a StripStructure", lambda x: boundary_clique(x, 0)),
        ("an ArcModel", lambda x: intersection_kind(x, 0, 1)),
    ]
    for name, entry in entries:
        for wrong in wrong_values[name]:
            with pytest.raises(InputError, match=rf"expected {name}, got {type(wrong).__name__}"):
                entry(wrong)
    for trials in ("5", 2.5, True, None, -1):
        with pytest.raises(InputError, match=rf"non-negative trial count, an int, got {trials!r}"):
            solve_igm_claw_free(g, k2, 2, coloring="random", trials=trials)
    for seed in ([1], 1.0, True, "1"):
        with pytest.raises(InputError, match=rf"an int or None seed, got {re.escape(repr(seed))}"):
            solve_igm_claw_free(g, k2, 2, coloring="random", trials=5, seed=seed)
    for seed in (None, 7):  # accepted, whatever the draws find
        solve_igm_claw_free(g, k2, 2, ss=ss, coloring="random", trials=3, seed=seed)


def test_every_entry_that_refuses_a_disconnected_pattern_names_find_igm():
    # the paper gives a disconnected pattern no algorithm of its own; the
    # exact search over every occurrence answers it, so the refusal says where
    two_k2 = Pattern.of(disjoint_union(complete_graph(2), complete_graph(2)))
    intervals = IntervalModel([Interval(i, 2 * i, 2 * i + 3) for i in range(8)])
    long_arcs = ArcModel([Arc(i, 2 * i, (2 * i + 3) % 24) for i in range(12)], 24)
    entries = [
        lambda: solve_igm_claw_free(cycle_graph(12), two_k2, 1),
        lambda: solve_igm_proper_interval(intervals, two_k2, 1),
        lambda: solve_igm_long_proper_ca(long_arcs, two_k2, 1),
    ]
    for entry in entries:
        with pytest.raises(InputError, match="graphs.find_igm answers a disconnected one"):
            entry()
    assert find_igm(realize(long_arcs), two_k2, 2) is not None
