"""Package-wide checks that no single module's tests would catch."""

import ast
import importlib
import pathlib
import pkgutil
import sys

import igmatch


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
        "fuzzy_solver.ALPHA_BOUND", "fuzzy_solver.solve_igm_fuzzy_ca",
        "fuzzy_solver.solve_igm_small_alpha",
        "graphs.Graph", "graphs.Matching", "graphs.Multigraph", "graphs.Occurrence",
        "graphs.Pattern", "graphs.WIS_CAP_DEFAULT", "graphs.brute_force_wis",
        "graphs.complete_graph", "graphs.cycle_graph", "graphs.disjoint_union",
        "graphs.line_graph", "graphs.path_graph", "graphs.star_graph",
        "interval_solvers.solve_igm_long_proper_ca",
        "interval_solvers.solve_igm_proper_ca_disconnected",
        "interval_solvers.solve_igm_proper_interval",
        "kernel.WisInstance", "kernel.kernelize",
        "models.Arc", "models.ArcModel", "models.FuzzyArcModel", "models.Interval",
        "models.IntervalModel", "models.ModelReport", "models.intersection_kind",
        "models.realize", "models.validate_arc_model", "models.validate_interval_model",
        "strips.AxiomCheck", "strips.Strip", "strips.StripStructure",
        "strips.StructureReport", "strips.boundary_clique",
        "strips.line_graph_strip_structure", "strips.strip_image",
        "strips.trivial_strip_structure", "strips.validate_strip_structure",
        "trace.note", "trace.recording",
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
