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
