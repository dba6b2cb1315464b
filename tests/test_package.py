"""Package-wide checks that no single module's tests would catch."""

import importlib
import pkgutil

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
