"""Every name a spofdm module exports through ``__all__`` exists."""

import importlib
import pkgutil

import spofdm


def test_all_names_resolve():
    missing = []
    for info in pkgutil.iter_modules(spofdm.__path__):
        module = importlib.import_module(f"spofdm.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []
