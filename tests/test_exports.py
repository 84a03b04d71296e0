"""Package namespace: every advertised name exists."""

import importlib
import pkgutil

import heisgeo


def test_all_names_exist_on_their_modules():
    # a stale __all__ entry otherwise only surfaces on `from heisgeo.x import *`
    for info in pkgutil.iter_modules(heisgeo.__path__):
        module = importlib.import_module(f"heisgeo.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
