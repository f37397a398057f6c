import importlib
import pkgutil

import ordkit


def test_every_export_resolves():
    """Each name in the package's ``__all__`` and in each module's resolves,
    so a deleted name cannot stay exported."""
    modules = [ordkit] + [
        importlib.import_module(f"ordkit.{info.name}")
        for info in pkgutil.iter_modules(ordkit.__path__)
    ]
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 1 and stale == []
