"""Make the src layout importable when the package is not installed."""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

src = Path(__file__).parent / "src"
if str(src) not in sys.path:
    sys.path.insert(0, str(src))


@pytest.fixture
def structural_caches():
    """Every cache a clustercap module defines, as {"module.function": f}:
    the functions of its own that expose `cache_clear`."""
    import clustercap

    caches = {}
    for info in pkgutil.iter_modules(clustercap.__path__):
        module = importlib.import_module(f"clustercap.{info.name}")
        for attr, value in vars(module).items():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == module.__name__:
                caches[f"{info.name}.{attr}"] = value
    return caches
