"""The perfbench tracer patches polar-kit functions by (module, attribute) name.

A rename in ``src/`` that drops one of those names breaks ``perfbench/run.py
--trace 1``; this check makes such a rename fail here too.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_exists_and_is_callable():
    patches = load_tracer().Tracer(None)._patches()
    assert patches
    for module, attr, _ in patches:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
