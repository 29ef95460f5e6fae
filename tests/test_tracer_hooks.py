"""The perfbench tracer patches polar-kit functions by (module, attribute) name.

A rename in ``src/`` that drops one of those names breaks ``perfbench/run.py
--trace 1``; this check makes such a rename fail here too.
"""

import perfbench_files


def test_every_traced_name_exists_and_is_callable():
    patches = perfbench_files.load("tracer").Tracer(None)._patches()
    assert patches
    for module, attr, _ in patches:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
