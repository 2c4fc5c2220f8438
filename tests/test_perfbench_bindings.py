"""The benchmark's tracer finds every function it wraps.

``perfbench/traced.py`` wraps each ``(module, name)`` pair of its
``BINDINGS`` list with ``getattr``, so renaming or dropping one of those
names breaks traced benchmark runs long before anything else notices.
"""

import importlib.util
import inspect
import pathlib

TRACED = pathlib.Path(__file__).parents[1] / "perfbench" / "traced.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    traced = load_traced()
    assert traced.BINDINGS
    for module, attr, _ in traced.BINDINGS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_csv_writers_take_the_trace_first():
    traced = load_traced()
    for module, attr, _ in traced.BINDINGS:
        if attr in ("_trace_csv", "_full_circle_csv"):
            assert list(inspect.signature(getattr(module, attr)).parameters) == ["trace"]
