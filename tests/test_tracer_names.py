"""Every library name that the benchmark's layer tracer (perfbench/layers.py)
wraps exists, so that renaming or deleting one fails here rather than in a
traced benchmark round."""

import importlib
import importlib.util
from pathlib import Path

from epidiff.outer import OuterFunction  # the package defines every catalog member

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_traced_function_and_method_resolves():
    layers = _layers()
    for span, (module, name) in layers.FUNCTIONS.items():
        assert callable(getattr(importlib.import_module(module), name, None)), span
    for span, (module, cls, name) in layers.METHODS.items():
        owner = getattr(importlib.import_module(module), cls, None)
        assert callable(getattr(owner, name, None)), span


def test_every_traced_catalog_method_is_defined_on_a_member():
    classes = [OuterFunction, *_subclasses(OuterFunction)]
    for name, span in _layers().OUTER_METHODS.items():
        assert any(name in vars(cls) for cls in classes), span
