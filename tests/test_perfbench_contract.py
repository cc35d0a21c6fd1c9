"""The package names that the perfbench span tracer patches must exist.

``perfbench/spans.py`` wraps package functions by (module, attribute) at
run time, and the perfbench worker records ``sphdwi.default_backend()``.
Deleting or renaming one of those names breaks every traced benchmark run
without failing any other test here. perfbench is not an installed package,
so its module is loaded by path.
"""

import importlib
import importlib.util
import os

import sphdwi

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = _load_spans().TARGETS
    assert targets
    missing = [
        f"{mod}.{attr}" for mod, attr, *_ in targets
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert missing == []


def test_worker_records_default_backend():
    assert sphdwi.default_backend() == "numpy"
