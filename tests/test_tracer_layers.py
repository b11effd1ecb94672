"""Every function the benchmark's tracer wraps still exists.

``bench/tracer.py`` reads each target of its ``LAYERS`` table as
``owner.__dict__[attr]``, so a deleted or renamed target makes
``bench/run.py --trace 1`` fail with a KeyError.  The tracer is loaded by
path and left as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


TARGETS = [(module, path) for targets in _layers().values() for module, path in targets]


@pytest.mark.parametrize("module_name, path", TARGETS, ids=[f"{m}:{p}" for m, p in TARGETS])
def test_layer_target_resolves_as_the_tracer_reads_it(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(owner.__dict__[attr])
