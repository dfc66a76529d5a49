"""The names the benchmark tracer (perfbench/layers.py) needs from the package.

The tracer patches every binding in its ``WRAPPED`` table, replays the
``STAGE_FUNCTIONS`` of ``_linalg`` and reads ``A``, ``B`` and ``count`` from
the arguments of ``solve_pencil``.  A refactor that drops one of them
breaks only a traced benchmark run; these checks catch it in milliseconds.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import capspectra
from capspectra import _linalg, eigensolve

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_binding_resolves():
    layers = _layers()
    for module, attr in layers.WRAPPED:
        importlib.import_module(f"capspectra.{module}")
        assert hasattr(getattr(capspectra, module), attr), f"capspectra.{module}.{attr}"


def test_every_replayed_stage_is_in_linalg():
    layers = _layers()
    missing = [name for name in layers.STAGE_FUNCTIONS if not hasattr(_linalg, name)]
    assert not missing


def test_solve_pencil_binds_the_arguments_the_tracer_reads():
    A = B = np.eye(4)
    for args, kwargs in [((A, B), {"count": 1}), ((A, B, 1), {})]:
        bound = inspect.signature(eigensolve.solve_pencil).bind(*args, **kwargs).arguments
        assert {"A", "B", "count"} <= bound.keys()
