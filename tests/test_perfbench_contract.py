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


def test_the_tracer_replays_and_reads_a_dense_sector_pencil():
    # solve_pencil must keep taking the dense A and B: the tracer replays
    # the dense chain on them and reads the pencil's size from A
    layers = _layers()
    domain = capspectra.make_cap("spherical", 3, 1.0)
    pencil = capspectra.assemble_sector_forms(domain, 1, capspectra.build_mesh(domain, 8))
    n = pencil.A.shape[0]
    stages = layers.replay_stages(_linalg, (n, pencil.A, pencil.B, 2))
    assert stages is not None and set(stages) == {f"linalg.stage.{stage}_s" for stage in layers.STAGES}
    bound = inspect.signature(eigensolve.solve_pencil).bind(pencil.A, pencil.B, count=2).arguments
    assert layers._pencil_attrs(bound, None) == {"dim": n, "vectors": 2}
