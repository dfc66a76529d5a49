"""Spans around the calls into capspectra's layers, and the per-layer metrics.

The tracer wraps public functions at the names their callers bind, so no
code inside the package changes:

* ``eigensolve.{assemble_sector_forms, solve_pencil, solve_sector,
  assemble_spectrum}``, used by ``solve_sector`` and ``solve_spectrum``;
* ``prooflab.{solve_sector, assemble_spectrum, RadialEigenfunction,
  ground_state}``, used by ``ground_state`` and ``run_identity_suite``;
* ``cli.{main, solve_spectrum, bound_report, run_identity_suite}``;
* ``bounds.wang_xia_implied_gap``, which ``bound_report`` calls and
  ``cli.cmd_sweep`` imports at call time.

Each call records a span (name, start, end, parent, op id); spans stay in
memory until the run writes them out. Self times come from the spans: a
span's duration minus that of its direct children.

The dense-chain stages are not wrapped, because they run inside
``solve_pencil``. They are replayed one by one on the largest pencil a
traced pass met, through ``_linalg``'s public functions. When those
functions are gone (a solver that replaces the chain), the stage metrics
are reported as absent.
"""

from __future__ import annotations

import inspect
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: (module, attribute) binding -> span name
WRAPPED = {
    ("eigensolve", "assemble_sector_forms"): "fem.assemble_sector_forms",
    ("eigensolve", "solve_pencil"): "linalg.solve_pencil",
    ("eigensolve", "solve_sector"): "eigensolve.solve_sector",
    ("eigensolve", "assemble_spectrum"): "eigensolve.assemble_spectrum",
    ("prooflab", "solve_sector"): "eigensolve.solve_sector",
    ("prooflab", "assemble_spectrum"): "eigensolve.assemble_spectrum",
    ("prooflab", "RadialEigenfunction"): "prooflab.RadialEigenfunction",
    ("prooflab", "ground_state"): "prooflab.ground_state",
    ("cli", "main"): "cli.main",
    ("cli", "solve_spectrum"): "eigensolve.solve_spectrum",
    ("cli", "bound_report"): "bounds.bound_report",
    ("cli", "run_identity_suite"): "prooflab.run_identity_suite",
    ("bounds", "wang_xia_implied_gap"): "bounds.wang_xia_implied_gap",
}

#: the dense chain in solve_pencil, stage by stage
STAGE_FUNCTIONS = (
    "cholesky_lower",
    "reduce_to_standard",
    "householder_tridiagonalize",
    "tridiagonal_eigenvalues",
    "tridiagonal_eigenvector",
    "apply_reflectors",
    "solve_upper_triangular",
)
STAGES = ("cholesky", "reduce", "tridiag", "ql", "vectors")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op, self.attrs = parent, op, {}

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, **self.attrs}


def _pencil_attrs(args, result):
    A = args["A"]
    return {"dim": int(A.shape[0]), "vectors": int(args.get("count", 0))}


def _assemble_attrs(args, result):
    return {"bytes": int(result.A.nbytes + result.B.nbytes)}


def _spectrum_attrs(args, result):
    sectors = args["sector_results"]
    return {
        "sectors_in": len(sectors),
        "sectors_out": len({e.l for e in result.entries}),
        "pairs_in": sum(len(pairs) for pairs in sectors.values()),
        "pairs_out": sum(1 for e in result.entries if e.copy_index == 1),
    }


ATTRS = {
    "linalg.solve_pencil": _pencil_attrs,
    "fem.assemble_sector_forms": _assemble_attrs,
    "eigensolve.assemble_spectrum": _spectrum_attrs,
}


class Tracer:
    """Records spans while installed; keeps the largest pencil for the replay."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = None
        self.largest = None  # (N, A, B, count) of the largest solve_pencil call

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), parent, self.op)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        attrs = ATTRS.get(name)

        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if attrs is not None:
                bound = signature.bind(*args, **kwargs).arguments
                # A later package version may change what these calls take
                # or return; the span then carries no counts, and the
                # metrics built from them read 0, instead of the run failing.
                try:
                    record.attrs = attrs(bound, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    pass
                if name == "linalg.solve_pencil" and record.attrs:
                    self._keep_largest(bound, record.attrs["dim"])
            return result

        return wrapper

    def _keep_largest(self, args, dim):
        if self.largest is None or dim > self.largest[0]:
            self.largest = (dim, args["A"], args["B"], int(args.get("count", 0)))

    @contextmanager
    def installed(self, cs):
        """Wrap every binding in WRAPPED; restore the originals on exit."""
        saved = []
        wrappers = {}
        try:
            for (module, attr), name in WRAPPED.items():
                mod = getattr(cs, module)
                original = getattr(mod, attr)
                if original not in wrappers:
                    wrappers[original] = self._wrap(name, original)
                saved.append((mod, attr, original))
                setattr(mod, attr, wrappers[original])
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer totals of one traced pass."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start

    def dur(name):
        return sum((s.end - s.start for s in spans if s.name == name), 0.0)

    def self_time(name):
        return sum((s.end - s.start - child_time[i] for i, s in enumerate(spans) if s.name == name), 0.0)

    def of(name):
        return [s for s in spans if s.name == name]

    def under(span, name):
        while span.parent is not None:
            span = spans[span.parent]
            if span.name == name:
                return True
        return False

    pencils, forms, merges = of("linalg.solve_pencil"), of("fem.assemble_sector_forms"), of(
        "eigensolve.assemble_spectrum")
    sectors = of("eigensolve.solve_sector")
    form_bytes = [s.attrs.get("bytes", 0) for s in forms]
    merged = sum(s.attrs.get("sectors_in", 0) for s in merges)
    pairs_in = sum(s.attrs.get("pairs_in", 0) for s in merges)
    return {
        "linalg.solve_pencil_s": dur("linalg.solve_pencil"),
        "linalg.calls": len(pencils),
        "linalg.dim_max": max((s.attrs.get("dim", 0) for s in pencils), default=0),
        "linalg.vectors": sum(s.attrs.get("vectors", 0) for s in pencils),
        "fem.assemble_s": dur("fem.assemble_sector_forms"),
        "fem.calls": len(forms),
        "fem.pencil_bytes_sum": sum(form_bytes),
        "fem.pencil_bytes_max": max(form_bytes, default=0),
        "eigensolve.solve_sector_self_s": self_time("eigensolve.solve_sector"),
        "eigensolve.sectors_solved": len(sectors),
        "eigensolve.sector_yield": (sum(s.attrs.get("sectors_out", 0) for s in merges) / merged) if merged else 0.0,
        "eigensolve.pair_yield": (sum(s.attrs.get("pairs_out", 0) for s in merges) / pairs_in) if pairs_in else 0.0,
        "eigensolve.assemble_spectrum_s": dur("eigensolve.assemble_spectrum"),
        "bounds.bound_report_s": dur("bounds.bound_report"),
        "bounds.wang_xia_implied_gap_s": dur("bounds.wang_xia_implied_gap"),
        "bounds.wang_xia_implied_gap_calls": len(of("bounds.wang_xia_implied_gap")),
        "prooflab.ground_state_self_s": self_time("prooflab.ground_state"),
        "prooflab.ground_state_sectors": sum(1 for s in sectors if under(s, "prooflab.ground_state")),
        "prooflab.radial_eigenfunction_s": dur("prooflab.RadialEigenfunction"),
        "prooflab.identity_suite_self_s": self_time("prooflab.run_identity_suite"),
        "cli.self_s": self_time("cli.main"),
    }


def replay_stages(linalg, pencil, budget_s: float = 1.0, max_repeats: int = 5):
    """Median time of each dense-chain stage on ``pencil``, or None if absent.

    Repeats the chain until ``budget_s`` is spent (at most ``max_repeats``
    times, at least once), so small pencils are not timed from one call.
    """
    fns = [getattr(linalg, name, None) for name in STAGE_FUNCTIONS]
    if pencil is None or any(fn is None for fn in fns):
        return None
    cholesky, reduce, tridiag, ql, eigvec, reflect, back = fns
    _, A, B, count = pencil
    samples = {stage: [] for stage in STAGES}
    spent = 0.0
    while not samples["vectors"] or (spent < budget_s and len(samples["vectors"]) < max_repeats):
        t0 = time.perf_counter()
        L = cholesky(B)
        t1 = time.perf_counter()
        C = reduce(A, L)
        t2 = time.perf_counter()
        d, e, reflectors = tridiag(C)
        t3 = time.perf_counter()
        values = ql(d, e)
        t4 = time.perf_counter()
        rng = np.random.default_rng(0)
        for i in range(max(count, 1)):
            back(L.T, reflect(reflectors, eigvec(d, e, values[i], rng)))
        t5 = time.perf_counter()
        for stage, dt in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
            samples[stage].append(dt)
        spent += t5 - t0
    return {f"linalg.stage.{stage}_s": statistics.median(v) for stage, v in samples.items()}
