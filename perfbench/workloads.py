"""The three benchmark workloads: their inputs, their calls and their checks.

A workload is a list of operations ("ops"). Each op is one call a user of
capspectra makes: a CLI invocation run in-process through ``cli.main``, or
a single-sector refinement ladder through ``eigensolve.solve_sector``.
Running every op once is a pass.

The seed fixes the order of the ops within a pass.

Every op checks its own output and returns the bytes it produced, so the
runner can compare each pass with the first one byte for byte. The checks
are:

* unit-disk values against the Bessel oracle ``j_{l+1,k}^2`` at the
  relative tolerance of acceptance criterion 01 (1e-6);
* exit code 0 from every CLI call, every sweep row ``monotone_ok`` and
  every identity passing;
* the lowest eigenvalue of every 3-dimensional cap against a closed-form
  oracle (below), at a looser sanity tolerance because the sweep mesh is
  four times coarser than the disk's.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

#: relative tolerance of the disk oracle check (acceptance criterion 01).
DISK_TOL = 1e-6
#: relative tolerance of the 3-sphere cap oracle check; the cap meshes are
#: coarse (h up to 3/64), where the O(h^4) error reaches a few 1e-7.
CAP_TOL = 1e-5
#: digits reported for an exact match, the resolution of a double.
MAX_DIGITS = 16.0

WORKLOADS = ("disk_oracle", "cap_sweep", "cap_identities")


class CheckError(Exception):
    """An op ran but its output is wrong."""


def digits(value: float, exact: float) -> float:
    """-log10 of the relative error, capped at the precision of a double."""
    rel = abs(value - exact) / abs(exact)
    return MAX_DIGITS if rel == 0.0 else min(MAX_DIGITS, -math.log10(rel))


def _bisect(f, lo: float, hi: float) -> float:
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if mid in (lo, hi) or fmid == 0.0:
            return mid
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def s3_cap_lambda1(aperture: float) -> float:
    """Lowest radial clamped-buckling eigenvalue of a cap on the 3-sphere.

    On S^3 the radial Laplacian satisfies Delta(v / sin t) = (v'' + v) / sin t,
    so the radial equation becomes (D^2 + 1)(D^2 + 1 + lam) v = 0. The
    solutions regular at the pole are u = a + c sin(mu t) / sin t with
    mu^2 = 1 + lam, and the clamped conditions at t = R leave
    mu cos(mu R) sin R = sin(mu R) cos R. mu = 1 is the trivial root
    (lam = 0); the first root above it gives lam_1 = mu^2 - 1. This shares
    no code with the finite-element path.
    """
    sin_r, cos_r = math.sin(aperture), math.cos(aperture)

    def f(mu):
        return mu * math.cos(mu * aperture) * sin_r - math.sin(mu * aperture) * cos_r

    step = 0.25 / aperture
    lo = 1.0 + 1e-3
    while f(lo) * f(lo + step) > 0.0:
        lo += step
    mu = _bisect(f, lo, lo + step)
    return mu * mu - 1.0


@dataclass
class Op:
    """One timed call. ``run`` returns (output bytes, accuracy by label)."""

    name: str
    run: Callable[[], tuple[bytes, dict]]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: list[Op]
    #: accuracy metric -> labels of the figures, in digits, it is the minimum of
    accuracy: dict


def _cli(cs, argv):
    out, err = io.StringIO(), io.StringIO()
    rc = cs.cli.main(list(argv), out=out, err=err)
    if rc != 0:
        raise CheckError(f"{' '.join(argv[:1])} exited {rc}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


def _disk_ops(cs, cli_m, rungs):
    disk = cs.domain.make_cap("flat", 2, 1.0)
    oracle = {}

    def exact(l, k):
        if (l, k) not in oracle:
            oracle[l, k] = cs.eigensolve.bessel_zero(l + 1, k) ** 2
        return oracle[l, k]

    def check(value, l, k, where):
        ref = exact(l, k)
        if not abs(value - ref) <= DISK_TOL * ref:
            raise CheckError(f"{where}: lambda {value!r} vs oracle {ref!r} (l={l}, k={k})")
        return digits(value, ref)

    def solve():
        argv = ["solve", "--geometry", "flat", "--dim", "2", "--aperture", "1.0",
                "--elements", str(cli_m)]
        text = _cli(cs, argv)
        spectrum = json.loads(text)["spectrum"]
        if not spectrum:
            raise CheckError("solve printed an empty spectrum")
        per_sector: dict = {}
        acc = []
        for row in spectrum:
            l = row["l"]
            if row["index"] == 1:
                per_sector[l] = per_sector.get(l, 0) + 1
            acc.append(check(row["lambda"], l, per_sector[l], f"solve m={cli_m}"))
        return text.encode(), {"spectrum": min(acc)}

    def ladder():
        # One call of the workload: a refinement study, coarse to fine. As
        # separate calls the rungs (0.05 to 7 s) would put the median call
        # on the 1 s rung, whose latency spread by 26% over five runs.
        output, acc = [], {}
        for m in rungs:
            value = cs.eigensolve.solve_sector(disk, 0, m, count=1)[0].value
            acc[f"ladder_m{m}"] = check(value, 0, 1, f"ladder m={m}")
            output.append(value.hex())
        return " ".join(output).encode(), acc

    return [Op(f"solve_m{cli_m}", solve), Op("ladder_m" + "_".join(map(str, rungs)), ladder)]


def _sweep_ops(cs, start, points, m, dims):
    stop = start + 0.5 * (points - 1)
    spec = f"{start!r}:{stop!r}:0.5"

    def op(dim):
        def run():
            argv = ["sweep", "--geometry", "spherical", "--dim", str(dim), "--aperture", spec,
                    "--elements", str(m)]
            text = _cli(cs, argv)
            rows = list(csv.DictReader(io.StringIO(text)))
            if len(rows) != points:
                raise CheckError(f"sweep dim {dim}: {len(rows)} rows, expected {points}")
            if not all(row["monotone_ok"] == "true" for row in rows):
                raise CheckError(f"sweep dim {dim}: a row is not monotone")
            acc = {}
            if dim == 3:
                values = []
                for row in rows:
                    ref = s3_cap_lambda1(float(row["aperture"]))
                    lam1 = float(row["lambda1"])
                    if not abs(lam1 - ref) <= CAP_TOL * ref:
                        raise CheckError(f"sweep dim 3 a={row['aperture']}: {lam1!r} vs {ref!r}")
                    values.append(digits(lam1, ref))
                acc = {"sweep_d3_min": min(values), "sweep_d3_finest": values[0]}
            return text.encode(), acc

        return Op(f"sweep_d{dim}", run)

    return [op(dim) for dim in dims]


def _identity_ops(cs, aperture, m, dims):
    def op(dim):
        def run():
            argv = ["identities", "--geometry", "spherical", "--dim", str(dim), "--aperture",
                    repr(aperture), "--elements", str(m)]
            text = _cli(cs, argv)
            rows = json.loads(text)["identities"]
            if len(rows) != 10 or not all(row["pass"] for row in rows):
                failing = [row["id"] for row in rows if not row["pass"]]
                raise CheckError(f"identities dim {dim}: {len(rows)} rows, failing {failing}")
            acc = {}
            if dim == 3:
                lam1 = next(row["computed"] for row in rows if row["id"] == "lambda1_lb_2_18")
                ref = s3_cap_lambda1(aperture)
                if not abs(lam1 - ref) <= CAP_TOL * ref:
                    raise CheckError(f"identities dim 3: lambda1 {lam1!r} vs {ref!r}")
                acc = {"identities_d3": digits(lam1, ref)}
            return text.encode(), acc

        return Op(f"identities_d{dim}", run)

    return [op(dim) for dim in dims]


def build(cs, name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload ``name``, its ops in an order drawn from ``seed``.

    The domains and meshes are fixed: a seed that also moved the domain
    size would re-roll the rounding noise in the finest values and spread
    the accuracy metrics by more than their bounds. ``tiny`` shrinks
    meshes, dimensions and sweep length so a pass takes well under a
    second; it runs the same calls and the same checks. The warm-up pass of
    a full run is the tiny pass.
    """
    if name == "disk_oracle":
        full = _disk_ops(cs, 256, (64, 128, 256, 512))
        small = _disk_ops(cs, 64, (64, 96))
        finest = "ladder_m96" if tiny else "ladder_m512"
        accuracy = {"oracle_digits_min": ("spectrum",), "lambda1_digits_finest": (finest,)}
    elif name == "cap_sweep":
        full = _sweep_ops(cs, 0.5, 6, 64, (2, 3, 4, 5))
        small = _sweep_ops(cs, 0.5, 2, 32, (2, 3))
        accuracy = {"oracle_digits_min": ("sweep_d3_min",), "lambda1_digits_finest": ("sweep_d3_finest",)}
    elif name == "cap_identities":
        full = _identity_ops(cs, 1.0, 128, (2, 3, 4, 5))
        small = _identity_ops(cs, 1.0, 32, (2, 3))
        accuracy = {"oracle_digits_min": ("identities_d3",), "lambda1_digits_finest": ("identities_d3",)}
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    ops = small if tiny else full
    random.Random(f"{name}:{seed}").shuffle(ops)
    return Workload(name=name, ops=ops, warmup=small, accuracy=accuracy)
