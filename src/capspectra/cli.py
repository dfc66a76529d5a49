"""Command-line interface: solve, sweep, and identities subcommands.

Reports are deterministic: numbers are serialized with 17 significant
digits, metadata echoes the configuration and tool version only, and the
same invocation always produces byte-identical output.

Exit codes: 0 on success, 1 when a checked inequality is violated (a
bound fails on the computed spectrum, a sweep row breaks monotonicity or
the lower bound on the first eigenvalue, or an identity check does not
pass), 2 on configuration or usage errors (an output file that cannot be
written, a ``--quad-order`` above 64, an ``--elements`` outside
``build_mesh``'s range of 4 to 1024, and an aperture or mesh whose
arithmetic overflows double precision, or whose radial weight underflows
to 0, included), 3 when the solver fails
(a pencil that is not definite, or an iteration that does not converge).
An ``--output`` file is opened only after the run succeeds, so a failing
run leaves an existing file as it was.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from ._linalg import CholeskyError, ConvergenceError
from .bounds import bound_report
from .domain import make_cap
from .eigensolve import solve_spectrum
from .fem import build_mesh
from .prooflab import run_identity_suite

_MONOTONE_TOL = 1e-8
#: most aperture points a sweep may hold; each point is one merged solve
_MAX_SWEEP_POINTS = 1000
#: most merged eigenvalues a run may ask for; the sector walk grows with it
_MAX_EIGS = 1000
#: most Gauss points per element; the rule's companion matrix grows as its square
_MAX_QUAD_ORDER = 64
#: bound_report rows tabulated by the sweep, in CSV column order
_SWEEP_BOUNDS = ("thm_1_1", "cor_1_2", "wang_xia_opt", "hlc_k1")


def _format_number(value: float) -> str:
    """Serialize a float with 17 significant digits."""
    return format(float(value), ".17g")


def _to_json(obj, indent: int = 0) -> str:
    """Recursive JSON writer with fixed float formatting.

    The standard serializer would use repr-shortest floats; this one pins
    17 significant digits so reruns and cross-version output stay
    byte-identical.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{inner}"{key}": {_to_json(val, indent + 1)}' for key, val in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{_to_json(val, indent + 1)}" for val in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_number(obj)
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _meta(config: argparse.Namespace) -> dict:
    meta_config = {
        "subcommand": config.subcommand,
        "geometry": config.geometry,
        "dim": config.dim,
        "elements": config.elements,
        "quad_order": config.quad_order,
        "num_eigs": config.num_eigs,
    }
    if config.sweep is not None:
        meta_config["apertures"] = list(config.sweep)
    else:
        meta_config["aperture"] = config.aperture
    return {"tool": "capspectra", "version": __version__, "config": meta_config}


def _bound_rows(reports) -> list[dict]:
    """JSON rows of the bound reports, one per evaluated inequality."""
    return [
        {
            "bound_id": rep.bound_id,
            "applicability": rep.applicability,
            "k": rep.k,
            "delta": rep.delta,
            "lhs": rep.lhs,
            "rhs": rep.rhs,
            "satisfied": rep.satisfied,
            "slack": rep.slack,
        }
        for rep in reports
    ]


def _spectrum(config: argparse.Namespace, aperture: float):
    """The merged spectrum of the configured domain with this aperture."""
    domain = make_cap(config.geometry, config.dim, aperture)
    spectrum, _ = solve_spectrum(
        domain, m=config.elements, quad_order=config.quad_order, count=config.num_eigs
    )
    return spectrum


def cmd_solve(config: argparse.Namespace) -> tuple[int, str]:
    spectrum = _spectrum(config, config.aperture)
    reports = bound_report(spectrum)
    document = {
        "meta": _meta(config),
        "spectrum": [
            {
                "lambda": entry.value,
                "l": entry.l,
                "multiplicity": entry.multiplicity,
                "index": entry.copy_index,
            }
            for entry in spectrum.entries
        ],
        "bounds": _bound_rows(reports),
    }
    return (0 if all(rep.satisfied for rep in reports) else 1), _to_json(document) + "\n"


def cmd_sweep(config: argparse.Namespace) -> tuple[int, str]:
    header = (
        "aperture,lambda1,lambda2,thm11_rhs,cor12_rhs,wang_xia_opt_rhs,"
        "hlc_k1_rhs,lambda1_minus_n,monotone_ok"
    )
    lines = [header]
    violated = False
    prev_lambda1 = None
    for aperture in config.sweep:
        spectrum = _spectrum(config, aperture)
        values = spectrum.values()
        lambda1, lambda2 = values[0], values[1]
        by_id = {rep.bound_id: rep for rep in bound_report(spectrum)}
        # a cap with lambda1 < n has no cap rows: its columns read nan, violated
        rows = [by_id.get(bid) for bid in _SWEEP_BOUNDS]
        gap_to_n = lambda1 - config.dim
        monotone_ok = True
        if prev_lambda1 is not None:
            monotone_ok = lambda1 < prev_lambda1 - _MONOTONE_TOL
        prev_lambda1 = lambda1
        if not monotone_ok or gap_to_n <= 0.0 or not all(rep is not None and rep.satisfied for rep in rows):
            violated = True
        lines.append(
            ",".join(
                [_format_number(v) for v in (aperture, lambda1, lambda2)]
                + [_format_number(math.nan if rep is None else rep.rhs) for rep in rows]
                + [_format_number(gap_to_n), "true" if monotone_ok else "false"]
            )
        )
    return (1 if violated else 0), "\n".join(lines) + "\n"


def cmd_identities(config: argparse.Namespace) -> tuple[int, str]:
    domain = make_cap(config.geometry, config.dim, config.aperture)
    reports = run_identity_suite(domain, m=config.elements, quad_order=config.quad_order)
    document = {
        "meta": _meta(config),
        "identities": [
            {
                "id": rep.identity_id,
                "computed": rep.computed,
                "closed_form": rep.closed_form,
                "rel_residual": rep.rel_residual,
                "pass": rep.passed,
            }
            for rep in reports
        ],
    }
    return (0 if all(rep.passed for rep in reports) else 1), _to_json(document) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capspectra",
        description="Buckling spectra of clamped caps with bound and identity reports.",
    )
    parser.add_argument("--version", action="version", version=f"capspectra {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, aperture_help):
        p.add_argument("--geometry", required=True, choices=("spherical", "flat"))
        p.add_argument("--dim", required=True, type=int)
        p.add_argument("--aperture", required=True, help=aperture_help)
        p.add_argument("--elements", type=int, default=128)
        p.add_argument("--quad-order", type=int, default=6)
        p.add_argument("--num-eigs", type=int, default=6)
        p.add_argument("--output", default=None, help="write the report here instead of stdout")

    add_common(
        sub.add_parser("solve", help="spectrum plus every applicable bound, as JSON"),
        "cap geodesic radius (spherical) or ball radius (flat)",
    )
    add_common(
        sub.add_parser("sweep", help="aperture sweep with gap bounds, as CSV"),
        "aperture range start:stop:step",
    )
    add_common(
        sub.add_parser("identities", help="proof-identity suite on the cap ground state, as JSON"),
        "cap geodesic radius",
    )
    return parser


def _parse_sweep(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("sweep aperture must be start:stop:step")
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"sweep bounds must be finite (got {text})")
    if step <= 0.0:
        raise ValueError(f"sweep step must be positive (got {step})")
    points = []
    k = 0
    while True:
        point = start + k * step
        if point > stop + 1e-12 * max(1.0, abs(stop)):
            break
        if k == _MAX_SWEEP_POINTS:
            raise ValueError(
                f"sweep takes at most {_MAX_SWEEP_POINTS} aperture points (got more from {text})"
            )
        points.append(point)
        k += 1
    if len(points) < 2:
        raise ValueError(f"sweep needs at least two aperture points (got {len(points)})")
    return tuple(points)


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Validate the arguments; returns them with aperture (None in a sweep) and sweep parsed."""
    if args.subcommand == "sweep":
        args.sweep, args.aperture = _parse_sweep(args.aperture), None
    else:
        args.sweep, args.aperture = None, float(args.aperture)
    if args.num_eigs < 2:
        raise ValueError(f"num_eigs must be >= 2 so bounds can be evaluated (got {args.num_eigs})")
    if args.num_eigs > _MAX_EIGS:
        raise ValueError(f"num_eigs must be <= {_MAX_EIGS} (got {args.num_eigs})")
    if args.quad_order > _MAX_QUAD_ORDER:
        raise ValueError(f"quad_order must be <= {_MAX_QUAD_ORDER} (got {args.quad_order})")
    if args.subcommand == "sweep" and args.geometry != "spherical":
        raise ValueError("sweep requires spherical geometry (its columns are cap bounds)")
    for point in args.sweep or (args.aperture,):
        # every domain and its mesh are valid before the first solve
        build_mesh(make_cap(args.geometry, args.dim, point), args.elements)
    return args


def main(argv=None, out=None, err=None) -> int:
    """Run the CLI; returns the exit code instead of raising SystemExit."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    handlers = {"solve": cmd_solve, "sweep": cmd_sweep, "identities": cmd_identities}
    try:
        config = _config_from_args(args)
        code, text = handlers[config.subcommand](config)
    except ValueError as exc:
        err.write(f"error: {exc}\n")
        return 2
    except OverflowError as exc:
        # Python float arithmetic raises where numpy would give inf
        err.write(f"error: arithmetic overflowed double precision ({exc.args[-1] if exc.args else exc})\n")
        return 2
    except (CholeskyError, ConvergenceError) as exc:
        err.write(f"error: {exc}\n")
        return 3
    if config.output is None:
        out.write(text)
        return code
    # the file is opened only now, so a run that fails leaves it untouched
    try:
        with open(config.output, "w", encoding="utf-8") as sink:
            sink.write(text)
    except OSError as exc:
        err.write(f"error: cannot write {config.output}: {exc.strerror}\n")
        return 2
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
