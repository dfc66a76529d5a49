"""Trial-function identities for the cap ground state, checked by quadrature.

The gap bounds for the spherical cap rest on a chain of integral
identities built from the trial functions

    phi_alpha = (x_alpha - C_alpha) u_1,

where x_alpha are the n + 1 ambient coordinate functions restricted to
the sphere and u_1 is the first buckling eigenfunction, normalized so the
integral of |grad u_1|^2 over the cap is one.  Because u_1 is radial every
one of those identities collapses to a weighted 1-D integral of the radial
profile g and its first two derivatives: the tangential coordinates enter
through sin(theta) and the polar coordinate through cos(theta), and the
angular integrals evaluate in closed form.  This module carries out those
reductions on the computed profile and reports each identity as a
(computed, closed-form) pair, so a whole proof chain can be replayed
numerically on an actual eigenfunction.

Every quadrature here reuses the solver's own sampling of the radial
sector (``fem._sample_sector_shapes``): the same Gauss grid, weights, and
values of g, g' and the Laplacian that the eigenvalue was computed from.
That matters: the orthogonality relation and the Schwarz inequality hold
exactly for the discrete sums only when all the integrals are taken over
the identical grid, and the Dirichlet quotient of the sampled ground state
reproduces the reported eigenvalue to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import CapDomain, Geometry, surface_area
from .eigensolve import solve_spectrum
# Not called here: perfbench's span tracer patches these names, until it can skip absent bindings.
from .eigensolve import assemble_spectrum, solve_sector  # noqa: F401
from .fem import Mesh, _sample_sector_shapes, expand_coefficients, sample_profile

__all__ = [
    "IdentityReport",
    "RadialEigenfunction",
    "TrialFunction",
    "bracket_norm_sum",
    "build_trial",
    "d_alpha_sum",
    "ground_state",
    "identity_bilaplacian_sum",
    "identity_quadratic_sum",
    "orthogonality_residual",
    "polar_shift_tensor_check",
    "rr_quotient",
    "run_identity_suite",
    "sum_grad_trial_sq",
    "trial_coefficient",
]

_ALPHA_CLASSES = ("tangential", "polar")


class RadialEigenfunction:
    """Radial ground-state profile with cached quadrature samples.

    Holds the profile g of the lowest radial eigenfunction u_1 = g(theta)
    together with everything the identity integrals keep reusing, taken
    from the solver's radial-sector sampling: the element-aligned Gauss
    grid, the spherical volume weight, sin and cos of the colatitude, the
    profile values g0, g1 (g and g'), the Laplacian samples
    lap = g'' + (n-1) cot(theta) g', and g2 = g'' recovered from them.

    Integrals over the cap evaluate as ``integrate(values)``, which applies
    the boundary-sphere area factor so the result is the full n-dimensional
    integral of a radial integrand sampled on the grid.
    """

    def __init__(self, domain: CapDomain, mesh: Mesh, lam1: float, coeffs, quad_order: int = 6):
        if domain.geometry is not Geometry.SPHERICAL:
            raise ValueError("radial proof quantities are defined on spherical caps")
        samples = _sample_sector_shapes(domain, 0, mesh, quad_order)
        self.domain = domain
        self.mesh = mesh
        self.lam1 = float(lam1)
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.quad_order = quad_order
        self.area = surface_area(domain.dim)

        self.theta = samples.theta.ravel()
        self.s = np.sin(self.theta)
        self.c = np.cos(self.theta)
        self.mass = samples.weight.ravel()
        self.g0, self.g1, self.lap = (v.ravel() for v in sample_profile(samples, self.coeffs))
        self.g2 = self.lap - (domain.dim - 1) * (self.c / self.s) * self.g1

    def integrate(self, values) -> float:
        """Integral over the cap of a radial integrand sampled on the grid."""
        return self.area * float(np.dot(np.asarray(values), self.mass))


def ground_state(domain: CapDomain, m: int = 128, quad_order: int = 6, l_max: int = 6):
    """Solve for the cap ground state and return (u1, lam2).

    Takes the two lowest merged eigenvalues of sectors 0..l_max from
    ``solve_spectrum``, which solves only the sectors that can reach them
    (sectors 0 and 1 for n = 2..5 at apertures 0.3 to 3.0) and raises
    TruncationError when the sectors up to l_max cannot certify lam2.
    Checks that the smallest eigenvalue really lives in the radial sector
    (the trial construction assumes a radial u_1), and packages the radial
    profile with its quadrature caches.  lam2 is the second eigenvalue of
    the merged spectrum, multiplicities included.
    """
    if domain.geometry is not Geometry.SPHERICAL:
        raise ValueError("ground_state requires a spherical cap domain")
    spectrum, sectors = solve_spectrum(domain, m=m, quad_order=quad_order, l_max=l_max, count=2)
    first = spectrum.entries[0]
    if first.l != 0:
        raise ValueError(
            f"lowest eigenvalue lies in harmonic sector {first.l}; the radial "
            "trial construction needs it in sector 0"
        )
    lam2 = spectrum.entries[1].value
    pair = sectors[0][0]
    full = expand_coefficients(pair.mesh, pair.coeffs, pair.dof_map)
    u1 = RadialEigenfunction(domain, pair.mesh, pair.value, full, quad_order)
    return u1, lam2


@dataclass(frozen=True)
class TrialFunction:
    """One class of coordinate trial function (x_alpha - C) u_1.

    alpha_class is "tangential" for the n coordinates vanishing at the cap
    center (x_alpha = sin(theta) omega_alpha) or "polar" for the axis
    coordinate (x_alpha = cos(theta)).  coefficient is the shift C making
    the trial gradient-orthogonal to u_1; it vanishes for the tangential
    class because the angular average of omega_alpha does.
    """

    alpha_class: str
    coefficient: float


def _require_class(alpha_class: str) -> str:
    if alpha_class not in _ALPHA_CLASSES:
        raise ValueError(f"alpha_class must be one of {_ALPHA_CLASSES} (got {alpha_class!r})")
    return alpha_class


def trial_coefficient(u1: RadialEigenfunction, alpha_class: str) -> float:
    """The orthogonality shift C = integral of x_alpha u_1 (-Delta u_1)."""
    _require_class(alpha_class)
    if alpha_class == "tangential":
        return 0.0
    return u1.integrate(u1.c * u1.g0 * (-u1.lap))


def build_trial(u1: RadialEigenfunction, alpha_class: str) -> TrialFunction:
    """Construct the trial function of the given class for this profile."""
    return TrialFunction(_require_class(alpha_class), trial_coefficient(u1, alpha_class))


def _polar_pieces(u1, C):
    """Radial factors of the polar trial: q = (c - C) g and its derivative."""
    q = (u1.c - C) * u1.g0
    qp = -u1.s * u1.g0 + (u1.c - C) * u1.g1
    return q, qp


def _tangential_pieces(u1):
    """Radial factors of the tangential trials: h = s g and its derivative."""
    h = u1.s * u1.g0
    hp = u1.c * u1.g0 + u1.s * u1.g1
    return h, hp


def _laplacian_tangential(u1):
    """Radial factor of Delta(x u_1) for a tangential coordinate x."""
    return -u1.domain.dim * u1.s * u1.g0 + 2.0 * u1.c * u1.g1 + u1.s * u1.lap


def _laplacian_polar(u1, C):
    """Radial factor of Delta((c - C) u_1) for the polar coordinate."""
    return -u1.domain.dim * u1.c * u1.g0 - 2.0 * u1.s * u1.g1 + (u1.c - C) * u1.lap


def orthogonality_residual(u1: RadialEigenfunction, trial: TrialFunction) -> float:
    """Integral of <grad phi, grad u_1> over the cap, which should vanish.

    For the tangential class the angular integral of omega_alpha is zero,
    so the orthogonality holds identically and the residual is exactly 0.
    For the polar class it reduces to the radial integral of q' g' and
    vanishes only when the shift C is correct; the returned value measures
    how well the computed C achieves it.
    """
    if trial.alpha_class == "tangential":
        return 0.0
    _, qp = _polar_pieces(u1, trial.coefficient)
    return u1.integrate(qp * u1.g1)


def rr_quotient(u1: RadialEigenfunction, trial: TrialFunction) -> float:
    """Rayleigh quotient of the trial: integral of (Delta phi)^2 over
    integral of |grad phi|^2.

    Since the trial is admissible (clamped, gradient-orthogonal to u_1),
    this quotient is an upper bound for the second eigenvalue, and the
    Rayleigh-Ritz step of the gap-bound argument asserts exactly that.
    """
    n = u1.domain.dim
    if trial.alpha_class == "tangential":
        num = u1.integrate(_laplacian_tangential(u1) ** 2)
        _, hp = _tangential_pieces(u1)
        den = u1.integrate(hp**2) + (n - 1) * u1.integrate(u1.g0**2)
    else:
        num = u1.integrate(_laplacian_polar(u1, trial.coefficient) ** 2)
        _, qp = _polar_pieces(u1, trial.coefficient)
        den = u1.integrate(qp**2)
    return num / den


def sum_grad_trial_sq(u1: RadialEigenfunction, via: str = "gradient") -> float:
    """Sum over all n + 1 trials of the integral of |grad phi_alpha|^2.

    via="gradient" squares the gradients directly; via="laplacian" uses the
    integration-by-parts route through -phi Delta(phi), an independent
    quadrature of the same number.  The two agree to quadrature accuracy.
    """
    if via not in ("gradient", "laplacian"):
        raise ValueError(f"via must be 'gradient' or 'laplacian' (got {via!r})")
    n = u1.domain.dim
    C = trial_coefficient(u1, "polar")
    h, hp = _tangential_pieces(u1)
    q, qp = _polar_pieces(u1, C)
    if via == "gradient":
        return (
            u1.integrate(hp**2)
            + (n - 1) * u1.integrate(u1.g0**2)
            + u1.integrate(qp**2)
        )
    return u1.integrate(h * (-_laplacian_tangential(u1))) + u1.integrate(
        q * (-_laplacian_polar(u1, C))
    )


def d_alpha_sum(u1: RadialEigenfunction):
    """Sum over alpha of D_alpha, against its closed form -(n + 2)/2.

    D_alpha is the pairing of grad(x_alpha u_1) with the gradient of
    <grad x_alpha, grad u_1> - (n-2)/2 x_alpha grad u_1.  Writing the inner
    function's radial factor as p (tangential) or p-tilde (polar) and
    integrating the first slot by parts turns each pairing into a weighted
    integral against the corresponding Delta(x_alpha u_1) factor.  Returns
    (computed, closed_form).
    """
    n = u1.domain.dim
    C = trial_coefficient(u1, "polar")
    _, hp = _tangential_pieces(u1)
    _, qp = _polar_pieces(u1, C)
    p = u1.c * u1.g1
    pt = -u1.s * u1.g1
    computed = (
        u1.integrate(p * (-_laplacian_tangential(u1)))
        - 0.5 * (n - 2) * u1.integrate(u1.s * hp * u1.g1)
        + u1.integrate(pt * (-_laplacian_polar(u1, C)))
        - 0.5 * (n - 2) * u1.integrate(u1.c * qp * u1.g1)
    )
    return computed, -0.5 * (n + 2)


def bracket_norm_sum(u1: RadialEigenfunction):
    """Sum over alpha of the squared norm inside the Schwarz step.

    The vector field is grad<grad x_alpha, grad u_1> - (n-2)/2 x_alpha
    grad u_1; summing its squared L2 norm over all alpha telescopes to the
    integral of (Delta u_1)^2 plus (n-2)^2/4 times the gradient norm, which
    on the normalized eigenfunction is lam1 + (n-2)^2/4.  Returns
    (computed, closed_form).
    """
    n = u1.domain.dim
    pp = u1.c * u1.g2 - u1.s * u1.g1
    ptp = -u1.s * u1.g2 - u1.c * u1.g1
    half = 0.5 * (n - 2)
    computed = (
        u1.integrate((pp - half * u1.s * u1.g1) ** 2)
        + (n - 1) * u1.integrate((u1.c * u1.g1 / u1.s) ** 2)
        + u1.integrate((ptp - half * u1.c * u1.g1) ** 2)
    )
    return computed, u1.lam1 + 0.25 * (n - 2) ** 2


def identity_quadratic_sum(u1: RadialEigenfunction):
    """The lam1-weighted quadratic trial sum against -n lam1 |u_1|^2.

    Computes lam1 times the sum over alpha of the integral of
    x_alpha u_1 [Delta(x_alpha u_1) + x_alpha (-Delta u_1)], whose closed
    form is -n lam1 times the squared L2 norm of u_1.  Returns
    (computed, closed_form) with the L2 norm taken by the same quadrature.
    """
    n = u1.domain.dim
    computed = u1.lam1 * (
        u1.integrate(u1.s * u1.g0 * (_laplacian_tangential(u1) + u1.s * (-u1.lap)))
        + u1.integrate(u1.c * u1.g0 * (_laplacian_polar(u1, 0.0) + u1.c * (-u1.lap)))
    )
    closed = -n * u1.lam1 * u1.integrate(u1.g0**2)
    return computed, closed


def identity_bilaplacian_sum(u1: RadialEigenfunction):
    """The bilaplacian commutator sum against its closed form.

    Computes the sum over alpha of the integral of
    x_alpha u_1 [Delta^2(x_alpha u_1) - x_alpha Delta^2 u_1] term by term:
    the n^2 mass term, the -2(n+2) Laplacian term, and the two first-order
    terms whose alpha sums cancel pointwise (kept split so the quadrature
    really exercises them).  The third-derivative pairing is integrated by
    parts onto the Laplacian samples.  The closed form is
    n^2 |u_1|^2 + 2(n+2) on the gradient-normalized eigenfunction.
    Returns (computed, closed_form).
    """
    n = u1.domain.dim
    g0, g1, s, c, lap = u1.g0, u1.g1, u1.s, u1.c, u1.lap
    t1 = n**2 * (u1.integrate(s**2 * g0**2) + u1.integrate(c**2 * g0**2))
    t2 = -2.0 * (n + 2) * (
        u1.integrate(s**2 * g0 * lap) + u1.integrate(c**2 * g0 * lap)
    )
    t3 = -4.0 * (u1.integrate(s * c * g0 * g1) + u1.integrate(-s * c * g0 * g1))
    t4 = -4.0 * (
        u1.integrate(lap * (g0 * (c**2 + n - 1) + s * c * g1 - n * s**2 * g0))
        + u1.integrate(lap * (g0 * s**2 - s * c * g1 - n * c**2 * g0))
    )
    computed = t1 + t2 + t3 + t4
    closed = n**2 * u1.integrate(g0**2) + 2.0 * (n + 2)
    return computed, closed


def polar_shift_tensor_check(dim: int, num_geodesics: int = 8, seed: int = 73) -> float:
    """Finite-difference check of the coordinate Hessian identity.

    The reductions lean on Hess(x_alpha) = -x_alpha times the metric.  Along
    a unit-speed geodesic gamma the identity says the second derivative of
    x_alpha(gamma(t)) equals -x_alpha(gamma(t)), so a fourth-order central
    difference of the composed function along random geodesics measures it
    directly.  Returns the largest absolute residual observed over
    ``num_geodesics`` random geodesics and all n + 1 coordinates.
    """
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 2:
        raise ValueError(f"dim must be an integer >= 2 (got {dim!r})")
    rng = np.random.default_rng(seed)
    step = 0.005
    worst = 0.0
    for _ in range(num_geodesics):
        p = rng.standard_normal(dim + 1)
        p /= np.linalg.norm(p)
        x = rng.standard_normal(dim + 1)
        x -= (x @ p) * p
        x /= np.linalg.norm(x)
        samples = [np.cos(t) * p + np.sin(t) * x for t in (-2 * step, -step, 0.0, step, 2 * step)]
        f = np.stack(samples)  # rows: gamma(t) at the 5 stencil points
        second = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * step**2)
        worst = max(worst, float(np.max(np.abs(second + p))))
    return worst


@dataclass(frozen=True)
class IdentityReport:
    """One checked identity or inequality from the gap-bound chain.

    computed is the quadrature evaluation, closed_form the analytic value
    (or threshold, for one-sided statements), rel_residual the relative
    disagreement |computed - closed_form| / max(1, |closed_form|), and
    passed whether the statement holds within ``tolerance``.  One-sided
    statements pass on the correct side of the threshold regardless of the
    size of the residual.
    """

    identity_id: str
    computed: float
    closed_form: float
    rel_residual: float
    passed: bool
    tolerance: float


def _two_sided(identity_id, computed, closed, tol):
    rel = abs(computed - closed) / max(1.0, abs(closed))
    return IdentityReport(identity_id, computed, closed, rel, rel <= tol, tol)


def _one_sided(identity_id, computed, closed, tol, strict=False):
    rel = abs(computed - closed) / max(1.0, abs(closed))
    slack = tol * max(1.0, abs(closed))
    ok = computed > closed if strict else computed >= closed - slack
    return IdentityReport(identity_id, computed, closed, rel, ok, tol)


def run_identity_suite(domain: CapDomain, m: int = 128, quad_order: int = 6, l_max: int = 6):
    """Evaluate the whole identity chain on a computed cap ground state.

    Returns the ten reports in alphabetical identity order.  Only spherical
    caps in dimensions 2 through 5 are supported (the coordinate reductions
    are specific to the sphere, and the closed forms were cross-validated
    in that range), and the mesh must have at least 16 elements so the
    second-derivative quadratures are trustworthy.  The ground state and
    lam2 come from ``ground_state`` over sectors 0..l_max, so an l_max too
    small to certify lam2 (l_max = 0) raises TruncationError.
    """
    if domain.geometry is not Geometry.SPHERICAL:
        raise ValueError("identities require spherical geometry")
    if not 2 <= domain.dim <= 5:
        raise ValueError(f"identity suite supports dimensions 2..5 (got {domain.dim})")
    if m < 16:
        raise ValueError(f"identity suite needs m >= 16 mesh elements (got {m})")
    u1, lam2 = ground_state(domain, m=m, quad_order=quad_order, l_max=l_max)
    n = u1.domain.dim
    polar = build_trial(u1, "polar")

    bracket_c, bracket_cf = bracket_norm_sum(u1)
    d_c, d_cf = d_alpha_sum(u1)
    grad_sum = sum_grad_trial_sq(u1, via="gradient")
    q7_c, q7_cf = identity_quadratic_sum(u1)
    q13_c, q13_cf = identity_bilaplacian_sum(u1)
    l2 = u1.integrate(u1.g0**2)

    reports = [
        _two_sided("bracket_sum", bracket_c, bracket_cf, 1e-2),
        # Schwarz step: (sum D_alpha)^2 never exceeds the product of the
        # two squared norms; with every factor quadratured on one grid the
        # discrete inequality holds to roundoff.
        IdentityReport(
            "cauchy_2_15",
            computed=d_c**2,
            closed_form=grad_sum * bracket_c,
            rel_residual=abs(d_c**2 - grad_sum * bracket_c)
            / max(1.0, abs(grad_sum * bracket_c)),
            passed=d_c**2 <= grad_sum * bracket_c * (1.0 + 1e-10) + 1e-10,
            tolerance=1e-10,
        ),
        _two_sided("d_sum", d_c, d_cf, 2e-3),
        _one_sided(
            "grad_sum_lb_2_16",
            grad_sum,
            (n + 2) ** 2 / (4.0 * u1.lam1 + (n - 2) ** 2),
            1e-6,
        ),
        _one_sided("l2_lower_2_19", u1.lam1 * l2, 1.0, 1e-9),
        _one_sided("lambda1_lb_2_18", u1.lam1, float(n), 0.0, strict=True),
        _two_sided("orth_2_2", orthogonality_residual(u1, polar), 0.0, 1e-8),
        _one_sided("rr_2_3", rr_quotient(u1, polar), lam2, 1e-6),
        _two_sided("sum_2_13", q13_c, q13_cf, 1e-2),
        _two_sided("sum_2_7", q7_c, q7_cf, 1e-3),
    ]
    return reports
