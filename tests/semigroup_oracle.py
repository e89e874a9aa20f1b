"""Independent oracles for the semigroup quantities the criterion side computes.

``kscrit.criteria.criterion_curve`` evaluates T * W0(T) on fixed trapezoid
nodes.  ``semigroup_at_origin`` integrates the same quantity point by point
with scipy's adaptive ``quad``, passing the datum's breakpoints to it, so it
resolves kinks in M(r) that fixed nodes can miss.  ``singular_semigroup_quadrature``
integrates K_alpha(d), which the package takes in closed form, with ``quad`` too.
"""

import math

import numpy as np
from scipy.integrate import quad

from kscrit.criteria import check_integrability
from kscrit.errors import ValidationError
from kscrit.kernels import RHO_CUT, log_window, radial_kernel, tail_coefficient, tail_moment
from kscrit.radial import MassProfile, check_alpha, check_dimension, singular_coefficient, sphere_area


def singular_semigroup_quadrature(d: int, alpha: float) -> tuple[float, float]:
    """K_alpha(d) by direct quadrature s(alpha,d) sigma_d int R rho^(d-1-alpha) drho.

    Independent of the Gamma-product form in ``singular_semigroup_value``.
    Returns (K, abserr) with the quadrature's error estimate.
    """
    d = check_dimension(d)
    alpha = check_alpha(alpha)
    if 2.0 * alpha >= d:
        raise ValidationError("singular datum needs 2*alpha < d")
    kernel = radial_kernel(d, alpha)

    # in x = log(rho) the integrand is R(rho) rho^(d-alpha), scaled by its probed peak
    x, vals = log_window(lambda x: kernel.log_R(np.exp(x)) + (d - alpha) * x)
    shift = float(vals.max())

    def integrand(x: float) -> float:
        return math.exp(kernel.log_R(math.exp(x)) + (d - alpha) * x - shift)

    body, err = quad(integrand, x[0], x[-1], limit=400, epsabs=0.0, epsrel=1e-12)
    tail = tail_moment(d, alpha, d - alpha, False)
    scale = singular_coefficient(d, alpha) * sphere_area(d)
    return scale * (math.exp(shift) * body + tail), scale * math.exp(shift) * err


def semigroup_at_origin(mass: MassProfile, t: float, alpha: float) -> float:
    """(e^{-t(-Lap)^{alpha/2}} u0)(0) in the measure-friendly form.

    Integrating the radial kernel against dM gives
    t^{-(d+1)/alpha} int_0^inf M(r) |R'(r t^{-1/alpha})| dr, which handles
    shell atoms and singular densities uniformly.
    """
    alpha = check_alpha(alpha)
    d = mass.d
    check_integrability(mass, alpha)
    if mass.total_mass == 0.0:
        return 0.0
    kernel = radial_kernel(d, alpha)

    if mass.atoms and sum(m for _, m in mass.atoms) >= mass.total_mass:
        # pure point-mass datum: integrating |R'| from the atom is R itself
        log_t = math.log(t)
        return float(
            sum(
                m * math.exp(-d / alpha * log_t + kernel.log_R(r0 * t ** (-1.0 / alpha)))
                for r0, m in mass.atoms
            )
        )

    if alpha == 2.0:
        # rho = r/(2 sqrt(t)):  W = (4 pi t)^(-d/2) * 2 * int M(2 sqrt(t) rho) rho e^(-rho^2) drho
        root = 2.0 * math.sqrt(t)
        upper = math.sqrt(3.0 * d) + 30.0
        pts = sorted(b / root for b in mass.breakpoints if 0.0 < b / root < upper)

        def integrand(rho: float) -> float:
            return float(mass(root * rho)) * rho * math.exp(-rho * rho)

        val, _ = quad(integrand, 0.0, upper, points=pts or None, limit=400, epsabs=0.0, epsrel=1e-11)
        log_pref = -0.5 * d * math.log(4.0 * math.pi * t) + math.log(2.0)
        return math.exp(log_pref + math.log(val)) if val > 0 else 0.0

    # W = t^(-d/alpha) int M(t^(1/alpha) rho) |R'(rho)| drho
    scale = t ** (1.0 / alpha)
    pts = sorted(b / scale for b in mass.breakpoints if 0.0 < b / scale < RHO_CUT)

    def integrand(rho: float) -> float:
        return float(mass(scale * rho)) * math.exp(kernel.log_abs_Rp(rho))

    val, _ = quad(integrand, 0.0, RHO_CUT, points=pts or None, limit=400, epsabs=0.0, epsrel=1e-10)
    # analytic remainder: M ~ tail_coefficient * r^p and |R'| ~ (d+alpha) c1 rho^(-d-1-alpha)
    p = mass.tail_exponent
    c1 = tail_coefficient(d, alpha, 1)
    tail = (
        mass.tail_coefficient
        * scale**p
        * (d + alpha)
        * c1
        * RHO_CUT ** (p - d - alpha)
        / (d + alpha - p)
    )
    val += tail
    return math.exp(-d / alpha * math.log(t) + math.log(val)) if val > 0 else 0.0
