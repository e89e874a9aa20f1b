"""Independent W0(t) = (e^{-t(-Lap)^{alpha/2}} u0)(0) for checking the criterion curve.

``kscrit.criteria.criterion_curve`` evaluates T * W0(T) on fixed trapezoid
nodes.  This oracle integrates the same quantity point by point with scipy's
adaptive ``quad``, passing the datum's breakpoints to it, so it resolves kinks
in M(r) that fixed nodes can miss.
"""

import math

from scipy.integrate import quad

from kscrit.criteria import check_integrability
from kscrit.kernels import RHO_CUT, radial_kernel, tail_coefficient
from kscrit.radial import MassProfile, check_alpha


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
