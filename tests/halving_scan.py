"""Trace the nested halvings of the s-grid and of the rho-quadrature, level by level,
and count the radii of each kernel's rho-probe.

Run from the repository root:

    PYTHONPATH=src python3 tests/halving_scan.py sgrid [--uniform | --cliff] [--low-d] [d,alpha ...]
    PYTHONPATH=src python3 tests/halving_scan.py quad [d,alpha ...]
    PYTHONPATH=src python3 tests/halving_scan.py probe [d,alpha ...]

Without pairs, ``sgrid`` scans d in {52, 56, 60, 64, 70, 76, 80} (with
``--low-d``, d in {2, 3, 4, 5, 6, 8, 10, 15, ..., 50}) x alpha = 1.3334 +
0.008 k (k = 0 ... 20), the band where the cliff map saves one halving or
none, and ``quad`` takes the pairs of
``test_rho_integrals_hold_their_error_estimate``.  Each call of
``kernels._nested_halving`` prints one line per level: its nodes, its move
m_k, the estimate E_k that the stopping rule reads from m_k and m_(k-1), and
its error against the level ``FINER`` halvings past the kept one, all in the
units of the rule's own summary.  The kept level is starred.  ``sgrid``
traces the s-grid under the map ``_cliff_map`` chooses, or under the uniform
map (``--uniform``) or the cliff map wherever c >= 2 (``--cliff``); it ends
with one ``nodes`` line per pair for ``sort``/``diff``.  ``quad`` builds each
kernel untraced, then traces its ``rho_integrals``.  ``probe`` (by default on
the ``quad`` pairs with alpha < 2, and (3, 0.05)) prints one line per pair:
the lattice nodes ``log_window`` evaluated for ``rho_window`` and the nodes of
the window it kept, then the radii ``log_sums`` took for ``rho_integrals``
(probe and halvings) and for L (``shell_semigroup_peak``), which reads the
same probe.  The script needs only the standard library and kscrit, and pytest
does not collect it.
"""

from __future__ import annotations

import math
import sys

import kscrit.kernels as kernels
from kscrit.criteria import shell_semigroup_peak

FINER = 3
HIGH_D = (52, 56, 60, 64, 70, 76, 80)
LOW_D = (2, 3, 4, 5, 6, 8, 10, 15, 20, 25, 30, 35, 40, 45, 50)
QUAD_PAIRS = [
    (5, 0.9), (4, 1.2), (5, 1.5), (4, 0.0997), (9, 0.4175), (3, 0.7175), (10, 1.0175), (5, 1.2675),
    (6, 1.7675), (8, 1.9075), (4, 0.3), (60, 1.45), (2, 2.0), (3, 2.0), (6, 2.0), (10, 2.0), (200, 2.0),
]

_driver = kernels._nested_halving
#: nodes of each kept level, in call order; the extra halvings leave the s-grid finer
KEPT: list[int] = []


def _move(fine, coarse, unit) -> float:
    return float((abs(fine - coarse) / unit).max())


def _estimate(move: float, prev: float, q_floor: float) -> float:
    """E_k as ``_nested_halving`` reads it from the moves m_k and m_(k-1)."""
    if move <= kernels._ROUNDING:
        return move
    if not move < prev:
        return math.inf
    q = max(move / prev, q_floor)
    return move * q / (1.0 - q)


def _traced(level, midpoints, summary, q_floor, tol, max_nodes, message, coarse=None):
    """``_nested_halving``, then ``FINER`` more halvings by the same driver; prints both."""
    levels = []

    def recorded(level):
        value, unit = summary(level)
        levels.append((level.shape[1], value, unit))
        return value, unit

    kept_level, value, err = _driver(level, midpoints, recorded, q_floor, tol, max_nodes, message, coarse)
    kept = len(levels) - 1
    KEPT.append(kept_level.shape[1])
    # a target below zero is never met: the driver halves until the cap, FINER levels on
    try:
        _driver(kept_level, midpoints, recorded, q_floor, -1.0, 2**FINER * (kept_level.shape[1] - 1) + 1, "")
    except kernels.NumericsError:
        pass
    del levels[kept + 1]  # the second run's first summary is the kept level again
    _, best, best_unit = levels[-1]
    print(f"  q_floor {q_floor:.3g}, target {tol:.3g}, kept E {err:.3g}")
    move = math.nan if coarse is None else _move(levels[0][1], coarse, levels[0][2])
    for i, (n, value, unit) in enumerate(levels):
        estimate = math.inf
        if i:
            prev, move = move, _move(value, levels[i - 1][1], unit)
            estimate = _estimate(move, prev, q_floor)
        star = "*" if i == kept else " "
        print(f"  {star} n {n:7d}  move {move:9.3g}  E {estimate:9.3g}  error {_move(value, best, best_unit):9.3g}")
    return kept_level, value, err


def _pairs(words, default):
    if not words:
        return default
    return [(int(d), float(a)) for d, a in (word.split(",") for word in words)]


def main(argv: list[str]) -> None:
    kind, words = argv[0], argv[1:]
    if kind == "sgrid":
        if "--uniform" in words:
            kernels._cliff_map = lambda sub, d: kernels._UniformMap()
        if "--cliff" in words:
            kernels._NEAR_CLIFF_MAX_D = math.inf
        counts = []
        scan = [(d, round(1.3334 + 0.008 * k, 4)) for d in (LOW_D if "--low-d" in words else HIGH_D) for k in range(21)]
        for d, alpha in _pairs([w for w in words if not w.startswith("--")], scan):
            print(f"s-grid d={d} alpha={alpha}")
            kernels._nested_halving = _traced
            try:
                kernels.SubordinatedKernel(d, alpha)
                counts.append((d, alpha, KEPT[-1]))
            except kernels.NumericsError as exc:
                print(f"  {exc}")
            finally:
                kernels._nested_halving = _driver
        for d, alpha, n in counts:
            print(f"nodes {d} {alpha} {n}")
    elif kind == "quad":
        for d, alpha in _pairs(words, QUAD_PAIRS):
            kernel = kernels.SubordinatedKernel(d, alpha)
            print(f"log_quad d={d} alpha={alpha}")
            kernels._nested_halving = _traced
            try:
                kernel.rho_integrals
            finally:
                kernels._nested_halving = _driver
    elif kind == "probe":
        for d, alpha in _pairs(words, [p for p in QUAD_PAIRS if p[1] < 2.0] + [(3, 0.05)]):
            kernel = kernels.radial_kernel(d, alpha)
            original, radii = kernel.log_sums, []

            def counted(rho, orders=(0, 1, 2)):
                radii.append(getattr(rho, "size", 1))
                return original(rho, orders)

            kernel.log_sums = counted
            x, _ = kernel.rho_window
            probe = sum(radii)
            kernel.rho_integrals
            integrals = sum(radii)
            shell_semigroup_peak(d, alpha)
            print(
                f"probe d={d} alpha={alpha}  probe nodes {probe:5d}  window nodes {x.size:5d}  "
                f"rho_integrals radii {integrals:6d}  L radii {sum(radii) - integrals:4d}"
            )
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:] or ["help"])
