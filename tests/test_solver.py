import math
import re
import warnings

import numpy as np
import pytest
import scipy.integrate
from scipy.linalg import solve_banded

import kscrit.solver as solver_module
from kscrit.criteria import blowup_constant_fractional
from kscrit.errors import NumericsError, ResolutionError, ValidationError
from kscrit.radial import (
    Chandrasekhar,
    ExplicitBlowupDatum,
    Gaussian,
    ShellAtom,
    TruncatedChandrasekhar,
    mass_profile,
    sphere_area,
)
from kscrit.solver import (
    SolverControls,
    _Discretization,
    _step_fault,
    build_grid,
    comparison_check,
    gaussian_moment,
    run,
    truncation_scaling,
)

D = 3
SIG = sphere_area(D)


def _unreachable_cap(*_args):
    return 1e30


class _CountingOde(scipy.integrate.ode):
    starts = 0

    def __init__(self, *args, **kwargs):
        type(self).starts += 1
        super().__init__(*args, **kwargs)


@pytest.fixture
def counting_ode(monkeypatch):
    """Route run's integrator through _CountingOde, with its start count reset."""
    monkeypatch.setattr(_CountingOde, "starts", 0)
    monkeypatch.setattr(scipy.integrate, "ode", _CountingOde)
    return _CountingOde


def exact_mass(r, t, T=1.0, d=3):
    return 4 * sphere_area(d) * r**d / (r**2 + 2 * (d - 2) * (T - t))


def _reference_rhs(disc, M):
    """rhs as div + a M grad, each from fresh temporaries: the unbuffered form."""
    flux = np.concatenate([[M[0]], M[1:] - M[:-1], [0.0]])
    flux[:-1] *= disc.c_flux
    div = (flux[1:] - flux[:-1]) * disc.inv_vol
    grad = disc.half_rpow * (flux[:-1] + flux[1:])
    grad[-1] = (M[-1] - M[-2]) / disc.h[-1]
    out = div + disc.adv_coef * M * grad
    if disc.pinned:
        out[-1] = 0.0
    return out


class TestGrid:
    def test_uniform_patch_continues_geometrically(self):
        g = build_grid(r_max=10.0, n=200, inner_fraction=0.5)
        dr = np.diff(g.r)
        assert np.all(dr > 0)
        assert g.r[0] == pytest.approx(g.r_switch / 100, rel=1e-12)
        # spacing is continuous at the switch
        k = int(np.searchsorted(g.r, g.r_switch))
        assert dr[k] == pytest.approx(dr[k - 1], rel=0.02)

    def test_breakpoints_become_nodes(self):
        g = build_grid(r_max=10.0, n=150, inner_fraction=0.4, breakpoints=(1.0, 2.5))
        assert 1.0 in g.r and 2.5 in g.r and g.n == 150

    def test_breakpoint_nearest_r_max_is_inserted(self):
        # snapping 19.99 onto its nearest node once moved r_max itself
        g = build_grid(r_max=20.0, n=100, inner_fraction=0.5, breakpoints=(19.99,))
        assert g.r[-1] == 20.0 and 19.99 in g.r and g.n == 101

    def test_breakpoints_sharing_a_nearest_node_are_both_kept(self):
        # the cuts of trunc_chandrasekhar(rin=1,rout=1.01): the second once overwrote the first
        g = build_grid(r_max=20.0, n=100, inner_fraction=0.5, breakpoints=(1.0, 1.01))
        assert 1.0 in g.r and 1.01 in g.r and g.n == 101

    def test_pure_geometric_fallback(self):
        g = build_grid(r_max=10.0, n=100, inner_fraction=0.0)
        assert g.r[0] == pytest.approx(1e-3, rel=1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            build_grid(-1.0, 100)
        with pytest.raises(ValidationError):
            build_grid(1.0, 4)


class TestRhs:
    def test_zero_state_is_stationary(self):
        grid = build_grid(10.0, 300, 0.5)
        disc = _Discretization(grid, D, pinned=False)
        np.testing.assert_array_equal(disc.rhs(np.zeros(grid.n)), 0.0)

    def test_singular_steady_state_is_discrete_fixed_point(self):
        grid = build_grid(10.0, 300, 0.5)
        disc = _Discretization(grid, D, pinned=True)
        m_c = 2 * SIG * grid.r ** (D - 2)
        residual = disc.rhs(m_c)
        assert np.max(np.abs(residual)) <= 1e-10 * np.max(np.abs(m_c))

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("pinned", [False, True])
    def test_jacobian_matches_central_differences(self, d, pinned):
        grid = build_grid(10.0, 120, 0.5)
        disc = _Discretization(grid, d, pinned=pinned)
        m = mass_profile(Gaussian(d, 3.0 * sphere_area(d), 1.0)).fn(grid.r)
        bands = disc.jacobian(m)
        assert isinstance(bands, np.ndarray) and bands.shape == (3, grid.n)
        assert bands[0, 0] == bands[2, -1] == 0.0
        eps = 1e-6 * np.max(m)
        fd = np.empty((grid.n, grid.n))
        for j in range(grid.n):
            e = np.zeros(grid.n)
            e[j] = eps
            fd[:, j] = (disc.rhs(m + e) - disc.rhs(m - e)) / (2.0 * eps)
        # LAPACK band layout: bands[1 + i - j, j] is entry (i, j)
        dense = np.diag(bands[0, 1:], 1) + np.diag(bands[1]) + np.diag(bands[2, :-1], -1)
        # rhs is quadratic in M, so central differences are exact up to rounding; the
        # comparison is over the whole matrix, so every row depends on its two neighbours only
        assert np.max(np.abs(dense - fd)) <= 1e-9 * np.max(np.abs(bands))
        if pinned:
            np.testing.assert_array_equal(dense[-1], 0.0)
        else:
            # the layout LAPACK's banded solver reads
            b = np.linspace(1.0, 2.0, grid.n)
            np.testing.assert_allclose(solve_banded((1, 1), bands, b), np.linalg.solve(dense, b), rtol=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("pinned", [False, True])
    def test_rhs_is_bit_identical_to_the_unbuffered_form(self, d, pinned):
        grid = build_grid(10.0, 120, 0.5)
        disc = _Discretization(grid, d, pinned=pinned)
        m = mass_profile(Gaussian(d, 3.0 * sphere_area(d), 1.0)).fn(grid.r)
        for M in (m, m * (1.0 + 1e-3 * np.sin(7.0 * grid.r)), np.sqrt(m)):
            np.testing.assert_array_equal(disc.rhs(M), _reference_rhs(disc, M))

    def test_consecutive_rhs_results_do_not_alias(self):
        grid = build_grid(10.0, 120, 0.5)
        disc = _Discretization(grid, D, pinned=False)
        m = mass_profile(Gaussian(D, 3.0 * SIG, 1.0)).fn(grid.r)
        first = disc.rhs(m)
        kept = first.copy()
        second = disc.rhs(2.0 * m)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)

    def test_exact_solution_residual_second_order(self):
        # rhs must match the analytic time derivative of the closed-form mass
        # at second order on the trusted window [0.1, 10]
        T, t = 1.0, 0.0
        errs = {}
        for n in (400, 800, 1600):
            grid = build_grid(20.0, n, 0.5)
            disc = _Discretization(grid, D, pinned=True)
            m = exact_mass(grid.r, t, T)
            dm_dt = 8 * SIG * grid.r**D / (grid.r**2 + 2 * (T - t)) ** 2
            window = (grid.r >= 0.1) & (grid.r <= 10.0)
            resid = np.abs(disc.rhs(m) - dm_dt)[window]
            errs[n] = float(np.max(resid)) / float(np.max(np.abs(dm_dt)))
        order1 = math.log2(errs[400] / errs[800])
        order2 = math.log2(errs[800] / errs[1600])
        assert order1 >= 1.8 and order2 >= 1.8


def test_controls_reject_a_zero_stride():
    # run records every stride-th step: stride 0 ended in a ZeroDivisionError there
    with pytest.raises(ValidationError, match="stride"):
        SolverControls(stride=0)


class TestRun:
    def test_zero_datum_unchanged(self):
        grid = build_grid(10.0, 200, 0.5)
        res = run(Gaussian(D, 0.0), grid, SolverControls(t_end=0.1))
        assert res.event is None
        np.testing.assert_array_equal(res.M_final, 0.0)

    def test_singular_steady_state_drift(self):
        # the well-balanced fixed point must hold over a horizon of many
        # diffusion times of the inner grid, however few steps that takes
        grid = build_grid(20.0, 2000, 0.5)
        m = mass_profile(Chandrasekhar(D, 1.0))
        res = run(m, grid, SolverControls(t_end=1.0))
        assert res.t_final == 1.0 and res.event is None
        drift = np.max(np.abs(res.M_final - m.fn(grid.r)))
        assert drift <= 1e-4 * 2 * SIG

    def test_exact_solution_oracle(self):
        grid = build_grid(30.0, 1500, 0.5)
        T = 1.0
        controls = SolverControls(t_end=1.2, snapshot_times=(0.4, 0.8), moment_target=T, stride=50)
        res = run(ExplicitBlowupDatum(D, T), grid, controls)
        for s, M in res.snapshots.items():
            sel = grid.r <= 15.0
            rel = np.max(np.abs(M - exact_mass(grid.r, s, T))[sel] / exact_mass(grid.r, s, T)[sel])
            assert rel <= 0.01, f"t={s}: {rel}"
        assert res.event is not None
        assert res.event.detected_time == pytest.approx(T, rel=0.05)

    def test_moment_differential_inequality_along_blowup(self):
        # discrete dW/dt >= W^2/C(d) within 5% along a blowing-up run, with
        # secants over every integrator step
        grid = build_grid(30.0, 1000, 0.5)
        T = 1.0
        controls = SolverControls(t_end=0.9, moment_target=T, stride=1)
        res = run(ExplicitBlowupDatum(D, T), grid, controls)
        c3 = blowup_constant_fractional(3, 2.0)[0]
        t, w = res.t, res.W
        ok = np.isfinite(w)
        t, w = t[ok], w[ok]
        dw = np.diff(w) / np.diff(t)
        w_mid = 0.5 * (w[1:] + w[:-1])
        assert np.all(dw >= w_mid**2 / c3 * 0.95)

    def test_mass_conservation_compact_data(self):
        grid = build_grid(40.0, 800, 0.4, breakpoints=(10.0,))
        prof = TruncatedChandrasekhar(D, 0.9, 0.0, 10.0)
        total = mass_profile(prof).total_mass
        res = run(prof, grid, SolverControls(t_end=2.0))
        assert res.event is None
        assert abs(res.M_final[-1] - total) <= 1e-6 * total

    def test_monotone_nonnegative_final_state(self):
        grid = build_grid(8.0, 800, 0.6, breakpoints=(1.0,))
        res = run(ShellAtom(D, 100.0, 1.0), grid, SolverControls(t_end=1.0))
        assert res.event is not None
        assert np.all(res.M_final >= 0.0)
        assert np.all(np.diff(res.M_final) >= -1e-9 * np.max(res.M_final))

    def test_unreachable_cap_ends_in_a_resolution_error_at_the_blowup_time(self, monkeypatch):
        # a cap beyond any density the grid can resolve: the collapse is no
        # blowup event, but the error it raises names a t near the true time
        monkeypatch.setattr(solver_module, "_origin_density_cap", _unreachable_cap)
        grid = build_grid(15.0, 600, 0.5)
        with pytest.raises(ResolutionError, match="too coarse") as info:
            run(ExplicitBlowupDatum(D, 0.25), grid, SolverControls(t_end=0.5, stride=200))
        t = float(re.search(r"at t=(\S+) with r_1=", str(info.value)).group(1))
        assert t == pytest.approx(0.25, rel=0.05)

    def test_blowup_time_stable_under_thresholds(self, monkeypatch):
        grid = build_grid(30.0, 1000, 0.5)
        cap = 0.25 * D / grid.r[0] ** 2
        times = []
        for f_cap in (1.0, 2.0):
            monkeypatch.setattr(solver_module, "_origin_density_cap", lambda *_: cap * f_cap)
            res = run(ExplicitBlowupDatum(D, 1.0), grid, SolverControls(t_end=1.5, stride=200))
            times.append(res.event.detected_time)
        assert abs(times[1] / times[0] - 1.0) < 0.02

    def test_scaling_covariance_of_detected_time(self):
        lam = 2.0
        grid1 = build_grid(30.0, 1200, 0.5)
        grid2 = build_grid(30.0 / lam, 1200, 0.5)
        # the derived cap d / r_1^2 scales as lam^2 with the grid
        r1 = run(ExplicitBlowupDatum(D, 1.0), grid1, SolverControls(t_end=1.5))
        r2 = run(ExplicitBlowupDatum(D, 1.0 / lam**2), grid2, SolverControls(t_end=1.5 / lam**2))
        assert r2.event.detected_time * lam**2 == pytest.approx(
            r1.event.detected_time, rel=0.05
        )

    def test_solution_refinement_order(self):
        # sup error on [0.1, 10] at t = 0.5 (away from blowup) drops at order ~2
        errs = {}
        for n in (500, 1000, 2000):
            grid = build_grid(40.0, n, 0.5)
            res = run(
                ExplicitBlowupDatum(D, 1.0),
                grid,
                SolverControls(t_end=0.5, stride=5000, snapshot_times=(0.5,)),
            )
            M = res.snapshots[0.5]
            win = (grid.r >= 0.1) & (grid.r <= 10.0)
            ex = exact_mass(grid.r, 0.5)
            errs[n] = float(np.max(np.abs(M - ex)[win] / ex[win]))
        assert math.log2(errs[500] / errs[1000]) >= 1.8
        assert math.log2(errs[1000] / errs[2000]) >= 1.8

    def test_pinned_boundary_warning_for_infinite_mass(self):
        grid = build_grid(10.0, 300, 0.5)
        res = run(Chandrasekhar(D, 0.5), grid, SolverControls(t_end=0.01))
        assert any("pins" in w for w in res.warnings)


class TestDefaultCap:
    """Without an explicit cap a run ends at the grid's resolution limit, d / r_1^2."""

    @pytest.mark.parametrize(
        "d, eta, n, r_max, inner, t_end",
        [
            (7, 0.487, 349, 11.494, 0.5, 0.662),
            (8, 0.63, 707, 43.457, 0.5, 2.784),
            (8, 0.866, 777, 37.933, 0.6, 1.0),
        ],
    )
    def test_sub_singular_data_stay_global_at_high_dimension(self, d, eta, n, r_max, inner, t_end):
        # below u_C the solution is global; with one absolute tolerance for every node
        # the near-axis masses went unchecked and these runs ended in a false blowup
        # (the first two) or a ResolutionError (the third)
        res = run(Chandrasekhar(d, eta), build_grid(r_max, n, inner), SolverControls(t_end=t_end))
        assert res.event is None
        assert res.t_final == t_end

    def test_datum_above_the_resolution_limit_gets_no_event_at_the_first_step(self):
        # eta u_C with eta > 1/2 starts above d / r_1^2; the cap also needs growth past
        # the initial density scale, as a step collapse does
        grid = build_grid(10.0, 400, 0.5)
        datum = Chandrasekhar(D, 0.75)
        assert _Discretization(grid, D, True).origin_density(mass_profile(datum).fn(grid.r)) > D / grid.r[0] ** 2
        res = run(datum, grid, SolverControls(t_end=0.1))
        assert res.event is None
        assert res.n_steps > 1 and res.t_final == 0.1

    def test_zero_datum_at_high_dimension_stays_zero(self):
        # the ball-mass tolerance underflows at the axis; VODE still needs a positive one
        res = run(Gaussian(8, 0.0), build_grid(1.0, 2000, 0.5), SolverControls(t_end=1.0))
        assert res.event is None
        np.testing.assert_array_equal(res.M_final, 0.0)

    def test_explicit_solution_ends_at_the_cap_near_its_blowup_time(self):
        grid = build_grid(40.0, 4000, 0.5)
        res = run(ExplicitBlowupDatum(D, 1.0), grid, SolverControls(t_end=1.2))
        assert res.event.trigger == "origin_density_cap"
        assert res.event.detected_time == pytest.approx(1.0, rel=1e-4)
        # VODE's own error-test and convergence failures, each retried inside the step
        assert res.n_rejected == 21


def test_resolution_error_on_hopeless_grid(monkeypatch):
    # violent advection at a step the grid cannot represent: the solver must
    # report a resolution problem, not fake a blowup
    monkeypatch.setattr(solver_module, "_origin_density_cap", _unreachable_cap)
    grid = build_grid(8.0, 24, 0.5, breakpoints=(1.0,))
    with pytest.raises(ResolutionError):
        run(ShellAtom(D, 1e5, 1.0), grid, SolverControls(t_end=0.5))


def test_failed_step_is_not_retried(counting_ode):
    # the simulate defaults for this datum once restarted at ever smaller steps for
    # 134 s before the step floor gave up; the first bad step now ends the run
    mass = mass_profile(Gaussian(D, 84.09, 0.1677))
    grid = build_grid(55.4, 133, 0.5, breakpoints=mass.breakpoints[:1] + mass.breakpoints[-1:])
    with pytest.raises(ResolutionError, match="too coarse"):
        run(mass, grid, SolverControls(t_end=1.075))
    assert counting_ode.starts == 1


class TestStepFloor:
    """Small steps end no run; a step that breaks monotonicity ends it with a ResolutionError."""

    GRID = build_grid(10.0, 40, 0.5)
    CONTROLS = SolverControls(t_end=0.5)
    SMALL = 1e-2

    def test_small_steps_without_growth_run_to_the_end(self):
        # the decaying bump takes most of its steps below SMALL (99 of 112)
        res = run(Gaussian(D, 1.0, 0.2), self.GRID, self.CONTROLS)
        assert np.count_nonzero(res.dt[1:] < self.SMALL) > res.n_steps // 2
        assert np.max(res.origin_density) <= res.origin_density[0]
        assert res.event is None
        assert res.t_final == self.CONTROLS.t_end

    def test_monotonicity_break_without_growth_is_a_resolution_error(self, counting_ode):
        # the first step past t ~ 2e-3 breaks monotonicity; it is not retried at a smaller step
        r_1 = f"{self.GRID.r[0]:.6g}"
        with pytest.raises(ResolutionError, match=rf"at t=0\.00213656 with r_1={r_1}; the grid is too coarse"):
            run(Gaussian(D, 50.0, 0.2), self.GRID, self.CONTROLS)
        assert counting_ode.starts == 1


class TestStepCheck:
    """The per-step check: finite, M >= -tol and diff(M) >= -tol, each within tol passing."""

    # a dyadic profile and tol, so that each dip and decrease below is exact
    TOL = 2.0**-36

    @staticmethod
    def _profile():
        return np.arange(12) / 4.0

    @pytest.mark.parametrize(
        "node, value, fault",
        [
            (0, math.nan, "non-finite"),
            (5, math.nan, "non-finite"),
            (-1, math.nan, "non-finite"),
            (-1, math.inf, "non-finite"),
            (5, math.inf, "non-finite"),
            (0, -math.inf, "non-finite"),
            (5, -math.inf, "non-finite"),
            (0, -2 * TOL, "negative beyond tol"),
            (6, 1.25 - 2 * TOL, "decreasing beyond tol"),
        ],
    )
    def test_each_broken_property_is_flagged_at_its_node(self, node, value, fault):
        y = self._profile()
        y[node] = value
        dy = np.empty(y.size - 1)
        assert _step_fault(y, dy, self.TOL) == (fault, node % y.size)
        # the check it replaced
        assert not (np.all(np.isfinite(y)) and np.all(np.diff(y) >= -self.TOL) and np.all(y >= -self.TOL))

    def test_adjacent_infinities_are_flagged_without_a_warning(self):
        y = self._profile()
        y[4:6] = math.inf
        assert _step_fault(y, np.empty(y.size - 1), self.TOL) == ("non-finite", 4)

    @pytest.mark.parametrize("node, value", [(0, -0.5 * TOL), (0, -TOL), (6, 1.25 - 0.5 * TOL), (6, 1.25 - TOL)])
    def test_dips_and_decreases_within_tol_pass(self, node, value):
        y = self._profile()
        y[node] = value
        assert y[node] < self._profile()[node] and np.all(np.diff(y) >= -self.TOL) and np.all(y >= -self.TOL)
        assert _step_fault(y, np.empty(y.size - 1), self.TOL) is None

    def test_the_step_error_names_the_broken_property(self):
        with pytest.raises(ResolutionError, match=r"^a step left M decreasing beyond tol \(tol 5e-10\) at node 2 "):
            run(Gaussian(D, 50.0, 0.2), TestStepFloor.GRID, TestStepFloor.CONTROLS)


class TestVode:
    def test_reference_rhs_gives_the_same_run(self, monkeypatch):
        # every value VODE sees is bit-identical, so the whole run is
        args = ExplicitBlowupDatum(D, 0.25), build_grid(15.0, 200, 0.5), SolverControls(t_end=0.5)
        shipped = run(*args)
        monkeypatch.setattr(_Discretization, "rhs", _reference_rhs)
        reference = run(*args)
        np.testing.assert_array_equal(shipped.M_final, reference.M_final)
        for key in ("t_final", "n_steps", "n_rhs", "n_jac", "n_lu"):
            assert getattr(shipped, key) == getattr(reference, key), key
        assert shipped.event is not None

    def test_counters_match_the_callbacks(self, monkeypatch, counting_ode):
        # n_rhs and n_jac are read from VODE's private iwork; a scipy release that moves
        # or stops updating it must fail here, against counts kept in the callbacks
        version = f"scipy {scipy.__version__}"
        counts = {"rhs": 0, "jacobian": 0}

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(_Discretization, "rhs", counted("rhs", _Discretization.rhs))
        monkeypatch.setattr(_Discretization, "jacobian", counted("jacobian", _Discretization.jacobian))
        res = run(ExplicitBlowupDatum(D, 0.25), build_grid(15.0, 200, 0.5), SolverControls(t_end=0.5))
        assert res.event is not None
        assert (res.n_rhs, res.n_jac) == (counts["rhs"], counts["jacobian"]), f"{version}: iwork moved"
        assert res.n_rhs >= res.n_steps > 0 and res.n_lu >= res.n_jac > 0
        # one integrator for the whole run
        assert counting_ode.starts == 1

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_integrator_failure_is_a_typed_error(self, monkeypatch, action):
        # an rtol VODE cannot meet fails at t = 0; scipy reports it as a UserWarning, which
        # must end the run typed whatever the warning filters are, -W error included
        monkeypatch.setattr(solver_module, "_RTOL", 1e-18)
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(ResolutionError, match=r"VODE failed at t=0 with istate=-\d \(vode: "):
                run(ExplicitBlowupDatum(D, 1.0), build_grid(40.0, 600, 0.5), SolverControls(t_end=1.2))

    def test_runtime_warning_from_rhs_still_surfaces(self, monkeypatch):
        # only VODE's own failure report is filtered
        calls, rhs = [], _Discretization.rhs

        def warning_rhs(self, M):
            calls.append(1)
            if len(calls) == 5:
                warnings.warn("overflow in rhs", RuntimeWarning)
            return rhs(self, M)

        monkeypatch.setattr(_Discretization, "rhs", warning_rhs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="overflow in rhs"):
                run(ExplicitBlowupDatum(D, 1.0), build_grid(40.0, 600, 0.5), SolverControls(t_end=1.2))


class TestMoment:
    def test_zero_state(self):
        r = np.linspace(0.01, 10, 100)
        assert gaussian_moment(r, np.zeros_like(r), 3, 0.0, 1.0) == 0.0

    def test_domain_error_past_target(self):
        r = np.linspace(0.01, 10, 100)
        with pytest.raises(ValidationError):
            gaussian_moment(r, np.ones_like(r), 3, 1.0, 1.0)

    def test_exact_solution_initial_moment(self):
        # W(0) = C(d)/T for the explicit blowing-up datum
        T = 1.0
        grid = build_grid(40.0, 4000, 0.5)
        m = mass_profile(ExplicitBlowupDatum(D, T)).fn(grid.r)
        w0 = gaussian_moment(grid.r, m, D, 0.0, T)
        assert w0 == pytest.approx(blowup_constant_fractional(3, 2.0)[0] / T, rel=1e-4)


class TestComparison:
    def test_zero_versus_anything(self):
        grid = build_grid(20.0, 500, 0.4, breakpoints=(10.0,))
        rep = comparison_check(
            Gaussian(D, 0.0),
            TruncatedChandrasekhar(D, 0.8, 0.0, 10.0),
            grid,
            SolverControls(t_end=1.0),
        )
        assert rep.ordered

    def test_ordered_pair_stays_ordered(self):
        grid = build_grid(20.0, 500, 0.4, breakpoints=(10.0,))
        rep = comparison_check(
            TruncatedChandrasekhar(D, 0.5, 0.0, 10.0),
            TruncatedChandrasekhar(D, 0.9, 0.0, 10.0),
            grid,
            SolverControls(t_end=1.0),
        )
        assert rep.ordered
        assert rep.max_violation <= rep.tolerance

    def test_rejects_unordered_initial_data(self):
        grid = build_grid(20.0, 300, 0.4)
        with pytest.raises(ValidationError):
            comparison_check(
                Gaussian(D, 10.0, 1.0), Gaussian(D, 5.0, 1.0), grid, SolverControls(t_end=0.5)
            )


class TestTruncationScaling:
    def test_needs_three_radii(self):
        with pytest.raises(ValidationError):
            truncation_scaling(4.0, (0.5,), grid=build_grid(20.0, 600, 0.5), t_end=1.0, d=3)

    def test_quadratic_scaling_small(self):
        grid = build_grid(20.0, 900, 0.5)
        res = truncation_scaling(4.0, (0.25, 0.5, 1.0), grid=grid, t_end=60.0, d=3)
        assert 1.6 <= res.exponent <= 2.4
        # doubling R quadruples the blowup time
        assert res.blowup_times[1] / res.blowup_times[0] == pytest.approx(4.0, rel=0.2)
        assert res.blowup_times[2] / res.blowup_times[1] == pytest.approx(4.0, rel=0.2)

    def test_non_blowing_up_run_is_inconclusive(self):
        grid = build_grid(20.0, 600, 0.5)
        with pytest.raises(NumericsError):
            truncation_scaling(4.0, (0.25, 0.5, 1.0), grid=grid, t_end=1e-4, d=3)
