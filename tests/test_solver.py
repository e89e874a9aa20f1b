import math

import numpy as np
import pytest
import scipy.integrate._ivp.bdf as scipy_bdf
from scipy import sparse
from scipy.linalg.lapack import dgttrf

import kscrit.solver as solver_module
from kscrit.criteria import blowup_constant
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
    _factor_tridiagonal,
    build_grid,
    comparison_check,
    gaussian_moment,
    run,
    truncation_scaling,
)

D = 3
SIG = sphere_area(D)


def exact_mass(r, t, T=1.0, d=3):
    return 4 * sphere_area(d) * r**d / (r**2 + 2 * (d - 2) * (T - t))


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
        assert 1.0 in g.r and 2.5 in g.r

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
        jac = disc.jacobian(m).toarray()
        eps = 1e-6 * np.max(m)
        fd = np.empty_like(jac)
        for j in range(grid.n):
            e = np.zeros(grid.n)
            e[j] = eps
            fd[:, j] = (disc.rhs(m + e) - disc.rhs(m - e)) / (2.0 * eps)
        # rhs is quadratic in M, so central differences are exact up to rounding
        assert np.max(np.abs(jac - fd)) <= 1e-9 * np.max(np.abs(jac))
        assert np.count_nonzero(np.triu(jac, 2)) == np.count_nonzero(np.tril(jac, -2)) == 0
        if pinned:
            np.testing.assert_array_equal(jac[-1], 0.0)

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
        controls = SolverControls(
            t_end=1.2,
            density_cap=D / grid.r[0] ** 2,
            snapshot_times=(0.4, 0.8),
            moment_target=T,
            stride=50,
        )
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
        controls = SolverControls(
            t_end=0.9, moment_target=T, stride=1, density_cap=D / grid.r[0] ** 2
        )
        res = run(ExplicitBlowupDatum(D, T), grid, controls)
        c3 = blowup_constant(3)
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
        res = run(
            ShellAtom(D, 100.0, 1.0),
            grid,
            SolverControls(t_end=1.0, density_cap=D / grid.r[0] ** 2),
        )
        assert res.event is not None
        assert np.all(res.M_final >= 0.0)
        assert np.all(np.diff(res.M_final) >= -1e-9 * np.max(res.M_final))

    def test_step_floor_detection_with_unreachable_cap(self):
        # the spec-default cap (1e8 x initial) saturates any finite grid first;
        # collapse must still be witnessed through the dt floor, near the true time
        grid = build_grid(15.0, 600, 0.5)
        res = run(
            ExplicitBlowupDatum(D, 0.25), grid, SolverControls(t_end=0.5, stride=200)
        )
        assert res.event is not None
        assert res.event.trigger == "step_floor"
        assert res.event.detected_time == pytest.approx(0.25, rel=0.05)

    def test_blowup_time_stable_under_thresholds(self):
        grid = build_grid(30.0, 1000, 0.5)
        cap = 0.25 * D / grid.r[0] ** 2
        times = []
        for f_cap, f_floor in ((1.0, 1.0), (2.0, 0.5)):
            controls = SolverControls(
                t_end=1.5, density_cap=cap * f_cap, dt_floor=1.5e-12 * f_floor, stride=200
            )
            res = run(ExplicitBlowupDatum(D, 1.0), grid, controls)
            times.append(res.event.detected_time)
        assert abs(times[1] / times[0] - 1.0) < 0.02

    def test_scaling_covariance_of_detected_time(self):
        lam = 2.0
        grid1 = build_grid(30.0, 1200, 0.5)
        grid2 = build_grid(30.0 / lam, 1200, 0.5)
        cap = 0.25 * D / grid1.r[0] ** 2
        r1 = run(
            ExplicitBlowupDatum(D, 1.0), grid1, SolverControls(t_end=1.5, density_cap=cap)
        )
        r2 = run(
            ExplicitBlowupDatum(D, 1.0 / lam**2),
            grid2,
            SolverControls(t_end=1.5 / lam**2, density_cap=cap * lam**2),
        )
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


def test_resolution_error_on_hopeless_grid():
    # violent advection at a step the grid cannot represent: the solver must
    # report a resolution problem, not fake a blowup
    grid = build_grid(8.0, 24, 0.5, breakpoints=(1.0,))
    with pytest.raises(ResolutionError):
        run(ShellAtom(D, 1e5, 1.0), grid, SolverControls(t_end=0.5, density_cap=1e30))


class TestStepFloor:
    """A step below ``dt_floor`` witnesses blowup only where the origin density has grown."""

    GRID = build_grid(10.0, 40, 0.5)
    CONTROLS = SolverControls(t_end=0.5, dt_floor=1e-2)

    def test_small_steps_without_growth_run_to_the_end(self):
        # the decaying bump takes most of its steps below the floor (85 of 97)
        res = run(Gaussian(D, 1.0, 0.2), self.GRID, self.CONTROLS)
        assert np.count_nonzero(res.dt[1:] < self.CONTROLS.dt_floor) > res.n_steps // 2
        assert np.max(res.origin_density) <= res.origin_density[0]
        assert res.event is None
        assert res.t_final == self.CONTROLS.t_end

    def test_restart_below_floor_without_growth_is_a_resolution_error(self):
        # a monotonicity restart halves the step below the floor at t ~ 2e-3
        with pytest.raises(ResolutionError, match="without density growth"):
            run(Gaussian(D, 50.0, 0.2), self.GRID, self.CONTROLS)


class TestNewtonFactorization:
    def test_restarting_blowup_factors_with_lapack_only(self, monkeypatch):
        # BDF builds a fresh SuperLU path on every restart; each one must be replaced
        def no_splu(_A):
            raise AssertionError("BDF fell back to SuperLU")

        calls = []

        def counting_dgttrf(*args, **kwargs):
            calls.append(args[1].size)
            return dgttrf(*args, **kwargs)

        monkeypatch.setattr(scipy_bdf, "splu", no_splu)
        monkeypatch.setattr(solver_module, "dgttrf", counting_dgttrf)
        grid = build_grid(8.0, 800, 0.6, breakpoints=(1.0,))
        res = run(ShellAtom(D, 100.0, 1.0), grid, SolverControls(t_end=1.0))
        assert res.blew_up
        assert res.n_rejected >= 10
        assert res.n_lu == len(calls) > 0
        assert set(calls) == {grid.n}

    def test_singular_factor_is_a_numerics_error(self):
        singular = sparse.diags([[1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0]], [-1, 0, 1], format="csc")
        assert np.linalg.matrix_rank(singular.toarray()) < 3
        with pytest.raises(NumericsError, match="singular"):
            _factor_tridiagonal(singular)


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
        assert w0 == pytest.approx(blowup_constant(3) / T, rel=1e-4)


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
            truncation_scaling(4.0, (0.5,), d=3)

    def test_quadratic_scaling_small(self):
        grid = build_grid(20.0, 900, 0.5)
        res = truncation_scaling(
            4.0,
            (0.25, 0.5, 1.0),
            d=3,
            grid=grid,
            controls=SolverControls(t_end=60.0, density_cap=3.0 / grid.r[0] ** 2),
        )
        assert 1.6 <= res.exponent <= 2.4
        # doubling R quadruples the blowup time
        assert res.blowup_times[1] / res.blowup_times[0] == pytest.approx(4.0, rel=0.2)
        assert res.blowup_times[2] / res.blowup_times[1] == pytest.approx(4.0, rel=0.2)

    def test_non_blowing_up_run_is_inconclusive(self):
        grid = build_grid(20.0, 600, 0.5)
        with pytest.raises(NumericsError):
            truncation_scaling(
                4.0,
                (0.25, 0.5, 1.0),
                d=3,
                grid=grid,
                controls=SolverControls(t_end=1e-4, density_cap=3.0 / grid.r[0] ** 2),
            )
