import copy

import numpy as np
import pytest

from conftest import gaussian_elimination_solve
from qtnn.activation import Activation
from qtnn.data import MgConfig, mackey_glass
from qtnn.esn import (
    esn_build,
    esn_fit,
    esn_free_run,
    mse_metric,
    nmse_metric,
    ridge_readout,
)
from qtnn.esn import _drive
from qtnn.numerics import InputError, NumericalFailure, SingularMatrixError, spectral_radius


def small_esn(**kw):
    defaults = dict(n_reservoir=60, rho_target=0.9, density=0.5, seed=1,
                    washout=20, ridge_lambda=1e-8)
    defaults.update(kw)
    return esn_build(**defaults)


class TestBuild:
    def test_spectral_radius_hits_target(self):
        for rho in (0.5, 0.95):
            model = esn_build(n_reservoir=120, rho_target=rho, density=0.2, seed=3)
            assert abs(spectral_radius(model.w_res) - rho) < 1e-4

    def test_same_seed_identical(self):
        a = small_esn()
        b = small_esn()
        assert np.array_equal(a.w_in, b.w_in)
        assert np.array_equal(a.w_res, b.w_res)

    def test_different_seed_differs(self):
        assert not np.array_equal(small_esn(seed=1).w_res, small_esn(seed=2).w_res)

    def test_rho_above_one_needs_override(self):
        with pytest.raises(InputError, match="echo-state"):
            small_esn(rho_target=1.25)
        model = small_esn(rho_target=1.25, allow_rho_ge_1=True)
        assert abs(spectral_radius(model.w_res) - 1.25) < 1e-4

    def test_dense_2x2_scaling_matches_charpoly(self):
        model = esn_build(n_reservoir=2, rho_target=0.7, density=1.0, seed=5, washout=0)
        # characteristic polynomial of the *scaled* matrix
        w = model.w_res
        tr, det = np.trace(w), np.linalg.det(w)
        disc = tr * tr - 4 * det
        if disc >= 0:
            lam = max(abs((tr + np.sqrt(disc)) / 2), abs((tr - np.sqrt(disc)) / 2))
        else:
            lam = np.sqrt(det)
        assert abs(lam - 0.7) < 1e-3

    def test_bad_density(self):
        with pytest.raises(InputError):
            small_esn(density=0.0)

    @pytest.mark.parametrize("ridge", [-1e-12, -1.0, float("nan")])
    def test_negative_ridge_rejected(self, ridge):
        with pytest.raises(InputError, match="ridge_lambda must be non-negative"):
            small_esn(ridge_lambda=ridge)

    def test_input_weights_shape_includes_bias(self):
        model = small_esn()
        assert model.w_in.shape == (60, 2)

    def test_degenerate_draw_retries_next_substream(self, monkeypatch):
        import qtnn.esn as esn_mod

        real = esn_mod.spectral_radius
        calls = {"n": 0}

        def flaky(w, iters=1000):
            calls["n"] += 1
            return 0.0 if calls["n"] <= 2 else real(w, iters)

        monkeypatch.setattr(esn_mod, "spectral_radius", flaky)
        model = small_esn()
        assert calls["n"] == 3  # two degenerate draws skipped
        assert abs(real(model.w_res) - 0.9) < 1e-4


class TestRidgeReadout:
    def test_identity_states_lambda_zero(self):
        w = ridge_readout(np.eye(2), np.array([[2.0, 3.0]]), 0.0)
        assert np.allclose(w, [[2.0, 3.0]], atol=1e-12)

    def test_identity_states_lambda_one(self):
        w = ridge_readout(np.eye(2), np.array([[2.0, 3.0]]), 1.0)
        assert np.allclose(w, [[1.0, 1.5]], atol=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(4)
        states = rng.standard_normal((12, 50))
        targets = rng.standard_normal((1, 50))
        lam = 1e-6
        w = ridge_readout(states, targets, lam)
        oracle = gaussian_elimination_solve(
            states @ states.T + lam * np.eye(12), states @ targets.T
        ).T
        assert np.max(np.abs(w - oracle)) < 1e-8

    def test_rank_deficient_needs_ridge(self):
        states = np.zeros((3, 5))
        states[0] = 1.0
        with pytest.raises(SingularMatrixError):
            ridge_readout(states, np.ones((1, 5)), 0.0)

    def test_fit_is_ridge_optimal(self):
        # The ridge gradient 2 (W H - Y) H^T + 2 lambda W vanishes at the fit to
        # within a few ulp of |Y H^T|, and perturbations of norm 1e-4, whose
        # rise (about 1e-8 times an eigenvalue of H H^T) dwarfs the rounding
        # of the objective, never lower it.
        lam = 1e-4
        eps = np.finfo(np.float64).eps
        for seed in range(10):
            rng = np.random.default_rng(seed)
            states = rng.standard_normal((8, 40))
            targets = rng.standard_normal((1, 40))
            w = ridge_readout(states, targets, lam)
            grad = 2.0 * (w @ states - targets) @ states.T + 2.0 * lam * w
            assert np.abs(grad).max() <= 16 * eps * np.linalg.norm(targets @ states.T)

            def objective(wmat):
                resid = wmat @ states - targets
                return float((resid**2).sum() + lam * (wmat**2).sum())

            base = objective(w)
            for _ in range(20):
                delta = rng.standard_normal(w.shape)
                delta *= 1e-4 / np.linalg.norm(delta)
                assert objective(w + delta) >= base


class TestFit:
    def test_only_readout_changes(self):
        model = small_esn()
        w_in_before = model.w_in.copy()
        w_res_before = model.w_res.copy()
        series = mackey_glass(MgConfig(transient=100), 400)
        esn_fit(model, series)
        assert model.w_out is not None
        assert np.array_equal(model.w_in, w_in_before)
        assert np.array_equal(model.w_res, w_res_before)

    def test_short_series_rejected(self):
        model = small_esn(washout=50)
        with pytest.raises(InputError):
            esn_fit(model, np.linspace(0, 1, 40))

    def test_negative_washout_rejected(self):
        # it would leave readout columns that no reservoir state fills
        model = small_esn(washout=-5)
        with pytest.raises(InputError, match="washout must be non-negative"):
            esn_fit(model, np.linspace(0, 1, 40))

    def test_small_instance_against_oracle(self):
        model = esn_build(n_reservoir=10, rho_target=0.8, density=1.0, seed=7,
                          washout=5, ridge_lambda=1e-8)
        series = np.sin(np.linspace(0, 8 * np.pi, 50))
        esn_fit(model, series)
        # rebuild the state matrix independently and solve by elimination
        h = np.zeros(10)
        cols, ys = [], []
        for t in range(49):
            h = _drive(model, h, series[t])
            if t >= 5:
                cols.append(np.concatenate(([1.0, series[t]], h)))
                ys.append(series[t + 1])
        states = np.array(cols).T
        targets = np.array(ys)[None, :]
        oracle = gaussian_elimination_solve(
            states @ states.T + 1e-8 * np.eye(12), states @ targets.T
        ).T
        assert np.max(np.abs(model.w_out - oracle)) < 1e-8

    def test_constant_series_constant_forecast(self):
        model = small_esn(washout=100)
        series = np.full(400, 0.5)
        esn_fit(model, series)
        forecast = esn_free_run(model, series, 100)
        assert np.max(np.abs(forecast - 0.5)) < 1e-3


class TestFreeRun:
    def test_requires_fit(self):
        model = small_esn()
        with pytest.raises(InputError):
            esn_free_run(model, np.zeros(100), 10)

    def test_zero_horizon_is_empty(self):
        series = mackey_glass(MgConfig(), 300)
        model = small_esn()
        esn_fit(model, series)
        forecast = esn_free_run(model, series, 0)
        assert forecast.shape == (0,)

    def test_negative_horizon_rejected(self):
        series = mackey_glass(MgConfig(), 300)
        model = small_esn()
        esn_fit(model, series)
        with pytest.raises(InputError, match="horizon"):
            esn_free_run(model, series, -3)

    @pytest.mark.parametrize("width", [2, 20])
    def test_2d_warm_series_rejected(self, width):
        series = mackey_glass(MgConfig(), 300)
        model = small_esn()
        esn_fit(model, series)
        with pytest.raises(InputError, match="warmup series must be 1-D"):
            esn_free_run(model, np.ones((150, width)), 5)

    def test_teacher_forced_beats_free_run(self):
        series = mackey_glass(MgConfig(), 1200)
        train, test = series[:800], series[800:]
        model = esn_build(n_reservoir=300, rho_target=1.25, density=0.1, seed=0,
                          washout=100, ridge_lambda=1e-8, allow_rho_ge_1=True)
        esn_fit(model, train)
        free = esn_free_run(model, train, 400)
        free_mse = mse_metric(free, test[:400])
        # teacher-forced one-step predictions over the same segment: same
        # alignment as the free run, but the true value is fed back each step
        h = np.zeros(model.n_reservoir)
        for value in train[:-1]:
            h = _drive(model, h, value)
        preds = np.empty(400)
        u = train[-1]
        for t in range(400):
            h = _drive(model, h, u)
            preds[t] = (model.w_out @ np.concatenate(([1.0, u], h))).item()
            u = test[t]
        forced_mse = mse_metric(preds, test[:400])
        assert forced_mse <= free_mse

    def test_fading_memory(self):
        model = esn_build(n_reservoir=200, rho_target=0.95, density=0.1, seed=11,
                          washout=0, act=Activation.tanh())
        rng = np.random.default_rng(0)
        inputs = rng.random(200)
        h1 = np.zeros(200)
        h2 = rng.standard_normal(200)
        initial_distance = np.linalg.norm(h1 - h2)
        for u in inputs:
            h1 = _drive(model, h1, u)
            h2 = _drive(model, h2, u)
        assert np.linalg.norm(h1 - h2) < 1e-6 * initial_distance

    def test_divergence_names_first_non_finite_step(self):
        series = mackey_glass(MgConfig(), 300)
        model = small_esn()
        esn_fit(model, series)
        # feed-back gain 1e200: step 0 predicts 1e200 * series[-1] (finite),
        # step 1 squares the gain past the float range
        assert 0.0 < series[-1] <= 1.0
        model.w_out = np.zeros_like(model.w_out)
        model.w_out[0, 1] = 1e200
        with pytest.raises(NumericalFailure, match="not finite from step 1") as err:
            esn_free_run(model, series, 10)
        assert err.value.step == 1


def count_drives(monkeypatch):
    """Record the input of every reservoir step taken through ``_drive``."""
    import qtnn.esn as esn_mod

    calls = []
    real = esn_mod._drive

    def drive(model, h, u):
        calls.append(u)
        return real(model, h, u)

    monkeypatch.setattr(esn_mod, "_drive", drive)
    return calls


def redriven(model, warm, horizon):
    """Free run that forces the reservoir from zero over an equal copy of ``warm``."""
    model.fit_end = None
    return esn_free_run(model, np.array(warm, copy=True), horizon)


class TestFitState:
    HORIZON = 30

    def fitted(self, series=None):
        series = mackey_glass(MgConfig(), 300) if series is None else series
        model = small_esn()
        esn_fit(model, series)
        return model, series

    def test_continued_forecast_equals_redriven_bytes(self, monkeypatch):
        model, series = self.fitted()
        calls = count_drives(monkeypatch)
        continued = esn_free_run(model, series, self.HORIZON)
        assert len(calls) == self.HORIZON  # no warm-up steps
        calls.clear()
        again = redriven(model, series, self.HORIZON)
        assert len(calls) == series.size - 1 + self.HORIZON
        assert continued.tobytes() == again.tobytes()

    @pytest.mark.parametrize("index, value", [(17, 0.5), (5, -0.0)])
    def test_different_warm_series_drives_from_zero(self, monkeypatch, index, value):
        series = mackey_glass(MgConfig(), 300)
        series[5] = 0.0  # so -0.0 differs from the fitted value only in its bytes
        model, _ = self.fitted(series)
        warm = series.copy()
        warm[index] = value
        calls = count_drives(monkeypatch)
        forecast = esn_free_run(model, warm, self.HORIZON)
        assert len(calls) == series.size - 1 + self.HORIZON
        assert forecast.tobytes() == redriven(model, warm, self.HORIZON).tobytes()

    def test_refit_replaces_recorded_state(self, monkeypatch):
        model, first = self.fitted()
        second = mackey_glass(MgConfig(tau_mg=20.0), 300)
        esn_fit(model, second)
        assert np.array_equal(model.fit_end.inputs, second[:-1])
        calls = count_drives(monkeypatch)
        esn_free_run(model, first, self.HORIZON)
        assert len(calls) == first.size - 1 + self.HORIZON
        calls.clear()
        continued = esn_free_run(model, second, self.HORIZON)
        assert len(calls) == self.HORIZON
        assert continued.tobytes() == redriven(model, second, self.HORIZON).tobytes()

    def test_failed_readout_keeps_previous_fit(self, monkeypatch):
        import qtnn.esn as esn_mod

        model, series = self.fitted()
        w_out, fit_end = model.w_out, model.fit_end

        def singular(states, targets, ridge_lambda):
            raise SingularMatrixError(0, 0.0)

        monkeypatch.setattr(esn_mod, "ridge_readout", singular)
        with pytest.raises(SingularMatrixError):
            esn_fit(model, series[::-1])
        assert model.w_out is w_out and model.fit_end is fit_end

    @pytest.mark.parametrize("name", ["w_in", "w_res", "act"])
    def test_replaced_reservoir_drives_from_zero(self, monkeypatch, name):
        model, series = self.fitted()
        # equal to what the fit drove, but not the same object
        setattr(model, name, copy.copy(getattr(model, name)))
        calls = count_drives(monkeypatch)
        forecast = esn_free_run(model, series, self.HORIZON)
        assert len(calls) == series.size - 1 + self.HORIZON
        assert forecast.tobytes() == redriven(model, series, self.HORIZON).tobytes()


class TestMse:
    def test_identical_zero(self):
        x = np.linspace(0, 1, 30)
        assert mse_metric(x, x) == 0.0

    def test_constant_offset(self):
        x = np.zeros(17)
        assert mse_metric(x + 0.1, x) == pytest.approx(0.01, rel=1e-12)

    def test_against_direct_sum(self):
        rng = np.random.default_rng(2)
        a, b = rng.random(100), rng.random(100)
        direct = sum((ai - bi) ** 2 for ai, bi in zip(a, b)) / 100
        assert abs(mse_metric(a, b) - direct) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            mse_metric(np.zeros(3), np.zeros(4))

    def test_nmse_normalizes(self):
        target = np.array([0.0, 2.0, 0.0, 2.0])
        pred = target + 1.0
        assert nmse_metric(pred, target) == pytest.approx(1.0 / target.var())
