"""Echo State Network: fixed random reservoir, trained linear readout.

The reservoir state follows h_t = act(W_in [1; u_t] + W_res h_{t-1}) with
W_in's first column acting as the bias.  W_res is drawn sparse uniform and
rescaled so its spectral radius estimate hits the requested target; only
W_out is ever fitted, by ridge regression

    W_out = Y H^T (H H^T + lambda I)^{-1}

over extended states [1; u_t; h_t] collected after a washout period.  In
free-running mode each prediction is fed back as the next input, turning
the fitted network into a generator.

The fit keeps the reservoir state it ends in as model.state, and the free
run continues the fitted series from there, so the reservoir runs once
per input.  Like W_out, that state belongs to the series and the
reservoir it was driven through: to forecast after another series, or
after changing W_in, W_res or the activation, refit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .activation import Activation, activate
from .numerics import (
    InputError,
    NumericalFailure,
    Rng,
    SingularMatrixError,
    solve_spd,
    spectral_radius,
)

__all__ = [
    "EsnModel",
    "esn_build",
    "esn_fit",
    "esn_free_run",
    "ridge_readout",
    "mse_metric",
    "nmse_metric",
]


@dataclass
class EsnModel:
    w_in: np.ndarray          # N x 2, column 0 is the bias
    w_res: np.ndarray         # N x N, sparse, scaled to esn_build's rho_target
    w_out: np.ndarray | None  # 1 x (2 + N) after fitting
    act: Activation
    washout: int
    ridge_lambda: float
    state: np.ndarray | None = None  # reservoir state after series[:-1], set with w_out

    @property
    def n_reservoir(self):
        return self.w_res.shape[0]


def esn_build(
    n_reservoir=1000,
    rho_target=0.95,
    density=0.1,
    seed=0,
    act=Activation.tanh(),
    allow_rho_ge_1=False,
    washout=100,
    ridge_lambda=1e-8,
):
    """Draw and scale the fixed reservoir of a scalar series; the readout stays unfitted.

    Entries of W_in and W_res are uniform on (-0.5, 0.5); W_res keeps each
    entry with probability ``density`` and is then rescaled by
    rho_target / rho_hat.  A spectral radius at or above 1 needs the
    explicit ``allow_rho_ge_1`` override, and ``ridge_lambda`` must be
    non-negative.  A degenerate draw whose radius estimates to zero is
    retried on the next substream.
    """
    if not 0.0 < density <= 1.0:
        raise InputError("density must lie in (0, 1]")
    if rho_target <= 0.0:
        raise InputError("rho_target must be positive")
    if rho_target >= 1.0 and not allow_rho_ge_1:
        raise InputError(
            "rho_target >= 1 abandons the echo-state guarantee; "
            "pass allow_rho_ge_1=True to override"
        )
    if not ridge_lambda >= 0.0:
        raise InputError(f"ridge_lambda must be non-negative, got {ridge_lambda}")
    for attempt in range(16):
        rng = Rng.substream(seed, attempt)
        w_in = rng.uniform_matrix(n_reservoir, 2)
        w_res = rng.uniform_matrix(n_reservoir, n_reservoir)
        if density < 1.0:
            mask = rng.uniforms(n_reservoir * n_reservoir).reshape(w_res.shape) < density
            w_res *= mask
        rho_hat = spectral_radius(w_res)
        if rho_hat > 0.0:
            w_res *= rho_target / rho_hat
            return EsnModel(w_in, w_res, None, act, washout, ridge_lambda)
    raise InputError("reservoir draw degenerate 16 times; check density and size")


def _drive(model, h, u):
    pre = model.w_in[:, 0] + model.w_in[:, 1] * u + model.w_res @ h
    return activate(pre, model.act, grad=False)[0]


def _run_reservoir(model, inputs, h, states=None):
    """Drive from state ``h`` over ``inputs`` and return the final state.

    Given a ``states`` matrix, column t - washout receives the extended
    state [1; u_t; h_t] of every step t >= washout.
    """
    washout = model.washout
    if states is not None:
        states[0] = 1.0
        states[1] = inputs[washout:]
    for t, u in enumerate(inputs):
        h = _drive(model, h, u)
        if states is not None and t >= washout:
            states[2:, t - washout] = h
    return h


def ridge_readout(states, targets, ridge_lambda):
    """Solve W_out = Y H^T (H H^T + lambda I)^{-1} for column-wise states H."""
    states = np.asarray(states, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    gram = states @ states.T
    if ridge_lambda:
        gram[np.diag_indices_from(gram)] += ridge_lambda
    try:
        z = solve_spd(gram, states @ targets.T)
    except SingularMatrixError as err:
        raise SingularMatrixError(
            f"{err}; state Gram matrix is singular, use ridge_lambda > 0") from None
    return z.T


def esn_fit(model, series):
    """Teacher-forced one-step-ahead ridge fit of the readout.

    Runs the reservoir over series[0..T-2] targeting series[1..T-1],
    collects extended states after the washout and solves the regularized
    normal equations through the SPD path.  Sets and returns model.w_out;
    once the solve succeeds it also sets model.state, the reservoir state
    after series[T-2], for esn_free_run to continue from.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1:
        raise InputError("series must be 1-D")
    if model.washout < 0:
        raise InputError(f"washout must be non-negative, got {model.washout}")
    total = series.size
    if total <= model.washout + 1:
        raise InputError(
            f"series length {total} too short for washout {model.washout}"
        )
    states = np.empty((2 + model.n_reservoir, total - 1 - model.washout))
    h = _run_reservoir(model, series[:-1], np.zeros(model.n_reservoir), states)
    w_out = ridge_readout(states, series[None, model.washout + 1 :], model.ridge_lambda)
    model.w_out, model.state = w_out, h
    return w_out


def esn_free_run(model, series, horizon):
    """Generative forecast of ``horizon`` steps after ``series``.

    ``series`` is the series esn_fit was given: the run continues from
    model.state, the reservoir state after series[:-1], and feeds series[-1]
    first, the state/input pairing the readout was fitted on.  Each
    prediction is then fed back as the next input; model.state is left as
    it is.  To forecast after another series, or after changing W_in, W_res
    or the activation, refit.  Raises NumericalFailure naming the first
    step whose prediction is not finite.
    """
    if model.w_out is None or model.state is None:
        raise InputError("model has no fitted readout; call esn_fit first")
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1:
        raise InputError("warmup series must be 1-D")
    if series.size <= model.washout:
        raise InputError("warmup series must cover the washout")
    if horizon < 0:
        raise InputError(f"horizon must be >= 0, got {horizon}")
    h, u = model.state, series[-1]
    out = np.empty(horizon)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is raised below
        for t in range(horizon):
            h = _drive(model, h, u)
            u = (model.w_out @ np.concatenate(([1.0, u], h))).item()
            if not math.isfinite(u):  # fed back, it would fail the next activation
                raise NumericalFailure(
                    t, message=f"free-run forecast is not finite from step {t}")
            out[t] = u
    return out


def mse_metric(pred, target):
    """Plain mean squared error between two equal-length series."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise InputError(f"length mismatch: {pred.shape} vs {target.shape}")
    with np.errstate(over="ignore"):
        return float(np.mean((target - pred) ** 2))


def nmse_metric(pred, target):
    """MSE normalized by the variance of the target."""
    target = np.asarray(target, dtype=np.float64)
    var = float(target.var())
    if var == 0.0:
        raise InputError("target variance is zero")
    return mse_metric(pred, target) / var
