"""Quantum-tunnelling activation family, classical baselines and spectra.

The core quantity is the transmission coefficient T(E) of a particle of
energy E hitting a rectangular potential barrier of height ``v0`` and width
``a``::

    E < v0 :  T = 1 / (1 - beta * sinh^2(kappa1 * a)),  beta = v0^2/(4 E (E-v0))
    E > v0 :  T = 1 / (1 + beta * sin^2(kappa * a))
    E = v0 :  T = 1 / (1 + m a^2 v0 / (2 hbar^2))       (limit of both sides)

with kappa1 = sqrt(2 m (v0-E))/hbar and kappa = sqrt(2 m (E-v0))/hbar.
Below the barrier beta is negative, so 1 - beta sinh^2 > 1 and T < 1; above
it T oscillates and touches 1 exactly where sin(kappa a) = 0.  T(0) is 0 by
its analytic limit, which makes the rectified mapping a ReLU-like gate with
a strictly increasing sub-barrier flank.

T and its closed-form derivative act as a drop-in activation function: a
pre-activation x is mapped to an energy through a scale factor ``ampl`` and
one of three input modes, and the derivative follows by the chain rule.

One kernel serves every caller: it classifies each energy once (sub-barrier,
above-barrier, or the window around v0 between) and gathers each branch by index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .numerics import InputError, NonFiniteInput, ShapeError, dft_magnitude

__all__ = [
    "BarrierParams",
    "Activation",
    "qt_transmission",
    "qt_transmission_derivative",
    "activate",
    "softmax",
    "softmax_crossentropy",
    "SpectrumReport",
    "harmonic_spectrum",
    "spectrum_to_csv",
]

MODES = ("rectified", "absolute", "bipolar")

# sinh(x)^2 overflows float64 near x ~ 355; beyond this T underflows anyway
_SINH_ARG_LIMIT = 350.0

# half-width of the window (relative to v0) routed to the E = v0 limit form
_VALUE_WINDOW = 1e-12
# wider window for the derivative, where cancellation sets in sooner
_DERIV_WINDOW = 1e-9
# energies below this fraction of v0 take the E = 0 right-limit slope: there
# it equals dT/dE to rounding, while 4 E^2 in the closed form underflows
_ZERO_WINDOW = 1e-20
# inputs per kernel pass: it bounds every temporary at 1 MiB, memory the
# allocator reuses from call to call instead of mapping fresh pages
_BLOCK = 131072


@dataclass(frozen=True)
class BarrierParams:
    """Rectangular-barrier constants plus the input-to-energy mapping.

    ``ampl`` multiplies the pre-activation before it is interpreted as an
    energy; ``mode`` selects how signed inputs map onto E >= 0.
    """

    v0: float = 2.0
    a: float = 1.0
    m: float = 1.0
    hbar: float = 1.0
    ampl: float = 1.0
    mode: str = "rectified"

    def __post_init__(self):
        for name in ("v0", "a", "m", "hbar", "ampl"):
            if not getattr(self, name) > 0.0:
                raise InputError(f"BarrierParams.{name} must be positive")
        if self.mode not in MODES:
            raise InputError(f"mode must be one of {MODES}, got {self.mode!r}")
        # the constants the kernel reads, derived once and required to be finite
        v0, a, m, hbar = self.v0, self.a, self.m, self.hbar
        try:
            c = 2.0 * m / hbar**2  # kappa^2 = c * |E - v0|
            top = m * a * a * v0 / (2.0 * hbar**2)
            s0 = float(np.sinh(min(np.sqrt(c * v0) * a, _SINH_ARG_LIMIT)) ** 2)
            k = {"c": c, "mh": m / hbar**2, "v0sq": v0**2, "zero_cut": _ZERO_WINDOW * v0,
                 "t_top": 1.0 / (1.0 + top), "dt_zero": 4.0 / (v0 * s0),
                 "dt_top": top * (1.0 / v0 + a * a * c / 3.0) / (1.0 + top) ** 2}
        except (OverflowError, ZeroDivisionError):
            k = {}
        windows = {w: (v0 - w * v0, v0 + w * v0) for w in (_VALUE_WINDOW, _DERIV_WINDOW)}
        if not k or not all(map(math.isfinite, [*k.values(), *sum(windows.values(), ())])):
            raise InputError(
                f"barrier v0={v0:g}, a={a:g}, m={m:g}, hbar={hbar:g} gives a non-finite constant")
        object.__setattr__(self, "_derived", SimpleNamespace(**k, windows=windows))


@dataclass(frozen=True)
class Activation:
    """Selected nonlinearity: 'qt' with barrier parameters, or a classical one."""

    kind: str
    barrier: BarrierParams | None = None

    _CLASSICAL = ("relu", "sigmoid", "tanh", "identity")

    def __post_init__(self):
        if self.kind == "qt":
            if self.barrier is None:
                object.__setattr__(self, "barrier", BarrierParams())
        elif self.kind in self._CLASSICAL:
            if self.barrier is not None:
                raise InputError(f"{self.kind} takes no barrier parameters")
        else:
            raise InputError(f"unknown activation kind {self.kind!r}")

    @classmethod
    def qt(cls, barrier=None, **overrides):
        if barrier is None:
            barrier = BarrierParams(**overrides)
        elif overrides:
            raise InputError("pass either a BarrierParams or keyword overrides")
        return cls("qt", barrier)

    @classmethod
    def relu(cls):
        return cls("relu")

    @classmethod
    def sigmoid(cls):
        return cls("sigmoid")

    @classmethod
    def tanh(cls):
        return cls("tanh")

    @classmethod
    def identity(cls):
        return cls("identity")

    def label(self):
        if self.kind != "qt":
            return self.kind
        b = self.barrier
        return (
            f"qt(v0={b.v0:g}, a={b.a:g}, m={b.m:g}, hbar={b.hbar:g}, "
            f"ampl={b.ampl:g}, {b.mode})"
        )


def _transmission(x, scale, p, grad, window):
    """T(E) and, with ``grad``, dT/dE at the energies E = scale * x, x a 1-D array >= 0.

    Energies below ``v0 - window`` take the sub-barrier form, those above
    ``v0 + window`` the above-barrier form, and all between the E = v0 limit;
    each branch maps what overflows to its limit, so NumPy's warnings are off.
    """
    k = p._derived
    lo, hi = k.windows[window]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        e = scale * x  # inf past the largest double: T = 1 there
        t = np.full(e.shape, k.t_top)
        dt = np.full(e.shape, k.dt_top) if grad else None
        for branch, index in ((_sub_barrier, np.flatnonzero(e < lo)),
                              (_above_barrier, np.flatnonzero(e > hi))):
            if index.size:
                t[index], branch_dt = branch(e.take(index), p, k, grad)
                if grad:
                    dt[index] = branch_dt
    return t, dt


def _sub_barrier(eb, p, k, grad):
    v0, a = p.v0, p.a
    d = v0 - eb
    k1a = np.sqrt(k.c * d) * a
    # inf/nan slopes below _ZERO_WINDOW * v0 give way to the E = 0 limit at the end
    g = k.v0sq / (4.0 * eb * d)
    sh = np.sinh(np.minimum(k1a, _SINH_ARG_LIMIT))
    s = sh * sh
    tb = 1.0 / (1.0 + g * s)
    if grad:
        gp = k.v0sq * (2.0 * eb - v0) / (4.0 * eb**2 * d**2)
        # sinh(2z) = 2 sinh(z) cosh(z) keeps the argument in range
        sp = a * 2.0 * sh * np.sqrt(1.0 + s) * (-k.mh / (k1a / a))
        db = -(gp * s + g * sp) * tb * tb
    # T underflows below ~1e-300 past this point; report 0 rather than overflow
    gated = k1a >= _SINH_ARG_LIMIT
    tb[gated] = 0.0
    if not grad:
        return tb, None
    db[gated] = 0.0
    # right-limit slope: T ~ 4 E / (v0 sinh^2(a sqrt(2 m v0)/hbar))
    db[eb < k.zero_cut] = k.dt_zero
    return tb, db


def _above_barrier(ea, p, k, grad):
    v0, a = p.v0, p.a
    al = ea - v0
    ka = np.sqrt(k.c * al) * a
    g = k.v0sq / (4.0 * ea * al)
    s = np.sin(ka) ** 2
    # past ~8e307 the closed forms overflow into NaN (sin(inf), inf/inf): T = 1, dT = 0 there
    ta = 1.0 / (1.0 + g * s)
    ta[np.isnan(ta)] = 1.0
    if not grad:
        return ta, None
    gp = -k.v0sq * (2.0 * ea - v0) / (4.0 * ea**2 * al**2)
    sp = a * np.sin(2.0 * ka) * (k.mh / (ka / a))
    da = -(gp * s + g * sp) * ta * ta
    da[np.isnan(da)] = 0.0
    return ta, da


def _energy_transmission(energy, params, grad, window):
    e = np.asarray(energy, dtype=np.float64) + 0.0  # -0.0 -> +0.0, all else unchanged
    if not (e >= 0.0).all():
        raise InputError("energy must be non-negative")
    t, dt = _transmission(e.ravel(), 1.0, params or BarrierParams(), grad, window)
    out = (dt if grad else t).reshape(e.shape)
    return float(out) if e.ndim == 0 else out


def qt_transmission(energy, params=None):
    """Transmission coefficient T(E) in [0, 1]; scalar in, scalar out."""
    return _energy_transmission(energy, params, False, _VALUE_WINDOW)


def qt_transmission_derivative(energy, params=None):
    """Closed-form dT/dE; at E = v0 the common one-sided limit, at E = 0 the right limit.

    Energies below ``1e-20 * v0`` also take the right limit, which equals the
    closed form there to rounding while the closed form underflows.
    """
    return _energy_transmission(energy, params, True, _DERIV_WINDOW)


def _qt_activate(x, p, grad):
    # the live inputs (x > 0; x != 0 in absolute mode) of each block go to the
    # kernel; value-only calls keep the derivative's window around v0, so the
    # values do not depend on whether the derivative was asked for
    absolute, bipolar = p.mode == "absolute", p.mode == "bipolar"
    scale = 2.0 * p.ampl if bipolar else p.ampl
    xf = x.ravel()
    y = np.full(x.shape, -1.0 if bipolar else 0.0)
    dy = np.zeros(x.shape) if grad else None
    for start in range(0, xf.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        live = np.flatnonzero(xf[block] != 0.0 if absolute else xf[block] > 0.0)
        xl = xf[block].take(live)
        t, dt = _transmission(np.abs(xl) if absolute else xl, p.ampl, p, grad, _DERIV_WINDOW)
        y.reshape(-1)[block][live] = 2.0 * t - 1.0 if bipolar else t
        if grad:
            dy.reshape(-1)[block][live] = (scale * np.sign(xl) if absolute else scale) * dt
    return y, dy


def activate(x, act, grad=True):
    """Apply an activation elementwise, returning (value, derivative).

    With ``grad=False`` the derivative is not computed and comes back as
    None; the values are the same either way.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise NonFiniteInput("activation input contains NaN or Inf")
    if act.kind == "qt":
        return _qt_activate(x, act.barrier, grad)
    if act.kind == "relu":
        return np.maximum(x, 0.0), ((x > 0.0).astype(np.float64) if grad else None)
    if act.kind == "sigmoid":
        with np.errstate(over="ignore"):  # exp overflow saturates to y = 0
            y = 1.0 / (1.0 + np.exp(-x))
        return y, (y * (1.0 - y) if grad else None)
    if act.kind == "tanh":
        y = np.tanh(x)
        return y, (1.0 - y * y if grad else None)
    # identity
    return x.copy(), (np.ones_like(x) if grad else None)


def softmax(logits):
    """Row-wise softmax with max subtraction."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_crossentropy(logits, onehot):
    """Softmax probabilities, mean cross-entropy and the logit gradient.

    The gradient is (probs - onehot) / batch, i.e. the output-layer error
    averaged so that learning rates are comparable across batch sizes.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(onehot, dtype=np.float64)
    if z.ndim == 1:
        z = z[None, :]
    if y.ndim == 1:
        y = y[None, :]
    if z.shape != y.shape:
        raise ShapeError(f"logits {z.shape} and onehot {y.shape} differ")
    if np.any(np.abs(y.sum(axis=1) - 1.0) > 1e-9):
        raise InputError("each onehot row must sum to 1")
    probs = softmax(z)
    return probs, float(_crossentropy_rows(z, y).mean()), (probs - y) / z.shape[0]


def _crossentropy_rows(z, y):
    """Cross-entropy of each row of 2-D logits ``z`` against one-hot rows ``y``."""
    shifted = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    # -sum_i y_i log p_i computed from logits, no log of an underflowed prob
    return log_norm - (shifted * y).sum(axis=1)


@dataclass
class SpectrumReport:
    """Magnitude spectrum of an activated sinusoid and its detected harmonics."""

    kind: str
    f0: float
    fs: float
    threshold_db: float
    frequencies: np.ndarray
    magnitudes: np.ndarray
    detected: list = field(default_factory=list)  # (harmonic k, freq Hz, rel dB)

    def detected_frequencies(self):
        return {freq for _, freq, _ in self.detected}


def harmonic_spectrum(act, f0=16.0, fs=1024.0, n=1024, threshold_db=-70.0):
    """Drive an activation with sin(2 pi f0 t) and flag its harmonics.

    The signal must contain an integer number of periods (f0 * n / fs
    integral) so every harmonic falls exactly on a DFT bin, and the drive
    must lie below the Nyquist frequency (2 f0 < fs).  A harmonic at
    k*f0 is detected when its magnitude is within ``threshold_db`` (20 log10)
    of the largest non-DC peak.
    """
    if not 0.0 < fs < np.inf:
        raise InputError(f"fs must be positive and finite, got {fs}")
    cycles = f0 * n / fs
    if not np.isfinite(cycles) or abs(cycles - round(cycles)) > 1e-9 or round(cycles) < 1:
        raise InputError(
            f"f0*n/fs must be a positive integer number of periods, got {cycles}"
        )
    if not 2.0 * f0 < fs:
        raise InputError(f"f0={f0} must lie below the Nyquist frequency fs/2={fs / 2.0}")
    t = np.arange(n) / fs
    y, _ = activate(np.sin(2.0 * np.pi * f0 * t), act, grad=False)
    mag = dft_magnitude(y)
    freqs = np.arange(n // 2 + 1) * (fs / n)
    reference = mag[1:].max()
    detected = []
    k = 1
    while k * f0 <= fs / 2.0:
        idx = int(round(k * f0 * n / fs))
        if mag[idx] > 0.0 and reference > 0.0:
            rel_db = 20.0 * np.log10(mag[idx] / reference)
        else:
            rel_db = -np.inf
        if rel_db > threshold_db:
            detected.append((k, k * f0, float(rel_db)))
        k += 1
    return SpectrumReport(
        kind=act.label(),
        f0=f0,
        fs=fs,
        threshold_db=threshold_db,
        frequencies=freqs,
        magnitudes=mag,
        detected=detected,
    )


def spectrum_to_csv(report, path):
    """Write the full magnitude spectrum as `freq_hz,magnitude` rows."""
    np.savetxt(path, np.column_stack((report.frequencies, report.magnitudes)),
               fmt=("%.10g", "%.17g"), delimiter=",", header="freq_hz,magnitude", comments="")
