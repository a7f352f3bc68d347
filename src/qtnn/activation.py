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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import InputError, ShapeError, dft_magnitude

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


def _transmission_pieces(energy, p, want_derivative, rel_window):
    """T(E) and optionally dT/dE for an array of energies >= 0.

    Energies within ``rel_window * v0`` of the barrier top take the E = v0
    limit form.
    """
    e = np.asarray(energy, dtype=np.float64)
    if np.any(e < 0.0):
        raise InputError("energy must be non-negative")
    t = np.zeros_like(e)
    dt = np.zeros_like(e) if want_derivative else None

    v0, a, m, hbar = p.v0, p.a, p.m, p.hbar
    c = 2.0 * m / hbar**2  # kappa^2 = c * |E - v0|
    window = rel_window * v0

    below = (e > 0.0) & (e < v0 - window)
    above = e > v0 + window
    at = (np.abs(e - v0) <= window) & (e > 0.0)

    if below.any():
        eb = e[below]
        k1a = np.sqrt(c * (v0 - eb)) * a
        # T underflows below ~1e-300 past this point; report 0 rather than overflow
        safe = k1a < _SINH_ARG_LIMIT
        # energies below _ZERO_WINDOW * v0 may give inf/nan slopes here; the
        # E = 0 branch at the end overwrites them
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            g = v0**2 / (4.0 * eb * (v0 - eb))
            sh = np.sinh(np.minimum(k1a, _SINH_ARG_LIMIT))
            s = sh * sh
            tb = np.where(safe, 1.0 / (1.0 + g * s), 0.0)
            t[below] = tb
            if want_derivative:
                gp = v0**2 * (2.0 * eb - v0) / (4.0 * eb**2 * (v0 - eb) ** 2)
                k1 = k1a / a
                # sinh(2z) = 2 sinh(z) cosh(z) keeps the argument in range
                sp = a * 2.0 * sh * np.sqrt(1.0 + s) * (-(m / hbar**2) / k1)
                dt[below] = np.where(safe, -(gp * s + g * sp) * tb * tb, 0.0)

    if above.any():
        ea = e[above]
        al = ea - v0
        ka = np.sqrt(c * al) * a
        # astronomically large E overflows the intermediates but saturates
        # cleanly to the transparent limit T = 1, dT = 0
        with np.errstate(over="ignore"):
            g = v0**2 / (4.0 * ea * al)
            s = np.sin(ka) ** 2
            ta = 1.0 / (1.0 + g * s)
            t[above] = ta
            if want_derivative:
                gp = -(v0**2) * (2.0 * ea - v0) / (4.0 * ea**2 * al**2)
                k = ka / a
                sp = a * np.sin(2.0 * ka) * ((m / hbar**2) / k)
                dt[above] = -(gp * s + g * sp) * ta * ta

    if at.any():
        barrier_term = m * a * a * v0 / (2.0 * hbar**2)
        t[at] = 1.0 / (1.0 + barrier_term)
        if want_derivative:
            dt[at] = (
                barrier_term * (1.0 / v0 + a * a * c / 3.0) / (1.0 + barrier_term) ** 2
            )

    if want_derivative:
        near_zero = e < _ZERO_WINDOW * v0
        if near_zero.any():
            # right-limit slope: T ~ 4 E / (v0 sinh^2(a sqrt(2 m v0)/hbar))
            s0 = np.sinh(min(np.sqrt(c * v0) * a, _SINH_ARG_LIMIT)) ** 2
            dt[near_zero] = 4.0 / (v0 * s0)
    return t, dt


def qt_transmission(energy, params=None):
    """Transmission coefficient T(E) in [0, 1]; scalar in, scalar out."""
    p = params if params is not None else BarrierParams()
    t, _ = _transmission_pieces(energy, p, False, _VALUE_WINDOW)
    return float(t) if np.ndim(energy) == 0 else t


def qt_transmission_derivative(energy, params=None):
    """Closed-form dT/dE; at E = v0 the common one-sided limit, at E = 0 the right limit.

    Energies below ``1e-20 * v0`` also take the right limit, which equals the
    closed form there to rounding while the closed form underflows.
    """
    p = params if params is not None else BarrierParams()
    _, dt = _transmission_pieces(energy, p, True, _DERIV_WINDOW)
    return float(dt) if np.ndim(energy) == 0 else dt


def _qt_elementwise(x, p, grad):
    # value-only calls keep the derivative's window around v0, so the
    # values do not depend on whether the derivative was asked for
    if p.mode == "absolute":
        energy = p.ampl * np.abs(x)
        t, dt = _transmission_pieces(energy, p, grad, _DERIV_WINDOW)
        return t, (p.ampl * np.sign(x) * dt if grad else None)
    energy = p.ampl * np.maximum(x, 0.0)
    t, dt = _transmission_pieces(energy, p, grad, _DERIV_WINDOW)
    active = x > 0.0
    if p.mode == "bipolar":
        y = np.where(active, 2.0 * t - 1.0, -1.0)
        dy = np.where(active, 2.0 * p.ampl * dt, 0.0) if grad else None
    else:
        y = np.where(active, t, 0.0)
        dy = np.where(active, p.ampl * dt, 0.0) if grad else None
    return y, dy


def activate(x, act, grad=True):
    """Apply an activation elementwise, returning (value, derivative).

    With ``grad=False`` the derivative is not computed and comes back as
    None; the values are the same either way.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise InputError("activation input contains NaN or Inf")
    if act.kind == "qt":
        return _qt_elementwise(x, act.barrier, grad)
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
    shifted = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    # -sum_i y_i log p_i computed from logits, no log of an underflowed prob
    per_row = log_norm - (shifted * y).sum(axis=1)
    probs = softmax(z)
    batch = z.shape[0]
    return probs, float(per_row.mean()), (probs - y) / batch


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
    integral) so every harmonic falls exactly on a DFT bin.  A harmonic at
    k*f0 is detected when its magnitude is within ``threshold_db`` (20 log10)
    of the largest non-DC peak.
    """
    cycles = f0 * n / fs
    if abs(cycles - round(cycles)) > 1e-9 or round(cycles) < 1:
        raise InputError(
            f"f0*n/fs must be a positive integer number of periods, got {cycles}"
        )
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("freq_hz,magnitude\n")
        for f, m in zip(report.frequencies, report.magnitudes):
            fh.write(f"{f:.10g},{m:.17g}\n")
