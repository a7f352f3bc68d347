"""Quantum-tunnelling activation family, classical baselines and spectra.

The core quantity is the transmission coefficient T(E) of a particle of
energy E hitting a rectangular potential barrier of height ``v0`` and width
``a``.  Both sides of the barrier top take one sinc form::

    T = 1 / (1 + c S(x)^2 / E),   c = m a^2 v0^2 / (2 hbar^2),
    x = a sqrt(2 m |E - v0|) / hbar,   S = sinh(x)/x (E <= v0), sin(x)/x (E > v0)

with S = 1 at x = 0.  Below the barrier S > 1 falls as E rises, so T < 1
rises; above it T oscillates and touches 1 exactly where sin(x) = 0.  T(0)
is 0, which makes the rectified mapping a ReLU-like gate with a strictly
increasing sub-barrier flank.  Neither E = v0 nor E = 0 needs a special
case, in T or in its closed-form derivative::

    dT/dE = c (S^2 - 2 E S S_E) / (E + c S^2)^2,   S_E = -+(m a^2 / hbar^2) S'(x)/x

(- below the barrier, + above), where S'(x)/x takes its Taylor series at
small x, as its closed forms cancel there.

T and dT/dE act as a drop-in activation function: a pre-activation x is
mapped to an energy through a scale factor ``ampl`` and one of three input
modes, and the derivative follows by the chain rule.
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

# below this x^2, S'(x)/x takes its Taylor series: the closed forms lose
# about 3 eps / x^2 of it to cancellation
_SERIES_CUT = 0.1
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
        # the constants the kernel reads, derived once; they and the slope at
        # E = 0, 1 / (c S(x0)^2), must be finite
        v0, a, m, hbar = self.v0, self.a, self.m, self.hbar
        with np.errstate(all="ignore"):  # NumPy scalars overflow quietly, floats raise
            try:
                q = 2.0 * m * a * a / hbar**2  # x^2 = q |E - v0|
            except (OverflowError, ZeroDivisionError):
                q = math.nan
            c = 0.25 * q * v0 * v0
            k = SimpleNamespace(q=q, c=c, cq=c * q)
            x0 = np.sqrt(q * v0)
            s0 = np.sinh(x0) / x0
            slope0 = 1.0 / (c * s0 * s0)
        if not all(map(math.isfinite, (*vars(k).values(), slope0))):
            raise InputError(
                f"barrier v0={v0:g}, a={a:g}, m={m:g}, hbar={hbar:g} gives a non-finite constant")
        object.__setattr__(self, "_derived", k)


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


def _transmission(x, scale, p, grad):
    """T(E) and, with ``grad``, dT/dE at the energies E = scale * x, x a 1-D array >= 0.

    Past the overflow limits the forms give NaN: T = 1 there (x = inf above
    the barrier) and dT/dE = 0, there and below the barrier where c S^2
    overflows and T is 0; so NumPy's warnings are off.
    """
    k = p._derived
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        e = scale * x  # inf past the largest double: T = 1 there
        w = (p.v0 - e) * k.q  # x^2 below the barrier, -x^2 above it
        x2 = np.abs(w)
        xs = np.sqrt(x2)
        s = np.empty(e.shape)  # and fill: np.ones' Python wrapper is a fixed cost per call
        s.fill(1.0)  # S at x = 0
        ds = np.empty(e.shape) if grad else None  # S'(x)/x signed as S_E = -q/2 ds
        for f, df, index in ((np.sinh, np.cosh, (w > 0.0).nonzero()[0]),
                             (np.sin, np.cos, (w < 0.0).nonzero()[0])):
            if index.size:
                xb = xs.take(index)
                fx = f(xb)
                s[index] = fx / xb
                if grad:
                    ds[index] = (xb * df(xb) - fx) / (w.take(index) * xb)  # w x = +-x^3
        cs2 = s * s
        cs2 *= k.c
        t = 1.0 / (1.0 + cs2 / e)
        np.fmin(t, 1.0, out=t)  # NaN -> 1
        if not grad:
            return t, None
        small = (x2 < _SERIES_CUT).nonzero()[0]
        if small.size:
            ws = w.take(small)  # the series of S'(x)/x in w, on both sides
            ds[small] = 1 / 3 + ws * (1 / 30 + ws * (1 / 840 + ws * (
                1 / 45360 + ws * (1 / 3991680 + ws * (1 / 518918400)))))
        # dT/dE = c (S^2 - 2 E S S_E) / (E + c S^2)^2, each term divided by
        # E + c S^2 first so that no partial result overflows a finite slope
        den = e + cs2
        dt = e * s
        dt /= den
        dt *= ds
        dt *= k.cq
        dt += cs2 / den
        dt /= den
    dt[np.isnan(dt)] = 0.0
    return t, dt


def _energy_transmission(energy, params, grad):
    e = np.asarray(energy, dtype=np.float64) + 0.0  # -0.0 -> +0.0, all else unchanged
    if not (e >= 0.0).all():
        raise InputError("energy must be non-negative")
    t, dt = _transmission(e.ravel(), 1.0, params or BarrierParams(), grad)
    out = (dt if grad else t).reshape(e.shape)
    return float(out) if e.ndim == 0 else out


def qt_transmission(energy, params=None):
    """Transmission coefficient T(E) in [0, 1]; scalar in, scalar out."""
    return _energy_transmission(energy, params, False)


def qt_transmission_derivative(energy, params=None):
    """Closed-form dT/dE; at E = v0 the common one-sided limit, at E = 0 the right limit."""
    return _energy_transmission(energy, params, True)


def _qt_activate(x, p, grad):
    # the live inputs (x > 0; x != 0 in absolute mode) of each block go to the kernel
    absolute, bipolar = p.mode == "absolute", p.mode == "bipolar"
    scale = 2.0 * p.ampl if bipolar else p.ampl
    xf = x.ravel()
    y, dy = np.empty(xf.size), np.zeros(xf.size) if grad else None
    y.fill(-1.0 if bipolar else 0.0)
    for start in range(0, xf.size, _BLOCK):
        xb = xf[start:start + _BLOCK]
        live = (xb != 0.0 if absolute else xb > 0.0).nonzero()[0]
        xl = xb.take(live)
        t, dt = _transmission(np.abs(xl) if absolute else xl, p.ampl, p, grad)
        live += start  # block offsets to offsets in y, in place: no index-sized temporary
        y[live] = 2.0 * t - 1.0 if bipolar else t
        if grad:
            dy[live] = (scale * np.sign(xl) if absolute else scale) * dt
    return y.reshape(x.shape), (dy.reshape(x.shape) if grad else None)


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


def softmax_crossentropy(logits, labels):
    """Softmax probabilities, mean cross-entropy and the logit gradient.

    ``labels`` holds one class index per row of the 2-D ``logits``.  The
    gradient is probs, less 1 at each row's label, over the batch size: the
    output-layer error averaged so that learning rates are comparable across
    batch sizes.
    """
    probs, losses = _crossentropy_rows(logits, labels)
    grad = probs.copy()
    grad[np.arange(losses.size), labels] -= 1.0
    grad /= losses.size
    return probs, float(losses.mean()), grad


def _crossentropy_rows(logits, labels):
    """Softmax probabilities and per-row cross-entropy of 2-D logits against class indices."""
    z = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if z.ndim != 2 or labels.shape != z.shape[:1]:
        raise ShapeError(f"logits {z.shape} need one label per row, got labels {labels.shape}")
    if labels.dtype.kind not in "iu" or ((labels < 0) | (labels >= z.shape[1])).any():
        raise InputError(f"labels must be integer class indices in [0, {z.shape[1]})")
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    norm = e.sum(axis=1, keepdims=True)
    # -log p_label computed from logits, no log of an underflowed prob
    return e / norm, np.log(norm[:, 0]) - shifted[np.arange(z.shape[0]), labels]


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
