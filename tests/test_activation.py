import math

import numpy as np
import pytest

from conftest import lattice_transmission
from qtnn.activation import (
    _BLOCK,
    _transmission,
    Activation,
    BarrierParams,
    activate,
    harmonic_spectrum,
    qt_transmission,
    qt_transmission_derivative,
    softmax_crossentropy,
    spectrum_to_csv,
)
from qtnn.numerics import InputError, ShapeError

EV = 1.602176634e-19
ELECTRON_MASS = 9.1093837015e-31
HBAR = 1.054571817e-34

UNIT = BarrierParams(v0=2.0, a=1.0, m=1.0, hbar=1.0)


class TestTransmissionValues:
    def test_electron_5ev_worked_example(self):
        # frozen from a 60-digit evaluation of the sub-barrier formula
        p = BarrierParams(v0=10 * EV, a=1e-9, m=ELECTRON_MASS, hbar=HBAR)
        t = qt_transmission(5 * EV, p)
        assert t == pytest.approx(4.48458046897e-10, rel=1e-9)
        assert 1e-10 <= t <= 1e-9

    def test_at_barrier_top_closed_form(self):
        # v0=2, a=1, m=hbar=1: T = (1 + 1*1*2/2)^-1 = 0.5
        assert qt_transmission(2.0, UNIT) == pytest.approx(0.5, abs=1e-15)

    def test_below_barrier_frozen_value(self):
        # kappa1 = sqrt(2), beta = -1: T = 1/(1 + sinh^2 sqrt(2)); 50-digit oracle
        assert qt_transmission(1.0, UNIT) == pytest.approx(0.21077109396613054, rel=1e-14)

    def test_resonance_exactly_one(self):
        e_res = 2.0 + np.pi**2 / 2.0
        assert qt_transmission(e_res, UNIT) == 1.0

    def test_zero_energy_is_zero(self):
        assert qt_transmission(0.0, UNIT) == 0.0

    def test_negative_energy_rejected(self):
        with pytest.raises(InputError):
            qt_transmission(-0.1, UNIT)

    def test_negative_zero_energy_reads_as_positive_zero(self):
        # -0.0 passes the E >= 0 check; neither T nor dT/dE may come back as -0.0
        for fn in (qt_transmission, qt_transmission_derivative):
            assert fn(-0.0, UNIT).hex() == fn(0.0, UNIT).hex()
            minus, plus = fn(np.array([-0.0, 1.0, -0.0]), UNIT), fn(np.array([0.0, 1.0, 0.0]), UNIT)
            assert minus.tobytes() == plus.tobytes()
        assert qt_transmission(-0.0, UNIT).hex() == "0x0.0p+0"

    def test_nan_energy_rejected(self):
        for fn in (qt_transmission, qt_transmission_derivative):
            with pytest.raises(InputError):
                fn(np.array([1.0, np.nan]), UNIT)

    @pytest.mark.filterwarnings("error")
    def test_transparent_limit_past_overflow(self):
        # the closed forms overflow into NaN from ~8e307 (the slope) and ~9e307
        # (sin(kappa a)); there T = 1 and dT/dE = 0, as is every energy above
        # the largest double that ampl * x reaches
        big = np.array([8e307, 9e307, np.finfo(np.float64).max])
        assert qt_transmission(big, UNIT).tolist() == [1.0] * 3
        assert qt_transmission_derivative(big, UNIT).tolist() == [0.0] * 3
        for mode in ("rectified", "absolute", "bipolar"):
            y, dy = activate(big, Activation.qt(ampl=2.0, mode=mode))
            assert y.tolist() == [1.0] * 3 and dy.tolist() == [0.0] * 3, mode

    def test_huge_barrier_underflows_to_zero(self):
        p = BarrierParams(v0=2.0, a=500.0, m=1.0, hbar=1.0)
        assert qt_transmission(1.0, p) == 0.0
        assert qt_transmission_derivative(1.0, p) == 0.0


class TestLatticeLimit:
    """The wavepacket solver's lattice transmits as the continuum barrier as dx -> 0."""

    @pytest.mark.parametrize("energy", [0.5, 1.0, 3.0, 5.0],
                             ids=["sub-0.5", "sub-1.0", "above-3.0", "above-5.0"])
    def test_lattice_tends_to_qt_transmission(self, energy):
        # v0 = 2, a = 1: the barrier covers 10, 20, 40 and 80 sites
        exact = qt_transmission(energy, UNIT)
        errors = [abs(lattice_transmission(energy, 2.0, 1.0, dx) - exact)
                  for dx in (0.1, 0.05, 0.025, 0.0125)]
        assert all(fine < coarse for coarse, fine in zip(errors, errors[1:])), errors
        assert errors[-1] < 1e-4, errors


def _complex_step_slope(e, v0, a, h=1e-30):
    """Im T(E + ih) / h for m = hbar = 1, T one analytic function of w = 2 a^2 (v0 - E)."""
    z = e + 1j * h
    w = 2.0 * a * a * (v0 - z)
    with np.errstate(invalid="ignore"):  # 0/0 at w = 0, replaced below
        s = np.sinh(np.sqrt(w)) / np.sqrt(w)
    # the complex quotient cancels near w = 0; the Taylor series of S does not
    near = np.abs(w) < 1e-2
    s[near] = sum(w[near] ** k / math.factorial(2 * k + 1) for k in range(6))
    return (1.0 / (1.0 + 0.5 * a * a * v0 * v0 * s * s / z)).imag / h


class TestTransmissionProperties:
    def test_bounds_on_dense_grid(self):
        for v0, a in [(2.0, 1.0), (0.5, 3.0), (5.0, 0.4)]:
            p = BarrierParams(v0=v0, a=a, m=1.0, hbar=1.0)
            e = np.linspace(0.0, 10.0 * v0, 10_000)
            t = qt_transmission(e, p)
            assert np.all(t >= 0.0) and np.all(t <= 1.0)

    def test_strictly_increasing_below_barrier(self):
        e = np.linspace(1e-6, 2.0 - 1e-6, 5000)
        t = qt_transmission(e, UNIT)
        assert np.all(np.diff(t) > 0.0)

    def test_continuity_at_barrier_top(self):
        for v0, a in [(2.0, 1.0), (1.0, 2.0), (7.3, 0.5)]:
            p = BarrierParams(v0=v0, a=a, m=1.0, hbar=1.0)
            center = qt_transmission(v0, p)
            for side in (v0 * (1 - 1e-9), v0 * (1 + 1e-9)):
                assert abs(qt_transmission(side, p) - center) < 1e-6

    def test_high_energy_limit(self):
        for v0 in (0.5, 2.0, 5.0):
            p = BarrierParams(v0=v0, a=1.0, m=1.0, hbar=1.0)
            assert qt_transmission(100.0 * v0, p) > 0.99

    def test_derivative_one_sided_limits_agree(self):
        # Richardson-extrapolated one-sided slopes kill the O(h) term, so the
        # comparison actually resolves the limits at the required precision
        for v0, a in [(2.0, 1.0), (1.5, 0.8)]:
            p = BarrierParams(v0=v0, a=a, m=1.0, hbar=1.0)
            center = qt_transmission(v0, p)
            h = 1e-4 * v0

            def minus(step):
                return (center - qt_transmission(v0 - step, p)) / step

            def plus(step):
                return (qt_transmission(v0 + step, p) - center) / step

            slope_minus = 2 * minus(h / 2) - minus(h)
            slope_plus = 2 * plus(h / 2) - plus(h)
            assert slope_minus == pytest.approx(slope_plus, rel=1e-8)
            assert qt_transmission_derivative(v0, p) == pytest.approx(slope_plus, rel=1e-6)

    def test_derivative_matches_finite_difference(self):
        # relative tolerance away from the branch, absolute near zeros of dT
        p = UNIT
        h = 1e-6
        grid = np.concatenate(
            [
                np.linspace(0.05, 1.95, 60),
                np.linspace(2.05, 20.0, 120),
                [2.0 - 1e-5, 2.0 + 1e-5],
            ]
        )
        for e in grid:
            fd = (qt_transmission(e + h, p) - qt_transmission(e - h, p)) / (2 * h)
            an = qt_transmission_derivative(e, p)
            if abs(e - 2.0) <= 1e-6 * 2.0:
                assert abs(an - fd) < 1e-6
            elif abs(fd) < 1e-8:
                assert abs(an - fd) < 1e-8
            else:
                assert an == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("v0, a", [(2.0, 1.0), (0.7, 2.0), (5.0, 0.3), (3.0, 1.7)])
    def test_derivative_matches_complex_step(self, v0, a):
        # a complex step takes no difference, so it resolves dT/dE to rounding,
        # also on the ulps and bands around v0 where the closed forms cancel
        e = np.concatenate(
            [v0 + np.arange(-64, 65) * np.spacing(v0), np.linspace(0.0, 6.0 * v0, 3001)]
            + [v0 * np.linspace(1.0 - rel, 1.0 + rel, 401) for rel in (3e-9, 1e-6, 1e-3)])
        want = _complex_step_slope(e, v0, a)
        got = qt_transmission_derivative(e, BarrierParams(v0=v0, a=a))
        resolved = np.abs(want) > 1e-3 * np.abs(want).max()
        assert np.abs(got / want - 1.0)[resolved].max() < 1e-12

    def test_derivative_at_resonance_is_zero(self):
        e_res = 2.0 + np.pi**2 / 2.0
        assert abs(qt_transmission_derivative(e_res, UNIT)) < 1e-12

    def test_derivative_at_zero_right_limit(self):
        expected = 4.0 / (2.0 * np.sinh(np.sqrt(4.0)) ** 2)
        # 4 E^2 underflows at the positive energies; they take the same limit
        for e in (0.0, 5e-324, 1e-310, 1e-160):
            got = qt_transmission_derivative(e, UNIT)
            assert got == pytest.approx(expected, rel=1e-12)
            assert got == pytest.approx(0.152044, rel=1e-5)

    def test_bad_params_rejected(self):
        with pytest.raises(InputError):
            BarrierParams(v0=-1.0)
        with pytest.raises(InputError):
            BarrierParams(mode="sideways")

    @pytest.mark.parametrize("overrides", [
        {"v0": 1e300}, {"hbar": 1e300}, {"hbar": 1e-300}, {"m": 1e-310, "hbar": 10.0},
    ])
    def test_non_finite_derived_constant_rejected(self, overrides):
        with pytest.raises(InputError, match="non-finite constant"):
            BarrierParams(**overrides)

    @pytest.mark.parametrize("v0", [0.7, 1.0, 2.0, 3.0, 7.3])
    def test_no_gap_at_window_edges(self, v0):
        # energies just past v0 (1 +- window) once fell into no branch and gave 0
        p = BarrierParams(v0=v0)
        centres = v0 * np.array([1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-9, 1.0 + 1e-9])
        ulps = np.arange(-64, 65)
        e = (centres[:, None] + ulps * np.spacing(centres)[:, None]).ravel()
        t_top = qt_transmission(v0, p)
        dt_top = qt_transmission_derivative(v0, p)
        y, dy = activate(e, Activation.qt(p))
        for t in (qt_transmission(e, p), y):
            assert np.all(t > 0.0)
            assert np.all(np.abs(t - t_top) < 1e-6)
        for dt in (qt_transmission_derivative(e, p), dy):
            assert np.all(np.abs(dt / dt_top - 1.0) < 1e-5)
        bipolar = activate(e, Activation.qt(v0=v0, mode="bipolar"))[0]
        assert np.all(np.abs(bipolar - (2.0 * t_top - 1.0)) < 2e-6)


class TestActivate:
    def test_qt_rectified_zero_input(self):
        y, dy = activate(np.array([0.0]), Activation.qt())
        assert y[0] == 0.0 and dy[0] == 0.0

    def test_relu(self):
        y, dy = activate(np.array([-1.0, 2.0]), Activation.relu())
        assert np.array_equal(y, [0.0, 2.0])
        assert np.array_equal(dy, [0.0, 1.0])

    def test_qt_value_at_barrier_top(self):
        y, _ = activate(np.array([2.0]), Activation.qt())
        assert y[0] == pytest.approx(0.5, abs=1e-15)

    def test_qt_negative_inputs_gate(self):
        y, dy = activate(np.array([-3.0, -0.5]), Activation.qt())
        assert np.array_equal(y, [0.0, 0.0])
        assert np.array_equal(dy, [0.0, 0.0])

    def test_bipolar_range_and_negative_saturation(self):
        act = Activation.qt(mode="bipolar")
        y, dy = activate(np.array([-1.0, 0.0, 2.0]), act)
        assert y[0] == -1.0 and y[1] == -1.0
        assert y[2] == pytest.approx(0.0, abs=1e-15)  # 2*0.5 - 1
        assert dy[0] == 0.0

    def test_absolute_mode_is_even(self):
        act = Activation.qt(mode="absolute")
        y_pos, dy_pos = activate(np.array([1.3]), act)
        y_neg, dy_neg = activate(np.array([-1.3]), act)
        assert y_pos[0] == y_neg[0]
        assert dy_pos[0] == -dy_neg[0]

    def test_ampl_scales_energy(self):
        y1, _ = activate(np.array([1.0]), Activation.qt(ampl=2.0))
        y2, _ = activate(np.array([2.0]), Activation.qt(ampl=1.0))
        assert y1[0] == y2[0]

    @pytest.mark.parametrize("kind", ["sigmoid", "tanh", "identity"])
    def test_classical_derivatives_match_fd(self, kind):
        act = Activation(kind)
        x = np.linspace(-3.0, 3.0, 41)
        h = 1e-6
        _, dy = activate(x, act)
        fd = (activate(x + h, act)[0] - activate(x - h, act)[0]) / (2 * h)
        assert np.max(np.abs(dy - fd)) < 1e-8

    @pytest.mark.parametrize("mode", ["rectified", "absolute", "bipolar"])
    def test_tiny_inputs_take_zero_limit_slope(self, mode):
        slope = 4.0 / (2.0 * np.sinh(2.0) ** 2)
        scale = {"rectified": 1.0, "absolute": 1.0, "bipolar": 2.0}[mode]
        x = np.array([5e-324, 1e-310, 1e-160])
        _, dy = activate(x, Activation.qt(mode=mode))
        assert np.allclose(dy, scale * slope, rtol=1e-12)
        if mode == "absolute":
            _, dy_neg = activate(-x, Activation.qt(mode=mode))
            assert np.array_equal(dy_neg, -dy)

    @pytest.mark.parametrize(
        "act",
        [Activation.relu(), Activation.sigmoid(), Activation.tanh(), Activation.identity()]
        + [Activation.qt(mode=mode, ampl=ampl)
           for mode in ("rectified", "absolute", "bipolar") for ampl in (1.0, 2.0, 5.0)],
        ids=lambda act: act.label(),
    )
    def test_value_only_matches_full_call(self, act):
        ampl = act.barrier.ampl if act.kind == "qt" else 1.0
        offsets = np.array([0.0, 5e-13, 5e-10, 2e-9])
        near_top = 2.0 * np.concatenate([1.0 + offsets, 1.0 - offsets]) / ampl
        x = np.concatenate([
            np.random.default_rng(17).uniform(-12.0, 12.0, 2000),
            near_top, -near_top, [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300],
        ])
        y_full, _ = activate(x, act)
        y, dy = activate(x, act, grad=False)
        assert dy is None
        assert y.tobytes() == y_full.tobytes()

    def test_preserves_shape(self):
        x = np.arange(12.0).reshape(3, 4) - 5.0
        y, dy = activate(x, Activation.qt())
        assert y.shape == dy.shape == (3, 4)

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            activate(np.array([np.inf]), Activation.relu())


def onehot_crossentropy(logits, labels):
    """The loss as computed from one-hot label rows: the reference the index form must equal."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.eye(z.shape[1])[labels]
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    rows = np.log(np.exp(shifted).sum(axis=1)) - (shifted * y).sum(axis=1)
    return probs, float(rows.mean()), (probs - y) / z.shape[0]


def logit_cases(batch, classes, seed):
    """(name, logits, labels): random rows, labels at the row maximum, tied maxima, |z| near 700."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((batch, classes)) * 30
    ties = rng.integers(-2, 2, (batch, classes)).astype(np.float64)
    ties[:, -1] = ties[:, :-1].max(axis=1)  # every row's maximum is tied
    extreme = rng.choice([-700.0, 700.0], (batch, classes)) + rng.uniform(-1, 1, (batch, classes))
    return [("random", z, rng.integers(0, classes, batch)),
            ("label-at-max", z, z.argmax(axis=1)),
            ("tied-max", ties, ties.argmax(axis=1)),
            ("tied-max-last", ties, np.full(batch, classes - 1)),
            ("near-700", extreme, rng.integers(0, classes, batch))]


class TestSoftmaxCrossentropy:
    def test_uniform_on_zero_logits(self):
        probs, loss, _ = softmax_crossentropy(np.zeros((2, 10)), np.array([0, 1]))
        assert np.allclose(probs, 0.1)
        assert loss == pytest.approx(np.log(10.0), rel=1e-12)

    def test_closed_form_two_classes(self):
        probs, _, _ = softmax_crossentropy(np.array([[0.0, np.log(2.0)]]), np.array([0]))
        assert np.allclose(probs, [[1 / 3, 2 / 3]], atol=1e-15)

    def test_perfect_prediction_zero_loss(self):
        _, loss, _ = softmax_crossentropy(np.array([[100.0, 0.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((50, 7)) * 30
        probs, _, _ = softmax_crossentropy(z, rng.integers(0, 7, 50))
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12

    @pytest.mark.parametrize("batch, classes",
                             [(batch, classes) for batch in (1, 7, 64) for classes in (2, 3, 10)])
    def test_bytes_equal_onehot_reference(self, batch, classes):
        for name, z, labels in logit_cases(batch, classes, seed=batch * classes):
            probs, loss, grad = softmax_crossentropy(z, labels)
            want_probs, want_loss, want_grad = onehot_crossentropy(z, labels)
            assert probs.tobytes() == want_probs.tobytes(), name
            assert loss.hex() == want_loss.hex(), name
            assert grad.tobytes() == want_grad.tobytes(), name

    def test_gradient_is_mean_scaled(self):
        z = np.array([[1.0, -1.0], [0.5, 0.5]])
        probs, _, dz = softmax_crossentropy(z, np.array([0, 1]))
        assert np.allclose(dz, (probs - np.eye(2)) / 2)

    @pytest.mark.parametrize("logits, labels, error", [
        (np.zeros((2, 3)), np.array([0, -1]), InputError),
        (np.zeros((2, 3)), np.array([0, 3]), InputError),
        (np.zeros((2, 3)), np.array([0.0, 1.0]), InputError),
        (np.zeros((2, 3)), np.array([0, 1, 2]), ShapeError),
        (np.zeros(3), np.array([0]), ShapeError),
    ], ids=["negative", "n-classes", "float", "wrong-length", "1-d-logits"])
    def test_bad_labels_rejected(self, logits, labels, error):
        with pytest.raises(error):
            softmax_crossentropy(logits, labels)

    def test_overflow_safety(self):
        probs, loss, _ = softmax_crossentropy(np.array([[1000.0, 0.0]]), np.array([0]))
        assert np.isfinite(loss)
        assert probs[0, 0] == pytest.approx(1.0)


class TestHarmonicSpectrum:
    def detected(self, act):
        return harmonic_spectrum(act).detected_frequencies()

    def test_identity_sole_peak(self):
        assert self.detected(Activation.identity()) == {16.0}

    def test_relu_even_harmonics(self):
        got = self.detected(Activation.relu())
        assert {32.0, 64.0, 96.0} <= got

    def test_sigmoid_odd_only(self):
        got = self.detected(Activation.sigmoid())
        assert {48.0, 80.0} <= got
        assert 32.0 not in got

    def test_qt_both_parities(self):
        got = self.detected(Activation.qt())
        assert {32.0, 48.0} <= got

    def test_qt_richest_then_relu_then_identity(self):
        n_qt = len(self.detected(Activation.qt()))
        n_relu = len(self.detected(Activation.relu()))
        n_id = len(self.detected(Activation.identity()))
        assert n_qt >= n_relu >= n_id

    def test_non_integer_period_rejected(self):
        with pytest.raises(InputError):
            harmonic_spectrum(Activation.relu(), f0=16.3)
        with pytest.raises(InputError):  # f0 * n / fs overflows to inf
            harmonic_spectrum(Activation.relu(), f0=1e300, fs=1e-10)

    @pytest.mark.parametrize("fs", [0.0, -1024.0, np.inf, np.nan])
    def test_bad_sample_rate_rejected(self, fs):
        with pytest.raises(InputError, match="fs must be positive and finite"):
            harmonic_spectrum(Activation.relu(), fs=fs)

    @pytest.mark.parametrize("f0, fs", [(512.0, 1024.0), (1024.0, 1024.0), (16.0, 1e-300)])
    def test_drive_at_or_above_nyquist_rejected(self, f0, fs):
        # an integer period count, but at least n/2 cycles in n samples
        with pytest.raises(InputError, match="below the Nyquist frequency"):
            harmonic_spectrum(Activation.relu(), f0=f0, fs=fs)

    def test_report_fields(self):
        rep = harmonic_spectrum(Activation.relu())
        assert np.all(np.diff(rep.frequencies) > 0)
        for _, _, rel_db in rep.detected:
            assert rel_db > rep.threshold_db

    def test_exports(self, tmp_path):
        rep = harmonic_spectrum(Activation.qt())
        csv_path = tmp_path / "spectrum.csv"
        spectrum_to_csv(rep, csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "freq_hz,magnitude"
        assert len(lines) == 1 + len(rep.frequencies)


def _one_call_activate(x, p, grad):
    """activate from one _transmission call on the whole 1-D array |x|, then each mode's map."""
    t, dt = _transmission(np.abs(x).ravel(), p.ampl, p, grad)
    t = t.reshape(x.shape)
    dt = dt.reshape(x.shape) if grad else None
    live = (x != 0.0) if p.mode == "absolute" else (x > 0.0)
    if p.mode == "bipolar":
        y = np.where(live, 2.0 * t - 1.0, -1.0)
        dy = np.where(live, 2.0 * p.ampl * dt, 0.0) if grad else None
    else:
        y = np.where(live, t, 0.0)
        scale = p.ampl * np.sign(x) if p.mode == "absolute" else p.ampl
        dy = np.where(live, scale * dt, 0.0) if grad else None
    return y, dy


def _oracle_inputs(v0, ampl):
    """Zeros, subnormals, huge values and ulp grids around v0, v0 (1 +- 1e-9), v0 (1 +- 1e-12)."""
    points = [0.0, 5e-324, 1e-310, 1e300]
    for centre in v0 * np.array([1.0, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 1e-12, 1.0 + 1e-12]):
        c = centre / ampl
        points.extend(c + np.arange(-8, 9) * np.spacing(c))
    points = np.array(points)
    return np.concatenate([points, -points])


class TestOneCallOracle:
    """activate's blocks and gathers give the bits of one kernel call on every input."""

    @pytest.mark.parametrize("mode", ["rectified", "absolute", "bipolar"])
    def test_bit_equal_to_one_kernel_call(self, mode):
        rng = np.random.default_rng(2024)
        for v0 in (0.7, 2.0, 3.0):
            for ampl in (1.0, 2.0, 5.0):
                p = BarrierParams(v0=v0, ampl=ampl, mode=mode)
                special = _oracle_inputs(v0, ampl)
                for shape in ((32,), (1000,), (64, 512), (1024, 512), special.shape):
                    x = rng.normal(0.0, 1.5 * v0 / ampl, shape)
                    where = rng.choice(x.size, min(x.size, special.size), replace=False)
                    x.flat[where] = special[: where.size]
                    if shape == (64, 512):
                        x = x.T  # a strided view
                    for grad in (True, False):
                        y, dy = activate(x, Activation.qt(p), grad=grad)
                        y_ref, dy_ref = _one_call_activate(x, p, grad)
                        assert y.shape == x.shape
                        assert y.tobytes() == y_ref.tobytes(), (v0, ampl, shape, grad)
                        if grad:
                            assert dy.tobytes() == dy_ref.tobytes(), (v0, ampl, shape)
                        else:
                            assert dy is None

    @pytest.mark.parametrize("v0", [0.7, 2.0, 3.0])
    def test_transmission_functions_bit_equal(self, v0):
        # T(E) and dT/dE read the bits of activate at ampl 1, which asks for both at once
        p = BarrierParams(v0=v0)
        e = np.abs(np.concatenate([
            _oracle_inputs(v0, 1.0), np.random.default_rng(5).uniform(0.0, 6.0 * v0, 5000)]))
        e = e[e > 0.0]
        y, dy = activate(e, Activation.qt(p))
        assert qt_transmission(e, p).tobytes() == y.tobytes()
        assert qt_transmission_derivative(e, p).tobytes() == dy.tobytes()


class TestBlockEdges:
    @pytest.mark.parametrize("mode", ["rectified", "absolute", "bipolar"])
    @pytest.mark.parametrize("size", [0, 1, _BLOCK, _BLOCK + 1])
    def test_sizes_around_the_block_bit_equal(self, mode, size):
        p = BarrierParams(v0=2.0, ampl=5.0, mode=mode)
        x = np.random.default_rng(size).normal(0.0, 0.6, size)
        special = _oracle_inputs(p.v0, p.ampl)
        # the specials end the array, so the last block's offsets are exercised
        tail = special[: min(size, special.size)]
        x[size - tail.size:] = tail
        if size:
            x[-1] = 1.5 * p.v0 / p.ampl  # a live last input, above the barrier
        if size > _BLOCK:
            x[_BLOCK - 1] = 0.5 * p.v0 / p.ampl  # and a live one before the block edge
        for grad in (True, False):
            y, dy = activate(x, Activation.qt(p), grad=grad)
            y_ref, dy_ref = _one_call_activate(x, p, grad)
            assert y.shape == x.shape
            assert y.tobytes() == y_ref.tobytes(), grad
            if grad:
                assert dy.tobytes() == dy_ref.tobytes()
            else:
                assert dy is None
