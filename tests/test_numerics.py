import tracemalloc

import numpy as np
import pytest

from conftest import gaussian_elimination_solve
from qtnn.numerics import (
    InputError,
    Rng,
    ShapeError,
    SingularMatrixError,
    _cholesky_solve,
    _splitmix64_stream,
    cholesky,
    dft_magnitude,
    solve_spd,
    spectral_radius,
)


class TestSolveSpd:
    def test_identity_system(self):
        b = np.arange(12.0).reshape(3, 4)
        assert np.allclose(solve_spd(np.eye(3), b), b)

    def test_diagonal(self):
        a = np.diag([4.0, 9.0])
        b = np.array([[8.0], [27.0]])
        assert np.allclose(solve_spd(a, b), [[2.0], [3.0]])

    def test_against_elimination_oracle(self):
        rng = np.random.default_rng(3)
        for n in (6, 300):
            m = rng.standard_normal((n, n))
            a = m.T @ m + np.eye(n)
            b = rng.standard_normal((n, 2))
            x = solve_spd(a, b)
            oracle = gaussian_elimination_solve(a, b)
            assert np.max(np.abs(x - oracle)) < 1e-10

    def test_residual_bound_100_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            m = rng.standard_normal((n, n))
            a = m.T @ m + np.eye(n)
            b = rng.standard_normal((n, int(rng.integers(1, 4))))
            x = solve_spd(a, b)
            resid = np.abs(a @ x - b).max() / max(np.abs(b).max(), 1e-300)
            assert resid <= 1e-10

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 300])
    def test_blocked_substitution_alone(self, n):
        # one refinement step cancels a block that skips its product with the solved rows,
        # so the substitution is checked without it, around the 64-row block edges
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n))
        a = m @ m.T + n * np.eye(n)
        b = rng.standard_normal((n, 3))
        x = _cholesky_solve(cholesky(a), b)
        oracle = np.linalg.solve(a, b)
        assert np.abs(x - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_non_positive_pivot_names_index(self):
        a = np.eye(3)
        a[1, 1] = -2.0
        with pytest.raises(SingularMatrixError) as err:
            solve_spd(a, np.ones((3, 1)))
        assert err.value.pivot_index == 1
        assert err.value.value == -2.0
        # n = 300, positive definite except that the Schur complement at
        # index k is -0.5, so the leading minor of order k + 1 goes negative
        rng = np.random.default_rng(13)
        m = rng.standard_normal((300, 300))
        spd = m @ m.T + 300 * np.eye(300)
        for k in (0, 150, 299):
            a = spd.copy()
            head = np.linalg.solve(np.linalg.cholesky(a[:k, :k]), a[k, :k]) if k else []
            a[k, k] = np.dot(head, head) - 0.5
            with pytest.raises(SingularMatrixError) as err:
                solve_spd(a, np.ones((300, 1)))
            assert err.value.pivot_index == k
            assert err.value.value == pytest.approx(-0.5, abs=1e-6)

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(InputError):
            solve_spd(a, np.ones((2, 1)))

    def test_cholesky_reconstructs(self):
        rng = np.random.default_rng(5)
        for n in (8, 300):
            m = rng.standard_normal((n, n))
            a = m @ m.T + n * np.eye(n)
            low = cholesky(a)
            assert np.allclose(low @ low.T, a, atol=1e-10)
            assert np.allclose(np.triu(low, 1), 0.0)


class TestSpectralRadius:
    def test_diagonal(self):
        assert abs(spectral_radius(np.diag([0.3, -0.9])) - 0.9) < 1e-4

    def test_rotation_complex_pair(self):
        theta = 0.7
        rot = 0.5 * np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        # characteristic polynomial: lambda^2 - trace lambda + det
        tr, det = np.trace(rot), np.linalg.det(rot)
        disc = tr * tr - 4 * det
        assert disc < 0  # complex pair
        oracle = np.sqrt(det)
        assert abs(spectral_radius(rot) - oracle) < 1e-4

    def test_identity(self):
        assert abs(spectral_radius(np.eye(4)) - 1.0) < 1e-12

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((5, 5))) == 0.0

    def test_nilpotent(self):
        w = np.triu(np.ones((4, 4)), 1)
        assert spectral_radius(w) == 0.0

    def test_triangular_matches_max_diagonal(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            n = 6
            w = np.triu(rng.standard_normal((n, n)))
            diag = np.array([1.7, -0.2, 0.4, -1.1, 0.05, 0.6])
            np.fill_diagonal(w, diag)
            assert abs(spectral_radius(w, iters=3000) - 1.7) < 1e-4

    def test_scaling_is_exact(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((20, 20))
        r1 = spectral_radius(w)
        r2 = spectral_radius(w * 0.25)
        assert abs(r2 - 0.25 * r1) < 1e-12 * max(1.0, r1)

    def test_too_few_iters_rejected(self):
        with pytest.raises(InputError):
            spectral_radius(np.eye(2), iters=10)

    @pytest.mark.parametrize("j", [-400, -2, 3, 400])
    def test_power_of_two_scaling_is_exact(self, j):
        # without the power-of-two prescale, W^4 overflows at 2^400 and underflows at 2^-400
        w = np.random.default_rng(2).standard_normal((20, 20))
        assert spectral_radius(np.ldexp(w, j)) == np.ldexp(spectral_radius(w), j)

    @pytest.mark.parametrize("iters", [101, 150, 1000, 3000])
    def test_matches_one_step_power_iteration(self, iters):
        # iters = 101, 150 and 1000 iterate W, W^2 and W^4; the reference steps W every time
        rng = np.random.default_rng(iters)
        w = rng.uniform(-0.5, 0.5, (300, 300)) * (rng.uniform(size=(300, 300)) < 0.1)
        v = Rng(0x5EED_0F_A11).uniforms(300) - 0.5
        v /= np.linalg.norm(v)
        logs = []
        for _ in range(iters):
            v = w @ v
            g = np.linalg.norm(v)
            logs.append(np.log(g))
            v /= g
        reference = np.exp(np.mean(logs[-100:]))
        assert abs(spectral_radius(w, iters=iters) - reference) <= 1e-12 * reference

    def test_nilpotent_of_higher_index_than_the_power(self):
        # the shift's 4th power is not zero, its 8th is
        assert spectral_radius(np.eye(6, k=1)) == 0.0


def direct_dft_magnitude(x):
    n = len(x)
    k = np.arange(n // 2 + 1)[:, None]
    nn = np.arange(n)[None, :]
    return np.abs((x[None, :] * np.exp(-2j * np.pi * k * nn / n)).sum(axis=1))


class TestDftMagnitude:
    def test_dc(self):
        mag = dft_magnitude(np.ones(8))
        assert abs(mag[0] - 8.0) < 1e-12
        assert np.all(mag[1:] < 1e-12)

    def test_integer_period_sinusoid(self):
        n, fs = 1024, 1024
        t = np.arange(n) / fs
        mag = dft_magnitude(np.sin(2 * np.pi * 16 * t))
        assert abs(mag[16] - 512.0) < 1e-9
        others = np.delete(mag, 16)
        assert np.all(others < 1e-9)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal(256)
        mag = dft_magnitude(x)
        oracle = direct_dft_magnitude(x)
        assert np.max(np.abs(mag - oracle)) / oracle.max() < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(512)
        mag = dft_magnitude(x)
        # one-sided: double the interior bins, keep DC and Nyquist once
        spectrum_energy = mag[0] ** 2 + mag[-1] ** 2 + 2 * (mag[1:-1] ** 2).sum()
        time_energy = 512 * (x * x).sum()
        assert abs(spectrum_energy - time_energy) / time_energy < 1e-9

    @pytest.mark.parametrize("n", [7, 12, 100, 4])
    def test_non_power_of_two_rejected(self, n):
        with pytest.raises(InputError):
            dft_magnitude(np.ones(n))


def scalar_xoshiro_reference(seed, count):
    """Independent pure-int implementation of splitmix64 + xoshiro256**."""
    mask = (1 << 64) - 1

    def splitmix(state):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return state, z ^ (z >> 31)

    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & mask

    state = seed & mask
    lanes = []
    for _ in range(Rng.LANES):
        words = []
        for _ in range(4):
            state, out = splitmix(state)
            words.append(out)
        lanes.append(words)
    outputs = []
    produced = 0
    while produced < count:
        for lane in lanes:
            s0, s1, s2, s3 = lane
            result = (rotl((s1 * 5) & mask, 7) * 9) & mask
            t = (s1 << 17) & mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = rotl(s3, 45)
            lane[0], lane[1], lane[2], lane[3] = s0, s1, s2, s3
            outputs.append(result)
        produced += Rng.LANES
    return outputs[:count]


def one_shot_uniforms(words):
    """Uniforms from a list of raw words, by the whole-array formula."""
    return (np.array(words, dtype=np.uint64) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def one_shot_normals(words, count):
    """Box-Muller over whole arrays: u1 from the first half of the words, u2 from
    the second, radius * cos and radius * sin interleaved, the spare dropped."""
    pairs = (count + 1) // 2
    raw = np.array(words[: 2 * pairs], dtype=np.uint64)
    u1 = ((raw[:pairs] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * (2.0 ** -53)
    u2 = (raw[pairs:] >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:count]



def fisher_yates_reference(rng, n):
    """The plain Fisher-Yates loop: one unbiased draw on [0, i] per swap,
    by rejection of the 64-bit words at or past 2**64 - 2**64 % (i + 1)."""
    order = np.arange(n)
    for i in range(n - 1, 0, -1):
        x = rng.next_u64()
        while x >= (1 << 64) - (1 << 64) % (i + 1):
            x = rng.next_u64()
        j = x % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


class ScriptedRng(Rng):
    """An Rng whose raw stream is a fixed list of 64-bit words."""

    def __init__(self, words):
        super().__init__(0)
        self.words = list(words)

    def _raw(self, count):
        assert count <= len(self.words), "script ran dry"
        out, self.words = self.words[:count], self.words[count:]
        return np.array(out, dtype=np.uint64)


class TestRng:
    def test_same_seed_identical_stream(self):
        a, b = Rng(123), Rng(123)
        assert np.array_equal(a.uniforms(10000), b.uniforms(10000))
        assert a.next_u64() == b.next_u64()

    def test_different_seeds_differ(self):
        assert Rng(1).next_u64() != Rng(2).next_u64()

    def test_matches_scalar_reference(self):
        # vectorized lanes vs an independent big-int implementation; the
        # seeds include 0, the all-ones word and values past 2^63
        count = Rng.LANES + 37
        for seed in (99, 0, 1, 42, 0x5EED0FA11, 2**64 - 1, 12345678901234567890):
            ref = scalar_xoshiro_reference(seed, count)
            got = [Rng(seed).next_u64()] + list(Rng(seed)._raw(count)[1:].tolist())
            assert got[0] == ref[0]
            assert got == ref
            # a short splitmix64 stream is a prefix of the long one
            words = _splitmix64_stream(seed, 4 * Rng.LANES)
            for short in (1, 4):
                assert np.array_equal(_splitmix64_stream(seed, short), words[:short])

    @pytest.mark.parametrize("prior", [0, 5], ids=["fresh", "partial-block"])
    def test_streamed_draws_match_one_shot_formulas(self, prior):
        # a prior uniforms(5) starts each draw mid-block, so the u1 and the u2
        # words straddle block edges and share the block where u1 ends
        lanes = Rng.LANES
        words = scalar_xoshiro_reference(17, prior + 2 * lanes + 7)
        for n in (0, 1, 3, lanes - 1, lanes, lanes + 1, 2 * lanes + 3):
            used = 2 * ((n + 1) // 2)
            rng = Rng(17)
            assert rng.uniforms(prior).tobytes() == one_shot_uniforms(words[:prior]).tobytes()
            got = rng.normals(n)
            assert got.tobytes() == one_shot_normals(words[prior:], n).tobytes()
            assert rng.next_u64() == words[prior + used]
            rng = Rng(17)
            rng.uniforms(prior)
            assert rng.uniforms(n).tobytes() == one_shot_uniforms(words[prior : prior + n]).tobytes()
            assert rng.next_u64() == words[prior + n]

    def test_normals_allocate_only_their_output(self):
        rng = Rng(1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            z = rng.normals(401408)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < z.nbytes + 0.5 * 2**20  # the one-shot transform took 14 MiB

    def test_gaussian_moments(self):
        z = Rng(7).normals(1_000_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_uniform_range_and_mean(self):
        u = Rng(8).uniforms(1_000_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.01

    def test_odd_normal_request_discards_spare(self):
        a = Rng(5)
        first_three = a.normals(3)
        b = Rng(5)
        four = b.normals(4)
        # pairs are (z0, z1), (z2, z3); an odd request consumed a full pair
        assert np.array_equal(first_three, four[:3])

    def test_buffering_consistency(self):
        a = Rng(77)
        chunks = np.concatenate([a.uniforms(3), a.uniforms(5000), a.uniforms(11)])
        b = Rng(77)
        assert np.array_equal(chunks, b.uniforms(5014))

    @pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
    @pytest.mark.parametrize("draw", ["uniforms", "normals"])
    def test_empty_draw_keeps_stream(self, draw, buffered):
        a, b = Rng(11), Rng(11)
        if buffered:  # one word drawn leaves the rest of its block buffered
            a.next_u64()
            b.next_u64()
        empty = getattr(a, draw)(0)
        assert empty.dtype == np.float64 and empty.shape == (0,)
        assert np.array_equal(a.uniforms(10), b.uniforms(10))

    def test_permutation_is_permutation(self):
        p = Rng(3).permutation(100)
        assert sorted(p.tolist()) == list(range(100))

    @pytest.mark.parametrize("n", [0, 1, 2, 100, 60000])
    def test_permutation_matches_fisher_yates_loop(self, n):
        # same swaps from the same words: the next draw after it agrees too;
        # a prior draw of 5 starts the permutation mid-block
        for seed, prior in ((0, 0), (3, 0), (2**64 - 1, 0), (11, 5)):
            got_rng, ref_rng = Rng(seed), Rng(seed)
            if prior:
                got_rng.uniforms(prior)
                ref_rng.uniforms(prior)
            got = got_rng.permutation(n)
            ref = fisher_yates_reference(ref_rng, n)
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)
            assert got_rng.next_u64() == ref_rng.next_u64()

    @pytest.mark.parametrize("n, words, left", [
        # 2**64 - 1 is past the limit 2**64 - 2**64 % 3 = 2**64 - 1 of a draw
        # on [0, 3), but draws on [0, 2) and [0, 4) accept every word
        (3, [2**64 - 1, 7, 2**64 - 1, 10, 11], [10, 11]),
        (4, [5, 2**64 - 1, 2**64 - 1, 8, 9, 12], [12]),
    ])
    def test_permutation_redraws_after_rejection(self, n, words, left):
        got_rng, ref_rng = ScriptedRng(words), ScriptedRng(words)
        got = got_rng.permutation(n)
        ref = fisher_yates_reference(ref_rng, n)
        assert np.array_equal(got, ref)
        assert got_rng.words == ref_rng.words == left

    def test_spawn_independent_and_deterministic(self):
        r = Rng(42)
        assert Rng(42).spawn(1).next_u64() == r.spawn(1).next_u64()
        assert r.spawn(1).next_u64() != r.spawn(2).next_u64()

    @pytest.mark.parametrize("seed", [0, 42, -5, 2**64 - 1, 2**70 + 3])
    def test_substream_equals_spawn(self, seed):
        for key in (0, 1, 2, 9):
            assert np.array_equal(Rng.substream(seed, key).normals(9),
                                  Rng(seed).spawn(key).normals(9))
