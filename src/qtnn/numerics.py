"""Dense linear algebra, deterministic random numbers and spectra.

Everything in this package moves through plain 2-D ``numpy.ndarray`` objects
of ``float64`` in row-major (C) order; helpers here validate that convention
at the API boundary.  The module also provides the seeded generator used for
every random draw in the package, an SPD solver built on LAPACK's Cholesky
factorization plus one step of iterative refinement, a power-iteration
spectral-radius estimate and a magnitude spectrum over ``numpy.fft.rfft``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ShapeError",
    "SingularMatrixError",
    "InputError",
    "NonFiniteInput",
    "NumericalFailure",
    "as_matrix",
    "cholesky",
    "solve_spd",
    "spectral_radius",
    "dft_magnitude",
    "Rng",
]


class ShapeError(ValueError):
    """Operand dimensions do not conform."""


class SingularMatrixError(ArithmeticError):
    """A factorization hit a non-positive pivot; carries the pivot index and an optional hint."""

    def __init__(self, pivot_index, value, hint=None):
        self.pivot_index = pivot_index
        self.value = value
        super().__init__(f"matrix is not positive definite: pivot {pivot_index} = {value:.6g}"
                         + (f"; {hint}" if hint else ""))


class InputError(ValueError):
    """Invalid argument value (bad sizes, non-power-of-two lengths, ...)."""


class NonFiniteInput(InputError):
    """An activation input holds NaN or Inf; in training, the weights overflowed."""


class NumericalFailure(ArithmeticError):
    """A solver or generator diverged; carries the step index (and norm, if any)."""

    def __init__(self, step, norm=None, message=None):
        self.step = step
        self.norm = norm
        super().__init__(message or f"norm {norm:.6g} diverged at step {step}")


def as_matrix(a, name="matrix", allow_vector=False):
    """Coerce to a C-contiguous float64 2-D array, checking finiteness.

    1-D input is accepted as a single row when ``allow_vector`` is set.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim == 1 and allow_vector:
        m = m[None, :]
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise InputError(f"{name} contains NaN or Inf")
    return np.ascontiguousarray(m)


def cholesky(a):
    """Lower-triangular Cholesky factor of a symmetric positive definite matrix.

    LAPACK's factorization through ``np.linalg.cholesky``; only the lower
    triangle of ``a`` is read.  Raises :class:`SingularMatrixError` naming
    the first non-positive pivot.
    """
    a = as_matrix(a, "A")
    n, m = a.shape
    if n != m:
        raise ShapeError(f"A must be square, got {n}x{m}")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(*_first_bad_pivot(a)) from None


def _first_bad_pivot(a):
    """(index, value) of the first pivot at which ``a``'s factorization fails.

    LAPACK reports only that the factorization failed, so the order of the
    first leading block that is not positive definite is found by bisection
    over factorizations of leading blocks; the pivot value is the Schur
    complement of the block before it.  Runs only on the error path.
    """
    good, bad, low = 0, a.shape[0], np.empty((0, 0))
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            low = np.linalg.cholesky(a[:mid, :mid])
            good = mid
        except np.linalg.LinAlgError:
            bad = mid
    k = bad - 1
    w = np.linalg.solve(low, a[k, :k]) if k else np.empty(0)
    return k, float(a[k, k] - w @ w)


def _cholesky_solve(low, b):
    """Solve L L^T X = B by blocks of 64 rows: a product with the solved rows, then LAPACK."""
    x, starts = b.copy(), range(0, low.shape[0], 64)
    for i in starts:  # L Y = B, top block first
        r = slice(i, i + 64)
        x[r] = np.linalg.solve(low[r, r], x[r] - low[r, :i] @ x[:i])
    for i in reversed(starts):  # L^T X = Y, bottom block first
        r, below = slice(i, i + 64), slice(i + 64, None)
        x[r] = np.linalg.solve(low[r, r].T, x[r] - low[below, r].T @ x[below])
    return x


def solve_spd(a, b):
    """Solve A X = B for symmetric positive definite A via Cholesky.

    A must be symmetric to within 1e-12 of its largest entry.  After the two
    triangular solves, blocked by 64 rows, one step of fixed-precision
    iterative refinement (X += solve(B - A X)) takes the residual of the
    first solution back through the same factor.  Raises
    :class:`SingularMatrixError` on a non-positive pivot.
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    n, m = a.shape
    if n != m:
        raise ShapeError(f"A must be square, got {n}x{m}")
    if b.shape[0] != n:
        raise ShapeError(f"B has {b.shape[0]} rows, expected {n}")
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.T).max() > 1e-12 * scale:
        raise InputError("A is not symmetric within tolerance")
    low = cholesky(a)
    x = _cholesky_solve(low, b)
    return x + _cholesky_solve(low, b - a @ x)


def spectral_radius(w, iters=1000):
    """Largest eigenvalue magnitude of a square matrix by power iteration.

    The estimate is the geometric mean of the per-step growth factors
    ``|W v_k| / |v_k|`` over the final 100 iterations, which averages out
    the oscillation produced by a complex dominant pair; they come from
    iters / k steps of W^k, k = gcd(iters, 4), after W is scaled by a power
    of two to a largest |entry| in [0.5, 1).  Accuracy is set by the gap
    below the dominant magnitude; for random sparse matrices, whose top
    magnitudes cluster, expect ~1e-3 rather than the clean-gap 1e-4.
    Rescaling a matrix rescales the estimate (by a power of two exactly),
    so hitting a target radius via ``w *= target / estimate`` is
    gap-independent.  Returns 0.0 when the iterate collapses to zero (zero
    or nilpotent matrix).
    """
    w = as_matrix(w, "W")
    n, m = w.shape
    if n != m:
        raise ShapeError(f"W must be square, got {n}x{m}")
    if iters < 100:
        raise InputError("iters must be at least 100")
    k = int(np.gcd(iters, 4))  # divides iters and the window of 100
    exponent = int(np.frexp(np.abs(w).max())[1])
    power = np.linalg.matrix_power(np.ldexp(w, -exponent), k)  # exact scale: W^k cannot overflow
    # fixed-seed start vector: deterministic, generic w.r.t. eigenvectors
    v = Rng(0x5EED_0F_A11).uniforms(n) - 0.5
    v /= np.linalg.norm(v)
    log_sum = 0.0
    for step in range(iters // k):
        v = power @ v
        g = np.linalg.norm(v)
        if g == 0.0:
            return 0.0
        if step >= (iters - 100) // k:
            log_sum += np.log(g)
        v /= g
    return float(np.ldexp(np.exp(log_sum / 100), exponent))


def dft_magnitude(signal):
    """One-sided DFT magnitude of a real signal, length must be a power of two.

    ``numpy.fft.rfft`` with a rectangular window and no normalization:
    returns ``|sum_n x_n exp(-2 pi i k n / N)|`` for k = 0 .. N/2.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise InputError("signal must be 1-D")
    n = x.size
    if n < 8 or (n & (n - 1)) != 0:
        raise InputError(f"signal length must be a power of two >= 8, got {n}")
    return np.abs(np.fft.rfft(x))


# ---------------------------------------------------------------------------
# Deterministic random numbers
# ---------------------------------------------------------------------------

_U64 = np.uint64
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _splitmix64_stream(seed, count):
    """First ``count`` outputs of a splitmix64 sequence started at ``seed``.

    Output i mixes the state seed + (i + 1) * GOLDEN, so all outputs are
    computed at once; uint64 array arithmetic wraps modulo 2^64 silently.
    """
    z = _U64(seed & _MASK64) + np.arange(1, count + 1, dtype=np.uint64) * _U64(_GOLDEN)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


class Rng:
    """Seeded xoshiro256** generator with Box-Muller Gaussian draws.

    The stream is produced by ``LANES`` independent xoshiro256** instances
    whose states are seeded from one splitmix64 sequence (lane 0 takes the
    first four outputs, lane 1 the next four, and so on); outputs are read
    round-robin across lanes, one block of ``LANES`` values per generator
    step.  The lane count is a fixed constant of the stream definition:
    identical seeds give identical streams.

    Uniforms map the top 53 bits into [0, 1).  ``normals(n)`` streams
    p = ceil(n / 2) words as u1, then p as u2, through the Box-Muller
    transform a block at a time (radii into the output, then cos and sin
    multiplied in); an odd n discards the second member of the final pair.
    """

    LANES = 8192

    def __init__(self, seed):
        self.seed = int(seed) & _MASK64
        words = _splitmix64_stream(self.seed, 4 * self.LANES)
        self._s0, self._s1, self._s2, self._s3 = words.reshape(self.LANES, 4).T.copy()
        self._buf, self._scratch = np.empty((2, self.LANES), dtype=np.uint64)
        self._pos = self.LANES  # the block buffer holds no unread words yet

    def _step(self, out):
        """One generator step in place: the next block of LANES words into ``out``."""
        s0, s1, s2, s3, t = self._s0, self._s1, self._s2, self._s3, self._scratch
        np.multiply(s1, _U64(5), out=out)
        np.left_shift(out, _U64(7), out=t)
        out >>= _U64(57)
        out |= t
        out *= _U64(9)
        np.left_shift(s1, _U64(17), out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, _U64(45), out=t)
        s3 >>= _U64(19)
        s3 |= t

    def _raw(self, count):
        out = np.empty(count, dtype=np.uint64)
        done = 0
        while done < count:
            if self._pos == self.LANES:
                self._step(self._buf)
                self._pos = 0
            take = min(count - done, self.LANES - self._pos)
            out[done : done + take] = self._buf[self._pos : self._pos + take]
            self._pos += take
            done += take
        return out

    def next_u64(self):
        """One raw 64-bit value as a Python int."""
        return int(self._raw(1)[0])

    def uniforms(self, count):
        """``count`` doubles uniform on [0, 1)."""
        raw = self._raw(count)
        return np.right_shift(raw, _U64(11), out=raw) * 2.0 ** -53

    def normals(self, count):
        """``count`` standard normal doubles via Box-Muller."""
        pairs = (count + 1) // 2
        z = np.empty((pairs, 2))
        for start in range(0, pairs, self.LANES):  # u1 on (0, 1] so the log is finite
            pair = z[start : start + self.LANES]
            u1 = ((self._raw(len(pair)) >> _U64(11)) + _U64(1)) * 2.0 ** -53
            np.sqrt(-2.0 * np.log(u1), out=pair[:, 0])
        for start in range(0, pairs, self.LANES):  # u2 on [0, 1)
            pair = z[start : start + self.LANES]
            angle = 2.0 * np.pi * ((self._raw(len(pair)) >> _U64(11)) * 2.0 ** -53)
            np.multiply(pair[:, 0], np.sin(angle), out=pair[:, 1])
            pair[:, 0] *= np.cos(angle)
        return z.reshape(-1)[:count]

    def normal_matrix(self, rows, cols, std=1.0):
        z = self.normals(rows * cols).reshape(rows, cols)
        return np.multiply(z, std, out=z)

    def uniform_matrix(self, rows, cols):
        """Doubles uniform on [-0.5, 0.5), row-major."""
        u = self.uniforms(rows * cols).reshape(rows, cols)
        return np.subtract(u, 0.5, out=u)

    def permutation(self, n):
        """Fisher-Yates shuffle of range(n), one unbiased draw per swap.

        Swap i (i = n - 1 down to 1) takes the next 64-bit word x below the
        rejection limit 2**64 - 2**64 % (i + 1) and swaps with x % (i + 1).
        The n - 1 words are drawn in one block and checked against their
        limits at once.  A rejected word (probability below n / 2**64 each)
        shifts the rest of the block by one step, and only then are further
        words drawn one at a time, so the stream advances exactly as a
        scalar loop of that rule would.
        """
        if n <= 1:
            return np.arange(n)
        uppers = np.arange(n, 1, -1, dtype=np.uint64)
        words = self._raw(n - 1)
        # accept x < 2**64 - 2**64 % u, i.e. x <= MASK - 2**64 % u
        highest = _U64(_MASK64) - (_U64(_MASK64) % uppers + _U64(1)) % uppers
        swaps = (words % uppers).tolist()
        rejected = np.flatnonzero(words > highest)
        if rejected.size:
            step = int(rejected[0])
            spare = iter(words[step + 1 :].tolist())
            while step < n - 1:
                upper = n - step
                word = next(spare, None)
                if word is None:
                    word = self.next_u64()
                if word < (1 << 64) - (1 << 64) % upper:
                    swaps[step] = word % upper
                    step += 1
        order = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), swaps):
            order[i], order[j] = order[j], order[i]
        return np.array(order)

    def spawn(self, key):
        """Independent child generator derived from (seed, key)."""
        return Rng.substream(self.seed, key)

    @staticmethod
    def substream(seed, key):
        """``Rng(seed).spawn(key)`` without seeding the lanes of ``Rng(seed)``."""
        mixed = (int(seed) + _GOLDEN * (int(key) + 1)) & _MASK64
        return Rng(int(_splitmix64_stream(mixed, 1)[0]))
