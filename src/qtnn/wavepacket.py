"""2-D time-dependent Schrodinger solver for a Gaussian packet and a barrier.

Nondimensional units (hbar = m = 1); the equation i d(psi)/dt = [-1/2 lap +
V] psi is advanced with a Crank-Nicolson-class scheme: the potential is
applied as an exact unitary phase for half a step on each side of a
Peaceman-Rachford ADI kinetic core, whose two half-steps are 1-D implicit
systems solved by a precomputed Thomas factorization.  Every factor is
unitary or a Cayley form of a Hermitian operator, so the norm is conserved
to roundoff and stepping with -dt undoes stepping with +dt exactly.

Boundaries are Dirichlet (psi = 0 on a ghost ring outside the grid); the
scenarios keep the packet five standard deviations away from walls and
barrier so nothing reaches the edges inside the simulated window.

``wp_step`` advances ``grid.psi`` in place, through two persistent work buffers,
so it must stay the C-contiguous complex128 array ``wp_init`` makes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import InputError, NumericalFailure

__all__ = [
    "NumericalFailure",
    "Scenario",
    "Grid2D",
    "wp_init",
    "wp_step",
    "wp_run",
    "frame_to_text",
    "frame_to_pgm16",
]

SCENARIO_KINDS = ("barrier", "single_slit", "double_slit")


@dataclass
class Scenario:
    """Barrier geometry and initial packet for one run."""

    kind: str = "barrier"
    barrier_x: float = 20.0
    thickness: float = 0.5
    v0: float = 15.625          # 1.25 * (k0x^2 / 2) for the default k0x
    slit_width: float = 1.0
    slit_sep: float = 3.0
    x0: float = 10.0
    y0: float | None = None     # None -> domain centerline
    sigma: float = 2.0
    k0x: float = 5.0

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise InputError(f"kind must be one of {SCENARIO_KINDS}")
        if self.v0 < 0.0:
            raise InputError("v0 must be non-negative")
        if self.thickness <= 0.0 or self.sigma <= 0.0:
            raise InputError("thickness and sigma must be positive")
        if self.kind != "barrier" and self.slit_width <= 0.0:
            raise InputError("slit_width must be positive")


class _KineticADI:
    """Peaceman-Rachford half-sweeps of the free Hamiltonian, per axis."""

    def __init__(self, nx, ny, dx, dt):
        r = 0.5j * dt
        self.m_off = r / (2.0 * dx * dx)     # off-diagonal of (I - r H_1d)
        self.a_off = -self.m_off             # off-diagonal of (I + r H_1d)
        diag_val = 1.0 / (dx * dx)           # H_1d diagonal (kinetic only)
        self.m_diag = 1.0 - r * diag_val
        a_diag = 1.0 + r * diag_val
        self.factors = {n: self._factor(a_diag, n) for n in {nx, ny}}
        self.work = np.empty((2, nx, ny), dtype=np.complex128)

    def _factor(self, a_diag, n):
        cp = np.empty(n, dtype=np.complex128)
        inv = np.empty(n, dtype=np.complex128)
        inv[0] = 1.0 / a_diag
        cp[0] = self.a_off * inv[0]
        for i in range(1, n):
            inv[i] = 1.0 / (a_diag - self.a_off * cp[i - 1])
            cp[i] = self.a_off * inv[i]
        return cp, inv

    def _solve_rows(self, d):
        # tridiagonal solve along axis 0, all columns at once; d is consumed
        cp, inv = self.factors[d.shape[0]]
        n = d.shape[0]
        off = self.a_off
        d[0] = d[0] * inv[0]
        for i in range(1, n):
            d[i] = (d[i] - off * d[i - 1]) * inv[i]
        for i in range(n - 2, -1, -1):
            d[i] -= cp[i] * d[i + 1]
        return d

    def _apply_m(self, psi, out, tmp):
        # (I - r H_1d) along axis 1 into out; tmp is scratch of psi's shape
        np.multiply(psi, self.m_diag, out=out)
        np.multiply(self.m_off, psi[:, :-1], out=tmp[:, 1:])
        out[:, 1:] += tmp[:, 1:]
        np.multiply(self.m_off, psi[:, 1:], out=tmp[:, :-1])
        out[:, :-1] += tmp[:, :-1]
        return out

    def step(self, psi):
        # in place; the y half runs on the transposed copy t, psi is scratch
        star, t = self.work[0], self.work[1].reshape(psi.shape[::-1])
        self._solve_rows(self._apply_m(psi, star, self.work[1]))
        t[...] = star.T
        out = self._apply_m(t, star.reshape(t.shape), psi.reshape(t.shape))
        psi[...] = self._solve_rows(out).T


class Grid2D:
    """Simulation state: complex field, potential and the cached stepper."""

    def __init__(self, psi, v, dx, dt, scenario):
        self.psi = psi
        self.nx, self.ny = psi.shape
        self.v = v
        self.dx = dx
        self.dt = dt
        self.scenario = scenario
        self.steps_taken = 0
        self._cache_dt = self._kinetic = self._phase = None

    def density(self):
        return np.abs(self.psi) ** 2

    def norm(self):
        return float(self.density().sum() * self.dx * self.dx)

    def _stepper(self):
        if self._cache_dt != self.dt:
            self._kinetic = _KineticADI(self.nx, self.ny, self.dx, self.dt)
            self._phase = np.exp(-0.5j * self.dt * self.v)
            self._cache_dt = self.dt
        return self._kinetic, self._phase


def _paint_potential(nx, ny, dx, scenario):
    """Potential field; slit openings are cut symmetrically about the axis.

    Transverse offsets are computed as (j - (ny-1)/2) * dx, which negates
    exactly under the mirror j -> ny-1-j, so symmetric scenarios produce a
    bit-exact mirror-symmetric field.
    """
    v = np.zeros((nx, ny))
    if scenario.v0 == 0.0:
        return v
    x = np.arange(nx) * dx
    in_slab = (x >= scenario.barrier_x) & (x < scenario.barrier_x + scenario.thickness)
    if not in_slab.any():
        if scenario.barrier_x + scenario.thickness <= x[0] or scenario.barrier_x > x[-1]:
            raise InputError("barrier slab lies outside the grid")
        raise InputError("barrier slab is thinner than dx and falls between two grid columns")
    yoff = (np.arange(ny) - (ny - 1) / 2.0) * dx
    if scenario.kind == "barrier":
        open_cols = np.zeros(ny, dtype=bool)
    elif scenario.kind == "single_slit":
        open_cols = np.abs(yoff) < scenario.slit_width / 2.0
    else:  # double_slit
        open_cols = (
            np.abs(np.abs(yoff) - scenario.slit_sep / 2.0) < scenario.slit_width / 2.0
        )
    if scenario.kind != "barrier":
        if not open_cols.any():
            raise InputError("slit openings are narrower than the grid spacing")
        if open_cols.all():
            raise InputError("slit openings cover the whole transverse extent")
    v[np.ix_(in_slab, ~open_cols)] = scenario.v0
    return v


def wp_init(scenario, nx=400, ny=400, dx=0.1, dt=0.005):
    """Normalized Gaussian packet plus painted potential, margin-checked.

    The packet must sit five sigma clear of every wall and must not overlap
    the barrier slab at t = 0.
    """
    if nx < 16 or ny < 16:
        raise InputError("grid must be at least 16x16")
    if not dx > 0.0:
        raise InputError(f"dx must be positive, got {dx}")
    width_x = (nx - 1) * dx
    width_y = (ny - 1) * dx
    y_center = width_y / 2.0
    y0 = scenario.y0 if scenario.y0 is not None else y_center
    margin = 5.0 * scenario.sigma
    if not (margin <= scenario.x0 <= width_x - margin):
        raise InputError(f"packet x0={scenario.x0} closer than 5 sigma to a wall")
    if not (margin <= y0 <= width_y - margin):
        raise InputError(f"packet y0={y0} closer than 5 sigma to a wall")
    if scenario.v0 > 0.0:
        clear_left = scenario.x0 + margin <= scenario.barrier_x
        clear_right = scenario.x0 - margin >= scenario.barrier_x + scenario.thickness
        if not (clear_left or clear_right):
            raise InputError("packet overlaps the barrier at t=0")

    v = _paint_potential(nx, ny, dx, scenario)
    x = (np.arange(nx) * dx)[:, None]
    yoff = ((np.arange(ny) - (ny - 1) / 2.0) * dx)[None, :]
    y0off = y0 - y_center
    # a packet too narrow for the grid normalises to NaN; wp_step reports it
    with np.errstate(divide="ignore", invalid="ignore"):
        envelope = np.exp(
            -((x - scenario.x0) ** 2 + (yoff - y0off) ** 2) / (4.0 * scenario.sigma**2)
        )
        psi = envelope.astype(np.complex128) * np.exp(1j * scenario.k0x * x)
        psi /= np.sqrt((np.abs(psi) ** 2).sum() * dx * dx)
    return Grid2D(psi, v, dx, dt, scenario)


def wp_step(grid):
    """Advance grid.psi in place by one step of grid.dt.

    grid.psi must stay the C-contiguous complex128 array wp_init made; a
    caller that keeps a state copies it.  Raises NumericalFailure on divergence.
    """
    kinetic, phase = grid._stepper()
    np.multiply(phase, grid.psi, out=grid.psi)
    kinetic.step(grid.psi)
    np.multiply(phase, grid.psi, out=grid.psi)
    grid.steps_taken += 1
    norm = grid.norm()
    if not norm <= 1.0 + 1e-3:  # a NaN norm fails too
        raise NumericalFailure(grid.steps_taken, norm)
    return grid


def probability_partition(grid):
    """Probability mass left of, inside and right of the barrier slab."""
    p = grid.density() * grid.dx * grid.dx
    x = np.arange(grid.nx) * grid.dx
    s = grid.scenario
    left = x < s.barrier_x
    inside = (x >= s.barrier_x) & (x < s.barrier_x + s.thickness)
    return {
        "reflected": float(p[left, :].sum()),
        "residual": float(p[inside, :].sum()),
        "transmitted": float(p[~(left | inside), :].sum()),
        "norm": float(p.sum()),
    }


def wp_run(grid, n_steps, on_frame, snapshot_every=0):
    """Step a grid from ``wp_init``, handing each density frame over as it is taken.

    ``on_frame(step, density)`` is called at step 0 and every ``snapshot_every``
    steps; ``snapshot_every=0`` takes only the final frame.  No frame is kept,
    so the frames handed over before a diverging step (NumericalFailure) stay
    with the caller.  Returns the final probability partition as a summary.
    """
    if n_steps < 1:
        raise InputError("n_steps must be >= 1")
    every = snapshot_every or n_steps
    if snapshot_every:
        on_frame(0, grid.density())
    for step in range(1, n_steps + 1):
        wp_step(grid)
        if step % every == 0:
            on_frame(step, grid.density())
    summary = probability_partition(grid)
    summary["steps"] = n_steps
    summary["final_norm"] = grid.norm()
    return summary


def frame_to_text(frame, path):
    """Write a density frame as text, one grid row per line, in np.savetxt(fmt="%.10e")'s bytes."""
    frame = np.asarray(frame)
    if frame.ndim != 2 or frame.dtype != np.float64 or not frame.size:
        return np.savetxt(path, frame, fmt="%.10e")
    with open(path, "wb") as fh:
        # blocks of about 8192 values; one of only +0.0 and [1e-99, 1e99) is formatted in NumPy
        for block in np.array_split(frame, min(len(frame), -(-frame.size // 8192))):
            v = block.ravel()
            if not ((v >= 1e-99) & (v < 1e99) | (v.view(np.int64) == 0)).all():  # -0.0 is signed
                np.savetxt(fh, block, fmt="%.10e")
                continue
            e = np.floor(np.log10(v + (v == 0))).astype(np.int64)
            # s is within 5e-5 of exact: near a tie, or where rint(s) carries to 12 digits (also
            # where floor(log10 x) fell one short), Python's "%.10e" decides
            s = v * 10.0 ** (10 - e)
            slow = (abs(s - np.floor(s) - 0.5) < 1e-3) | (s > 1e11 - 0.5)
            m = np.rint(s).astype(np.uint64)
            out = np.empty((17, len(v)), np.uint8)
            for row in (11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 0):  # last digit first
                out[row] = m - (m := m // 10) * 10
            out[14], out[15] = np.divmod(abs(e), 10)
            out += ord("0")
            out[1], out[12], out[16] = ord("."), ord("e"), ord(" ")
            out[13] = np.where(e < 0, ord("-"), ord("+"))
            out = out.T.copy()  # one value's "d.dddddddddde-dd " per row
            text = [b"%.10e" % f for f in v[slow].tolist()]  # 16 bytes each in this range
            out[slow, :16] = np.array(text, "S16").view((np.uint8, 16))
            out.reshape(len(block), -1)[:, -1] = ord("\n")
            fh.write(out.tobytes())


def frame_to_pgm16(frame, path):
    """Write a density frame as a 16-bit binary PGM, peak mapped to 65535."""
    peak = frame.max()
    scaled = np.zeros_like(frame) if peak <= 0 else frame / peak * 65535.0
    pixels = scaled.round().astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{frame.shape[1]} {frame.shape[0]}\n65535\n".encode("ascii"))
        fh.write(pixels.tobytes())
