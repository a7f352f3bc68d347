import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import Trajectory, lattice_transmission
from qtnn.numerics import InputError
from qtnn.wavepacket import (
    NumericalFailure,
    Scenario,
    frame_to_pgm16,
    frame_to_text,
    probability_partition,
    wp_init,
    wp_run,
    wp_step,
)

# small grids keep the module tests fast; the acceptance suite runs 400x400
SMALL = dict(nx=128, ny=128, dx=0.1, dt=0.005)


def reference_step(kinetic, phase, psi):
    """One step in plain out-of-place arithmetic, operands in wp_step's order."""
    psi = phase * psi
    out = psi * kinetic.m_diag
    out[:, 1:] += kinetic.m_off * psi[:, :-1]
    out[:, :-1] += kinetic.m_off * psi[:, 1:]
    star = kinetic._solve_rows(out)
    out = star * kinetic.m_diag
    out[1:, :] += kinetic.m_off * star[:-1, :]
    out[:-1, :] += kinetic.m_off * star[1:, :]
    return phase * kinetic._solve_rows(out.T.copy()).T.copy()


def run_frames(grid, n_steps, snapshot_every=0):
    """wp_run's summary and the (step, density) frames it hands over."""
    frames = []
    summary = wp_run(grid, n_steps, lambda step, frame: frames.append((step, frame)),
                     snapshot_every=snapshot_every)
    return frames, summary


def small_scenario(**kw):
    base = dict(kind="barrier", barrier_x=6.4, thickness=0.3, v0=15.625,
                x0=3.2, sigma=0.6, k0x=5.0)
    base.update(kw)
    return Scenario(**base)


class TestInit:
    def test_norm_is_one(self):
        grid = wp_init(small_scenario(), **SMALL)
        assert abs(grid.norm() - 1.0) < 1e-8

    def test_zero_potential(self):
        grid = wp_init(small_scenario(v0=0.0), **SMALL)
        assert np.all(grid.v == 0.0)

    def test_barrier_painted(self):
        grid = wp_init(small_scenario(), **SMALL)
        assert grid.v.max() == 15.625
        x = np.arange(grid.nx) * grid.dx
        inside = (x >= 6.4) & (x < 6.7)
        assert np.all(grid.v[inside, :] == 15.625)
        assert np.all(grid.v[~inside, :] == 0.0)

    def test_double_slit_mirror_symmetric_bit_exact(self):
        scenario = small_scenario(kind="double_slit", slit_width=0.4, slit_sep=1.2)
        grid = wp_init(scenario, **SMALL)
        assert np.array_equal(grid.v, grid.v[:, ::-1])
        assert grid.v.max() > 0.0
        # packet is symmetric too
        assert np.array_equal(np.abs(grid.psi), np.abs(grid.psi[:, ::-1]))

    def test_packet_overlapping_barrier_rejected(self):
        with pytest.raises(InputError, match="overlaps"):
            wp_init(small_scenario(x0=6.0), **SMALL)

    def test_packet_near_wall_rejected(self):
        with pytest.raises(InputError, match="wall"):
            wp_init(small_scenario(x0=1.0), **SMALL)

    def test_slab_between_two_columns_named_as_such(self):
        # [3.05, 3.09) lies inside the grid but holds none of its columns 3.0 and 3.1
        scenario = Scenario(barrier_x=3.05, thickness=0.04, x0=1.5, sigma=0.3)
        with pytest.raises(InputError, match="^barrier slab is thinner than dx and falls "
                                             "between two grid columns$"):
            wp_init(scenario, nx=64, ny=48, dx=0.1)

    @pytest.mark.parametrize("barrier_x", [6.35, 30.0], ids=["past-last-column", "far-right"])
    def test_slab_outside_the_grid_named_as_such(self, barrier_x):
        # the last column is x = 6.3 on 64 columns at dx = 0.1
        scenario = Scenario(barrier_x=barrier_x, thickness=0.5, x0=1.5, sigma=0.3)
        with pytest.raises(InputError, match="^barrier slab lies outside the grid$"):
            wp_init(scenario, nx=64, ny=48, dx=0.1)


class TestStep:
    def test_free_norm_preserved_tightly(self):
        grid = wp_init(small_scenario(v0=0.0), **SMALL)
        wp_step(grid)
        assert abs(grid.norm() - 1.0) < 1e-10

    def test_stationary_packet_centroid_fixed(self):
        grid = wp_init(small_scenario(v0=0.0, k0x=0.0, x0=6.4), **SMALL)
        x = np.arange(grid.nx) * grid.dx
        y = np.arange(grid.ny) * grid.dx

        def centroid():
            p = grid.density()
            return (p.sum(axis=1) * x).sum() / p.sum(), (p.sum(axis=0) * y).sum() / p.sum()

        cx0, cy0 = centroid()
        for _ in range(100):
            wp_step(grid)
        cx1, cy1 = centroid()
        assert abs(cx1 - cx0) < 1e-6
        assert abs(cy1 - cy0) < 1e-6

    def test_moving_packet_group_velocity(self):
        # k0 dx small so lattice dispersion stays inside the tolerance
        grid = wp_init(small_scenario(v0=0.0, k0x=1.0, x0=5.0, sigma=0.8),
                       nx=192, ny=128, dx=0.08, dt=0.004)
        x = np.arange(grid.nx) * grid.dx
        p = grid.density()
        cx0 = (p.sum(axis=1) * x).sum() / p.sum()
        steps = 250
        for _ in range(steps):
            wp_step(grid)
        p = grid.density()
        cx1 = (p.sum(axis=1) * x).sum() / p.sum()
        velocity = (cx1 - cx0) / (steps * grid.dt)
        assert abs(velocity - 1.0) < 0.01

    def test_time_reversal_recovers_initial_state(self):
        grid = wp_init(small_scenario(), **SMALL)
        psi0 = grid.psi.copy()
        for _ in range(50):
            wp_step(grid)
        grid.dt = -grid.dt
        for _ in range(50):
            wp_step(grid)
        assert np.abs(grid.psi - psi0).max() < 1e-6

    def test_in_place_step_bit_equal_to_out_of_place_reference(self):
        # non-square, so the (ny, nx) views of the work buffers are exercised
        grid = wp_init(small_scenario(), nx=48, ny=40, dx=0.2, dt=0.005)
        psi, field = grid.psi, grid.psi.copy()
        for dt in (0.005, -0.005):
            grid.dt = dt
            kinetic, phase = grid._stepper()
            for _ in range(4):
                field = reference_step(kinetic, phase, field)
                wp_step(grid)
                assert grid.psi.tobytes() == field.tobytes()
        assert grid.psi is psi and psi.flags.c_contiguous

    def test_step_allocates_no_full_grid_array(self):
        # at 256x256 NumPy squares the density's temporary in place, and its
        # fixed 8192-element ufunc buffers stay smaller than the density
        grid = wp_init(small_scenario(), nx=256, ny=256, dx=0.1, dt=0.005)
        for _ in range(3):
            wp_step(grid)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(5):
                wp_step(grid)
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the one full-size temporary left is norm()'s float64 density
        assert peak - base <= 0.5 * grid.psi.nbytes + 4096
        assert now - base < 1024  # tracemalloc's own few bytes; nothing kept

    def test_divergence_detection(self):
        grid = wp_init(small_scenario(), **SMALL)
        grid.psi *= 1.1  # corrupt the state so the norm check trips
        with pytest.raises(NumericalFailure) as err:
            wp_step(grid)
        assert err.value.step == 1


class TestEdgeGrid:
    """Scenario/wp_init at edge values: a step or an InputError, nothing else."""

    DX, NX, NY = 0.1, 64, 48

    @staticmethod
    def around(v):
        return v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)

    def edge_cases(self):
        dx, sigma, barrier_x = self.DX, 0.3, 3.0
        margin = 5.0 * sigma  # x0 = margin is also barrier_x - margin
        width_y = (self.NY - 1) * dx
        around = self.around
        values = dict(
            kind=("barrier", "single_slit", "double_slit"),
            thickness=around(dx),
            slit_width=around(dx)[:2] + (0.4,),
            x0=(margin, np.nextafter(margin, 0.0), barrier_x + dx + margin),
            y0=(None, margin, width_y - margin),
            v0=(0.0, 15.625),
        )
        for combo in itertools.product(*values.values()):
            yield dict(zip(values, combo), barrier_x=barrier_x, sigma=sigma)
        # seeded draws of every field, each nudged by at most one ulp
        rng = np.random.default_rng(15)
        for _ in range(200):
            case = {k: v[rng.integers(len(v))] for k, v in values.items()}
            for k in ("thickness", "slit_width", "x0", "y0"):
                if case[k] is not None:
                    case[k] = around(case[k])[rng.integers(3)]
            yield dict(case, barrier_x=barrier_x, sigma=sigma)
        # a spacing of zero or below, on cases that step at DX
        for kind, dx in itertools.product(values["kind"], (0.0, -0.1)):
            yield dict(kind=kind, x0=margin, barrier_x=barrier_x, sigma=sigma, dx=dx)

    def test_every_case_steps_or_raises_input_error(self):
        stepped = rejected = 0
        for case in self.edge_cases():
            dx = case.pop("dx", self.DX)
            try:
                grid = wp_init(Scenario(**case), nx=self.NX, ny=self.NY, dx=dx)
            except InputError as err:
                assert dx > 0.0 or str(err) == f"dx must be positive, got {dx}", (case, dx)
                rejected += 1
                continue
            wp_step(grid)
            assert abs(grid.norm() - 1.0) < 1e-6, case
            stepped += 1
        assert stepped > 100 and rejected > 100

    def test_packet_exactly_at_the_wall_and_barrier_margins_steps(self):
        grid = wp_init(Scenario(x0=1.5, sigma=0.3, barrier_x=3.0, thickness=self.DX,
                                y0=1.5), nx=self.NX, ny=self.NY, dx=self.DX)
        wp_step(grid)
        with pytest.raises(InputError, match="wall"):
            wp_init(Scenario(x0=np.nextafter(1.5, 0.0), sigma=0.3, barrier_x=3.0),
                    nx=self.NX, ny=self.NY, dx=self.DX)


class TestRun:
    def test_partition_sums_to_one(self):
        frames, summary = run_frames(wp_init(small_scenario(), **SMALL), 150)
        total = summary["reflected"] + summary["residual"] + summary["transmitted"]
        assert abs(total - 1.0) < 1e-4
        assert len(frames) == 1

    def test_sub_barrier_transmission_fraction(self):
        _, summary = run_frames(wp_init(small_scenario(), **SMALL), 300)
        assert 0.0 < summary["transmitted"] < 0.5

    def test_snapshot_cadence(self):
        frames, _ = run_frames(wp_init(small_scenario(), **SMALL), 100, snapshot_every=25)
        assert [s for s, _ in frames] == [0, 25, 50, 75, 100]

    def test_each_frame_is_handed_over_when_taken(self):
        # the caller gets step k's frame before step k + 1 runs, so no frame is held
        grid = wp_init(small_scenario(), nx=32, ny=32, dx=0.4, dt=0.005)
        taken = []
        wp_run(grid, 4, lambda step, frame: taken.append((step, grid.steps_taken)),
               snapshot_every=1)
        assert taken == [(k, k) for k in range(5)]

    def test_double_slit_stays_symmetric(self):
        scenario = small_scenario(kind="double_slit", slit_width=0.4, slit_sep=1.2,
                                  v0=20.0)
        frames, _ = run_frames(wp_init(scenario, **SMALL), 150)
        final = frames[-1][1]
        assert np.abs(final - final[:, ::-1]).max() < 1e-6

    def test_bad_steps(self):
        with pytest.raises(InputError):
            run_frames(wp_init(small_scenario(), **SMALL), 0)

    def test_four_phase_sequence_at_default_scale(self, barrier_run):
        # approach, barrier interaction, then a reflected/transmitted split
        frames = [(step, barrier_run.grid(step).density()) for step in range(0, 601, 150)]
        x = np.arange(400) * 0.1
        mass = {}
        for step, frame in frames:
            m = frame * 0.01
            mass[step] = (
                m[x < 20.0, :].sum(),
                m[(x >= 20.0) & (x < 20.5), :].sum(),
                m[x >= 20.5, :].sum(),
            )
        assert mass[0][0] > 0.999                      # all mass left of the barrier
        assert mass[450][1] > 10 * mass[150][1]        # interaction fills the barrier
        assert mass[600][2] > 0.1                      # transmitted lobe present
        assert mass[600][0] > 0.5                      # reflected lobe dominates
        assert mass[600][1] < mass[450][1]             # barrier interior drains

    def test_transmitted_fraction_matches_the_lattice_oracle(self, barrier_run):
        # the activation's premise, on the solver: by step 800 the packet has left the
        # barrier (residual 1.5e-5), and the exact T(E) of the solver's own lattice,
        # averaged over the packet's |phi(k)|^2 (Gaussian, std 1 / (2 sigma)), gives
        # its transmitted fraction (0.18836 against 0.18818)
        scenario, dx = barrier_run.scenario, 0.1
        k = scenario.k0x + np.linspace(-4.0, 4.0, 201) / scenario.sigma  # +-8 std
        weight = np.exp(-2.0 * (scenario.sigma * (k - scenario.k0x)) ** 2)
        energy = (1.0 - np.cos(k * dx)) / dx**2  # the lattice's dispersion
        t = [lattice_transmission(e, scenario.v0, scenario.thickness, dx) for e in energy]
        expected = (weight * t).sum() / weight.sum()
        transmitted = probability_partition(barrier_run.grid(800))["transmitted"]
        assert abs(transmitted - expected) < 2e-3, (transmitted, expected)

    def test_double_slit_interference_fringes(self, double_slit_run):
        final = double_slit_run.grid(700).density()
        x = np.arange(400) * 0.1
        profile = final[x >= 25.0, :].sum(axis=0)
        peaks = sum(
            1
            for j in range(1, 399)
            if profile[j] > profile[j - 1]
            and profile[j] > profile[j + 1]
            and profile[j] > 0.05 * profile.max()
        )
        assert peaks >= 3

    def test_shared_trajectory_matches_direct_wp_step_loop(self):
        scenario = small_scenario()
        run = Trajectory(scenario, {3, 6}, **SMALL)
        grid = wp_init(scenario, **SMALL)
        for step in range(1, 7):
            wp_step(grid)
            if step in (3, 6):
                assert run.grid(step).psi.tobytes() == grid.psi.tobytes()
                assert run.grid(step).steps_taken == step
        frames, _ = run_frames(wp_init(scenario, **SMALL), 6, snapshot_every=3)
        for step, frame in frames:
            assert run.grid(step).density().tobytes() == frame.tobytes()

    def test_grid_refinement_transmission_stable(self):
        # halving dx and dt moves the transmitted fraction by < 5%
        scenario = small_scenario()
        _, coarse = run_frames(wp_init(scenario, **SMALL), 300)
        _, fine = run_frames(wp_init(scenario, nx=256, ny=256, dx=0.05, dt=0.0025), 600)
        rel = abs(fine["transmitted"] - coarse["transmitted"]) / fine["transmitted"]
        assert rel < 0.05


class TestExports:
    def test_text_round_trip(self, tmp_path):
        frames, _ = run_frames(wp_init(small_scenario(), nx=32, ny=32, dx=0.4, dt=0.005), 5)
        path = tmp_path / "frame.txt"
        frame_to_text(frames[0][1], path)
        back = np.loadtxt(path)
        assert back.shape == (32, 32)
        assert np.allclose(back, frames[0][1], rtol=1e-9)

    @staticmethod
    def assert_text_is_savetxt(frame, tmp_path, monkeypatch=None):
        """frame_to_text writes np.savetxt's bytes; with monkeypatch, without calling it."""
        np.savetxt(tmp_path / "savetxt.txt", frame, fmt="%.10e")
        if monkeypatch:
            monkeypatch.setattr(np, "savetxt", None)  # every block must take the NumPy path
        frame_to_text(frame, tmp_path / "frame.txt")
        assert (tmp_path / "frame.txt").read_bytes() == (tmp_path / "savetxt.txt").read_bytes()

    @pytest.mark.parametrize("step", [0, 100, 300])
    def test_text_of_benchmark_frames_is_savetxt(self, tmp_path, monkeypatch, double_slit_run,
                                                 step):
        frame = double_slit_run.grid(step).density()
        self.assert_text_is_savetxt(frame, tmp_path, monkeypatch)

    @pytest.mark.parametrize("seed", range(4))
    def test_text_of_log_uniform_grids_is_savetxt(self, tmp_path, monkeypatch, seed):
        frame = 10.0 ** np.random.default_rng(seed).uniform(-99, 99, (100, 400))
        frame[frame >= 1e99] = 1.0  # 10**98.99... can round up to 1e99
        self.assert_text_is_savetxt(frame, tmp_path, monkeypatch)

    @pytest.mark.parametrize("seed", range(2))
    def test_text_of_decimal_midpoints_is_savetxt(self, tmp_path, monkeypatch, seed):
        # (D + 0.5) 10**k lies at or within rounding of a tie between two
        # 11-digit mantissas; k = 0 gives exact ties, which round half to even
        rng = np.random.default_rng(seed)
        d = rng.integers(10**10, 10**11, 20000) + 0.5
        k = rng.integers(-109, 88, 20000)
        k[::4] = 0
        self.assert_text_is_savetxt((d * 10.0 ** k).reshape(50, 400), tmp_path, monkeypatch)

    def test_text_of_edge_values_is_savetxt(self, tmp_path, monkeypatch):
        # ties, carries into the next power of ten, the ends of the range and
        # values a few ulp either side of a power of ten
        edges = [0.0, 1.0, 9.99999999995, 9.999999999949999, 9.99999999997, 1e-99,
                 9.99999999995e98, 9.99999999999e98, 1e-5, np.nextafter(1e-5, 0), 1e20,
                 np.nextafter(1e20, 0), np.nextafter(1e20, 1e21), 9.999999999999999e-5]
        self.assert_text_is_savetxt(np.tile(edges, (3, 2)), tmp_path, monkeypatch)

    @pytest.mark.parametrize("value", [1e-100, 1e100, 5e-324, -1.0, -0.0, np.nan, np.inf,
                                       -np.inf])
    def test_text_of_other_values_is_savetxt(self, tmp_path, value):
        # 40 rows of 400 are two blocks; the value sends the second to np.savetxt
        frame = np.full((40, 400), 0.25)
        frame[30, 7] = value
        self.assert_text_is_savetxt(frame, tmp_path)

    @pytest.mark.parametrize("layout", ["wide", "transposed", "reversed"])
    def test_text_of_strided_and_wide_frames_is_savetxt(self, tmp_path, monkeypatch, layout):
        rng = np.random.default_rng(7)
        frame = {"wide": lambda: rng.random((3, 20000)),  # one row is wider than a block
                 "transposed": lambda: rng.random((300, 200)).T,
                 "reversed": lambda: rng.random((300, 200))[::-2, ::-1]}[layout]()
        self.assert_text_is_savetxt(frame, tmp_path, monkeypatch)

    @pytest.mark.parametrize("frame", [np.empty((0, 5)), np.empty((4, 0)), np.linspace(1, 2, 50),
                                       np.full((2, 3), 0.5, dtype=np.float32)])
    def test_text_of_other_arrays_is_savetxt(self, tmp_path, frame):
        self.assert_text_is_savetxt(frame, tmp_path)

    def test_text_allocates_under_one_mib(self, tmp_path, double_slit_run):
        frame = double_slit_run.grid(100).density()
        frame_to_text(frame, tmp_path / "warm.txt")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            frame_to_text(frame, tmp_path / "frame.txt")
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one block's temporaries, not a frame's 2.7 MB of text
        assert peak - base <= 2**20
        assert now - base < 1024

    def test_pgm16_header_and_peak(self, tmp_path):
        frame = np.array([[0.0, 0.5], [1.0, 0.25]])
        path = tmp_path / "frame.pgm"
        frame_to_pgm16(frame, path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n2 2\n65535\n")
        pixels = np.frombuffer(blob.split(b"65535\n", 1)[1], dtype=">u2").reshape(2, 2)
        assert pixels[1, 0] == 65535
        assert pixels[0, 0] == 0

    def test_scenario_validation(self):
        with pytest.raises(InputError):
            Scenario(kind="triple_slit")
        with pytest.raises(InputError):
            Scenario(v0=-2.0)
