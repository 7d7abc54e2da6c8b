"""Tests for the S3D proxy: grid, fields, stencils, chemistry, solver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    ArrheniusChemistry,
    DecomposedS3D,
    FieldSet,
    LiftedFlameCase,
    S3DProxy,
    SPECIES_NAMES,
    StructuredGrid3D,
    VARIABLE_NAMES,
    synthetic_turbulence,
)
from repro.sim.s3d import SolverParams
from repro.sim.stencil import (
    block_laplacian,
    block_upwind_advection,
    pad_with_ghosts,
)
from repro.vmpi import BlockDecomposition3D
from tests.sim_oracle import (
    OracleS3D,
    gradient,
    laplacian,
    synthetic_turbulence as oracle_turbulence,
    upwind_advection,
)


class TestGrid:
    def test_spacing(self):
        g = StructuredGrid3D((10, 20, 40), (1.0, 2.0, 4.0))
        assert g.spacing == (0.1, 0.1, 0.1)

    def test_n_cells(self):
        assert StructuredGrid3D((4, 5, 6)).n_cells == 120

    def test_axes_cell_centered(self):
        g = StructuredGrid3D((4, 4, 4), (1.0, 1.0, 1.0))
        x, _, _ = g.axes()
        np.testing.assert_allclose(x, [0.125, 0.375, 0.625, 0.875])

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            StructuredGrid3D((1, 4, 4))
        with pytest.raises(ValueError):
            StructuredGrid3D((4, 4, 4), (0.0, 1.0, 1.0))

    def test_cfl_dt_positive_and_stable(self):
        g = StructuredGrid3D((16, 16, 16))
        dt = g.cfl_dt(max_speed=2.0, diffusivity=1e-3)
        h = min(g.spacing)
        assert 0 < dt <= 0.4 * h / 2.0

    def test_cfl_requires_some_physics(self):
        g = StructuredGrid3D((8, 8, 8))
        with pytest.raises(ValueError):
            g.cfl_dt(0.0, 0.0)
        with pytest.raises(ValueError):
            g.cfl_dt(-1.0, 0.0)


class TestFieldSet:
    def setup_method(self):
        self.grid = StructuredGrid3D((4, 5, 6))

    def test_fourteen_variables(self):
        """Table I: 14 variables."""
        assert len(VARIABLE_NAMES) == 14
        fs = FieldSet(self.grid)
        assert len(fs) == 14

    def test_nbytes_matches_table1_scaling(self):
        fs = FieldSet(self.grid)
        assert fs.nbytes == 14 * 4 * 5 * 6 * 8

    def test_setitem_validates_shape(self):
        fs = FieldSet(self.grid)
        with pytest.raises(ValueError):
            fs["T"] = np.zeros((2, 2, 2))

    def test_unknown_field_raises_with_list(self):
        fs = FieldSet(self.grid)
        with pytest.raises(KeyError, match="available"):
            fs["vorticity"]

    def test_new_field_appends(self):
        fs = FieldSet(self.grid)
        fs["extra"] = np.ones(self.grid.shape)
        assert "extra" in fs
        assert fs.names[-1] == "extra"

    def test_copy_is_deep(self):
        fs = FieldSet(self.grid)
        fs2 = fs.copy()
        fs2["T"][0, 0, 0] = 99.0
        assert fs["T"][0, 0, 0] == 0.0


class TestStencils:
    """The oracle's periodic operators approximate the analytic ones."""

    def setup_method(self):
        self.grid = StructuredGrid3D((16, 16, 16), (2 * np.pi,) * 3)
        self.X, self.Y, self.Z = self.grid.meshgrid()

    def test_gradient_of_sin_is_cos(self):
        f = np.sin(self.X)
        gx, gy, gz = gradient(f, self.grid.spacing)
        np.testing.assert_allclose(gx, np.cos(self.X), atol=0.03)
        np.testing.assert_allclose(gy, 0.0, atol=1e-12)
        np.testing.assert_allclose(gz, 0.0, atol=1e-12)

    def test_laplacian_of_sin(self):
        f = np.sin(self.X)
        lap = laplacian(f, self.grid.spacing)
        np.testing.assert_allclose(lap, -np.sin(self.X), atol=0.05)

    def test_laplacian_of_constant_is_zero(self):
        f = np.full(self.grid.shape, 3.7)
        np.testing.assert_allclose(laplacian(f, self.grid.spacing), 0.0, atol=1e-12)

    def test_upwind_constant_advection(self):
        """Advecting a constant field changes nothing."""
        f = np.full(self.grid.shape, 2.0)
        vel = tuple(np.ones(self.grid.shape) for _ in range(3))
        np.testing.assert_allclose(
            upwind_advection(f, vel, self.grid.spacing), 0.0, atol=1e-12)

    def test_upwind_sign_convention(self):
        """For u>0 and df/dx>0, -u df/dx < 0."""
        f = self.X.copy()
        vel = (np.ones(self.grid.shape), np.zeros(self.grid.shape),
               np.zeros(self.grid.shape))
        adv = upwind_advection(f, vel, self.grid.spacing)
        # interior away from the periodic seam
        assert np.all(adv[2:-2] < 0)


class TestGhostExchange:
    def test_pad_matches_periodic_neighbors(self):
        decomp = BlockDecomposition3D((8, 8, 8), (2, 2, 2))
        field = np.random.default_rng(1).random((8, 8, 8))
        parts = decomp.scatter(field)
        padded = pad_with_ghosts(parts, decomp)
        padded_global = np.pad(field, 1, mode="wrap")
        for b, p in zip(decomp.blocks(), padded):
            sl = tuple(slice(lo, hi + 2) for lo, hi in zip(b.lo, b.hi))
            np.testing.assert_array_equal(p, padded_global[sl])

    def test_crop_inverts_pad(self):
        decomp = BlockDecomposition3D((6, 6, 6), (2, 1, 3))
        field = np.random.default_rng(2).random((6, 6, 6))
        parts = decomp.scatter(field)
        padded = pad_with_ghosts(parts, decomp)
        for part, p in zip(parts, padded):
            np.testing.assert_array_equal(p[1:-1, 1:-1, 1:-1], part)

    def test_stencil_on_ghosted_blocks_matches_global(self):
        """The decomposed-solver invariant: block stencils == global stencil."""
        decomp = BlockDecomposition3D((12, 8, 10), (3, 2, 2))
        spacing = (0.1, 0.2, 0.3)
        field = np.random.default_rng(3).random((12, 8, 10))
        global_lap = laplacian(field, spacing)
        parts = decomp.scatter(field)
        padded = pad_with_ghosts(parts, decomp)
        for b, p in zip(decomp.blocks(), padded):
            np.testing.assert_array_equal(block_laplacian(p, spacing),
                                          global_lap[b.slices])

    def test_pad_refuses_wrong_part_count(self):
        decomp = BlockDecomposition3D((6, 6, 6), (2, 1, 1))
        parts = decomp.scatter(np.zeros((6, 6, 6)))
        with pytest.raises(ValueError, match="expected 2 parts, got 1"):
            pad_with_ghosts(parts[:1], decomp)

    def test_pad_refuses_wrong_part_shape(self):
        decomp = BlockDecomposition3D((6, 6, 6), (2, 1, 1))
        parts = decomp.scatter(np.zeros((6, 6, 6)))
        parts[1] = parts[1][:, :5]
        with pytest.raises(ValueError, match=r"rank 1: part shape "
                           r"\(3, 5, 6\) != block \(3, 6, 6\)"):
            pad_with_ghosts(parts, decomp)

    @given(data=st.data(), shape=st.tuples(*[st.integers(1, 7)] * 3))
    @settings(max_examples=40, deadline=None)
    def test_pad_matches_numpy_wrap_on_generated_domains(self, data, shape):
        """Any decomposition, uneven and extent-1 blocks included."""
        procs = tuple(data.draw(st.integers(1, n)) for n in shape)
        decomp = BlockDecomposition3D(shape, procs)
        field = np.random.default_rng(data.draw(st.integers(0, 2**16))
                                      ).random(shape)
        padded_global = np.pad(field, 1, mode="wrap")
        padded = pad_with_ghosts(decomp.scatter(field), decomp)
        for b, p in zip(decomp.blocks(), padded):
            sl = tuple(slice(lo, hi + 2)
                       for lo, hi in zip(b.lo, b.hi))
            np.testing.assert_array_equal(p, padded_global[sl])
            assert p.flags.c_contiguous

    @given(data=st.data(), shape=st.tuples(*[st.integers(1, 7)] * 3))
    @settings(max_examples=40, deadline=None)
    def test_block_operators_equal_periodic_bitwise(self, data, shape):
        """The block operators on ``pad_with_ghosts`` output are the
        periodic ``np.roll`` operators restricted to the block, bit for
        bit — extent-1 and extent-2 axes wrap onto themselves. A third
        of the field and velocity values are exact ``0.0``/``-0.0``: a
        zero velocity takes the forward branch of ``u > 0``, and the
        sign of every zero result must come out as the oracle's."""
        procs = tuple(data.draw(st.integers(1, n)) for n in shape)
        decomp = BlockDecomposition3D(shape, procs)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        spacing = tuple(rng.uniform(0.05, 0.5, 3))

        def with_zeros(values):
            pick = rng.integers(0, 6, shape)
            values[pick == 0] = 0.0
            values[pick == 1] = -0.0
            return values

        field = with_zeros(rng.standard_normal(shape))
        velocity = tuple(with_zeros(rng.standard_normal(shape))
                         for _ in range(3))
        global_lap = laplacian(field, spacing)
        global_adv = upwind_advection(field, velocity, spacing)
        padded = pad_with_ghosts(decomp.scatter(field), decomp)
        for b, p in zip(decomp.blocks(), padded):
            local_velocity = tuple(u[b.slices] for u in velocity)
            assert (block_laplacian(p, spacing).tobytes()
                    == global_lap[b.slices].tobytes())
            assert (block_upwind_advection(p, local_velocity, spacing)
                    .tobytes() == global_adv[b.slices].tobytes())

    def test_laplacian_zero_keeps_the_oracles_sign(self):
        """A ``+0.0`` cell among ``-0.0`` neighbours makes every axis term
        ``-0.0``; the sum starts from ``+0.0`` as the oracle's does, so
        the cell's Laplacian is ``+0.0``."""
        field = np.full((4, 4, 4), -0.0)
        field[1, 2, 3] = 0.0
        spacing = (0.1, 0.2, 0.3)
        decomp = BlockDecomposition3D(field.shape, (1, 1, 1))
        got = block_laplacian(pad_with_ghosts([field], decomp)[0], spacing)
        assert got.tobytes() == laplacian(field, spacing).tobytes()
        assert not np.signbit(got[1, 2, 3])


class TestChemistry:
    def test_rate_zero_without_fuel(self):
        chem = ArrheniusChemistry()
        T = np.full((2, 2, 2), 2.0)
        zero = np.zeros((2, 2, 2))
        np.testing.assert_array_equal(chem.reaction_rate(T, zero, np.ones_like(T)), 0.0)

    def test_rate_increases_with_temperature(self):
        chem = ArrheniusChemistry()
        y = np.full((1, 1, 1), 0.2)
        r_cold = chem.reaction_rate(np.full((1, 1, 1), 0.5), y, y)
        r_hot = chem.reaction_rate(np.full((1, 1, 1), 3.0), y, y)
        assert r_hot > r_cold

    def test_source_terms_mass_stoichiometry(self):
        """H2 and O2 are consumed 1:8 by mass."""
        chem = ArrheniusChemistry()
        T = np.full((1, 1, 1), 2.0)
        Y = {s: np.full((1, 1, 1), 0.1) for s in SPECIES_NAMES}
        _dT, dY = chem.source_terms(T, Y)
        assert dY["H2"][0, 0, 0] < 0
        assert dY["O2"][0, 0, 0] == pytest.approx(8 * dY["H2"][0, 0, 0])
        assert dY["H2O"][0, 0, 0] > 0
        np.testing.assert_array_equal(dY["N2"], 0.0)

    def test_heat_release_positive(self):
        chem = ArrheniusChemistry()
        T = np.full((1, 1, 1), 2.0)
        Y = {s: np.full((1, 1, 1), 0.1) for s in SPECIES_NAMES}
        dT, _ = chem.source_terms(T, Y)
        assert dT[0, 0, 0] > 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ArrheniusChemistry(pre_exponential=-1.0)


class TestTurbulence:
    def test_divergence_free(self):
        grid = StructuredGrid3D((24, 24, 24), (2 * np.pi,) * 3)
        u, v, w = synthetic_turbulence(grid, seed=4)
        gx, _, _ = gradient(u, grid.spacing)
        _, gy, _ = gradient(v, grid.spacing)
        _, _, gz = gradient(w, grid.spacing)
        div = gx + gy + gz
        # Discrete central-difference divergence of an exactly periodic,
        # analytically solenoidal field is small relative to the velocity.
        assert np.max(np.abs(div)) < 0.25 * np.max(np.abs(u))

    def test_rms_normalisation(self):
        grid = StructuredGrid3D((16, 16, 16))
        u, v, w = synthetic_turbulence(grid, rms_velocity=0.5, seed=5)
        rms = np.sqrt(np.mean(u * u + v * v + w * w))
        assert rms == pytest.approx(0.5, rel=1e-9)

    def test_deterministic(self):
        grid = StructuredGrid3D((8, 8, 8))
        u1, _, _ = synthetic_turbulence(grid, seed=6)
        u2, _, _ = synthetic_turbulence(grid, seed=6)
        np.testing.assert_array_equal(u1, u2)

    def test_zero_rms(self):
        grid = StructuredGrid3D((8, 8, 8))
        u, v, w = synthetic_turbulence(grid, rms_velocity=0.0, seed=1)
        assert np.all(u == 0) and np.all(v == 0) and np.all(w == 0)

    def test_invalid_args(self):
        grid = StructuredGrid3D((8, 8, 8))
        with pytest.raises(ValueError):
            synthetic_turbulence(grid, rms_velocity=-1.0)

    @given(shape=st.tuples(*[st.integers(2, 12)] * 3),
           lengths=st.tuples(*[st.sampled_from(
               [1.0, 0.7, 2.0, 3.0, 2 * np.pi])] * 3),
           rms=st.sampled_from([0.0, 0.35, 1.0]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_to_meshgrid_oracle(self, shape, lengths, rms,
                                              seed):
        grid = StructuredGrid3D(shape, lengths)
        got = synthetic_turbulence(grid, rms_velocity=rms, seed=seed)
        want = oracle_turbulence(grid, rms_velocity=rms, seed=seed)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


class TestLiftedFlame:
    def setup_method(self):
        self.grid = StructuredGrid3D((24, 16, 16), (3.0, 2.0, 2.0))
        self.case = LiftedFlameCase(self.grid)

    def test_initial_fields_complete(self):
        fs = self.case.initial_fields()
        assert set(VARIABLE_NAMES) <= set(fs.names)

    def test_jet_is_cold_and_fueled(self):
        fs = self.case.initial_fields()
        center = fs["T"][:, 8, 8]
        edge = fs["T"][:, 0, 0]
        assert center.mean() < edge.mean()
        assert fs["H2"][:, 8, 8].mean() > fs["H2"][:, 0, 0].mean()

    def test_mass_fractions_sum_to_one(self):
        fs = self.case.initial_fields()
        total = sum(fs[s] for s in SPECIES_NAMES)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_flammable_mask_in_mixing_layer(self):
        fs = self.case.initial_fields()
        mask = self.case.flammable_mask(fs)
        assert mask.any()
        assert not mask.all()

    def test_kernels_only_in_flammable_region(self):
        fs = self.case.initial_fields()
        mask = self.case.flammable_mask(fs)
        case = LiftedFlameCase(self.grid, kernel_rate=5.0, seed=11)
        centers = []
        for _ in range(5):
            centers += case.ignite_kernels(fs, case.draw_kernel_count())
        assert centers, "expected at least one kernel over 5 steps at rate 5"
        for c in centers:
            assert mask[c]

    def test_kernel_raises_temperature(self):
        fs = self.case.initial_fields()
        t_before = fs["T"].max()
        case = LiftedFlameCase(self.grid, kernel_rate=20.0, seed=3)
        seeded = case.ignite_kernels(fs, case.draw_kernel_count())
        if seeded:
            assert fs["T"].max() > t_before

    def test_deterministic_kernel_sequence(self):
        a = LiftedFlameCase(self.grid, kernel_rate=3.0, seed=9)
        b = LiftedFlameCase(self.grid, kernel_rate=3.0, seed=9)
        fa, fb = a.initial_fields(), b.initial_fields()
        assert (a.ignite_kernels(fa, a.draw_kernel_count())
                == b.ignite_kernels(fb, b.draw_kernel_count()))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            LiftedFlameCase(self.grid, jet_radius_fraction=0.9)
        with pytest.raises(ValueError):
            LiftedFlameCase(self.grid, kernel_rate=-1.0)


class TestS3DProxy:
    def _solver(self, shape=(16, 12, 12), **kw):
        grid = StructuredGrid3D(shape, (2.0, 1.5, 1.5))
        case = LiftedFlameCase(grid, seed=13, **kw)
        return S3DProxy(case)

    def test_step_advances_counter_and_state(self):
        s = self._solver()
        t0 = s.fields["T"].copy()
        s.step(3)
        assert s.step_count == 3
        assert not np.array_equal(s.fields["T"], t0)

    def test_species_stay_physical(self):
        s = self._solver(kernel_rate=2.0)
        s.step(10)
        for sp in SPECIES_NAMES:
            arr = s.fields[sp]
            assert arr.min() >= 0.0 and arr.max() <= 1.0

    def test_temperature_bounded_below(self):
        s = self._solver()
        s.step(10)
        assert s.fields["T"].min() >= 1e-3

    def test_no_kernels_when_disabled(self):
        grid = StructuredGrid3D((12, 12, 12))
        case = LiftedFlameCase(grid, kernel_rate=0.0, seed=1)
        s = S3DProxy(case)
        s.step(3)
        assert s.kernel_history == []

    def test_reaction_consumes_fuel_globally(self):
        s = self._solver(kernel_rate=5.0, kernel_amplitude=3.0)
        fuel0 = s.fields["H2"].sum()
        s.step(15)
        assert s.fields["H2"].sum() < fuel0

    def test_invalid_step_count(self):
        with pytest.raises(ValueError):
            self._solver().step(0)

    def test_explicit_dt_respected(self):
        grid = StructuredGrid3D((8, 8, 8))
        case = LiftedFlameCase(grid)
        s = S3DProxy(case, params=SolverParams(dt=1e-4))
        assert s.dt == 1e-4
        with pytest.raises(ValueError):
            S3DProxy(case, params=SolverParams(dt=-1.0))


def _assert_matches_oracle(state, solver, oracle):
    """``state`` (a :class:`FieldSet`) and ``solver``'s kernel history
    equal the oracle's, bit for bit."""
    assert solver.kernel_history == oracle.kernel_history
    for name in VARIABLE_NAMES:
        assert state[name].tobytes() == oracle.fields[name].tobytes(), name


class TestDecomposedMatchesGlobal:
    """The headline solver invariant: every decomposition, the one-rank
    :class:`S3DProxy` included, equals the global periodic oracle of
    ``tests/sim_oracle.py`` bitwise."""

    @pytest.mark.parametrize("grid_shape,proc_grid", [
        ((12, 8, 8), (2, 2, 2)),
        ((12, 8, 8), (3, 1, 2)),
        ((9, 7, 5), (2, 2, 1)),  # uneven split
    ])
    def test_bitwise_equal_after_steps(self, grid_shape, proc_grid):
        grid = StructuredGrid3D(grid_shape, (1.5, 1.0, 1.0))
        oracle = OracleS3D(LiftedFlameCase(grid, seed=21, kernel_rate=1.0))
        decomp = BlockDecomposition3D(grid_shape, proc_grid)
        block_solver = DecomposedS3D(
            LiftedFlameCase(grid, seed=21, kernel_rate=1.0), decomp)
        oracle.step(4)
        block_solver.step(4)
        _assert_matches_oracle(block_solver.assemble(), block_solver, oracle)

    @given(data=st.data(), shape=st.tuples(*[st.integers(2, 9)] * 3),
           integrator=st.sampled_from(["euler", "rk2"]),
           kernel_rate=st.sampled_from([0.5, 2.0]))
    @settings(max_examples=30, deadline=None)
    def test_bitwise_equal_on_generated_domains(self, data, shape,
                                                integrator, kernel_rate):
        """Any grid the solver accepts, any decomposition (1×1×1, uneven
        and extent-1 blocks included), both integrators, with seeding."""
        procs = tuple(data.draw(st.integers(1, n)) for n in shape)
        grid = StructuredGrid3D(shape, (1.5, 1.0, 1.0))
        params = SolverParams(integrator=integrator)

        def case():
            return LiftedFlameCase(grid, seed=21, kernel_rate=kernel_rate)

        oracle = OracleS3D(case(), params=params)
        proxy = S3DProxy(case(), params=params)
        block_solver = DecomposedS3D(
            case(), BlockDecomposition3D(shape, procs), params=params)
        for solver in (oracle, proxy, block_solver):
            solver.step(3)
        _assert_matches_oracle(proxy.fields, proxy, oracle)
        _assert_matches_oracle(block_solver.assemble(), block_solver, oracle)

    @pytest.mark.parametrize("integrator", ["euler", "rk2"])
    @pytest.mark.parametrize("grid_shape,proc_grid", [
        ((9, 7, 5), (2, 2, 2)),   # eight block shapes: eight stacks
        ((7, 6, 5), (3, 1, 2)),   # uneven in one axis only
        ((4, 4, 4), (4, 4, 4)),   # every block a single cell
        ((6, 5, 4), (6, 1, 2)),   # extent-1 blocks along x
    ])
    def test_bitwise_equal_with_seeding_on_uneven_and_unit_splits(
            self, grid_shape, proc_grid, integrator):
        grid = StructuredGrid3D(grid_shape, (1.5, 1.0, 1.0))
        params = SolverParams(integrator=integrator)
        oracle = OracleS3D(
            LiftedFlameCase(grid, seed=5, kernel_rate=2.0), params=params)
        block_solver = DecomposedS3D(
            LiftedFlameCase(grid, seed=5, kernel_rate=2.0),
            BlockDecomposition3D(grid_shape, proc_grid), params=params)
        oracle.step(3)
        block_solver.step(3)
        assert block_solver.kernel_history, "rate 2 over 3 steps seeds"
        _assert_matches_oracle(block_solver.assemble(), block_solver, oracle)

    def test_proxy_fields_write_through_to_the_solver(self):
        """A write through ``S3DProxy.fields`` is what the next step
        reads, and the step lands back in the same arrays. The grid has
        no flammable cell until the write makes every cell one."""
        grid = StructuredGrid3D((8, 6, 5), (1.5, 1.0, 1.0))
        proxy = S3DProxy(LiftedFlameCase(grid, seed=5, kernel_rate=2.0))
        oracle = OracleS3D(LiftedFlameCase(grid, seed=5, kernel_rate=2.0))
        held = {name: proxy.fields[name] for name in VARIABLE_NAMES}
        rng = np.random.default_rng(0)
        for name, lo, hi in (("T", 0.5, 2.0), ("H2", 0.1, 0.3),
                             ("O2", 0.1, 0.3)):
            written = rng.uniform(lo, hi, grid.shape)
            proxy.fields[name][...] = written
            oracle.fields[name][...] = written
        proxy.step()
        oracle.step()
        assert proxy.kernel_history, "the written mixture ignites"
        for name in VARIABLE_NAMES:
            assert proxy.fields[name] is held[name]
        _assert_matches_oracle(proxy.fields, proxy, oracle)
        _assert_matches_oracle(proxy.assemble(), proxy, oracle)

    def test_parts_stay_the_live_blocks(self):
        """``parts[rank][var]`` is one array for the solver's lifetime: a
        seeded step and ``_scatter_var`` both write through it."""
        shape = (9, 7, 5)
        grid = StructuredGrid3D(shape, (1.5, 1.0, 1.0))
        decomp = BlockDecomposition3D(shape, (2, 2, 2))
        solver = DecomposedS3D(LiftedFlameCase(grid, seed=5, kernel_rate=4.0),
                               decomp)
        held = [part["T"] for part in solver.parts]
        before = [t.copy() for t in held]
        solver.step()
        assert solver.kernel_history
        fresh = np.random.default_rng(0).uniform(0.5, 2.0, shape)
        for state in (solver.assemble()["T"], fresh):
            if state is fresh:
                solver._scatter_var("T", fresh)
            for part, t, block in zip(solver.parts, held, decomp.blocks()):
                assert part["T"] is t
                assert t.tobytes() == state[block.slices].tobytes()
        assert any(not np.array_equal(t, b) for t, b in zip(held, before))
        # ... and the next step starts from what was scattered.
        oracle = OracleS3D(LiftedFlameCase(grid, seed=5, kernel_rate=0.0))
        for name in VARIABLE_NAMES:
            oracle.fields[name][...] = solver.assemble()[name]
        solver.case.kernel_rate = 0.0
        solver.step()
        oracle.step()
        assert (solver.assemble()["T"].tobytes()
                == oracle.fields["T"].tobytes())

    def test_a_step_that_draws_no_kernel_assembles_nothing(self, monkeypatch):
        shape = (8, 6, 4)
        solver = DecomposedS3D(
            LiftedFlameCase(StructuredGrid3D(shape), kernel_rate=0.0),
            BlockDecomposition3D(shape, (2, 2, 1)))
        monkeypatch.setattr(
            solver, "_gather_var",
            lambda name: pytest.fail(f"gathered {name} without a kernel"))
        solver.step(3)
        assert solver.kernel_history == []

    def test_mismatched_decomp_raises(self):
        grid = StructuredGrid3D((8, 8, 8))
        case = LiftedFlameCase(grid)
        with pytest.raises(ValueError):
            DecomposedS3D(case, BlockDecomposition3D((6, 6, 6), (2, 1, 1)))
