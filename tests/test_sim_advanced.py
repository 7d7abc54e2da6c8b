"""Tests for the RK2 integrator."""

import numpy as np
import pytest

from repro.sim import (
    DecomposedS3D,
    LiftedFlameCase,
    S3DProxy,
    SolverParams,
    StructuredGrid3D,
    VARIABLE_NAMES,
)
from repro.vmpi import BlockDecomposition3D
from tests.sim_oracle import OracleS3D


def _case(shape=(12, 10, 8), seed=91, **kw):
    grid = StructuredGrid3D(shape, (1.5, 1.2, 1.0))
    return LiftedFlameCase(grid, seed=seed, **kw)


class TestRK2:
    def test_invalid_integrator_rejected(self):
        with pytest.raises(ValueError):
            SolverParams(integrator="rk7")

    def test_rk2_advances_state(self):
        s = S3DProxy(_case(), params=SolverParams(integrator="rk2"))
        t0 = s.fields["T"].copy()
        s.step(3)
        assert not np.array_equal(s.fields["T"], t0)
        assert s.step_count == 3

    def test_rk2_species_physical(self):
        s = S3DProxy(_case(kernel_rate=2.0),
                     params=SolverParams(integrator="rk2"))
        s.step(8)
        for name in ("H2", "O2", "H2O"):
            arr = s.fields[name]
            assert arr.min() >= 0.0 and arr.max() <= 1.0

    def test_rk2_differs_from_euler(self):
        a = S3DProxy(_case(), params=SolverParams(integrator="euler"))
        b = S3DProxy(_case(), params=SolverParams(integrator="rk2"))
        a.step(3)
        b.step(3)
        assert not np.array_equal(a.fields["T"], b.fields["T"])

    def test_rk2_more_accurate_on_smooth_problem(self):
        """Richardson-style check: against a fine-dt reference, rk2 at a
        coarse dt beats euler at the same coarse dt."""
        def run(integrator, dt, n):
            case = _case(kernel_rate=0.0)
            s = S3DProxy(case, params=SolverParams(integrator=integrator, dt=dt))
            s.step(n)
            return s.fields["T"]

        t_final = 8e-3
        ref = run("rk2", t_final / 64, 64)
        err_euler = np.abs(run("euler", t_final / 8, 8) - ref).max()
        err_rk2 = np.abs(run("rk2", t_final / 8, 8) - ref).max()
        assert err_rk2 < err_euler

    def test_decomposed_rk2_matches_global_bitwise(self):
        """The two-exchange decomposed RK2 equals the global periodic
        oracle's RK2 exactly."""
        shape = (12, 8, 8)
        params = SolverParams(integrator="rk2")
        global_solver = OracleS3D(_case(shape, seed=92), params=params)
        block_solver = DecomposedS3D(_case(shape, seed=92),
                                     BlockDecomposition3D(shape, (2, 2, 1)),
                                     params=params)
        global_solver.step(3)
        block_solver.step(3)
        assembled = block_solver.assemble()
        for name in VARIABLE_NAMES:
            np.testing.assert_array_equal(assembled[name],
                                          global_solver.fields[name],
                                          err_msg=f"variable {name}")
