"""The S3D proxy solver: explicit advection–diffusion–reaction.

:class:`DecomposedS3D` advances the 14-variable state block-parallel
over a :class:`~repro.vmpi.decomp.BlockDecomposition3D` with one-layer
ghost exchange and the block operators of :mod:`repro.sim.stencil`,
which read the ghost-padded operands through slice views, over all the
ranks of one block shape at once. :class:`S3DProxy` is its one-rank
case: a 1×1×1 decomposition whose ``fields`` are the live block.

Physics per step (explicit Euler, frozen velocity):

* ``dT/dt   = -(u.grad)T + alpha lap T + q w``
* ``dYk/dt  = -(u.grad)Yk + D lap Yk + nu_k w  (- lambda Yk for radicals)``

with ``w`` the one-step Arrhenius rate. Species are clipped to [0, 1]
after each update (the first-order upwind scheme is monotone, clipping
only guards chemistry round-off).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.tracer import get_tracer
from repro.sim.chemistry import ArrheniusChemistry
from repro.sim.fields import SPECIES_NAMES, FieldSet
from repro.sim.grid import StructuredGrid3D
from repro.sim.lifted_flame import LiftedFlameCase
from repro.sim.stencil import (
    block_laplacian,
    block_upwind_advection,
    pad_with_ghosts,
)
from repro.vmpi.decomp import BlockDecomposition3D

_RADICALS = ("H", "O", "OH", "HO2", "H2O2")
_TRANSPORTED = ("T",) + SPECIES_NAMES  # velocity is frozen; P is held fixed


@dataclass
class SolverParams:
    """Transport and numerics parameters of the solver."""

    thermal_diffusivity: float = 2.0e-3
    species_diffusivity: float = 1.5e-3
    radical_decay: float = 5.0
    dt: float | None = None  # None -> CFL-derived at construction
    cfl_safety: float = 0.4
    #: "euler" (default) or "rk2" (Heun's method — S3D itself uses a
    #: multi-stage explicit RK; rk2 exercises the same multi-exchange
    #: structure at laptop scale).
    integrator: str = "euler"

    def __post_init__(self) -> None:
        if self.integrator not in ("euler", "rk2"):
            raise ValueError(
                f"integrator must be 'euler' or 'rk2', got {self.integrator!r}")

    def resolve_dt(self, grid: StructuredGrid3D, max_speed: float) -> float:
        if self.dt is not None:
            if self.dt <= 0:
                raise ValueError(f"dt must be positive, got {self.dt}")
            return self.dt
        diff = max(self.thermal_diffusivity, self.species_diffusivity)
        return grid.cfl_dt(max_speed, diff, self.cfl_safety)


def _rhs(state: dict[str, np.ndarray], ghosts: dict[str, np.ndarray],
         spacing: tuple[float, float, float],
         chemistry: ArrheniusChemistry, params: SolverParams
         ) -> dict[str, np.ndarray]:
    """Right-hand sides for all transported variables: the pointwise
    terms from ``state``, the stencils from its ghost-padded ``ghosts``."""
    velocity = (state["u"], state["v"], state["w"])
    dT_chem, dY_chem = chemistry.source_terms(
        state["T"], {s: state[s] for s in SPECIES_NAMES})

    rhs: dict[str, np.ndarray] = {}
    rhs["T"] = (block_upwind_advection(ghosts["T"], velocity, spacing)
                + params.thermal_diffusivity
                * block_laplacian(ghosts["T"], spacing)
                + dT_chem)
    for s in SPECIES_NAMES:
        r = (block_upwind_advection(ghosts[s], velocity, spacing)
             + params.species_diffusivity * block_laplacian(ghosts[s], spacing)
             + dY_chem[s])
        if s in _RADICALS:
            r = r - params.radical_decay * state[s]
        rhs[s] = r
    return rhs


def _apply_update(state: dict[str, np.ndarray], rhs: dict[str, np.ndarray],
                  dt: float) -> None:
    state["T"] += dt * rhs["T"]
    np.maximum(state["T"], 1e-3, out=state["T"])
    for s in SPECIES_NAMES:
        state[s] += dt * rhs[s]
        np.clip(state[s], 0.0, 1.0, out=state[s])


def _midpoint_state(state: dict[str, np.ndarray], rhs: dict[str, np.ndarray],
                    dt: float) -> dict[str, np.ndarray]:
    """Heun predictor: transported variables advanced by a full Euler step,
    velocity carried frozen."""
    mid = {c: state[c] for c in ("u", "v", "w")}
    for name in _TRANSPORTED:
        mid[name] = state[name] + dt * rhs[name]
    return mid


def _combine_heun(rhs1: dict[str, np.ndarray], rhs2: dict[str, np.ndarray]
                  ) -> dict[str, np.ndarray]:
    return {name: 0.5 * (rhs1[name] + rhs2[name]) for name in rhs1}


class DecomposedS3D:
    """Block-parallel solver over a 3-D decomposition with ghost exchange.

    Each rank holds only its block of every variable; one ghost layer is
    exchanged per step (the stencils are radius-1). The ranks are an
    array axis: the blocks of one shape (all of them, for an even split)
    live in one ``(ranks, nx, ny, nz)`` array per variable,
    ``parts[rank][var]`` is a live view of the rank's entry, and every
    stage runs once per variable over the stack — elementwise, so each
    cell sees the operations it would see alone. Kernel seeding — a
    global stochastic event — is applied on the assembled temperature
    field and re-scattered, mirroring how S3D applies global forcing.
    """

    def __init__(self, case: LiftedFlameCase, decomp: BlockDecomposition3D,
                 params: SolverParams | None = None) -> None:
        if decomp.global_shape != case.grid.shape:
            raise ValueError(
                f"decomposition {decomp.global_shape} != grid {case.grid.shape}")
        self.case = case
        self.grid = case.grid
        self.decomp = decomp
        self.chemistry = ArrheniusChemistry()
        self.params = params or SolverParams()

        initial = case.initial_fields()
        self.names = initial.names
        pieces = {name: decomp.scatter(initial[name]) for name in self.names}
        #: per shape group: var -> (ranks, nx, ny, nz) stack
        self._stacks: list[dict[str, np.ndarray]] = [
            {name: np.stack([pieces[name][r] for r in ranks])
             for name in self.names}
            for ranks in decomp.shape_groups()]
        #: parts[rank][var] -> the rank's block, a live view of its stack
        self.parts: list[dict[str, np.ndarray]] = self._rank_views(
            self._stacks)
        max_speed = max(float(np.max(np.abs(initial[c]))) for c in ("u", "v", "w"))
        self.dt = self.params.resolve_dt(self.grid, max_speed)
        self.step_count = 0
        self.kernel_history: list[tuple[int, tuple[int, int, int]]] = []
        self._tracer = get_tracer()

    def _gather_var(self, name: str) -> np.ndarray:
        return self.decomp.gather([p[name] for p in self.parts])

    def _scatter_var(self, name: str, global_field: np.ndarray) -> None:
        for part, piece in zip(self.parts, self.decomp.scatter(global_field)):
            part[name][...] = piece

    def _rank_views(self, stacks: list[dict[str, np.ndarray]]
                    ) -> list[dict[str, np.ndarray]]:
        """``views[rank][var]``: each rank's entry of its group's stack."""
        views: list[dict[str, np.ndarray]] = [{} for _ in range(
            self.decomp.n_ranks)]
        for ranks, stack in zip(self.decomp.shape_groups(), stacks):
            for k, rank in enumerate(ranks):
                views[rank] = {name: arr[k] for name, arr in stack.items()}
        return views

    def _stage_rhs(self, stacks: list[dict[str, np.ndarray]],
                   parts: list[dict[str, np.ndarray]]
                   ) -> list[dict[str, np.ndarray]]:
        """Halo exchange between the ranks (``parts``, the per-rank views
        of ``stacks``), then every shape group's right-hand side.

        Only the transported variables are exchanged: the stencils read
        the (frozen) velocity at the cell itself, never at a neighbour.
        """
        tracer = self._tracer
        with tracer.span("sim.halo", lane="sim", category="sim"):
            # The receive buffers, stacked like the state.
            ghosted = [
                {name: np.empty((n_ranks, nx + 2, ny + 2, nz + 2))
                 for name in _TRANSPORTED}
                for n_ranks, nx, ny, nz in (s["T"].shape for s in stacks)]
            ghost_parts = self._rank_views(ghosted)
            for name in _TRANSPORTED:
                pad_with_ghosts([p[name] for p in parts], self.decomp,
                                out=[g[name] for g in ghost_parts])
        with tracer.span("sim.rhs", lane="sim", category="sim"):
            return [
                _rhs(stack, ghosts, self.grid.spacing, self.chemistry,
                     self.params)
                for stack, ghosts in zip(stacks, ghosted)]

    def step(self, n: int = 1) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        tracer = self._tracer
        for _ in range(n):
            with tracer.span("sim.step", lane="sim", stage="simulation",
                             step=self.step_count, solver="decomposed"):
                self._seed_kernels()

                rhs_per_group = self._stage_rhs(self._stacks, self.parts)

                if self.params.integrator == "rk2":
                    # Predictor stacks, then a SECOND halo exchange before the
                    # corrector RHS — the multi-exchange structure of S3D's
                    # multi-stage RK.
                    mid = [_midpoint_state(stack, rhs, self.dt)
                           for stack, rhs in zip(self._stacks, rhs_per_group)]
                    rhs_per_group = [
                        _combine_heun(rhs1, rhs2) for rhs1, rhs2
                        in zip(rhs_per_group,
                               self._stage_rhs(mid, self._rank_views(mid)))]

                with tracer.span("sim.update", lane="sim", category="sim"):
                    for stack, rhs in zip(self._stacks, rhs_per_group):
                        _apply_update(stack, rhs, self.dt)
                self.step_count += 1

    def _seed_kernels(self) -> None:
        """Global forcing: when the step draws kernels, assemble what
        seeding reads, seed, and scatter T back."""
        n_new = self.case.draw_kernel_count()
        if n_new == 0:
            return
        fs = FieldSet(self.grid, ("T", "H2", "O2"))
        for name in fs.names:
            fs[name] = self._gather_var(name)
        for center in self.case.ignite_kernels(fs, n_new):
            self.kernel_history.append((self.step_count, center))
        self._scatter_var("T", fs["T"])

    def assemble(self) -> FieldSet:
        """Gather all blocks into a global :class:`FieldSet`."""
        fs = FieldSet(self.grid, self.names)
        for name in self.names:
            fs[name] = self._gather_var(name)
        return fs


class S3DProxy(DecomposedS3D):
    """The serial solver: the one-rank decomposition of the grid.
    ``fields`` holds the rank's live blocks, so :meth:`step` advances it
    in place and a write through it is what the next step reads."""

    def __init__(self, case: LiftedFlameCase,
                 params: SolverParams | None = None) -> None:
        super().__init__(case, BlockDecomposition3D(case.grid.shape,
                                                    (1, 1, 1)), params)
        self.fields = FieldSet(self.grid, self.names)
        for name in self.names:
            self.fields[name] = self.parts[0][name]
