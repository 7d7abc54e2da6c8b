"""S3D proxy: a miniature turbulent-combustion solver.

The paper drives its framework with S3D, a first-principles DNS code for
turbulent combustion [51]. The analyses, however, only require *fields with
combustion-like structure*: a temperature field with intermittent ignition
kernels, species mass fractions, and a turbulent velocity field with
fine-scale vortical structures. This package provides exactly that at
laptop scale:

* :class:`~repro.sim.grid.StructuredGrid3D` — uniform structured grid;
* :class:`~repro.sim.fields.FieldSet` — S3D's 14 solution variables
  (T, P, u, v, w and 9 species mass fractions);
* :mod:`~repro.sim.stencil` — the solver's finite-difference operators
  on ghost-padded blocks, and the ghost exchange that fills the pads;
* :mod:`~repro.sim.chemistry` — single-step Arrhenius H2/O2 kinetics with
  heat release (a reduced stand-in for S3D's detailed mechanism);
* :mod:`~repro.sim.turbulence` — divergence-free synthetic turbulence
  (random Fourier modes) for initial/background velocity;
* :class:`~repro.sim.lifted_flame.LiftedFlameCase` — the lifted hydrogen
  jet flame configuration of §V, including intermittent ignition kernels;
* :class:`~repro.sim.s3d.DecomposedS3D` — the explicit advection–
  diffusion–reaction solver, stepped block-parallel over a
  :class:`~repro.vmpi.decomp.BlockDecomposition3D` with ghost exchange,
  and :class:`~repro.sim.s3d.S3DProxy`, its one-rank case with the state
  exposed as a live :class:`~repro.sim.fields.FieldSet`.
"""

from repro.sim.grid import StructuredGrid3D
from repro.sim.fields import SPECIES_NAMES, VARIABLE_NAMES, FieldSet
from repro.sim.chemistry import ArrheniusChemistry
from repro.sim.turbulence import synthetic_turbulence
from repro.sim.lifted_flame import LiftedFlameCase
from repro.sim.s3d import DecomposedS3D, S3DProxy, SolverParams

__all__ = [
    "SolverParams",
    "StructuredGrid3D",
    "FieldSet",
    "SPECIES_NAMES",
    "VARIABLE_NAMES",
    "ArrheniusChemistry",
    "synthetic_turbulence",
    "LiftedFlameCase",
    "S3DProxy",
    "DecomposedS3D",
]
