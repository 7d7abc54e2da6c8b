"""repro — hybrid in-situ/in-transit scientific analysis.

A complete Python reproduction of Bennett et al., *Combining In-situ and
In-transit Processing to Enable Extreme-Scale Scientific Analysis*
(SC 2012, DOI 10.1109/SC.2012.31). See README.md for the architecture and
DESIGN.md for the reproduction methodology.

Top-level convenience re-exports cover the high-level public API; the
subpackages (:mod:`repro.core`, :mod:`repro.analysis`, :mod:`repro.sim`,
:mod:`repro.staging`, :mod:`repro.transport`, :mod:`repro.machine`,
:mod:`repro.costmodel`, :mod:`repro.io`, :mod:`repro.vmpi`,
:mod:`repro.des`) expose the full surface. Every package but
:mod:`repro.backend` exports lazily (:mod:`repro._lazy`): a name's
submodule is imported when the name is first read.
"""

from repro._lazy import export_lazily

__version__ = "0.1.0"

export_lazily(__name__, {
    "AnalyticsVariant": "core",
    "ExperimentConfig": "core",
    "HybridFramework": "core",
    "ScaledExperiment": "core",
    "LiftedFlameCase": "sim",
    "S3DProxy": "sim",
    "StructuredGrid3D": "sim",
    "BlockDecomposition3D": "vmpi",
})
