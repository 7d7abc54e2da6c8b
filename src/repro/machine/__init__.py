"""Machine models: node/system specs, Gemini-like network, Lustre-like storage.

This package replaces the paper's physical testbed (Jaguar, the Cray XK6 at
ORNL) with parameterised analytic models. Calibration constants for Jaguar
live in :mod:`repro.costmodel.jaguar`; this package defines the *structure*
(what a node, network, and parallel filesystem are) independent of any one
machine.
"""

from repro._lazy import export_lazily

export_lazily(__name__, {
    "MachineSpec": "specs",
    "NodeSpec": "specs",
    "jaguar_xk6": "specs",
    "machine_fingerprint": "specs",
    "GeminiNetwork": "gemini",
    "Protocol": "gemini",
    "LustreModel": "lustre",
    "TorusTopology": "torus",
})
