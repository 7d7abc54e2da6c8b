"""Online adaptive control of the in-situ/in-transit split.

The closed feedback loop over the paper's hybrid workflow: windowed probe
and blame signals in, placement and pool-size decisions out, actuated at
DES time. See :mod:`repro.control.controller` for the loop itself,
:mod:`repro.control.hysteresis` for the damping primitive shared with the
steering rules, and :mod:`repro.control.scenario` for the fault-injected
adaptive-vs-static comparison.
"""

from repro._lazy import export_lazily

export_lazily(__name__, {
    "CONTROL_PLAN": "scenario",
    "DEFAULT_MOVABLE": "controller",
    "PLACE_INSITU": "controller",
    "PLACE_INTRANSIT": "controller",
    "ControlPolicy": "controller",
    "ControlReport": "scenario",
    "Cooldown": "hysteresis",
    "PlacementController": "controller",
    "PlacementDecision": "controller",
    "WindowSignals": "controller",
    "run_control_scenario": "scenario",
})
