"""The benchmark's workloads: shipped presets with small overrides.

No workload has a random input.  Each model document comes from
``certilind.presets.PRESETS`` and changes at most its horizon, its drive
pulse or (for the two-mode reference) its time tolerance, so the same
document is built on every run and for every seed.
"""

from __future__ import annotations

import copy

WORKLOAD_NAMES = ("two_mode_ref", "squeezed_stiff", "adaptive2d_pulse", "gkp_rk4")

# adaptive2d drive: alpha(t)^2 = 2.25 switched off at t = 0.2 instead of 1.5
PULSE_END = 0.2


def model_document(name: str) -> dict:
    """The JSON model document of a workload."""
    from certilind.presets import PRESETS

    if name == "two_mode_ref":
        # the criterion-4 reference shape and tolerance, to T = 0.1
        doc = PRESETS["exampleE"](caps=(40, 20))
        doc["solver"].update({"T": 0.1, "time_tol": 1e-14})
    elif name == "squeezed_stiff":
        doc = PRESETS["exampleD"](cap=40)
        doc["solver"]["T"] = 0.05
    elif name == "adaptive2d_pulse":
        doc = PRESETS["adaptive2d"]()
        drive = doc["hamiltonian"][1]["coeff"]
        if drive["table"] != [[0.0, -2.25], [1.5, 0.0]]:
            raise ValueError(f"adaptive2d preset drive changed: {drive!r}")
        drive["table"] = [[0.0, -2.25], [PULSE_END, 0.0]]
        doc["solver"]["T"] = 1.5
    elif name == "gkp_rk4":
        doc = PRESETS["gkp"]()
    else:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOAD_NAMES)}")
    return copy.deepcopy(doc)
