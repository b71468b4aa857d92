"""The bench tracer replaces certilind functions by name.  A rename
makes ``perfbench/run.py --trace 1`` fail, and a call that no longer
goes through a wrapped name (an alias, a moved call) makes it report
zeros without an error.  This runs ``perfbench/tracing.install`` on a
tiny ``run_fixed`` in a fresh process (the wrappers replace module
names for good) and checks that every span category
``perfbench/worker.py`` reads was recorded, and that a few RK4 steps of
the ``gkp`` preset record their materializations (which the GKP blocks
take through ``lindblad``) and their defect context."""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

# the squeezed cat has a nonzero boundary term B, so its defect takes
# the full eigensolve; the start state lies on a larger shape (one
# projection) and the result leaves the parity sector (one embedding)
SCRIPT = """
import json, sys
from dataclasses import replace
sys.path.insert(0, {perfbench!r})
sys.path.insert(0, {tests!r})
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from certilind.fockspace import Rect
from certilind.operators import fock_density
from certilind.presets import preset_model_file
from certilind.solver import SolverConfig, run_fixed
from models import squeezed_cat_model

def counts(start=0):
    return {{category: entry[0] for category, entry in tracer.summary(start)[0].items()}}

config = SolverConfig(scheme="adaptive_rk", final_time=0.01, time_tol=1e-8)
run_fixed(squeezed_cat_model(1.0, 0.5), fock_density(Rect([10]), [0]), Rect([6]), config)
gkp_start = len(tracer.spans)
built = preset_model_file("gkp", cap=8).build()
config = replace(built.config, final_time=4 * built.config.dt)
run_fixed(built.model, built.initial, built.shape, config)
print(json.dumps({{"all": counts(), "gkp": counts(gkp_start)}}))
"""


def worker_categories():
    """The span categories the worker's metrics read."""
    with open(os.path.join(PERFBENCH, "worker.py")) as fh:
        source = fh.read()
    return set(re.findall(r'(?:calls|seconds|per_call_ms|get)\("([\w.]+)"', source))


def test_every_worker_category_has_spans():
    categories = worker_categories()
    assert {"lindblad.apply", "estimators.full_eig", "solver.step"} <= categories
    script = SCRIPT.format(perfbench=PERFBENCH, tests=os.path.join(ROOT, "tests"))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    missing = sorted(c for c in categories if not counts["all"].get(c))
    assert not missing, f"no spans for {missing}; recorded {counts['all']}"
    gkp = {"operators.materialize", "estimators.context_build", "estimators.defect"}
    missing = sorted(c for c in gkp if not counts["gkp"].get(c))
    assert not missing, f"no GKP spans for {missing}; recorded {counts['gkp']}"
