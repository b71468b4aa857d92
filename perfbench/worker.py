"""One round of a workload in a fresh process: cold set-up, then the solve.

    python3 perfbench/worker.py --workload NAME --out DIR --tag TAG [--setup-only] [--trace]

Set-up is what a fresh ``certilind simulate`` process pays before its
first step: ``ModelFile`` load and build, the first ``shaped_generator``
on the start shape and the first ``model_space_defect`` on the start
state (which builds the defect context).  The solve is the
``run_fixed``/``run_adaptive`` call after it.  The worker prints one JSON
line; the final state and trajectory go to ``DIR/TAG.npz`` for the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _solve_trace_metrics(tracer, setup_end, solve_s, result):
    """Per-module metrics over set-up and solve, from the tracer's spans."""
    stats, _ = tracer.summary()
    solve_stats, top_level = tracer.summary(setup_end)

    def calls(category, source=stats):
        return source.get(category, [0, 0.0, 0.0])[0]

    def seconds(category, source=stats):
        return source.get(category, [0, 0.0, 0.0])[1]

    def per_call_ms(category):
        n = calls(category)
        return 1e3 * seconds(category) / n if n else 0.0

    records = result.trajectory
    steps = sum(1 for r in records if r.accepted)
    grows = sum(1 for r in records if r.resize == "grow")
    shrinks = sum(1 for r in records if r.resize == "shrink")
    projects = calls("fockspace.project")
    return {
        "operators.materialize_calls": calls("operators.materialize"),
        "operators.materialize_s": seconds("operators.materialize"),
        "lindblad.generator_builds": calls("lindblad.generator_build"),
        "lindblad.generator_build_s": seconds("lindblad.generator_build"),
        "lindblad.apply_calls": calls("lindblad.apply"),
        "lindblad.apply_s": seconds("lindblad.apply"),
        "lindblad.apply_ms": per_call_ms("lindblad.apply"),
        "lindblad.apply_per_step": calls("lindblad.apply", solve_stats) / steps,
        "estimators.defect_calls": calls("estimators.defect"),
        "estimators.defect_s": seconds("estimators.defect"),
        "estimators.defect_ms": per_call_ms("estimators.defect"),
        "estimators.full_eig_calls": calls("estimators.full_eig"),
        "estimators.context_builds": calls("estimators.context_build"),
        "estimators.context_build_s": seconds("estimators.context_build"),
        "estimators.ledger_s": seconds("estimators.ledger"),
        "estimators.xi": result.xi,
        "fockspace.embed_calls": calls("fockspace.embed"),
        "fockspace.embed_s": seconds("fockspace.embed"),
        "fockspace.project_calls": projects,
        "fockspace.project_s": seconds("fockspace.project"),
        "solver.shrink_per_project": shrinks / projects if projects else 0.0,
        "solver.steps": steps,
        "solver.step_s": solve_stats.get("solver.step", [0, 0.0, 0.0])[2],
        "solver.grows": grows,
        "solver.shrinks": shrinks,
        "solver.self_s": solve_s - top_level,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import numpy as np

    from certilind import estimators, lindblad, solver
    from certilind.fockspace import basis_map
    from certilind.modelfile import ModelFile
    from workloads import model_document

    model_path = os.path.join(args.out, f"{args.tag}.model.json")
    with open(model_path, "w") as fh:
        json.dump(model_document(args.workload), fh)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    t0 = perf_counter()
    built = ModelFile.load(model_path).build(base_dir=args.out)
    build_s = perf_counter() - t0
    lindblad.shaped_generator(built.model, built.shape)
    estimators.model_space_defect(built.model, 0.0, built.initial)
    setup_s = perf_counter() - t0
    out = {"setup_s": setup_s, "modelfile.build_s": build_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    setup_end = len(tracer.spans) if tracer else 0
    t1 = perf_counter()
    if built.adaptive_space:
        result = solver.run_adaptive(built.model, built.initial, built.config)
    else:
        result = solver.run_fixed(built.model, built.initial, built.shape, built.config)
    solve_s = perf_counter() - t1
    out["solve_s"] = solve_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        out.update(_solve_trace_metrics(tracer, setup_end, solve_s, result))
        out["spans"] = len(tracer.spans)
        with open(os.path.join(args.out, f"{args.tag}.spans.json"), "w") as fh:
            json.dump({"fields": ["category", "start", "end", "parent"],
                       "setup_end": setup_end, "spans": tracer.spans}, fh)

    records = result.trajectory
    final = result.final.rho
    np.savez(
        os.path.join(args.out, f"{args.tag}.npz"),
        rho=np.asarray(final.matrix),
        states=np.array(basis_map(final.shape).states, dtype=np.int64),
        rec_time=np.array([r.time for r in records]),
        rec_xi=np.array([r.xi for r in records]),
        rec_dim=np.array([r.dim for r in records]),
        rec_accepted=np.array([r.accepted for r in records]),
        rec_resize=np.array([r.resize for r in records]),
        rec_rate=np.array([r.defect_rate for r in records]),
    )
    out.update(
        {
            "xi": result.xi,
            "final_time": result.final.time,
            "horizon": built.config.final_time,
            "space_tol": built.config.space_tol,
        }
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
