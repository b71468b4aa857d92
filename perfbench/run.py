"""certilind benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  Each round is one fresh worker process that pays the cold
set-up and then solves.  Rounds repeat while the next one is expected
to end within ``--seconds`` (there is always one).  Set-up-only
processes then fill the rest of ``--seconds`` and bring the set-up
samples to at least ``MIN_SETUPS``.  Every round's result is checked
against an oracle made apart from the program (``checks.py``).
``--trace 0`` reports the end-to-end metrics (``solve_s`` is the mean
over the run's rounds, the others are medians); ``--trace 1`` adds one
traced round and reports the per-module metrics and the tracing
overhead.  The workloads have no random inputs, so ``--seed`` is
recorded but changes nothing.  The last line of standard output is the
JSON result; the full record of the run goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

# One BLAS thread: at these dimensions (31 to 946) a second thread made
# single solves slower on 2 cores (gkp_rk4 13.0 s against 11.7 s), and it
# changes the summation order, so xi moved in its last digit.
BLAS_THREADS = "1"
MIN_SETUPS = 3
RUN_LIMIT_S = 165.0  # a run must end within 180 s


class WorkerFailure(RuntimeError):
    pass


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
    }


def run_worker(workload, work_dir, tag, deadline, setup_only=False, trace=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--out", work_dir, "--tag", tag]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise WorkerFailure(f"{tag}: no time left in the run")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:  # run() kills and reaps the child
        raise WorkerFailure(f"{tag}: timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailure(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise WorkerFailure(f"{tag}: no JSON result line: {exc}") from exc


def load_round(work_dir, tag, summary):
    import numpy as np

    with np.load(os.path.join(work_dir, f"{tag}.npz")) as npz:
        data = {key: npz[key] for key in npz.files}
    data.update(summary)
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "certilind", "__init__.py")):
        print(f"perfbench: no certilind sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from checks import CHECKS
    from workloads import WORKLOAD_NAMES

    if args.workload not in WORKLOAD_NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOAD_NAMES)}", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    end_to_end = [m["name"] for m in spec["end_to_end"]]

    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    facts = machine_facts()
    print("machine: " + json.dumps(facts), flush=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    work_dir = os.path.join(RESULTS, "tmp-" + name)
    os.makedirs(work_dir)

    attempted, failed, errors = 0, 0, []

    def attempt(tag, **kwargs):
        nonlocal attempted, failed
        attempted += 1
        try:
            out = run_worker(args.workload, work_dir, tag, deadline, **kwargs)
        except WorkerFailure as exc:
            failed += 1
            errors.append(str(exc))
            return None
        out["tag"] = tag
        return out

    rounds, setups, traced = [], [], None
    try:
        while not errors:
            out = attempt(f"round{attempted}")
            if out is not None:
                rounds.append(out)
                setups.append(out["setup_s"])
            elapsed = perf_counter() - start
            if elapsed + elapsed / attempted > args.seconds:
                break  # the next round would end past --seconds
        # Set-up-only processes fill the time the rounds left over; a set-up
        # of a few milliseconds spreads too widely to rest on three samples.
        setup_only_s = 0.0
        while not errors:
            elapsed = perf_counter() - start
            if len(setups) >= MIN_SETUPS and elapsed + setup_only_s > args.seconds:
                break
            out = attempt(f"setup{attempted}", setup_only=True)
            setup_only_s = perf_counter() - start - elapsed
            if out is not None:
                setups.append(out["setup_s"])
        if args.trace and not errors:
            traced = attempt("traced", trace=True)
            if traced is not None:
                shutil.move(os.path.join(work_dir, "traced.spans.json"),
                            os.path.join(RESULTS, name + ".spans.json"))
        measured_s = perf_counter() - start

        checker = CHECKS[args.workload]()
        correct = True
        for out in rounds + ([traced] if traced else []):
            try:
                failures, values = checker(load_round(work_dir, out["tag"], out))
            except Exception as exc:  # malformed output fails the round, not the run
                failures, values = [f"check raised {exc!r}"], {}
            out["check"] = {"failures": failures, "values": values}
            if failures:
                correct = False
                failed += 1
                errors.extend(f"{out['tag']}: {msg}" for msg in failures)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for msg in errors:
        print(f"perfbench: {msg}", file=sys.stderr)
    if not rounds:
        print("perfbench: no round completed", file=sys.stderr)
        return 1

    if args.trace:
        if traced is None:
            print("perfbench: the traced round did not complete", file=sys.stderr)
            return 1
        values = {k: v for k, v in traced.items() if k in units and k not in end_to_end}
        untraced = statistics.fmean(r["solve_s"] for r in rounds)
        values["trace.solve_s"] = traced["solve_s"]
        values["trace.overhead_pct"] = 100.0 * (traced["solve_s"] / untraced - 1.0)
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in values]
        if missing:
            print(f"perfbench: traced round lacks {', '.join(missing)}", file=sys.stderr)
            return 1
    else:
        values = {
            "setup_s": statistics.median(setups),
            # The mean, not the median: the machine's speed drifts over
            # tens of seconds, and the mean averages the whole run while
            # the median follows whichever phase most rounds fell in.
            "solve_s": statistics.fmean(r["solve_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "measured_s": measured_s,
        "wall_s": perf_counter() - start,
        "setup_samples": setups,
        "rounds": rounds,
        "traced": traced,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(os.path.join(RESULTS, name + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"operations: attempted={attempted} failed={failed} rounds={len(rounds)} "
          f"setups={len(setups)} measured={measured_s:.1f}s")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    os.environ.update(
        {"OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS,
         "MKL_NUM_THREADS": BLAS_THREADS}
    )
    sys.exit(main())
