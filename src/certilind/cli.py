"""Command-line front end.

    certilind simulate <file> [--out DIR] [--space-tol X] [--time-tol X]
    certilind sweep <file> --shapes <list> [--out DIR] [--jobs N]
    certilind reproduce <preset> [--out DIR]

Exit codes: 0 success, 1 parse/model error, 2 certification failure
(the space budget cannot be met within max_dimension).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace

from .fockspace import contains, dimension, embed, trace_norm
from .lindblad import ModelError
from .modelfile import (
    BuiltModel,
    ModelFile,
    ModelFileError,
    _quoted,
    dump_state_json,
    shape_from_spec,
    shape_to_spec,
)
from .operators import OperatorError
from .presets import PRESETS, preset_model_file, preset_names
from .solver import (
    CertificationError,
    SolverError,
    run_adaptive,
    run_fixed,
    write_ledger_csv,
    write_trajectory_csv,
)

__all__ = ["main", "cmd_simulate", "cmd_sweep", "cmd_reproduce"]

USER_ERRORS = (ModelFileError, ModelError, OperatorError, SolverError, ValueError)


def _fail(message: str) -> int:
    print(f"certilind: error: {message}", file=sys.stderr)
    return 1


def _atomic_write(path: str, writer) -> None:
    """``writer(tmp)`` to a temporary file beside ``path``, then moved onto
    it.  The temporary name is this process's and thread's own, so
    threads writing the same path (a repeated ``sweep`` shape) never
    share one; the writer creates the file, with the usual mode."""
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_text(path: str, text: str) -> None:
    def write(tmp):
        with open(tmp, "w") as fh:
            fh.write(text)

    _atomic_write(path, write)


def _run_built(built: BuiltModel):
    if built.adaptive_space:
        return run_adaptive(built.model, built.initial, built.config)
    return run_fixed(built.model, built.initial, built.shape, built.config)


def _write_outputs(out_dir: str, built: BuiltModel, result, wall: float) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(
        os.path.join(out_dir, "trajectory.csv"),
        lambda p: write_trajectory_csv(result.trajectory, p),
    )
    _atomic_write(
        os.path.join(out_dir, "ledger.csv"),
        lambda p: write_ledger_csv(result.ledger, p),
    )
    _atomic_write(
        os.path.join(out_dir, "final_state.json"),
        lambda p: dump_state_json(result.final.rho, p),
    )
    summary = {
        "T": built.config.final_time,
        "xi": result.xi,
        "dim": result.final.rho.dim,
        "shape": shape_to_spec(result.final.rho.shape),
        "trace": float(result.final.rho.trace().real),
        "scheme": built.config.scheme,
        "time_tol": built.config.time_tol,
        "space_tol": built.config.space_tol,
        "wall_time_s": wall,
        "frame": asdict(result.frame),
    }
    _write_text(
        os.path.join(out_dir, "summary.json"),
        json.dumps(summary, indent=2, sort_keys=True),
    )


def cmd_simulate(model_path, out_dir=None, space_tol=None, time_tol=None) -> int:
    try:
        mf = ModelFile.load(model_path)
        built = mf.build(base_dir=os.path.dirname(os.path.abspath(model_path)))
        overrides = {}
        if space_tol is not None:
            overrides["space_tol"] = float(space_tol)
        if time_tol is not None:
            overrides["time_tol"] = float(time_tol)
        if overrides:
            built = replace(built, config=replace(built.config, **overrides))
    except USER_ERRORS as exc:
        return _fail(str(exc))
    out_dir = out_dir or "."
    t0 = time.time()
    try:
        result = _run_built(built)
    except CertificationError as exc:
        print(f"certilind: certification failure: {exc}", file=sys.stderr)
        return 2
    except USER_ERRORS as exc:
        return _fail(str(exc))
    _write_outputs(out_dir, built, result, time.time() - t0)
    print(
        f"simulate: T={built.config.final_time} xi={result.xi:.6e} "
        f"dim={result.final.rho.dim} -> {out_dir}"
    )
    return 0


def _sweep_shape(item: str, base):
    """The shape of one --shapes item, of the model's kind of shape:
    whole caps joined with 'x' on a Rect ("12x6"), one rational cap on a
    WeightedTotal ("9/2")."""
    item, spec = item.strip(), shape_to_spec(base)
    rect = "rect" in spec
    try:
        if rect:
            spec["rect"] = [int(tok) for tok in item.split("x")]
        else:
            spec["weighted"]["cap"] = item
        shape = shape_from_spec(spec)
        if shape.mode_count == base.mode_count:
            return shape
    except ValueError:
        pass
    what = f"{base.mode_count} whole cap(s) joined with 'x'" if rect else "one rational cap"
    raise ModelFileError(f"shape item {_quoted(item)} is not {what}, each at least 0")


def _sweep_fields(shape) -> tuple[str, list[str], list[str]]:
    """(file label, CSV columns, CSV values) of a sweep shape."""
    spec = shape_to_spec(shape)
    if "rect" in spec:
        caps = [str(c) for c in spec["rect"]]
        return "x".join(caps), [f"N{j + 1}" for j in range(len(caps))], caps
    cap = spec["weighted"]["cap"]
    return cap.replace("/", "_"), ["cap"], [cap]


def cmd_sweep(model_path, shapes, out_dir=None, jobs=1) -> int:
    try:
        mf = ModelFile.load(model_path)
        built = mf.build(base_dir=os.path.dirname(os.path.abspath(model_path)))
        points = [_sweep_shape(s, built.shape) for s in shapes.split(",")]
        ref_shape = max(points, key=dimension)
        for p in points:
            if not contains(p, ref_shape):
                raise ModelFileError(
                    f"sweep point {p} is not contained in the largest shape "
                    f"{ref_shape}, so no common reference exists"
                )
    except USER_ERRORS as exc:
        return _fail(str(exc))
    out_dir = out_dir or "."
    os.makedirs(out_dir, exist_ok=True)

    def one_point(shape):
        result = run_fixed(built.model, built.initial, shape, built.config)
        label = _sweep_fields(shape)[0]
        _write_text(
            os.path.join(out_dir, f"point_{label}.json"),
            json.dumps({"shape": shape_to_spec(shape), "xi": result.xi}),
        )
        return shape, result

    try:
        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                outcomes = list(pool.map(one_point, points))
        else:
            outcomes = [one_point(p) for p in points]
    except CertificationError as exc:
        print(f"certilind: certification failure: {exc}", file=sys.stderr)
        return 2
    except USER_ERRORS as exc:
        return _fail(str(exc))

    ref_result = next(r for s, r in outcomes if s == ref_shape)
    ref_mat = ref_result.final.rho.matrix

    def write_rows(path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_sweep_fields(ref_shape)[1] + ["xi_T", "dist_to_ref"])
            for shape, result in outcomes:
                emb = embed(result.final.rho, ref_shape)
                dist = trace_norm(emb.matrix - ref_mat)
                writer.writerow(_sweep_fields(shape)[2] + [repr(result.xi), repr(dist)])

    _atomic_write(os.path.join(out_dir, "error_vs_N.csv"), write_rows)
    print(f"sweep: {len(outcomes)} points -> {os.path.join(out_dir, 'error_vs_N.csv')}")
    return 0


def cmd_reproduce(preset: str, out_dir=None) -> int:
    if preset == "list":
        for name in preset_names():
            print(name)
        return 0
    if preset not in PRESETS:
        return _fail(
            f"unknown preset {preset!r}; available: {', '.join(preset_names())} "
            "(or 'list')"
        )
    out_dir = out_dir or f"reproduce_{preset}"
    os.makedirs(out_dir, exist_ok=True)
    try:
        return _REPRODUCERS[preset](out_dir)
    except CertificationError as exc:
        print(f"certilind: certification failure: {exc}", file=sys.stderr)
        return 2
    except USER_ERRORS as exc:
        return _fail(str(exc))


def _write_model(name, out_dir, **kwargs) -> str:
    model_path = os.path.join(out_dir, "model.json")
    with open(model_path, "w") as fh:
        fh.write(preset_model_file(name, **kwargs).to_json())
    return model_path


def _reproduce_simple(name):
    def run(out_dir):
        return cmd_simulate(_write_model(name, out_dir), out_dir)

    return run


def _reproduce_sweep(name, shapes):
    def run(out_dir):
        return cmd_sweep(_write_model(name, out_dir), shapes, out_dir)

    return run


def _reproduce_adaptive_1d(out_dir):
    for start in (15, 55):
        sub = os.path.join(out_dir, f"start_{start}")
        os.makedirs(sub, exist_ok=True)
        code = cmd_simulate(_write_model("adaptive1d", sub, start=start), sub)
        if code:
            return code
    return 0


_E_GRID = ",".join(
    f"{n1}x{4 + round((n1 - 8) * 11 / 20)}" for n1 in range(8, 29, 2)
) + ",16x15,28x8,40x20"

_REPRODUCERS = {
    "exampleA": _reproduce_simple("exampleA"),
    "exampleB": _reproduce_simple("exampleB"),
    "exampleC": _reproduce_sweep(
        "exampleC", ",".join(str(n) for n in range(4, 31)) + ",40"
    ),
    "exampleD": _reproduce_sweep(
        "exampleD", ",".join(str(n) for n in range(4, 31)) + ",40"
    ),
    "exampleE": _reproduce_sweep("exampleE", _E_GRID),
    "gkp": _reproduce_simple("gkp"),
    "adaptive1d": _reproduce_adaptive_1d,
    "adaptive2d": _reproduce_simple("adaptive2d"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="certilind",
        description=(
            "Simulate Lindblad dynamics on truncated bosonic spaces with "
            "certified truncation-error bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one model file")
    p_sim.add_argument("model")
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--space-tol", type=float, default=None)
    p_sim.add_argument("--time-tol", type=float, default=None)

    p_sweep = sub.add_parser("sweep", help="run a model across truncations")
    p_sweep.add_argument("model")
    p_sweep.add_argument("--shapes", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--jobs", type=int, default=1)

    p_rep = sub.add_parser("reproduce", help="run a built-in preset")
    p_rep.add_argument("preset")
    p_rep.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    if args.command == "simulate":
        return cmd_simulate(args.model, args.out, args.space_tol, args.time_tol)
    if args.command == "sweep":
        return cmd_sweep(args.model, args.shapes, args.out, args.jobs)
    return cmd_reproduce(args.preset, args.out)


if __name__ == "__main__":
    sys.exit(main())
