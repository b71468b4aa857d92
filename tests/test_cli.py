import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import certilind
from certilind.cli import cmd_simulate, cmd_sweep, main
from certilind.fockspace import DenseOperator, Rect, WeightedTotal, dimension
from certilind.lindblad import GkpDissipator, PolyExpr
from certilind.modelfile import (
    ModelFile,
    ModelFileError,
    dump_state_json,
    format_poly,
    load_state_json,
    parse_poly_string,
    shape_from_spec,
)
from certilind.operators import PolyOperator, fock_density
from certilind.lindblad import CoefficientFn, truncated_expr
from certilind.presets import PRESETS, preset_model_file, preset_names
from certilind.solver import SolverConfig, SolverError
from models import (
    cat_buffer_model,
    cat_model,
    gkp_model,
    linear_drive_model,
    number_drive_model,
    squeezed_cat_model,
)


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def cat_doc(cap=12, **solver):
    base = {"T": 0.2, "scheme": "adaptive_rk", "time_tol": 1e-10}
    base.update(solver)
    return {
        "modes": 1,
        "params": {"alpha": 1.0},
        "shape": {"rect": [cap]},
        "hamiltonian": [],
        "dissipators": [{"op": "a0^2 - alpha^2*id"}],
        "initial": {"fock": [0]},
        "solver": base,
    }


class TestPolyGrammar:
    def test_basic_words(self):
        p = parse_poly_string("ad0*a0", 1, {})
        assert p.terms == ((1 + 0j, ((0, True), (0, False))),)

    def test_powers_and_params(self):
        p = parse_poly_string("a0^2 - alpha^2*id", 1, {"alpha": 2.0})
        want = PolyOperator(
            1, [(1.0, ((0, False), (0, False))), (-4.0, ())]
        )
        assert p == want

    def test_mode_alias(self):
        # b<j> aliases the annihilation operator of mode j+1
        p = parse_poly_string("1.0*ad0^2*b0 - 1.0*alpha^2*b0", 2, {"alpha": 1.0})
        q = parse_poly_string("ad0^2*a1 - a1", 2, {})
        assert p == q

    def test_complex_literals(self):
        p = parse_poly_string("0.5j*a0 + 2*ad0", 1, {})
        terms = dict((w, c) for c, w in p.terms)
        assert terms[((0, False),)] == 0.5j
        assert terms[((0, True),)] == 2.0

    def test_unknown_token_named(self):
        with pytest.raises(ModelFileError, match="bogus"):
            parse_poly_string("a0 + bogus", 1, {})

    def test_misplaced_operator(self):
        with pytest.raises(ModelFileError):
            parse_poly_string("a0 * * a0", 1, {})
        with pytest.raises(ModelFileError):
            parse_poly_string("a0 +", 1, {})

    def test_bad_mode_index(self):
        with pytest.raises(ModelFileError, match="a3"):
            parse_poly_string("a3", 2, {})

    def test_format_roundtrip(self):
        p = parse_poly_string("0.5j*a0^2*ad1 - 3*id + alpha*a1", 2, {"alpha": 1.5})
        assert parse_poly_string(format_poly(p), 2, {}) == p


class TestShapeSpec:
    def test_rect(self):
        assert shape_from_spec({"rect": [4, 2]}) == Rect([4, 2])

    def test_weighted_exact_rationals(self):
        shape = shape_from_spec({"weighted": {"w": ["1/2", "1"], "cap": "6"}})
        assert shape == WeightedTotal(["1/2", "1"], 6)

    def test_unknown_key(self):
        with pytest.raises(ModelFileError):
            shape_from_spec({"rect": [2], "extra": 1})


class TestModelFile:
    def test_roundtrip_identical(self):
        mf = ModelFile.from_dict(cat_doc())
        again = ModelFile.from_json(mf.to_json())
        assert again == mf

    def test_build_produces_expected_model(self):
        mf = ModelFile.from_dict(cat_doc())
        built = mf.build()
        assert built.model.kind == "poly"
        assert isinstance(built.model.dissipators[0], PolyExpr)
        assert built.shape == Rect([12])
        assert np.isclose(built.initial.trace(), 1.0)

    def test_rejects_unknown_keys(self):
        doc = cat_doc()
        doc["mystery"] = 1
        with pytest.raises(ModelFileError, match="mystery"):
            ModelFile.from_dict(doc)
        doc = cat_doc()
        doc["solver"]["warp"] = 9
        with pytest.raises(ModelFileError, match="warp"):
            ModelFile.from_dict(doc)

    def test_missing_referenced_param(self):
        doc = cat_doc()
        doc["params"] = {}
        mf = ModelFile.from_dict(doc)
        with pytest.raises(ModelFileError, match="alpha"):
            mf.build()

    def test_gkp_entry(self):
        doc = {
            "modes": 1,
            "shape": {"rect": [10]},
            "dissipators": [
                {"gkp": {"A": 1.0, "eta": 3.5, "eps": 0.15, "k": k}}
                for k in range(4)
            ],
            "initial": {"fock": [0]},
            "solver": {"T": 0.5, "scheme": "rk4", "dt": 0.01},
        }
        built = ModelFile.from_dict(doc).build()
        assert built.model.kind == "gkp"
        assert all(isinstance(d, GkpDissipator) for d in built.model.dissipators)

    def test_cosine_dissipator_rejected_with_message(self):
        doc = {
            "modes": 1,
            "shape": {"rect": [6]},
            "dissipators": [{"cosine": {"q": [0.5], "p": [0.0]}}],
            "solver": {"T": 0.1},
        }
        with pytest.raises(ModelFileError, match="cosine"):
            ModelFile.from_dict(doc).build()

    def test_expr_coefficient(self):
        doc = {
            "modes": 1,
            "shape": {"rect": [6]},
            "hamiltonian": [
                {
                    "coeff": {"expr": "2*sin(t)", "sup": 2.0, "dsup": 2.0},
                    "op": "a0 + ad0",
                }
            ],
            "solver": {"T": 0.1},
        }
        built = ModelFile.from_dict(doc).build()
        coeff = built.model.hamiltonian[0][0]
        assert np.isclose(coeff(math.pi / 2), 2.0)
        assert coeff.sup == 2.0

    def test_expr_rejects_dangerous_code(self):
        doc = {
            "modes": 1,
            "shape": {"rect": [6]},
            "hamiltonian": [
                {"coeff": {"expr": "__import__('os')"}, "op": "a0 + ad0"}
            ],
            "solver": {"T": 0.1},
        }
        with pytest.raises(ModelFileError):
            ModelFile.from_dict(doc).build()

    def test_table_coefficient(self):
        doc = {
            "modes": 1,
            "shape": {"rect": [6]},
            "hamiltonian": [
                {
                    "coeff": {"table": [[0.0, 2.25], [1.5, 0.0]], "sup": 2.25},
                    "op": "a0 + ad0",
                }
            ],
            "solver": {"T": 3.0},
        }
        built = ModelFile.from_dict(doc).build()
        coeff = built.model.hamiltonian[0][0]
        assert coeff(0.3) == 2.25
        assert coeff(1.5) == 0.0
        assert coeff.dsup is None  # step tables disable the Euler certificate


class TestStateJson:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(300)
        shape = Rect([4])
        mat = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        op_path = tmp_path / "state.json"
        from certilind.fockspace import DenseOperator

        dump_state_json(DenseOperator(shape, mat), op_path)
        back = load_state_json(op_path)
        assert back.shape == shape
        assert np.array_equal(back.matrix, np.asarray(mat, dtype=complex))


class TestCommands:
    def test_simulate_writes_outputs(self, tmp_path):
        path = write_model(tmp_path, cat_doc())
        out = tmp_path / "out"
        assert cmd_simulate(path, str(out)) == 0
        for name in ("trajectory.csv", "ledger.csv", "final_state.json", "summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["T"] == 0.2
        assert summary["xi"] >= 0

    def test_simulate_deterministic_outputs(self, tmp_path):
        path = write_model(tmp_path, cat_doc())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cmd_simulate(path, str(out1)) == 0
        assert cmd_simulate(path, str(out2)) == 0
        for name in ("trajectory.csv", "ledger.csv", "final_state.json"):
            assert (out1 / name).read_text() == (out2 / name).read_text()

    def test_space_tol_override_reflected(self, tmp_path):
        doc = cat_doc(space_tol=1e-7)
        path = write_model(tmp_path, doc)
        out = tmp_path / "out"
        assert cmd_simulate(path, str(out), space_tol=1e-5) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["space_tol"] == 1e-5

    def test_malformed_poly_exit_code_and_message(self, tmp_path, capsys):
        doc = cat_doc()
        doc["dissipators"] = [{"op": "a0^2 - alpha^2*qq1"}]
        path = write_model(tmp_path, doc)
        assert cmd_simulate(path, str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "qq1" in err

    def test_certification_failure_exit_code(self, tmp_path):
        doc = cat_doc(cap=6)
        doc["solver"].update(
            {
                "T": 1.0,
                "space_tol": 1e-13,
                "adaptive_space": True,
                "grow_step": 4,
                "shrink_step": 4,
                "max_dimension": 10,
            }
        )
        path = write_model(tmp_path, doc)
        assert cmd_simulate(path, str(tmp_path / "out")) == 2

    def test_single_point_sweep_degenerates_to_simulate(self, tmp_path):
        path = write_model(tmp_path, cat_doc())
        out_sweep = tmp_path / "sweep"
        out_sim = tmp_path / "sim"
        assert cmd_sweep(path, "12", str(out_sweep)) == 0
        assert cmd_simulate(path, str(out_sim)) == 0
        rows = list(csv.reader((out_sweep / "error_vs_N.csv").open()))
        assert rows[0] == ["N1", "xi_T", "dist_to_ref"]
        assert len(rows) == 2
        summary = json.loads((out_sim / "summary.json").read_text())
        assert np.isclose(float(rows[1][1]), summary["xi"], rtol=1e-12)
        assert float(rows[1][2]) == 0.0

    def test_sweep_certification_inequality(self, tmp_path):
        path = write_model(tmp_path, cat_doc(cap=16))
        out = tmp_path / "sweep"
        assert cmd_sweep(path, "6,8,10,12,16", str(out), jobs=2) == 0
        rows = list(csv.reader((out / "error_vs_N.csv").open()))
        data = {int(r[0]): (float(r[1]), float(r[2])) for r in rows[1:]}
        xi_ref = data[16][0]
        for n, (xi, dist) in data.items():
            assert dist <= xi + xi_ref + 1e-12

    def test_sweep_rejects_uncontained_points(self, tmp_path):
        doc = cat_doc()
        doc["modes"] = 2
        doc["shape"] = {"rect": [6, 6]}
        doc["dissipators"] = [{"op": "a0^2 - alpha^2*id"}]
        doc["initial"] = {"fock": [0, 0]}
        path = write_model(tmp_path, doc)
        assert cmd_sweep(path, "6x2,2x6", str(tmp_path / "out")) == 1

    def test_initial_from_file(self, tmp_path):
        from certilind.fockspace import DenseOperator

        shape = Rect([12])
        dump_state_json(fock_density(shape, [2]), tmp_path / "init.json")
        doc = cat_doc()
        doc["initial"] = {"file": "init.json"}
        path = write_model(tmp_path, doc)
        out = tmp_path / "out"
        assert cmd_simulate(path, str(out)) == 0
        final = load_state_json(out / "final_state.json")
        assert np.isclose(final.trace().real, 1.0, atol=1e-9)

    def test_non_hermitian_initial_file_exit_code_and_message(self, tmp_path, capsys):
        doc = PRESETS["exampleA"]()
        built = ModelFile.from_dict(doc).build()
        mat = built.initial.matrix.copy()
        mat[0, 1] = 0.3
        dump_state_json(DenseOperator(built.shape, mat), tmp_path / "init.json")
        doc["initial"] = {"file": "init.json"}
        doc["solver"]["T"] = 0.1
        path = write_model(tmp_path, doc)
        assert cmd_simulate(path, str(tmp_path / "out")) == 1
        assert "not Hermitian" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["rk4", "adaptive_rk"])
    def test_negative_dt_exit_code_and_message(self, tmp_path, capsys, scheme):
        # a negative step once ran exampleA as a single RK4 step of size T
        doc = PRESETS["exampleA"]()
        doc["solver"] = {"T": 0.2, "scheme": scheme, "dt": -5e-4}
        path = write_model(tmp_path, doc)
        assert cmd_simulate(path, str(tmp_path / "out")) == 1
        assert "dt must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        with pytest.raises(SolverError):
            SolverConfig(final_time=0.2, scheme="rk4", dt=-5e-4)

    @pytest.mark.parametrize("time_tol", [0.0, -1e-10])
    def test_non_positive_time_tol_exit_code_and_message(self, tmp_path, capsys, time_tol):
        path = write_model(tmp_path, cat_doc(time_tol=time_tol))
        assert cmd_simulate(path, str(tmp_path / "out")) == 1
        assert "time_tol must be positive" in capsys.readouterr().err
        path = write_model(tmp_path, cat_doc(), name="ok.json")
        assert cmd_simulate(path, str(tmp_path / "out"), time_tol=time_tol) == 1
        assert "time_tol must be positive" in capsys.readouterr().err
        with pytest.raises(SolverError):
            SolverConfig(final_time=0.2, time_tol=time_tol)

    def test_non_finite_horizon_exit_code_and_message(self, tmp_path, capsys):
        # "T": NaN once took no step and certified xi = 0.0 with exit 0
        path = write_model(tmp_path, cat_doc(T=float("nan")))
        assert "NaN" in open(path).read()
        assert cmd_simulate(path, str(tmp_path / "out")) == 1
        assert "final_time must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("grow_step", 0), ("shrink_step", -2)])
    def test_invalid_resize_step_exit_code_and_message(
        self, tmp_path, capsys, key, value
    ):
        # a zero grow step never reaches max_dimension, so the run would
        # not end; both must fail before the first step
        doc = cat_doc(cap=6, T=1.0, space_tol=1e-30, adaptive_space=True)
        doc["solver"][key] = value
        path = write_model(tmp_path, doc)
        assert cmd_simulate(path, str(tmp_path / "out")) == 1
        assert f"{key} must be a positive number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "doc, key, value, message",
        [
            (cat_doc(cap=6), "grow_step", 1.7, "a Rect takes whole steps"),
            (cat_doc(cap=6), "grow_step", "7/2", "a Rect takes whole steps"),
            (cat_doc(cap=6), "shrink_step", 0.5, "a Rect takes whole steps"),
            (PRESETS["adaptive2d"](), "grow_step", [2, 1], "a WeightedTotal takes one cap"),
        ],
    )
    def test_resize_step_the_shape_does_not_take(
        self, tmp_path, capsys, doc, key, value, message
    ):
        doc["solver"].update({"T": 0.1, "adaptive_space": True, key: value})
        path = write_model(tmp_path, doc)
        assert cmd_simulate(path, str(tmp_path / "out")) == 1
        assert f"{key}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_reproduce_list(self, capsys):
        assert main(["reproduce", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(preset_names())

    def test_reproduce_unknown(self, capsys):
        assert main(["reproduce", "nope"]) == 1

    def test_reproduce_example_a(self, tmp_path):
        out = tmp_path / "rep"
        assert main(["reproduce", "exampleA", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["xi"] <= 1e-14


class TestPresetDefinitions:
    @pytest.mark.parametrize("name", preset_names())
    def test_presets_build(self, name):
        mf = preset_model_file(name)
        built = mf.build()
        assert dimension(built.shape) >= 1

    @pytest.mark.parametrize("name", preset_names())
    def test_presets_match_python_models(self, name):
        # each preset's model file against its constructor in
        # tests/models.py, term by term on the preset's shape
        python_models = {
            "exampleA": lambda: number_drive_model(1.0),
            "exampleB": lambda: linear_drive_model(
                CoefficientFn(fn=math.sin, sup=1.0, dsup=1.0)
            ),
            "exampleC": lambda: cat_model(1.0),
            "exampleD": lambda: squeezed_cat_model(1.0, 1.25),
            "exampleE": lambda: cat_buffer_model(1.0),
            "gkp": lambda: gkp_model(1.0, 2.0 * math.sqrt(math.pi), 0.15),
            "adaptive1d": lambda: cat_model(1.0),
            "adaptive2d": lambda: cat_buffer_model(
                drive=CoefficientFn(fn=lambda t: 2.25 if t < 1.5 else 0.0, sup=2.25)
            ),
        }
        assert set(python_models) == set(preset_names())
        built = preset_model_file(name).build()
        preset, python = built.model, python_models[name]()
        shape = built.shape
        assert preset.kind == python.kind
        assert len(preset.hamiltonian) == len(python.hamiltonian)
        assert len(preset.dissipators) == len(python.dissipators)
        for (c_p, e_p), (c_y, e_y) in zip(preset.hamiltonian, python.hamiltonian):
            m_p = truncated_expr(e_p, shape).matrix
            m_y = truncated_expr(e_y, shape).matrix
            for t in (0.0, 0.7, 1.5, 2.0):
                np.testing.assert_allclose(c_p(t) * m_p, c_y(t) * m_y, rtol=1e-14, atol=0)
        for e_p, e_y in zip(preset.dissipators, python.dissipators):
            np.testing.assert_allclose(
                truncated_expr(e_p, shape).matrix,
                truncated_expr(e_y, shape).matrix,
                rtol=1e-14,
                atol=0,
            )

    def test_gkp_preset_parameters(self):
        built = preset_model_file("gkp").build()
        d = built.model.dissipators
        assert len(d) == 4 and {g.sector for g in d} == {0, 1, 2, 3}
        assert np.isclose(d[0].eta, 2.0 * math.sqrt(math.pi))
        assert d[0].eps == 0.15
        assert np.isclose(
            built.config.final_time, 2.0 / (0.15 * 2.0 * math.sqrt(math.pi))
        )
        assert np.isclose(built.config.dt, 5e-4 * built.config.final_time)


def test_import_leaves_scipy_linear_algebra_unloaded():
    # each of these adds 5-7 MB of resident memory; importing the package
    # or its command line must not pull them in
    src = os.path.dirname(os.path.dirname(os.path.abspath(certilind.__file__)))
    code = (
        "import sys, certilind, certilind.cli; "
        "print([m for m in ('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def traced_run_report(run_code):
    """Steps and span categories of ``run_code`` (which sets ``result``)
    run in a fresh process under the benchmark's tracer."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(certilind.__file__)))
    perfbench = os.path.join(os.path.dirname(src), "perfbench")
    code = f"""
import json, tracing
from dataclasses import replace
from certilind.fockspace import Rect
from certilind.operators import fock_density
from certilind.presets import preset_model_file
from certilind.solver import SolverConfig, run_fixed

tracer = tracing.Tracer()
tracing.install(tracer)
{run_code}
print(json.dumps({{"steps": len(result.trajectory),
                  "spans": sorted({{s[0] for s in tracer.spans}})}}))
"""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([perfbench, src])},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_bench_tracing_hooks_attach():
    # the benchmark's per-module metrics wrap these names from outside;
    # a rename, or a materialize_poly without its lru_cache, drops spans
    report = traced_run_report(
        """
model = preset_model_file("exampleA").build().model
shape = Rect([5])
config = SolverConfig(final_time=0.01, time_tol=1e-10)
result = run_fixed(model, fock_density(shape, [3]), shape, config)
"""
    )
    assert report["steps"] >= 2
    assert {
        "operators.materialize",
        "lindblad.generator_build",
        "lindblad.apply",
        "estimators.defect",
        "estimators.context_build",
        "estimators.ledger",
        "solver.step",
    } <= set(report["spans"])


def test_bench_tracing_hooks_attach_gkp():
    # the GKP route: the generator's rotation-orbit branch inside apply,
    # the stabilizer context and its defect, under RK4
    report = traced_run_report(
        """
built = preset_model_file("gkp", cap=8).build()
config = replace(built.config, final_time=4 * built.config.dt)
result = run_fixed(built.model, built.initial, built.shape, config)
"""
    )
    assert report["steps"] == 4
    assert {
        "lindblad.apply",
        "lindblad.generator_build",
        "estimators.context_build",
        "estimators.defect",
        "solver.step",
    } <= set(report["spans"])
