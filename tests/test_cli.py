import csv
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import certilind
from certilind import cli
from certilind.cli import cmd_simulate, cmd_sweep, main
from certilind.fockspace import DenseOperator, Rect, WeightedTotal, dimension
from certilind.lindblad import GkpDissipator, PolyExpr
from certilind.modelfile import (
    ModelFile,
    ModelFileError,
    dump_state_json,
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


def state_file(doc, tmp_path, drop=None, **values):
    """Point ``doc`` at a state file of its shape, without the key
    ``drop`` and with ``values`` set."""
    dump_state_json(fock_density(Rect(doc["shape"]["rect"]), [0]), tmp_path / "init.json")
    state = json.loads((tmp_path / "init.json").read_text())
    state.pop(drop, None)
    state.update(values)
    (tmp_path / "init.json").write_text(json.dumps(state))
    doc["initial"] = {"file": "init.json"}


def format_poly(poly: PolyOperator) -> str:
    """Canonical string form; reparses to an identical polynomial.  A
    complex coefficient is written as two terms of its word: the real
    part, then the imaginary part."""
    if not poly.terms:
        return "0*id"
    pieces = []
    for coeff, word in sorted(poly.terms, key=lambda cw: cw[1]):
        letters = "*".join(("ad" if dag else "a") + str(mode) for mode, dag in word)
        letters = letters or "id"
        if coeff.real != 0.0 or coeff.imag == 0.0:
            pieces.append(f"{coeff.real!r}*{letters}")
        if coeff.imag != 0.0:
            pieces.append(f"{coeff.imag!r}j*{letters}")
    return " + ".join(pieces).replace("+ -", "- ")


A0, AD0 = ((0, False),), ((0, True),)


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

    @pytest.mark.parametrize(
        "text, terms",
        [
            ("-2*a0", [(-2, A0)]),
            ("- -a0", [(1, A0)]),
            ("a0 - -a0", [(2, A0)]),
            ("-a0^2", [(-1, A0 + A0)]),
            ("2^3*a0", [(8, A0)]),
            ("a0^0", [(1, ())]),
            ("1.5e3j^2*ad0", [(-2.25e6, AD0)]),
            ("alpha^3", [(3.375, ())]),
            ("b0*bd0 - bd0", [(1, ((1, False), (1, True))), (-1, ((1, True),))]),
            ("07*a0^02 + 0.50*ad0", [(7, A0 + A0), (0.5, AD0)]),
        ],
    )
    def test_accepted_strings_and_their_terms(self, text, terms):
        # terms in word order, each coefficient exactly as written
        p = parse_poly_string(text, 2, {"alpha": 1.5})
        assert p.terms == tuple((complex(c), w) for c, w in terms)

    @pytest.mark.parametrize(
        "text",
        [
            "a0**2",  # ^ is the one power syntax
            "1_0*a0",  # digit groups: a parameter name may hold _, a number not
            "(a0 + ad0)*a0",
            "-(a0+ad0)",
            "(a0)",
            "2*-a0",  # a sign only before a term's first factor
            "a0/2",
            "True",
            "a0^2.0",
            "a0^-1",
            "a0^2^3",
            "0x10*a0",
            "1J*a0",
            "1e999*a0",  # once an OverflowError
            "a0 # note",
            "2 a0",
            "a0 +",
            "",
        ],
    )
    def test_rejected_strings(self, text):
        with pytest.raises(ModelFileError):
            parse_poly_string(text, 1, {"alpha": 1.5})

    def test_sum_past_the_parser_depth_is_a_model_error(self):
        # Python's parser stops near 3,000 terms of one sum; the walk of
        # the tree is a loop and adds no limit of its own
        assert len(parse_poly_string(" + ".join(["a0"] * 1500), 1, {}).terms) == 1
        text = " + ".join(["a0"] * 4000)
        with pytest.raises(ModelFileError, match="cannot parse operator string") as err:
            parse_poly_string(text, 1, {})
        # the message quotes the start of the string and its length
        assert len(str(err.value)) < 200
        assert f"({len(text):,} characters)" in str(err.value)

    def test_format_roundtrip(self):
        p = parse_poly_string("0.5j*a0^2*ad1 - 3*id + alpha*a1", 2, {"alpha": 1.5})
        assert parse_poly_string(format_poly(p), 2, {}) == p
        # coefficients with a real and an imaginary part; (1+2j)*a0 was
        # once written as 1+2j*a0, which reparses as 1*id + 2j*a0
        a0, ad0 = ((0, False),), ((0, True),)
        for terms in (
            [(1 + 2j, a0)],
            [(3.0, ()), (-1 - 2j, ad0)],
            [(-1 - 2j, ()), (1 + 2j, a0), (-0.5j, ad0 + a0)],
            [(1e-05 - 2.5e7j, a0 + a0)],
        ):
            q = PolyOperator(1, terms)
            assert parse_poly_string(format_poly(q), 1, {}) == q


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
        again = ModelFile.from_dict(json.loads(mf.to_json()))
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

    @pytest.mark.parametrize(
        "key, value, message",
        [
            # bool("false") and int(100.7) would have read these as True and 100
            ("adaptive_space", "false", "must be true or false"),
            ("time_certificate", "false", "must be true or false"),
            ("max_dimension", 100.7, "must be an integer"),
        ],
    )
    def test_solver_value_of_the_wrong_type(self, key, value, message):
        doc = cat_doc()
        doc["solver"][key] = value
        with pytest.raises(ModelFileError, match=f"solver.{key} {message}"):
            ModelFile.from_dict(doc).build()

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

    def test_expr_coefficient_longer_than_the_recursion_limit(self):
        # the check of the tree is a loop and the code is compiled from
        # the source, so only the parser's depth bounds a sum
        doc = {
            "modes": 1,
            "shape": {"rect": [6]},
            "hamiltonian": [{"coeff": {"expr": " + ".join(["t"] * 1500)}, "op": "a0"}],
            "solver": {"T": 0.1},
        }
        built = ModelFile.from_dict(doc).build()
        assert built.model.hamiltonian[0][0](2.0) == 3000.0

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

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(
                lambda doc, path: doc.update(initial={"fock": [9]}),
                "initial fock index [9] is not a state of Rect(caps=(5,))",
                id="fock-9",
            ),
            pytest.param(
                lambda doc, path: doc.update(initial={"fock": [-1]}),
                "initial fock index [-1] is not a state of Rect(caps=(5,))",
                id="fock-minus-1",
            ),
            pytest.param(
                lambda doc, path: doc.update(dissipators=[{"gkp": {"eps": 0.15}}]),
                "gkp dissipator needs 'eta'",
                id="gkp-eta",
            ),
            pytest.param(
                lambda doc, path: doc.update(dissipators=[{"gkp": {"eta": 3.5}}]),
                "gkp dissipator needs 'eps'",
                id="gkp-eps",
            ),
            pytest.param(
                lambda doc, path: doc.update(shape={"weighted": {"w": [1]}}),
                "shape.weighted needs 'cap'",
                id="weighted-cap",
            ),
            pytest.param(
                lambda doc, path: doc.update(shape={"weighted": {"cap": 5}}),
                "shape.weighted needs 'w'",
                id="weighted-w",
            ),
            *[
                pytest.param(
                    lambda doc, path, key=key: state_file(doc, path, drop=key),
                    f"state file needs '{key}'",
                    id=f"state-{key}",
                )
                for key in ("data", "dim", "shape")
            ],
            pytest.param(
                lambda doc, path: doc.update(
                    hamiltonian=[{"coeff": {"expr": "1/t"}, "op": "a0 + ad0"}]
                ),
                "coefficient expression '1/t' fails at t=0.0",
                id="expr-1/t",
            ),
            # wrong JSON types, each once a TypeError or AttributeError
            pytest.param(
                lambda doc, path: doc.update(shape={"rect": 5}),
                "shape.rect must be a list, got 5",
                id="rect-int",
            ),
            pytest.param(
                lambda doc, path: doc.update(shape=5),
                "shape must be an object, got 5",
                id="shape-int",
            ),
            pytest.param(
                lambda doc, path: doc.update(initial={"fock": 0}),
                "initial.fock must be a list, got 0",
                id="fock-int",
            ),
            pytest.param(
                lambda doc, path: doc.update(modes=None),
                "modes must be an integer, got None",
                id="modes-null",
            ),
            pytest.param(
                lambda doc, path: doc.update(params=[1]),
                "params must be an object, got [1]",
                id="params-list",
            ),
            pytest.param(
                lambda doc, path: doc.update(params={"x": "1j"}),
                "params.x must be a number, got '1j'",
                id="param-string",
            ),
            pytest.param(
                lambda doc, path: doc.update(hamiltonian=[5]),
                "hamiltonian[0] must be an object, got 5",
                id="hamiltonian-int",
            ),
            pytest.param(
                lambda doc, path: doc.update(dissipators=[{"op": 5}]),
                "dissipators[0].op must be a string, got 5",
                id="op-int",
            ),
            pytest.param(
                lambda doc, path: state_file(doc, path, data=[1, 2]),
                "state file data must be dim^2 = 36 pairs [re, im] of numbers",
                id="state-data-flat",
            ),
            # missing files, once a FileNotFoundError
            pytest.param(
                lambda doc, path: str(path / "absent.json"),
                "absent.json: No such file or directory",
                id="model-file-missing",
            ),
            pytest.param(
                lambda doc, path: doc.update(initial={"file": "absent.json"}),
                "absent.json: No such file or directory",
                id="state-file-missing",
            ),
            # past the parser's depth, once a RecursionError
            pytest.param(
                lambda doc, path: doc.update(
                    hamiltonian=[{"coeff": {"expr": " + ".join(["t"] * 4000)}, "op": "a0"}]
                ),
                "cannot parse coefficient expression 't + t + t",
                id="expr-4000-terms",
            ),
        ],
    )
    def test_malformed_model_file_exit_code_and_message(
        self, tmp_path, capsys, edit, message
    ):
        # each once escaped cmd_simulate as a traceback; an edit may
        # return the path to run in place of the model file it edits
        doc = cat_doc(cap=5)
        path = edit(doc, tmp_path) or write_model(tmp_path, doc)
        assert cmd_simulate(path, str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.count("certilind: error:") == 1
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["coeff", "op", "modes", "table"])
    def test_overlong_sum_error_is_one_short_line(self, tmp_path, capsys, where):
        # a 4,000-term sum is past the parser's depth, and a 5,000-entry
        # list or a 20,000-character string is not of its key's type; the
        # error quotes the start of the value and its length, not all of it
        doc = cat_doc(cap=5)
        if where == "modes":
            doc["modes"] = [0] * 5000
            text, start = repr(doc["modes"]), "modes must be an integer"
        elif where == "table":
            text = "1" * 20000
            doc["hamiltonian"] = [{"coeff": {"table": text}, "op": "a0"}]
            text, start = repr(text), "hamiltonian[0].coeff.table must be a list"
        else:
            text = " + ".join(["t" if where == "coeff" else "a0"] * 4000)
            term = {"coeff": {"expr": text}, "op": "a0"} if where == "coeff" else {"op": text}
            doc["hamiltonian"] = [term]
            start = "cannot parse"
        assert cmd_simulate(write_model(tmp_path, doc), str(tmp_path / "out")) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"certilind: error: {start}")
        assert len(line) < 200
        assert f"({len(text):,} characters)" in line

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
        with (out_sweep / "error_vs_N.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["N1", "xi_T", "dist_to_ref"]
        assert len(rows) == 2
        summary = json.loads((out_sim / "summary.json").read_text())
        assert np.isclose(float(rows[1][1]), summary["xi"], rtol=1e-12)
        assert float(rows[1][2]) == 0.0

    def test_sweep_certification_inequality(self, tmp_path):
        path = write_model(tmp_path, cat_doc(cap=16))
        out = tmp_path / "sweep"
        assert cmd_sweep(path, "6,8,10,12,16", str(out), jobs=2) == 0
        with (out / "error_vs_N.csv").open() as fh:
            rows = list(csv.reader(fh))
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

    def test_weighted_sweep_columns_and_labels(self, tmp_path):
        doc = cat_doc()
        doc["shape"] = {"weighted": {"w": ["1/2"], "cap": "6"}}
        out = tmp_path / "sweep"
        assert cmd_sweep(write_model(tmp_path, doc), "9/2, 6", str(out)) == 0
        rows = (out / "error_vs_N.csv").read_text().splitlines()
        assert rows[0] == "cap,xi_T,dist_to_ref"
        assert [row.split(",")[0] for row in rows[1:]] == ["9/2", "6"]
        point = json.loads((out / "point_9_2.json").read_text())
        assert point["shape"] == {"weighted": {"w": ["1/2"], "cap": "9/2"}}
        assert (out / "point_6.json").exists()

    @pytest.mark.parametrize(
        "weighted, shapes, item",
        [(True, "1/0", "1/0"), (False, "4x", "4x"), (False, "3,", ""), (False, "4,,6", "")],
    )
    def test_bad_sweep_item_is_one_error_line(self, tmp_path, capsys, weighted, shapes, item):
        # '1/0' once raised ZeroDivisionError, and an empty cap printed
        # int()'s "invalid literal" message without the item
        doc = cat_doc()
        if weighted:
            doc["shape"] = {"weighted": {"w": ["1/2"], "cap": "6"}}
        assert cmd_sweep(write_model(tmp_path, doc), shapes, str(tmp_path / "out")) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"certilind: error: shape item '{item}' is not ")

    def test_threads_writing_one_path_each_use_their_own_temporary(self, tmp_path):
        # a repeated sweep shape writes one point file from two threads;
        # the barrier holds both temporary files open before either moves
        # onto the target, which a shared temporary name cannot survive
        target = str(tmp_path / "point.json")
        barrier = threading.Barrier(2, timeout=10)
        errors = []

        def write(text):
            def writer(tmp):
                with open(tmp, "w") as fh:
                    fh.write(text)
                barrier.wait()

            try:
                cli._atomic_write(target, writer)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(text,)) for text in ("one", "two")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert (tmp_path / "point.json").read_text() in ("one", "two")
        assert os.listdir(tmp_path) == ["point.json"]

    def test_failed_write_leaves_no_temporary(self, tmp_path):
        def writer(tmp):
            with open(tmp, "w") as fh:
                fh.write("partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            cli._atomic_write(str(tmp_path / "point.json"), writer)
        assert os.listdir(tmp_path) == []

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

    def test_adaptive_initial_file_on_another_shape(self, tmp_path, capsys):
        # an adaptive run starts on the model's shape; it once started on
        # the state file's shape instead (41 states where a fixed run
        # projects to 16)
        dump_state_json(fock_density(Rect([40]), [0]), tmp_path / "init.json")
        doc = PRESETS["adaptive1d"](start=15)
        doc["initial"] = {"file": "init.json"}
        path = write_model(tmp_path, doc)
        assert cmd_simulate(path, str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "shape Rect(caps=(15,))" in err
        assert "state on Rect(caps=(40,))" in err
        assert not (tmp_path / "out").exists()

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
        with open(path) as fh:
            assert "NaN" in fh.read()
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


@pytest.mark.parametrize("case", ["missing", "malformed", "sweep"])
def test_entry_point_prints_no_traceback_for_user_input(tmp_path, case):
    src = os.path.dirname(os.path.dirname(os.path.abspath(certilind.__file__)))
    path = tmp_path / "model.json"
    command = ["simulate", str(path)]
    if case == "malformed":
        path.write_text(json.dumps({**cat_doc(), "hamiltonian": [5]}))
    elif case == "sweep":
        path.write_text(json.dumps(cat_doc()))
        command = ["sweep", str(path), "--shapes", "4x"]
    out = subprocess.run(
        [sys.executable, "-m", "certilind.cli", *command],
        env={**os.environ, "PYTHONPATH": src},
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 1
    assert out.stderr.count("certilind: error:") == 1
    assert "Traceback" not in out.stderr
    expected = {"missing": str(path), "malformed": "hamiltonian[0]", "sweep": "'4x'"}
    assert expected[case] in out.stderr


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
    """Steps, span categories and (parent, child) category pairs of
    ``run_code`` (which sets ``result``) run in a fresh process under the
    benchmark's tracer."""
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
spans = tracer.spans
print(json.dumps({{"steps": len(result.trajectory),
                  "spans": sorted({{s[0] for s in spans}}),
                  "edges": sorted({{(spans[s[3]][0], s[0]) for s in spans if s[3] >= 0}})}}))
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
    # the defect reads the grown generator's boundary rows, and applies no
    # generator; no jump of a^dag a with loss crosses the cut
    assert ["estimators.defect", "lindblad.apply"] not in report["edges"]
    assert "estimators.full_eig" not in report["spans"]


def test_bench_tracing_hooks_attach_boundary_jumps():
    # exampleD's jump takes the top levels across the cut (B != 0): each
    # defect is one traced eigensolve of the assembled blocks, and still
    # no generator application
    report = traced_run_report(
        """
built = preset_model_file("exampleD", cap=10).build()
config = replace(built.config, final_time=0.01)
result = run_fixed(built.model, built.initial, built.shape, config)
"""
    )
    assert report["steps"] >= 2
    assert ["estimators.defect", "estimators.full_eig"] in report["edges"]
    assert ["estimators.defect", "lindblad.apply"] not in report["edges"]
    assert {"estimators.context_build", "lindblad.apply", "solver.step"} <= set(
        report["spans"]
    )


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
    assert "estimators.full_eig" not in report["spans"]  # no eigensolve


def test_bench_tracing_hooks_attach_certified_euler():
    # the certified Euler run: its steps go through the traced stepper,
    # and its per-step bounds through the traced ledger
    report = traced_run_report(
        """
built = preset_model_file("exampleB").build()
config = replace(built.config, final_time=4 * built.config.dt)
result = run_fixed(built.model, built.initial, built.shape, config)
"""
    )
    assert report["steps"] == 4
    assert {"lindblad.apply", "estimators.ledger", "solver.step"} <= set(report["spans"])


def test_bench_tracing_hooks_attach_cosine():
    # the cosine route: its defect spans, from a cached compressed factor
    # with no eigensolve
    report = traced_run_report(
        """
from certilind.lindblad import CoefficientFn, CosineExpr, LindbladModel
from certilind.operators import PolyOperator

arg = 1.5 * PolyOperator.position(1, 0)
model = LindbladModel(1, hamiltonian=((CoefficientFn.constant(1.0), CosineExpr(arg)),))
shape = Rect([10])
config = SolverConfig(final_time=0.05, time_tol=1e-10)
result = run_fixed(model, fock_density(shape, [2]), shape, config)
"""
    )
    assert report["steps"] >= 2
    assert {"lindblad.apply", "estimators.defect", "solver.step"} <= set(
        report["spans"]
    )
    assert "estimators.full_eig" not in report["spans"]
