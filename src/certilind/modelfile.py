"""Declarative model files.

A model file is a single JSON document: shape, parameters, Hamiltonian
terms (time-dependent scalar coefficient times an operator expression),
jump operators, initial state and solver settings.  Each value's JSON
type is checked where it is read; a malformed file raises ModelFileError
naming the key path.  Operator strings and coefficient expressions are
both read by Python's parser (``ast``) and accepted only in a fixed
shape.  An operator string is a sum of products over ``a<j>``,
``ad<j>``, ``id`` (``b<j>``/``bd<j>`` are aliases for mode j+1), numbers
(``j``-suffixed for imaginary parts) and named parameters, each with an
optional ``^`` power that is a plain integer; numbers that enter
certificates (weights, caps) accept exact rational strings.
"""
from __future__ import annotations

import ast
import json
import math
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .fockspace import DenseOperator, Rect, TruncationShape, WeightedTotal
from .fockspace import basis_map, dimension
from .lindblad import CoefficientFn, CosineExpr, GkpDissipator, LindbladModel, PolyExpr
from .operators import PolyOperator, fock_density
from .solver import SolverConfig

__all__ = [
    "ModelFile",
    "ModelFileError",
    "BuiltModel",
    "parse_poly_string",
    "shape_from_spec",
    "shape_to_spec",
    "load_state_json",
    "dump_state_json",
]


class ModelFileError(ValueError):
    """Malformed model file; the message names the offending content."""


def _object(key, raw) -> dict:
    if not isinstance(raw, dict):
        raise ModelFileError(f"{key} must be an object, got {_quoted(repr(raw), '')}")
    return raw


def _check_keys(obj: dict, allowed: set[str], where: str):
    unknown = set(_object(where, obj)) - allowed
    if unknown:
        raise ModelFileError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}"
        )


def _required(obj: dict, key: str, where: str):
    if key not in obj:
        raise ModelFileError(f"{where} needs '{key}'")
    return obj[key]


# checks of one JSON value: each takes its key path and names it on error


def _number(key, raw):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ModelFileError(f"{key} must be a number, got {_quoted(repr(raw), '')}")
    return float(raw)


def _integer(key, raw):
    if isinstance(raw, float) and raw.is_integer():
        raw = int(raw)
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ModelFileError(f"{key} must be an integer, got {_quoted(repr(raw), '')}")
    return raw


def _flag(key, raw):
    if not isinstance(raw, bool):
        raise ModelFileError(f"{key} must be true or false, got {_quoted(repr(raw), '')}")
    return raw


def _text(key, raw):
    if not isinstance(raw, str):
        raise ModelFileError(f"{key} must be a string, got {_quoted(repr(raw), '')}")
    return raw


def _rational(key, raw):
    """A number, or a string taken as an exact rational ("1/2")."""
    if not isinstance(raw, bool) and isinstance(raw, (int, float, str)):
        try:
            return Fraction(str(raw))
        except (ValueError, ZeroDivisionError):
            pass
    raise ModelFileError(
        f"{key} must be a number or a rational string, got {_quoted(repr(raw), '')}"
    )


def _list(key, raw, item=lambda key, x: x) -> list:
    """A JSON list, each entry checked by ``item``."""
    if not isinstance(raw, (list, tuple)):
        raise ModelFileError(f"{key} must be a list, got {_quoted(repr(raw), '')}")
    return [item(f"{key}[{i}]", x) for i, x in enumerate(raw)]


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------


def shape_from_spec(spec: dict) -> TruncationShape:
    _check_keys(spec, {"rect", "weighted"}, "shape")
    if len(spec) != 1:
        raise ModelFileError("shape needs exactly one of rect / weighted")
    if "rect" in spec:
        return Rect(_list("shape.rect", spec["rect"], _integer))
    w = spec["weighted"]
    _check_keys(w, {"w", "cap"}, "shape.weighted")
    weights = _list("shape.weighted.w", _required(w, "w", "shape.weighted"), _rational)
    cap = _rational("shape.weighted.cap", _required(w, "cap", "shape.weighted"))
    return WeightedTotal(weights, cap)


def shape_to_spec(shape: TruncationShape) -> dict:
    if isinstance(shape, Rect):
        return {"rect": list(shape.caps)}
    return {"weighted": {"w": [str(w) for w in shape.weights], "cap": str(shape.cap)}}


# ---------------------------------------------------------------------------
# expressions: operator strings and coefficients
# ---------------------------------------------------------------------------


def _quoted(text: str, quote: str = "'") -> str:
    """``text`` quoted for a model error; past 60 characters, its start and its length."""
    if len(text) <= 60:
        return f"{quote}{text}{quote}"
    return f"{quote}{text[:60]}...{quote} ({len(text):,} characters)"


def _parse(src: str, what: str, shown: str | None = None) -> ast.expr:
    """The tree of ``src`` by Python's parser; a string it cannot parse,
    or nested past its depth limit, is a model error quoting ``shown``."""
    try:
        return ast.parse(src, mode="eval").body
    except (SyntaxError, RecursionError):
        raise ModelFileError(f"cannot parse {what} {_quoted(shown or src)}") from None


_OUTSIDE_GRAMMAR = re.compile(r"[^A-Za-z0-9_\s.*^+-]|\*\*")
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")
_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?j?")
_LADDER_RE = re.compile(r"([ab])(d?)(\d+)")


def parse_poly_string(text: str, modes: int, params: dict) -> PolyOperator:
    """Parse a sum of scalar-times-word products into a PolyOperator: a
    +/- chain of * chains of factors, signs only before a term's first
    factor.  A coefficient is complex(sign) times each factor's value."""
    bad = _OUTSIDE_GRAMMAR.search(text)
    if bad:
        raise ModelFileError(f"unknown token '{bad.group()}' in operator string {_quoted(text)}")
    # Python's reader takes neither ^ nor an integer with a leading zero
    src = _LEADING_ZEROS.sub("", " ".join(text.split()).replace("^", "**"))
    terms = []
    for op, term in _chain(_parse(src, "operator string", text), (ast.Add, ast.Sub)):
        sign = -1.0 if isinstance(op, ast.Sub) else 1.0
        (_, first), *rest = _chain(term, ast.Mult)
        while isinstance(first, ast.UnaryOp) and isinstance(first.op, (ast.UAdd, ast.USub)):
            sign = -sign if isinstance(first.op, ast.USub) else sign
            first = first.operand
        coeff, word = complex(sign), ()
        for factor in [first, *(f for _, f in rest)]:
            try:
                c, w = _factor(factor, src, text, modes, params)
            except OverflowError:  # a power past the float range
                raise ModelFileError(
                    f"a factor overflows in operator string {_quoted(text)}"
                ) from None
            coeff *= c
            word += w
        terms.append((coeff, word))
    return PolyOperator(modes, terms)


def _chain(node, ops) -> list:
    """(op before it or None, operand) of a left-nested ``ops`` chain."""
    links = []
    while isinstance(node, ast.BinOp) and isinstance(node.op, ops):
        links.append((node.op, node.right))
        node = node.left
    return [(None, node), *reversed(links)]


def _factor(node, src, text, modes, params):
    """(coefficient, word) of one factor, its literals read as written in
    ``src``: a number, ladder letter, id or parameter, with its power."""
    power = 1
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        digits = src[node.right.col_offset : node.right.end_col_offset]
        if not (isinstance(node.right, ast.Constant) and digits.isdigit()):
            raise ModelFileError(f"exponent must be a plain integer in {_quoted(text)}")
        power, node = int(digits), node.left
    token = src[node.col_offset : node.end_col_offset]
    if isinstance(node, ast.Constant) and _NUMBER_RE.fullmatch(token):
        return complex(token) ** power, ()
    if isinstance(node, ast.Name):
        if ladder := _LADDER_RE.fullmatch(token):
            letter, dagger, index = ladder.groups()
            mode = int(index) + (letter == "b")
            if mode >= modes:
                raise ModelFileError(
                    f"token {_quoted(token)} addresses mode {mode} but the model has {modes}"
                )
            return 1.0, ((mode, dagger == "d"),) * power
        if token == "id":
            return 1.0, ()
        if token in params:
            return complex(params[token]) ** power, ()
    raise ModelFileError(f"unknown token {_quoted(token)} in operator string {_quoted(text)}")


_ALLOWED_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}
_ARITHMETIC = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.UAdd, ast.USub)


def _compile_expr(src: str, params: dict):
    pending = [_parse(src, "coefficient expression")]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ARITHMETIC):
            pending += (node.left, node.right)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _ARITHMETIC):
            pending.append(node.operand)
        elif isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            pass
        elif isinstance(node, ast.Name) and (node.id == "t" or node.id in params):
            pass
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ALLOWED_FUNCS
            and len(node.args) == 1
            and not node.keywords
        ):
            pending.append(node.args[0])
        else:
            raise ModelFileError(
                f"coefficient expression {_quoted(src)} uses an unsupported construct"
            )
    # from the source, not the tree: compiling a tree validates it
    # recursively, which fails near 1,000 terms where the parser does not
    code = compile(src, "<coefficient>", "eval")
    env = dict(_ALLOWED_FUNCS)
    env.update(params)

    def fn(t: float) -> float:
        try:
            return float(eval(code, {"__builtins__": {}}, {**env, "t": t}))
        except ArithmeticError as exc:
            raise ModelFileError(
                f"coefficient expression {_quoted(src)} fails at t={t!r}: {exc}"
            ) from None

    return fn


def _coefficient_from_spec(spec, params: dict, where: str) -> CoefficientFn:
    if not isinstance(spec, dict):
        return CoefficientFn.constant(_number(where, spec))
    if "expr" in spec:
        _check_keys(spec, {"expr", "sup", "dsup"}, where)
        expr = _text(f"{where}.expr", spec["expr"])
        return CoefficientFn(
            fn=_compile_expr(expr, params),
            sup=_number(f"{where}.sup", spec["sup"]) if "sup" in spec else None,
            dsup=_number(f"{where}.dsup", spec["dsup"]) if "dsup" in spec else None,
            label=expr,
        )
    if "table" in spec:
        _check_keys(spec, {"table", "sup"}, where)
        rows = _list(
            f"{where}.table", spec["table"], lambda key, row: tuple(_list(key, row, _number))
        )
        if not rows or any(len(row) != 2 for row in rows) or rows[0][0] != 0.0:
            raise ModelFileError(f"{where}.table must be [t, value] rows from t = 0")
        if any(b[0] <= a[0] for a, b in zip(rows, rows[1:])):
            raise ModelFileError("piecewise table times must increase")

        def fn(t: float, rows=tuple(rows)) -> float:
            value = rows[0][1]
            for t_k, v in rows:
                if t >= t_k:
                    value = v
                else:
                    break
            return value

        sup = _number(f"{where}.sup", spec.get("sup", max(abs(v) for _, v in rows)))
        # a step table is not C^1: no dsup, the Euler certificate stays off
        return CoefficientFn(fn=fn, sup=sup, dsup=None, label=f"table{rows!r}")
    raise ModelFileError(
        f"{where} needs a number, an 'expr' or a 'table', got {_quoted(repr(spec), '')}"
    )


def _cosine_arg_from_spec(spec: dict, modes: int, where: str) -> PolyOperator:
    _check_keys(spec, {"q", "p"}, where)
    q = _list(f"{where}.q", spec.get("q", [0.0] * modes), _number)
    p = _list(f"{where}.p", spec.get("p", [0.0] * modes), _number)
    if len(q) != modes or len(p) != modes:
        raise ModelFileError("cosine q/p coefficient lists must match the mode count")
    arg = PolyOperator(modes, [])
    for j in range(modes):
        if q[j]:
            arg = arg + q[j] * PolyOperator.position(modes, j)
        if p[j]:
            arg = arg + p[j] * PolyOperator.momentum(modes, j)
    return arg


# ---------------------------------------------------------------------------
# the file object
# ---------------------------------------------------------------------------


def _resize_step(key, raw):
    """A grow or shrink step; a rational string is taken exactly.  Its
    value is checked by SolverConfig."""
    return _rational(key, raw) if isinstance(raw, str) else raw


# solver-section key -> (SolverConfig field, check and conversion of its
# JSON value, which raises ModelFileError naming the key)
_SOLVER_KEYS = {
    "T": ("final_time", _number),
    "scheme": ("scheme", _text),
    "taylor_order": ("taylor_order", _integer),
    "time_tol": ("time_tol", _number),
    "dt": ("dt", _number),
    "space_tol": ("space_tol", _number),
    "downsize_factor": ("downsize_factor", _number),
    "grow_step": ("grow_step", _resize_step),
    "shrink_step": ("shrink_step", _resize_step),
    "max_dimension": ("max_dimension", _integer),
    "time_certificate": ("enable_time_certificate", _flag),
}


@dataclass(frozen=True)
class BuiltModel:
    model: LindbladModel
    shape: TruncationShape
    initial: DenseOperator
    config: SolverConfig
    adaptive_space: bool


@dataclass(frozen=True)
class ModelFile:
    modes: int
    shape: dict
    params: dict = field(default_factory=dict)
    hamiltonian: tuple = ()
    dissipators: tuple = ()
    initial: dict = field(default_factory=lambda: {"fock": [0]})
    solver: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelFile":
        _check_keys(
            doc,
            {"modes", "shape", "params", "hamiltonian", "dissipators", "initial", "solver"},
            "model file",
        )
        modes = _integer("modes", _required(doc, "modes", "model file"))
        ham = []
        for i, term in enumerate(_list("hamiltonian", doc.get("hamiltonian", []))):
            _check_keys(term, {"coeff", "op"}, f"hamiltonian[{i}]")
            op = _required(term, "op", f"hamiltonian[{i}]")
            ham.append({"coeff": term.get("coeff", 1.0), "op": op})
        diss = []
        for i, term in enumerate(_list("dissipators", doc.get("dissipators", []))):
            _check_keys(term, {"op", "gkp", "cosine"}, f"dissipators[{i}]")
            if len(term) != 1:
                raise ModelFileError(
                    "each dissipator needs exactly one of op / gkp / cosine"
                )
            diss.append(dict(term))
        initial = doc.get("initial", {"fock": [0] * modes})
        _check_keys(initial, {"fock", "file"}, "initial")
        if len(initial) != 1:
            raise ModelFileError("initial needs exactly one of fock / file")
        params = _object("params", doc.get("params", {}))
        solver = doc.get("solver", {})
        _check_keys(solver, {*_SOLVER_KEYS, "adaptive_space"}, "solver")
        return cls(
            modes=modes,
            shape=dict(_object("shape", _required(doc, "shape", "model file"))),
            params={k: _number(f"params.{k}", v) for k, v in params.items()},
            hamiltonian=tuple(ham),
            dissipators=tuple(diss),
            initial=dict(initial),
            solver=dict(solver),
        )

    @classmethod
    def load(cls, path) -> "ModelFile":
        return cls.from_dict(_read_json(path, "model file"))

    def to_dict(self) -> dict:
        return {
            "modes": self.modes,
            "shape": self.shape,
            "params": dict(self.params),
            "hamiltonian": [dict(t) for t in self.hamiltonian],
            "dissipators": [dict(t) for t in self.dissipators],
            "initial": dict(self.initial),
            "solver": dict(self.solver),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def build(self, base_dir=None) -> BuiltModel:
        shape = shape_from_spec(self.shape)
        if shape.mode_count != self.modes:
            raise ModelFileError(
                f"shape has {shape.mode_count} modes, file declares {self.modes}"
            )
        ham = []
        for i, term in enumerate(self.hamiltonian):
            where = f"hamiltonian[{i}]"
            coeff = _coefficient_from_spec(term["coeff"], self.params, f"{where}.coeff")
            op = term["op"]
            if isinstance(op, str):
                expr = PolyExpr(parse_poly_string(op, self.modes, self.params))
            elif isinstance(op, dict) and "cosine" in op:
                _check_keys(op, {"cosine"}, f"{where}.op")
                arg = _cosine_arg_from_spec(op["cosine"], self.modes, f"{where}.op.cosine")
                expr = CosineExpr(arg)
            else:
                raise ModelFileError(
                    f"{where}.op must be an operator string or a cosine object, "
                    f"got {_quoted(repr(op), '')}"
                )
            ham.append((coeff, expr))
        diss = []
        for i, term in enumerate(self.dissipators):
            where = f"dissipators[{i}]"
            if "op" in term:
                op = _text(f"{where}.op", term["op"])
                diss.append(PolyExpr(parse_poly_string(op, self.modes, self.params)))
            elif "gkp" in term:
                g, at = term["gkp"], f"{where}.gkp."
                _check_keys(g, {"A", "eta", "eps", "k"}, "gkp dissipator")
                diss.append(
                    GkpDissipator(
                        amplitude=_number(at + "A", g.get("A", 1.0)),
                        eta=_number(at + "eta", _required(g, "eta", "gkp dissipator")),
                        eps=_number(at + "eps", _required(g, "eps", "gkp dissipator")),
                        sector=_integer(at + "k", g.get("k", 0)),
                    )
                )
            else:
                raise ModelFileError(
                    "cosine jump operators have no certified estimator and are "
                    "not supported; use cosine terms in the hamiltonian"
                )
        model = LindbladModel(
            self.modes,
            hamiltonian=tuple(ham),
            dissipators=tuple(diss),
        )
        initial = self._build_initial(shape, base_dir)
        config, adaptive = self._build_config()
        if adaptive and initial.shape != shape:
            raise ModelFileError(
                f"an adaptive run starts on the model's shape {shape}, but "
                f"initial.file holds a state on {initial.shape}"
            )
        return BuiltModel(model, shape, initial, config, adaptive)

    def _build_initial(self, shape, base_dir) -> DenseOperator:
        if "fock" in self.initial:
            state = _list("initial.fock", self.initial["fock"], _integer)
            if len(state) != self.modes:
                raise ModelFileError("initial fock index must have one entry per mode")
            if tuple(state) not in basis_map(shape).index:
                raise ModelFileError(f"initial fock index {state} is not a state of {shape}")
            return fock_density(shape, state)
        path = _text("initial.file", self.initial["file"])
        if base_dir is not None:
            path = os.path.join(base_dir, path)
        return load_state_json(path)

    def _build_config(self) -> tuple[SolverConfig, bool]:
        if "T" not in self.solver:
            raise ModelFileError("solver section needs the final time 'T'")
        kwargs = {
            name: convert(f"solver.{key}", self.solver[key])
            for key, (name, convert) in _SOLVER_KEYS.items()
            if key in self.solver
        }
        adaptive = _flag("solver.adaptive_space", self.solver.get("adaptive_space", False))
        return SolverConfig(**kwargs), adaptive


# ---------------------------------------------------------------------------
# dense state (de)serialization
# ---------------------------------------------------------------------------


def _read_json(path, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ModelFileError(f"cannot read {what} {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ModelFileError(f"{what} {path} is not valid JSON: {exc}") from None


def dump_state_json(op: DenseOperator, path) -> None:
    """Row-major flat [re, im] pairs with explicit dim and shape."""
    data = [[z.real, z.imag] for z in op.matrix.reshape(-1).tolist()]
    doc = {"dim": op.dim, "shape": shape_to_spec(op.shape), "data": data}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_state_json(path) -> DenseOperator:
    doc = _read_json(path, "state file")
    _check_keys(doc, {"dim", "shape", "data"}, "state file")
    shape = shape_from_spec(_required(doc, "shape", "state file"))
    d = _integer("state file dim", _required(doc, "dim", "state file"))
    if d != dimension(shape):
        raise ModelFileError("state file dim does not match its shape")
    data = _required(doc, "data", "state file")
    try:
        pairs = np.asarray(data)
    except ValueError:  # ragged nesting
        pairs = np.empty(0)
    if pairs.dtype.kind not in "iuf" or pairs.shape != (d * d, 2):
        raise ModelFileError(
            f"state file data must be dim^2 = {d * d} pairs [re, im] of numbers"
        )
    # each row's (re, im) float64 pair is one complex128, as complex(re, im)
    return DenseOperator(shape, pairs.astype(np.float64).view(np.complex128).reshape(d, d))
