"""Declarative model files.

A model file is a single JSON document: shape, parameters, Hamiltonian
terms (time-dependent scalar coefficient times an operator expression),
jump operators, initial state and solver settings.  Operator strings are
sums of products over the tokens ``a<j>``, ``ad<j>``, ``id`` (with
``b<j>``/``bd<j>`` accepted as aliases for mode j+1), numeric literals
(``j``-suffixed for imaginary parts) and named parameters; numbers that
enter certificates (weights, caps) accept exact rational strings.
"""

from __future__ import annotations

import ast
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .fockspace import DenseOperator, Rect, TruncationShape, WeightedTotal
from .fockspace import basis_map, dimension
from .lindblad import (
    CoefficientFn,
    CosineExpr,
    GkpDissipator,
    LindbladModel,
    PolyExpr,
)
from .operators import PolyOperator
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


def _check_keys(obj: dict, allowed: set[str], where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ModelFileError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}"
        )


def _required(obj: dict, key: str, where: str):
    if key not in obj:
        raise ModelFileError(f"{where} needs '{key}'")
    return obj[key]


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------


def shape_from_spec(spec: dict) -> TruncationShape:
    _check_keys(spec, {"rect", "weighted"}, "shape")
    if "rect" in spec and "weighted" in spec:
        raise ModelFileError("shape must be either rect or weighted, not both")
    if "rect" in spec:
        return Rect([int(c) for c in spec["rect"]])
    if "weighted" in spec:
        w = spec["weighted"]
        _check_keys(w, {"w", "cap"}, "shape.weighted")
        weights = _required(w, "w", "shape.weighted")
        cap = _required(w, "cap", "shape.weighted")
        return WeightedTotal([Fraction(str(x)) for x in weights], Fraction(str(cap)))
    raise ModelFileError("shape needs a rect or weighted entry")


def shape_to_spec(shape: TruncationShape) -> dict:
    if isinstance(shape, Rect):
        return {"rect": list(shape.caps)}
    return {
        "weighted": {"w": [str(w) for w in shape.weights], "cap": str(shape.cap)}
    }


# ---------------------------------------------------------------------------
# operator string grammar
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?j?|\.\d+(?:[eE][+-]?\d+)?j?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[*^+-])"
    r")"
)

_LADDER_RE = re.compile(r"^(a|ad|b|bd)(\d+)$")


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            bad = text[pos:].split()[0] if text[pos:].split() else text[pos:]
            raise ModelFileError(f"unknown token '{bad}' in operator string")
        if m.lastgroup == "number":
            tokens.append(("num", m.group("number")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


def _letter_for(name: str, modes: int):
    m = _LADDER_RE.match(name)
    if not m:
        return None
    kind, mode = m.group(1), int(m.group(2))
    if kind in ("b", "bd"):
        mode += 1
        kind = "a" if kind == "b" else "ad"
    if mode >= modes:
        raise ModelFileError(
            f"token '{name}' addresses mode {mode} but the model has {modes}"
        )
    return (mode, kind == "ad")


def parse_poly_string(text: str, modes: int, params: dict) -> PolyOperator:
    """Parse a sum of scalar-times-word products into a PolyOperator."""
    tokens = _tokenize(text)
    if not tokens:
        raise ModelFileError("empty operator string")
    return _assemble_terms(text, tokens, modes, params)


def _assemble_terms(text, tokens, modes, params) -> PolyOperator:
    i = 0
    n = len(tokens)
    terms = []

    def parse_factor():
        nonlocal i
        kind, val = tokens[i]
        i += 1
        power = 1
        if i + 1 < n and tokens[i] == ("op", "^"):
            pk, pv = tokens[i + 1]
            if pk != "num" or not pv.isdigit():
                raise ModelFileError(
                    f"exponent must be a plain integer in '{text}'"
                )
            power = int(pv)
            i += 2
        if kind == "num":
            return complex(val) ** power, ()
        letter = _letter_for(val, modes)
        if letter is not None:
            return 1.0, (letter,) * power
        if val == "id":
            return 1.0, ()
        if val in params:
            return complex(params[val]) ** power, ()
        raise ModelFileError(f"unknown token '{val}' in operator string '{text}'")

    while i < n:
        sign = 1.0
        while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ModelFileError(f"dangling sign in operator string '{text}'")
        coeff = complex(sign)
        word: tuple = ()
        c, w = parse_factor()
        coeff *= c
        word += w
        while i < n and tokens[i] == ("op", "*"):
            i += 1
            if i >= n:
                raise ModelFileError(f"dangling '*' in operator string '{text}'")
            if tokens[i][0] == "op":
                raise ModelFileError(
                    f"misplaced '{tokens[i][1]}' in operator string '{text}'"
                )
            c, w = parse_factor()
            coeff *= c
            word += w
        if i < n and tokens[i][0] == "op" and tokens[i][1] == "^":
            raise ModelFileError(f"misplaced '^' in operator string '{text}'")
        if i < n and tokens[i][0] != "op":
            raise ModelFileError(
                f"missing '*' before token '{tokens[i][1]}' in operator "
                f"string '{text}'"
            )
        terms.append((coeff, word))
    return PolyOperator(modes, terms)


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

_ALLOWED_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}


def _compile_expr(src: str, params: dict):
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ModelFileError(f"cannot parse coefficient expression '{src}'") from exc

    def check(node):
        if isinstance(node, ast.Expression):
            check(node.body)
        elif isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
        ):
            check(node.left)
            check(node.right)
        elif isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.USub, ast.UAdd)
        ):
            check(node.operand)
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
            check(node.args[0])
        else:
            raise ModelFileError(
                f"coefficient expression '{src}' uses an unsupported construct"
            )

    check(tree)
    code = compile(tree, "<coefficient>", "eval")
    env = dict(_ALLOWED_FUNCS)
    env.update(params)

    def fn(t: float) -> float:
        try:
            return float(eval(code, {"__builtins__": {}}, {**env, "t": t}))
        except ArithmeticError as exc:
            raise ModelFileError(
                f"coefficient expression '{src}' fails at t={t!r}: {exc}"
            ) from None

    return fn


def _coefficient_from_spec(spec, params: dict) -> CoefficientFn:
    if isinstance(spec, (int, float)):
        return CoefficientFn.constant(float(spec))
    if not isinstance(spec, dict):
        raise ModelFileError(f"bad coefficient {spec!r}")
    if "expr" in spec:
        _check_keys(spec, {"expr", "sup", "dsup"}, "coeff")
        fn = _compile_expr(spec["expr"], params)
        return CoefficientFn(
            fn=fn,
            sup=float(spec["sup"]) if "sup" in spec else None,
            dsup=float(spec["dsup"]) if "dsup" in spec else None,
            label=spec["expr"],
        )
    if "table" in spec:
        _check_keys(spec, {"table", "sup"}, "coeff")
        rows = [(float(t), float(v)) for t, v in spec["table"]]
        if not rows or rows[0][0] != 0.0:
            raise ModelFileError("piecewise table must start at t = 0")
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

        sup = float(spec["sup"]) if "sup" in spec else max(abs(v) for _, v in rows)
        # a step table is not C^1: no dsup, the Euler certificate stays off
        return CoefficientFn(fn=fn, sup=sup, dsup=None, label=f"table{rows!r}")
    raise ModelFileError(f"bad coefficient {spec!r}")


def _cosine_arg_from_spec(spec: dict, modes: int) -> PolyOperator:
    _check_keys(spec, {"q", "p"}, "cosine")
    q = [float(x) for x in spec.get("q", [0.0] * modes)]
    p = [float(x) for x in spec.get("p", [0.0] * modes)]
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


def _number(key, raw):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ModelFileError(f"solver.{key} must be a number, got {raw!r}")
    return float(raw)


def _integer(key, raw):
    if isinstance(raw, bool) or not (
        isinstance(raw, int) or (isinstance(raw, float) and raw.is_integer())
    ):
        raise ModelFileError(f"solver.{key} must be an integer, got {raw!r}")
    return int(raw)


def _flag(key, raw):
    if not isinstance(raw, bool):
        raise ModelFileError(f"solver.{key} must be true or false, got {raw!r}")
    return raw


def _text(key, raw):
    if not isinstance(raw, str):
        raise ModelFileError(f"solver.{key} must be a string, got {raw!r}")
    return raw


def _resize_step(key, raw):
    """A grow or shrink step; a rational string is taken exactly.  Its
    value is checked by SolverConfig."""
    return Fraction(raw) if isinstance(raw, str) else raw


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
        if "modes" not in doc or "shape" not in doc:
            raise ModelFileError("model file needs 'modes' and 'shape'")
        modes = int(doc["modes"])
        ham = []
        for term in doc.get("hamiltonian", []):
            _check_keys(term, {"coeff", "op"}, "hamiltonian term")
            if "op" not in term:
                raise ModelFileError("hamiltonian term needs an 'op'")
            ham.append({"coeff": term.get("coeff", 1.0), "op": term["op"]})
        diss = []
        for term in doc.get("dissipators", []):
            _check_keys(term, {"op", "gkp", "cosine"}, "dissipator")
            if sum(k in term for k in ("op", "gkp", "cosine")) != 1:
                raise ModelFileError(
                    "each dissipator needs exactly one of op / gkp / cosine"
                )
            diss.append(dict(term))
        initial = doc.get("initial", {"fock": [0] * modes})
        _check_keys(initial, {"fock", "file"}, "initial")
        solver = dict(doc.get("solver", {}))
        _check_keys(solver, {*_SOLVER_KEYS, "adaptive_space"}, "solver")
        return cls(
            modes=modes,
            shape=dict(doc["shape"]),
            params={k: float(v) for k, v in doc.get("params", {}).items()},
            hamiltonian=tuple(ham),
            dissipators=tuple(diss),
            initial=dict(initial),
            solver=solver,
        )

    @classmethod
    def from_json(cls, text: str) -> "ModelFile":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelFileError(f"not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def load(cls, path) -> "ModelFile":
        with open(path) as fh:
            return cls.from_json(fh.read())

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
        for term in self.hamiltonian:
            coeff = _coefficient_from_spec(term["coeff"], self.params)
            op = term["op"]
            if isinstance(op, str):
                expr = PolyExpr(parse_poly_string(op, self.modes, self.params))
            elif isinstance(op, dict) and "cosine" in op:
                _check_keys(op, {"cosine"}, "hamiltonian op")
                expr = CosineExpr(_cosine_arg_from_spec(op["cosine"], self.modes))
            else:
                raise ModelFileError(f"bad hamiltonian op {op!r}")
            ham.append((coeff, expr))
        diss = []
        for term in self.dissipators:
            if "op" in term:
                diss.append(
                    PolyExpr(parse_poly_string(term["op"], self.modes, self.params))
                )
            elif "gkp" in term:
                g = term["gkp"]
                _check_keys(g, {"A", "eta", "eps", "k"}, "gkp dissipator")
                diss.append(
                    GkpDissipator(
                        amplitude=float(g.get("A", 1.0)),
                        eta=float(_required(g, "eta", "gkp dissipator")),
                        eps=float(_required(g, "eps", "gkp dissipator")),
                        sector=int(g.get("k", 0)),
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
            parameters=tuple(sorted(self.params.items())),
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
            from .operators import fock_density

            state = [int(k) for k in self.initial["fock"]]
            if len(state) != self.modes:
                raise ModelFileError("initial fock index must have one entry per mode")
            if tuple(state) not in basis_map(shape).index:
                raise ModelFileError(f"initial fock index {state} is not a state of {shape}")
            return fock_density(shape, state)
        path = self.initial["file"]
        if base_dir is not None:
            import os

            path = os.path.join(base_dir, path)
        return load_state_json(path)

    def _build_config(self) -> tuple[SolverConfig, bool]:
        if "T" not in self.solver:
            raise ModelFileError("solver section needs the final time 'T'")
        kwargs = {
            name: convert(key, self.solver[key])
            for key, (name, convert) in _SOLVER_KEYS.items()
            if key in self.solver
        }
        adaptive = _flag("adaptive_space", self.solver.get("adaptive_space", False))
        return SolverConfig(**kwargs), adaptive


# ---------------------------------------------------------------------------
# dense state (de)serialization
# ---------------------------------------------------------------------------


def dump_state_json(op: DenseOperator, path) -> None:
    """Row-major flat [re, im] pairs with explicit dim and shape."""
    data = [
        [float(z.real), float(z.imag)] for z in op.matrix.reshape(-1)
    ]
    doc = {"dim": op.dim, "shape": shape_to_spec(op.shape), "data": data}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_state_json(path) -> DenseOperator:
    with open(path) as fh:
        doc = json.load(fh)
    _check_keys(doc, {"dim", "shape", "data"}, "state file")
    shape = shape_from_spec(_required(doc, "shape", "state file"))
    d = int(_required(doc, "dim", "state file"))
    if d != dimension(shape):
        raise ModelFileError("state file dim does not match its shape")
    flat = np.array(
        [complex(re, im) for re, im in _required(doc, "data", "state file")],
        dtype=np.complex128,
    )
    if flat.size != d * d:
        raise ModelFileError("state file data length does not match dim^2")
    return DenseOperator(shape, flat.reshape(d, d))
