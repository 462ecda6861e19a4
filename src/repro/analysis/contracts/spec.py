"""``@shape_contract`` — declared shape/dtype contracts on forward methods.

A contract names the symbolic shape of selected inputs and of the output::

    @shape_contract(
        inputs={"q": "B N Lq Dh", "k": "B N Lk Dh", "v": "B N Lk Dh"},
        output="B N Lq Dh",
    )
    def forward(self, q, k, v, mask=None): ...

Each shape spec is a space-separated string (or tuple) of *entries*: a dim
name (``B``), an int literal (``4``), or an integer expression over dim
names (``3*H``, ``W+1``, ``T//2``).  Names resolve against the tracing
environment; a bare name not yet bound binds to whatever the traced call
observes at that axis, so the same decorator verifies both under the
registry checker (which pins ``L``/``H``/... and frees ``B``) and in a
standalone trace of a single module.

The output spec may be a tuple of specs for tuple-returning forwards;
``None`` entries are unchecked (optional outputs, e.g. Conformer's flow
head which is absent when flows are disabled).

Model code applies the lightweight :func:`repro.markers.shape_contract`,
which only stores the raw spec (``fn.__shape_contract__``), so importing a
model never loads this package; :func:`contract_of` parses and validates
that spec into a :class:`ShapeContract` the first time a trace reads it.
:func:`shape_contract` here is the eager variant: it parses and validates
at decoration time and attaches the parsed contract.  Either way there is
zero runtime overhead outside a contract trace.
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro import markers
from repro.analysis.contracts.symbolic import (
    ShapeEntry,
    SymExpr,
    SymbolicError,
    entry_value,
    render_shape,
    sym,
)

__all__ = [
    "ContractError",
    "ShapeContract",
    "Violation",
    "contract_of",
    "shape_contract",
]

#: Finding kinds — the shared vocabulary with the runtime TensorSanitizer
#: (`dtype_drift`, `broadcast_surprise`) plus the static-only kinds.
KINDS = ("shape_mismatch", "dtype_drift", "broadcast_surprise", "trace_error")


class ContractError(ValueError):
    """A malformed contract declaration (caught when the spec is parsed)."""


@dataclass(frozen=True)
class Violation:
    """One contract-checker finding, attributed to a traced module."""

    kind: str  # one of KINDS
    module: str  # dotted module path within the traced root ("" = root)
    op: str  # op or "<contract>" for declared-contract mismatches
    message: str
    detail: Mapping = field(default_factory=dict)

    def render(self) -> str:
        where = self.module or "<root>"
        return f"[{self.kind}] {where} ({self.op}): {self.message}"


_SpecEntry = Union[int, str]
_Shape = Tuple[_SpecEntry, ...]

_ALLOWED_AST = (
    ast.Expression,
    ast.BinOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.FloorDiv,
    ast.Mod,
    ast.UnaryOp,
    ast.USub,
    ast.UAdd,
    ast.Constant,
    ast.Name,
    ast.Load,
)


def _parse_entry_ast(entry: str) -> ast.Expression:
    try:
        tree = ast.parse(entry, mode="eval")
    except SyntaxError as exc:
        raise ContractError(f"bad shape entry {entry!r}: {exc.msg}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_AST):
            raise ContractError(
                f"bad shape entry {entry!r}: only dim names and integer +-*//% arithmetic allowed"
            )
        if isinstance(node, ast.Constant) and not isinstance(node.value, int):
            raise ContractError(f"bad shape entry {entry!r}: only int literals allowed")
    return tree


def _eval_entry(tree: ast.AST, env: Mapping[str, ShapeEntry]):
    if isinstance(tree, ast.Expression):
        return _eval_entry(tree.body, env)
    if isinstance(tree, ast.Constant):
        return int(tree.value)
    if isinstance(tree, ast.Name):
        if tree.id not in env:
            raise KeyError(tree.id)
        return env[tree.id]
    if isinstance(tree, ast.UnaryOp):
        operand = _eval_entry(tree.operand, env)
        return -operand if isinstance(tree.op, ast.USub) else operand
    if isinstance(tree, ast.BinOp):
        left = _eval_entry(tree.left, env)
        right = _eval_entry(tree.right, env)
        if isinstance(tree.op, ast.Add):
            return left + right
        if isinstance(tree.op, ast.Sub):
            return left - right
        if isinstance(tree.op, ast.Mult):
            return left * right
        if isinstance(tree.op, ast.FloorDiv):
            return left // right
        return left % right
    raise ContractError(f"unsupported shape entry node: {ast.dump(tree)}")


def _normalize_shape(spec) -> _Shape:
    if isinstance(spec, str):
        entries: Sequence = spec.split()
    elif isinstance(spec, (tuple, list)):
        entries = spec
    else:
        raise ContractError(f"shape spec must be a string or tuple, got {spec!r}")
    if not entries:
        raise ContractError("empty shape spec")
    out: List[_SpecEntry] = []
    for entry in entries:
        if isinstance(entry, (int,)) and not isinstance(entry, bool):
            out.append(int(entry))
        elif isinstance(entry, str) and entry.strip():
            text = entry.strip()
            if not text.isidentifier():
                _parse_entry_ast(text)  # validate when parsed, not at first use
            out.append(text)
        else:
            raise ContractError(f"bad shape entry: {entry!r}")
    return tuple(out)


def _is_multi_output(spec) -> bool:
    if not isinstance(spec, (tuple, list)):
        return False
    return any(
        element is None
        or isinstance(element, (tuple, list))
        or (isinstance(element, str) and len(element.split()) > 1)
        for element in spec
    )


class ShapeContract:
    """Parsed contract attached to a forward method."""

    __slots__ = ("inputs", "outputs", "multi_output")

    def __init__(self, inputs: Mapping[str, object], output) -> None:
        self.inputs: Dict[str, _Shape] = {
            name: _normalize_shape(spec) for name, spec in (inputs or {}).items()
        }
        if output is None:
            self.multi_output = False
            self.outputs: Tuple[Optional[_Shape], ...] = ()
        elif _is_multi_output(output):
            self.multi_output = True
            self.outputs = tuple(
                None if element is None else _normalize_shape(element) for element in output
            )
        else:
            self.multi_output = False
            self.outputs = (_normalize_shape(output),)

    def validate_signature(self, fn: Callable) -> None:
        params = set(inspect.signature(fn).parameters)
        unknown = set(self.inputs) - params
        if unknown:
            raise ContractError(
                f"contract on {fn.__qualname__} names parameters that do not exist: {sorted(unknown)}"
            )

    # -- matching -------------------------------------------------------
    @staticmethod
    def _match_shape(
        label: str,
        spec: _Shape,
        observed: Optional[Tuple[ShapeEntry, ...]],
        env: Dict[str, ShapeEntry],
    ) -> List[str]:
        """Match one observed shape against one spec, binding free names.

        Returns human-readable mismatch strings (empty = match).  The
        authoritative comparison is by concrete probe value; the symbolic
        renderings make the report readable.
        """
        if observed is None:
            return []  # non-tensor / absent optional argument: nothing to check
        if len(observed) != len(spec):
            return [
                f"{label}: rank mismatch — spec {spec} vs observed {render_shape(observed)}"
            ]
        problems: List[str] = []
        for i, entry in enumerate(spec):
            seen = observed[i]
            if isinstance(entry, str) and entry.isidentifier() and entry not in env:
                env[entry] = seen  # first occurrence: bind from observation
                continue
            if isinstance(entry, int):
                expected: ShapeEntry = entry
            else:
                try:
                    expected = _eval_entry(_parse_entry_ast(entry), env)
                except KeyError as exc:
                    problems.append(
                        f"{label}[{i}]: spec {entry!r} uses unbound dim {exc.args[0]!r}"
                    )
                    continue
            if entry_value(expected) != entry_value(seen):
                problems.append(
                    f"{label}[{i}]: expected {entry} = {expected} "
                    f"but observed {seen} (full shape {render_shape(observed)})"
                )
        return problems

    def verify(
        self,
        fn: Callable,
        args: Tuple,
        kwargs: Mapping,
        result,
        env: Mapping[str, ShapeEntry],
        sym_of: Callable,
    ) -> List[Violation]:
        """Check one traced call; returns shape_mismatch violations."""
        try:
            bound = inspect.signature(fn).bind(*args, **kwargs)
        except TypeError as exc:
            return [
                Violation("trace_error", "", "<contract>", f"could not bind arguments: {exc}")
            ]
        local: Dict[str, ShapeEntry] = dict(env)
        problems: List[str] = []
        for name, spec in self.inputs.items():
            if name not in bound.arguments:
                continue  # optional parameter left at its default
            problems.extend(self._match_shape(name, spec, sym_of(bound.arguments[name]), local))
        if self.outputs:
            results = result if self.multi_output else (result,)
            if self.multi_output and not isinstance(results, (tuple, list)):
                problems.append(
                    f"output: expected a {len(self.outputs)}-tuple, got {type(result).__name__}"
                )
                results = ()
            for i, spec in enumerate(self.outputs):
                if spec is None or i >= len(results) or results[i] is None:
                    continue
                label = f"output[{i}]" if self.multi_output else "output"
                problems.extend(self._match_shape(label, spec, sym_of(results[i]), local))
        return [
            Violation("shape_mismatch", "", "<contract>", text, {"contract": True})
            for text in problems
        ]


def shape_contract(inputs: Optional[Mapping[str, object]] = None, output=None):
    """Attach a :class:`ShapeContract` to a forward method, parsed and
    validated at decoration time (a malformed spec raises
    :class:`ContractError` here).

    Verified only inside a contract trace (``repro.cli check`` /
    :func:`repro.analysis.contracts.trace_module`); free otherwise.
    """

    def decorate(fn):
        contract_of(markers.shape_contract(inputs, output)(fn))
        return fn

    return decorate


def contract_of(fn: Callable) -> Optional[ShapeContract]:
    """The parsed contract declared on ``fn``, or None when it has none.

    A raw spec left by :func:`repro.markers.shape_contract` is parsed and
    checked against ``fn``'s signature here, once, and the result replaces
    it on ``fn``; a malformed spec raises :class:`ContractError`.
    """
    declared = getattr(fn, "__shape_contract__", None)
    if declared is None or isinstance(declared, ShapeContract):
        return declared
    contract = ShapeContract(declared["inputs"], declared["output"])
    contract.validate_signature(fn)
    fn.__shape_contract__ = contract
    return contract
