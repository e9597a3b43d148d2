"""Inline array contracts: ``# repro: shape[...]`` annotations.

Contracts live beside the code they describe, exactly like the
``# repro: noqa[...]`` suppressions they are modeled on (same tokenize
collection, same anchored-comment discipline).  Three attachment sites:

* **function signatures** — any contract comment between the ``def``
  line and the first body statement annotates parameters and the
  return value::

      def telemetry(
          self,
          fc,        # repro: shape[fc: obj[FleetCluster]]
          busy,      # repro: shape[busy: (N,) f8]
          z,         # repro: shape[z: (N, C+1) f8; -> (N, C+1) f8]
      ):

* **attribute assignments** — a contract on a ``self.attr = ...`` line
  both *checks* the assigned value and *declares* the attribute for
  every other method of the class::

      self._reading_buf = np.empty((n, c + 1))  # repro: shape[(N, C+1) f8]

* **dataclass fields** — a contract on an annotated field line declares
  the attribute without any executed assignment::

      u_scale: np.ndarray  # repro: shape[(m,) f8]

Spec grammar (items separated by ``;`` inside the brackets)::

    name: SPEC        parameter contract (functions only)
    -> SPEC           return contract (functions only)
    SPEC              bare contract (assignment / field lines)

    SPEC := ( dim, dim, ... ) [dtype] [!rng[dim]] [| none]
          | int[dim] | int | float | bool | str | none
          | obj[ClassName] | ?

``dim`` is an integer polynomial over contract symbols — ``N``, ``C+1``,
``q + 2*(C+1)``, ``2*N*m`` — parsed with :mod:`ast` (names, integer
literals, ``+ - *`` and parentheses only); the special name ``_`` is an
explicitly-untracked dimension (fresh opaque symbol, compatible with
everything).  ``dtype`` is one of ``f8 f4
i8 i1 b1`` (default ``f8``: the hot arrays are float64 by contract).
``!rng[dim]`` tags an array as an RNG noise block with a per-tick draw
budget (REPRO-S005).  ``| none`` marks an optional value; the analyzer
seeds the non-None case and relies on ``is None`` branches for the rest.

A malformed or dangling contract is itself an error (``REPRO-S000``):
a typo'd contract silently checking nothing would be worse than none.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.findings import Finding, Severity
from repro.analysis.shapes.lattice import (
    DTYPE_BOOL,
    DTYPE_F32,
    DTYPE_F64,
    DTYPE_I8,
    DTYPE_I64,
    Dim,
    fresh_dim,
)

__all__ = [
    "CONTRACT_PATTERN",
    "ContractError",
    "FunctionContract",
    "ModuleContracts",
    "Spec",
    "collect_contracts",
    "parse_dim_expr",
    "parse_spec",
]

# Greedy body up to the last closing bracket so nested `int[...]` and
# `!rng[...]` survive; anchored at the comment tail so prose that merely
# mentions the syntax is not a contract, while still matching after a
# leading `# type: ignore` (one physical line is one comment token).
CONTRACT_PATTERN = re.compile(r"#\s*repro:\s*shape\[(?P<body>.*)\]\s*$")

_DTYPE_TOKENS = {
    "f8": DTYPE_F64,
    "f4": DTYPE_F32,
    "i8": DTYPE_I64,
    "i1": DTYPE_I8,
    "b1": DTYPE_BOOL,
}

_SYMBOL_RE = re.compile(r"^[A-Za-z_]\w*$")


class ContractError(ValueError):
    """Raised for malformed contract text; surfaced as REPRO-S000."""


@dataclass(frozen=True)
class Spec:
    """One parsed contract item."""

    kind: str  # array | int | float | bool | str | none | obj | unknown
    shape: Optional[tuple[Dim, ...]] = None
    dtype: str = DTYPE_F64
    dim: Optional[Dim] = None  # int[expr]
    class_name: str = ""  # obj[ClassName]
    rng_budget: Optional[Dim] = None
    optional: bool = False  # `| none`


@dataclass
class FunctionContract:
    params: dict[str, Spec] = field(default_factory=dict)
    returns: Optional[Spec] = None


@dataclass
class ModuleContracts:
    """All contracts in one module, keyed for the interpreter."""

    functions: dict[str, FunctionContract] = field(default_factory=dict)
    class_attrs: dict[str, dict[str, Spec]] = field(default_factory=dict)
    assign_specs: dict[int, Spec] = field(default_factory=dict)
    findings: list[Finding] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not (self.functions or self.class_attrs or self.assign_specs)


# ----------------------------------------------------------------------
# Dim-expression parsing (ast-backed: names, ints, + - *, parens)
# ----------------------------------------------------------------------
def parse_dim_expr(text: str) -> Dim:
    text = text.strip()
    if not text:
        raise ContractError("empty dimension expression")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ContractError(f"unparseable dimension {text!r}") from exc
    return _eval_dim(tree.body, text)


def _eval_dim(node: ast.expr, text: str) -> Dim:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return Dim.const(node.value)
    if isinstance(node, ast.Name):
        if node.id == "_":
            return fresh_dim()
        return Dim.sym(node.id)
    if isinstance(node, ast.BinOp):
        left = _eval_dim(node.left, text)
        right = _eval_dim(node.right, text)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        raise ContractError(
            f"unsupported operator in dimension {text!r} (use + - *)"
        )
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_eval_dim(node.operand, text)
    raise ContractError(f"unsupported dimension syntax in {text!r}")


def _split_top_commas(text: str) -> list[str]:
    """Split on commas not nested in parentheses/brackets."""
    parts: list[str] = []
    depth = 0
    current = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------
def parse_spec(text: str) -> Spec:
    text = text.strip()
    optional = False
    opt_match = re.search(r"\|\s*none\s*$", text)
    if opt_match:
        text = text[: opt_match.start()].strip()
        optional = True

    draws: Optional[Dim] = None
    rng_match = re.search(r"!rng\[(?P<dim>[^\]]*)\]", text)
    if rng_match:
        draws = parse_dim_expr(rng_match.group("dim"))
        text = (text[: rng_match.start()] + text[rng_match.end() :]).strip()

    if text.startswith("("):
        depth = 0
        close = -1
        for i, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    close = i
                    break
        if close < 0:
            raise ContractError(f"unbalanced parentheses in {text!r}")
        inner = text[1:close]
        rest = text[close + 1 :].strip()
        parts = _split_top_commas(inner)
        # Only a single *trailing* empty segment (the `(N,)` idiom) is
        # tolerated; `(N,,)` is a typo, not a 1-D shape.
        if parts and not parts[-1].strip():
            parts = parts[:-1]
        if any(not part.strip() for part in parts):
            raise ContractError(f"empty dimension in shape ({inner})")
        dims = tuple(parse_dim_expr(part) for part in parts)
        if rest and rest not in _DTYPE_TOKENS:
            raise ContractError(
                f"unknown dtype token {rest!r} (use one of "
                f"{'/'.join(sorted(_DTYPE_TOKENS))})"
            )
        dtype = _DTYPE_TOKENS.get(rest, DTYPE_F64)
        return Spec(
            kind="array",
            shape=dims,
            dtype=dtype,
            rng_budget=draws,
            optional=optional,
        )
    if draws is not None:
        raise ContractError("!rng[...] applies only to array specs")

    int_match = re.match(r"^int\[(?P<dim>.*)\]$", text)
    if int_match:
        return Spec(
            kind="int", dim=parse_dim_expr(int_match.group("dim")),
            optional=optional,
        )
    obj_match = re.match(r"^obj\[(?P<cls>\w+)\]$", text)
    if obj_match:
        return Spec(
            kind="obj", class_name=obj_match.group("cls"), optional=optional
        )
    if text in ("int", "float", "bool", "str", "none", "?"):
        kind = "unknown" if text == "?" else text
        return Spec(kind=kind, optional=optional)
    raise ContractError(f"unrecognized contract spec {text!r}")


def _parse_items(body: str) -> list[tuple[Optional[str], Spec]]:
    """``body`` -> list of (param-name-or-None, spec). ``->`` maps to
    the reserved name ``"->"``."""
    items: list[tuple[Optional[str], Spec]] = []
    for raw in body.split(";"):
        raw = raw.strip()
        if not raw:
            continue
        if raw.startswith("->"):
            items.append(("->", parse_spec(raw[2:])))
            continue
        name_match = re.match(r"^(?P<name>[A-Za-z_]\w*)\s*:\s*(?P<spec>.+)$", raw)
        if name_match and not raw.startswith(("int[", "obj[")):
            items.append(
                (name_match.group("name"), parse_spec(name_match.group("spec")))
            )
        else:
            items.append((None, parse_spec(raw)))
    if not items:
        raise ContractError("empty contract `# repro: shape[]`")
    return items


# ----------------------------------------------------------------------
# Collection + AST attachment
# ----------------------------------------------------------------------
def _contract_comments(source: str) -> dict[int, str]:
    """lineno -> contract body text for every shape-contract comment."""
    out: dict[int, str] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = CONTRACT_PATTERN.search(token.string)
            if match is not None:
                out[token.start[0]] = match.group("body")
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # broken source is REPRO-L000's problem
    return out


def _finding(path: str, line: int, message: str) -> Finding:
    return Finding(
        path=path,
        line=line,
        rule="REPRO-S000",
        severity=Severity.ERROR,
        message=message,
    )


class _Collector(ast.NodeVisitor):
    def __init__(
        self, comments: dict[int, str], path: str, result: ModuleContracts
    ) -> None:
        self.comments = comments
        self.path = path
        self.result = result
        self.class_stack: list[str] = []
        self.consumed: set[int] = set()

    # -- helpers -------------------------------------------------------
    def _parse_at(self, line: int) -> Optional[list[tuple[Optional[str], Spec]]]:
        body = self.comments.get(line)
        if body is None:
            return None
        self.consumed.add(line)
        try:
            return _parse_items(body)
        except ContractError as exc:
            self.result.findings.append(
                _finding(self.path, line, f"malformed shape contract: {exc}")
            )
            return None

    def _qualname(self, name: str) -> str:
        return ".".join([*self.class_stack, name])

    # -- visitors ------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        contract = FunctionContract()
        end = max(node.lineno, node.body[0].lineno - 1)
        arg_names = {
            a.arg
            for a in [
                *node.args.posonlyargs,
                *node.args.args,
                *node.args.kwonlyargs,
            ]
        }
        for line in range(node.lineno, end + 1):
            items = self._parse_at(line)
            if items is None:
                continue
            for name, spec in items:
                if name == "->":
                    contract.returns = spec
                elif name is None:
                    self.result.findings.append(
                        _finding(
                            self.path,
                            line,
                            "function contracts need `name:` or `->` "
                            "prefixes",
                        )
                    )
                elif name not in arg_names:
                    self.result.findings.append(
                        _finding(
                            self.path,
                            line,
                            f"contract names unknown parameter {name!r} of "
                            f"{self._qualname(node.name)}()",
                        )
                    )
                else:
                    contract.params[name] = spec
        if contract.params or contract.returns is not None:
            self.result.functions[self._qualname(node.name)] = contract
        self.generic_visit(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _attach_assign(self, node: ast.stmt, target: ast.expr) -> None:
        items = self._parse_at(node.lineno)
        if items is None:
            return
        bare = [spec for name, spec in items if name is None]
        if len(bare) != len(items) or len(bare) != 1:
            self.result.findings.append(
                _finding(
                    self.path,
                    node.lineno,
                    "assignment contracts take exactly one bare spec",
                )
            )
            return
        spec = bare[0]
        self.result.assign_specs[node.lineno] = spec
        attr_name: Optional[str] = None
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            attr_name = target.attr
        elif isinstance(target, ast.Name) and self.class_stack and isinstance(
            node, ast.AnnAssign
        ):
            attr_name = target.id  # dataclass field
        if attr_name is not None and self.class_stack:
            self.result.class_attrs.setdefault(self.class_stack[-1], {})[
                attr_name
            ] = spec

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1:
            self._attach_assign(node, node.targets[0])
        elif node.lineno in self.comments:
            self.consumed.add(node.lineno)
            self.result.findings.append(
                _finding(
                    self.path,
                    node.lineno,
                    "contracts on multi-target assignments are unsupported",
                )
            )
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._attach_assign(node, node.target)
        self.generic_visit(node)


def collect_contracts(source: str, path: str) -> ModuleContracts:
    """Parse every shape contract in ``source`` and attach it to its
    AST site; dangling or malformed contracts become REPRO-S000."""
    result = ModuleContracts()
    if "repro:" not in source:  # cheap pre-filter, mirrors suppress.py
        return result
    comments = _contract_comments(source)
    if not comments:
        return result
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return result  # REPRO-L000 territory
    collector = _Collector(comments, path, result)
    collector.visit(tree)
    for line in sorted(set(comments) - collector.consumed):
        result.findings.append(
            _finding(
                path,
                line,
                "shape contract attaches to no def/assignment on this line",
            )
        )
    return result
