"""Per-module symbol table and fact extraction for the flow analyzer.

One parse of a module produces a :class:`ModuleAnalysis`: the imports
map (local alias -> dotted target), per-class facts (bases, frozen-ness,
annotated fields, inferred attribute types, statically-unpicklable
members) and per-function facts (call sites, numpy temporaries,
attribute writes, raised exceptions, inferred local variable types),
plus the module's inline suppressions and the module-local half of the
unit-suffix rule (REPRO-F004 assignments).

Everything in a :class:`ModuleAnalysis` is plain picklable data — no
AST nodes survive extraction — so the incremental cache
(:mod:`repro.analysis.flow.cache`) can store one entry per module keyed
by content hash, and the cross-module rules
(:mod:`repro.analysis.flow.rules`) re-run over cached facts without
re-parsing unchanged files.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import Finding, Severity
from repro.analysis.flow.dataflow import (
    ForwardAnalysis,
    expr_statements,
    suffix_family,
    suffix_of,
    unit_of,
)
from repro.analysis.suppress import collect_suppressions

__all__ = [
    "AttrWrite",
    "CallSite",
    "ClassFacts",
    "FunctionFacts",
    "MODULE_SCOPE",
    "ModuleAnalysis",
    "extract_module",
    "module_name_for_path",
    "source_digest",
]

# Pseudo-function holding module-level statements' facts.
MODULE_SCOPE = "<module>"

# numpy attributes that allocate or reduce per call (REPRO-F003).
_NUMPY_TEMPORARY_CALLS = frozenset({"clip", "sum", "zeros", "ones", "empty"})

# Constructors whose instances cannot cross a spawn boundary (REPRO-F002).
_UNPICKLABLE_CONSTRUCTORS = {
    "threading.Lock": "threading lock",
    "threading.RLock": "threading lock",
    "threading.Condition": "threading condition",
    "threading.Event": "threading event",
    "threading.Semaphore": "threading semaphore",
    "threading.BoundedSemaphore": "threading semaphore",
    "_thread.allocate_lock": "thread lock",
    "open": "open file handle",
    "socket.socket": "socket",
    "subprocess.Popen": "subprocess handle",
}

# Generic wrappers whose subscripts we look through when resolving the
# primary class of an annotation (`Optional[Cluster]` -> Cluster).
_ANNOTATION_WRAPPERS = {
    "Optional",
    "Union",
    "Callable",
    "Iterable",
    "Iterator",
    "Sequence",
    "Mapping",
    "List",
    "Dict",
    "Tuple",
    "Set",
    "FrozenSet",
    "Type",
    "ClassVar",
    "Final",
    "Annotated",
    "list",
    "dict",
    "tuple",
    "set",
    "frozenset",
    "type",
    "None",
}


@dataclass(frozen=True)
class CallSite:
    """One call expression, with its callee described symbolically.

    ``kind`` is one of:

    * ``global`` — the callee resolved through imports/module scope to a
      dotted path (``name`` = e.g. ``numpy.random.default_rng``);
    * ``self_method`` — ``self.m(...)`` (``name`` = method);
    * ``self_attr_method`` — ``self.attr.m(...)`` (``extra`` = attr);
    * ``var_method`` — ``x.m(...)`` on a local/parameter (``extra`` = x);
    * ``unknown_method`` — method call on an unresolvable base.

    ``arg_units`` records the unit suffix inferred for each argument
    whose unit is known: ``("0", "_ms")`` for positional index 0,
    ``("kw:budget", "_w")`` for keywords (REPRO-F004's cross-call half).
    """

    lineno: int
    kind: str
    name: str
    extra: str = ""
    n_args: int = 0
    kw_names: tuple[str, ...] = ()
    arg_units: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class AttrWrite:
    """One attribute assignment ``base.attr = ...``.

    ``base`` is a resolution marker: ``self``, ``self.ATTR``,
    ``var:NAME`` (resolved through the function's ``var_types`` at rule
    time) or ``type:DOTTED`` when extraction already knew the type.
    """

    lineno: int
    base: str
    attr: str


@dataclass
class FunctionFacts:
    """Facts about one function/method (or the module scope)."""

    qualname: str
    name: str
    lineno: int
    cls: str | None
    params: tuple[tuple[str, str | None], ...]
    calls: tuple[CallSite, ...] = ()
    numpy_temps: tuple[tuple[int, str], ...] = ()
    attr_writes: tuple[AttrWrite, ...] = ()
    raises: tuple[tuple[int, str], ...] = ()
    var_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ClassFacts:
    """Facts about one top-level class."""

    name: str
    qualname: str
    lineno: int
    bases: tuple[str, ...]
    frozen_dataclass: bool
    fields: dict[str, tuple[str, ...]] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)
    methods: tuple[str, ...] = ()
    unpicklable: tuple[tuple[int, str], ...] = ()


@dataclass
class ModuleAnalysis:
    """Everything the cross-module rules need to know about one module."""

    module: str
    path: str
    content_hash: str
    imports: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassFacts] = field(default_factory=dict)
    functions: dict[str, FunctionFacts] = field(default_factory=dict)
    local_findings: tuple[Finding, ...] = ()
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)
    suppression_findings: tuple[Finding, ...] = ()
    parse_error: Finding | None = None


# ----------------------------------------------------------------------
# Name plumbing
# ----------------------------------------------------------------------
def source_digest(source: str, *, salt: str = "") -> str:
    payload = f"{salt}\x00{source}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def module_name_for_path(path: Path) -> str:
    """Dotted module name, walking up through ``__init__.py`` packages."""
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _resolve_relative(module: str, level: int, target: str | None) -> str:
    """Absolute module for a ``from ...x import y`` statement."""
    base_parts = module.split(".")
    # level 1 = current package: drop the module's own name.
    base_parts = base_parts[: len(base_parts) - level]
    if target:
        base_parts.append(target)
    return ".".join(base_parts)


class _ImportMap:
    """Local name -> dotted target resolution for one module."""

    def __init__(self, module: str) -> None:
        self.module = module
        self.aliases: dict[str, str] = {}
        self.module_scope: set[str] = set()  # top-level defs/classes

    def add_import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.aliases[alias.asname] = alias.name
            else:
                head = alias.name.split(".")[0]
                self.aliases[head] = head

    def add_import_from(self, node: ast.ImportFrom) -> None:
        base = (
            _resolve_relative(self.module, node.level, node.module)
            if node.level
            else (node.module or "")
        )
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.aliases[local] = f"{base}.{alias.name}" if base else alias.name

    def resolve(self, dotted: str) -> str:
        """Map a local dotted reference to an absolute dotted path."""
        head, _, rest = dotted.partition(".")
        if head in self.aliases:
            target = self.aliases[head]
            return f"{target}.{rest}" if rest else target
        if head in self.module_scope:
            return f"{self.module}.{dotted}"
        return dotted


def _annotation_refs(annotation: ast.expr, imports: _ImportMap) -> tuple[str, ...]:
    """All resolved dotted class references inside an annotation."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return ()
    refs: list[str] = []
    consumed: set[int] = set()
    for node in ast.walk(annotation):
        if id(node) in consumed or not isinstance(node, (ast.Name, ast.Attribute)):
            continue
        dotted = _dotted(node)
        if dotted is None:
            continue
        # Consume the whole chain so `np.random.Generator` contributes
        # one ref, not also `np.random` and `np`.
        for sub in ast.walk(node):
            consumed.add(id(sub))
        resolved = imports.resolve(dotted)
        if resolved.split(".")[-1] not in _ANNOTATION_WRAPPERS:
            refs.append(resolved)
    # Dedup, preserving order.
    seen: set[str] = set()
    unique = [r for r in refs if not (r in seen or seen.add(r))]
    return tuple(unique)


def _primary_annotation(annotation: ast.expr | None, imports: _ImportMap) -> str | None:
    if annotation is None:
        return None
    refs = _annotation_refs(annotation, imports)
    return refs[0] if refs else None


# ----------------------------------------------------------------------
# Per-function fact collection (one forward pass)
# ----------------------------------------------------------------------
class _FunctionPass(ForwardAnalysis):
    """Collects call sites, numpy temporaries, attr writes, raises, and
    runs the unit-suffix inference, in one forward dataflow pass.

    The environment maps variable name -> ``(type_marker, unit_suffix)``
    where either half may be None.  Type markers are dotted class paths
    or ``self.ATTR`` placeholders resolved at rule time.
    """

    def __init__(
        self,
        module: str,
        path: str,
        imports: _ImportMap,
        qualname: str,
        cls: str | None,
        *,
        inline_closures: bool = True,
    ) -> None:
        self.inline_closures = inline_closures
        self.module = module
        self.path = path
        self.imports = imports
        self.qualname = qualname
        self.cls = cls
        self.calls: list[CallSite] = []
        self.numpy_temps: list[tuple[int, str]] = []
        self.attr_writes: list[AttrWrite] = []
        self.raises: list[tuple[int, str]] = []
        self.unit_findings: list[Finding] = []
        self._numpy_aliases = {
            local
            for local, target in imports.aliases.items()
            if target == "numpy"
        }

    # -- env helpers ---------------------------------------------------
    @staticmethod
    def _type_of(env: dict, name: str) -> str | None:
        entry = env.get(name)
        return entry[0] if entry else None

    def _unit_lookup(self, env: dict):
        def lookup(name: str) -> str | None:
            entry = env.get(name)
            return entry[1] if entry else None

        return lookup

    # -- ForwardAnalysis hooks -----------------------------------------
    def evaluate(self, expr: ast.expr, env: dict) -> tuple | None:
        type_marker = self._infer_type(expr, env)
        # Mismatch reporting happens in on_statement's expression walk,
        # exactly once per statement — no callback here.
        unit = unit_of(expr, self._unit_lookup(env))
        if type_marker is None and unit is None:
            return None
        return (type_marker, unit)

    def evaluate_annotation(self, annotation: ast.expr, env: dict) -> tuple | None:
        primary = _primary_annotation(annotation, self.imports)
        return (primary, None) if primary else None

    def _infer_type(self, expr: ast.expr, env: dict) -> str | None:
        if isinstance(expr, ast.Name):
            return self._type_of(env, expr.id)
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                return f"self.{expr.attr}"
            return None
        if isinstance(expr, ast.Call):
            dotted = _dotted(expr.func)
            if dotted is None:
                return None
            resolved = self.imports.resolve(dotted)
            # Constructor call: resolves to a class-looking target.  The
            # rules decide whether it names a project class.
            if resolved.split(".")[-1][:1].isupper():
                return resolved
        return None

    def on_statement(self, stmt: ast.stmt, env: dict) -> None:
        if self.inline_closures and isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            # A nested def runs as part of its enclosing function, so
            # its facts (calls, numpy temporaries, ...) are the
            # enclosing function's: it inherits that function's call
            # chains and hot-path exemptions.
            closure_env, params = _initial_env(stmt, self.imports)
            shadowed = {name for name, _ in params}
            inner = {k: v for k, v in env.items() if k not in shadowed}
            inner.update(closure_env)
            self._exec_block(stmt.body, inner)
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
            exc = stmt.exc
            func = exc.func if isinstance(exc, ast.Call) else exc
            dotted = _dotted(func)
            if dotted is not None:
                self.raises.append((stmt.lineno, self.imports.resolve(dotted)))
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if isinstance(target, ast.Attribute):
                    self._record_attr_write(target, env)
            if not isinstance(stmt, ast.AugAssign):
                self._check_unit_assignment(stmt, env)
        lookup = self._unit_lookup(env)
        for expr in expr_statements(stmt):
            # One pass for additive/comparison unit mixes (F004)...
            unit_of(expr, lookup, self._on_unit_mix)
            # ...and one walk for call sites.
            for node in ast.walk(expr):
                if isinstance(node, ast.Call):
                    self._record_call(node, env)

    # -- collection ----------------------------------------------------
    def _record_attr_write(self, target: ast.Attribute, env: dict) -> None:
        base_expr = target.value
        base: str | None = None
        if isinstance(base_expr, ast.Name):
            if base_expr.id == "self":
                base = "self"
            else:
                known = self._type_of(env, base_expr.id)
                base = f"type:{known}" if known else f"var:{base_expr.id}"
        elif (
            isinstance(base_expr, ast.Attribute)
            and isinstance(base_expr.value, ast.Name)
            and base_expr.value.id == "self"
        ):
            base = f"self.{base_expr.attr}"
        if base is not None:
            self.attr_writes.append(
                AttrWrite(lineno=target.lineno, base=base, attr=target.attr)
            )

    def _record_call(self, node: ast.Call, env: dict) -> None:
        kw_names = tuple(k.arg for k in node.keywords if k.arg)
        arg_units = self._call_arg_units(node, env)
        func = node.func
        dotted = _dotted(func)
        lineno = node.lineno
        n_args = len(node.args)

        if dotted is not None:
            head = dotted.split(".")[0]
            if head == "self":
                parts = dotted.split(".")
                if len(parts) == 2:
                    self.calls.append(
                        CallSite(lineno, "self_method", parts[1],
                                 n_args=n_args, kw_names=kw_names,
                                 arg_units=arg_units)
                    )
                elif len(parts) == 3:
                    self.calls.append(
                        CallSite(lineno, "self_attr_method", parts[2],
                                 extra=parts[1], n_args=n_args,
                                 kw_names=kw_names, arg_units=arg_units)
                    )
                else:
                    self.calls.append(
                        CallSite(lineno, "unknown_method", parts[-1],
                                 n_args=n_args, kw_names=kw_names,
                                 arg_units=arg_units)
                    )
            elif (
                "." in dotted
                and head not in self.imports.aliases
                and head not in self.imports.module_scope
            ):
                # Method call on a local variable or unknown base.
                parts = dotted.split(".")
                if len(parts) == 2:
                    self.calls.append(
                        CallSite(lineno, "var_method", parts[1], extra=head,
                                 n_args=n_args, kw_names=kw_names,
                                 arg_units=arg_units)
                    )
                else:
                    self.calls.append(
                        CallSite(lineno, "unknown_method", parts[-1],
                                 n_args=n_args, kw_names=kw_names,
                                 arg_units=arg_units)
                    )
            else:
                resolved = self.imports.resolve(dotted)
                self.calls.append(
                    CallSite(lineno, "global", resolved, n_args=n_args,
                             kw_names=kw_names, arg_units=arg_units)
                )
            self._check_numpy_temp(func, lineno)
        else:
            # Call on a complex expression: method name is still useful
            # for the bounded fallback resolution.
            if isinstance(func, ast.Attribute):
                self.calls.append(
                    CallSite(lineno, "unknown_method", func.attr,
                             n_args=n_args, kw_names=kw_names,
                             arg_units=arg_units)
                )

    def _check_numpy_temp(self, func: ast.expr, lineno: int) -> None:
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self._numpy_aliases
            and func.attr in _NUMPY_TEMPORARY_CALLS
        ):
            self.numpy_temps.append((lineno, func.attr))

    def _call_arg_units(
        self, node: ast.Call, env: dict
    ) -> tuple[tuple[str, str], ...]:
        lookup = self._unit_lookup(env)
        units: list[tuple[str, str]] = []
        for index, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                continue
            unit = unit_of(arg, lookup, self._on_unit_mix)
            if unit is not None:
                units.append((str(index), unit))
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            unit = unit_of(keyword.value, lookup, self._on_unit_mix)
            if unit is not None:
                units.append((f"kw:{keyword.arg}", unit))
        return tuple(units)

    # -- REPRO-F004 (module-local half) --------------------------------
    def _on_unit_mix(self, expr: ast.expr, left: str, right: str) -> None:
        self.unit_findings.append(
            Finding(
                path=self.path,
                line=expr.lineno,
                rule="REPRO-F004",
                severity=Severity.WARNING,
                message=f"additive mix of units {left!r} and {right!r} in "
                f"{self.qualname}; convert explicitly before adding",
            )
        )

    def _check_unit_assignment(
        self, stmt: ast.Assign | ast.AnnAssign, env: dict
    ) -> None:
        if isinstance(stmt, ast.Assign):
            targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
            value = stmt.value
        else:
            targets = [stmt.target] if isinstance(stmt.target, ast.Name) else []
            value = stmt.value
        if value is None or not targets:
            return
        value_unit = unit_of(value, self._unit_lookup(env))
        if value_unit is None:
            return
        for target in targets:
            target_unit = suffix_of(target.id)
            if target_unit is None or target_unit == value_unit:
                continue
            family_t = suffix_family(target_unit)
            family_v = suffix_family(value_unit)
            detail = (
                "different dimensions"
                if family_t != family_v
                else "same dimension, different scale (convert explicitly)"
            )
            self.unit_findings.append(
                Finding(
                    path=self.path,
                    line=stmt.lineno,
                    rule="REPRO-F004",
                    severity=Severity.WARNING,
                    message=f"assignment binds a {value_unit!r} value to "
                    f"{target.id!r} ({target_unit!r}) in {self.qualname}: "
                    f"{detail}",
                )
            )


# ----------------------------------------------------------------------
# Module extraction
# ----------------------------------------------------------------------
def _initial_env(
    node: ast.FunctionDef | ast.AsyncFunctionDef, imports: _ImportMap
) -> tuple[dict, tuple[tuple[str, str | None], ...]]:
    env: dict[str, tuple] = {}
    params: list[tuple[str, str | None]] = []
    args = node.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        primary = _primary_annotation(arg.annotation, imports)
        unit = suffix_of(arg.arg)
        params.append((arg.arg, primary))
        if primary or unit:
            env[arg.arg] = (primary, unit)
    return env, tuple(params)


def _run_function_pass(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    module: str,
    path: str,
    imports: _ImportMap,
    cls: str | None,
) -> tuple[FunctionFacts, list[Finding]]:
    local = f"{cls}.{node.name}" if cls else node.name
    qualname = f"{module}.{local}"
    analysis = _FunctionPass(module, path, imports, qualname, cls)
    env, params = _initial_env(node, imports)
    final_env = analysis.run(node, env)
    var_types = {
        name: entry[0] for name, entry in final_env.items() if entry and entry[0]
    }
    return FunctionFacts(
        qualname=qualname,
        name=node.name,
        lineno=node.lineno,
        cls=cls,
        params=params,
        calls=tuple(analysis.calls),
        numpy_temps=tuple(analysis.numpy_temps),
        attr_writes=tuple(analysis.attr_writes),
        raises=tuple(analysis.raises),
        var_types=var_types,
    ), analysis.unit_findings


def _is_frozen_dataclass_decorator(
    decorator: ast.expr, imports: _ImportMap
) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    dotted = _dotted(decorator.func)
    if dotted is None:
        return False
    resolved = imports.resolve(dotted)
    if resolved not in ("dataclasses.dataclass", "dataclass"):
        return False
    for keyword in decorator.keywords:
        if keyword.arg == "frozen":
            value = keyword.value
            return isinstance(value, ast.Constant) and value.value is True
    return False


def _unpicklable_value(expr: ast.expr, imports: _ImportMap) -> str | None:
    """Describe ``expr`` if binding it makes an object unpicklable."""
    if isinstance(expr, ast.Lambda):
        return "lambda"
    if isinstance(expr, ast.GeneratorExp):
        return "generator expression"
    if isinstance(expr, ast.Call):
        dotted = _dotted(expr.func)
        if dotted is not None:
            resolved = imports.resolve(dotted)
            if resolved in _UNPICKLABLE_CONSTRUCTORS:
                return _UNPICKLABLE_CONSTRUCTORS[resolved]
    return None


def _extract_class(
    node: ast.ClassDef,
    module: str,
    path: str,
    imports: _ImportMap,
) -> tuple[ClassFacts, dict[str, FunctionFacts], list[Finding]]:
    qualname = f"{module}.{node.name}"
    bases = tuple(
        imports.resolve(d)
        for d in (_dotted(b) for b in node.bases)
        if d is not None
    )
    frozen = any(
        _is_frozen_dataclass_decorator(dec, imports)
        for dec in node.decorator_list
    )
    fields: dict[str, tuple[str, ...]] = {}
    attr_types: dict[str, str] = {}
    unpicklable: list[tuple[int, str]] = []
    methods: list[str] = []
    functions: dict[str, FunctionFacts] = {}
    unit_findings: list[Finding] = []

    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            fields[stmt.target.id] = _annotation_refs(stmt.annotation, imports)
            primary = _primary_annotation(stmt.annotation, imports)
            if primary:
                attr_types[stmt.target.id] = primary
            if stmt.value is not None:
                kind = _unpicklable_value(stmt.value, imports)
                if kind is not None:
                    unpicklable.append(
                        (stmt.lineno, f"field default is a {kind}")
                    )
        elif isinstance(stmt, ast.Assign):
            kind = _unpicklable_value(stmt.value, imports)
            if kind is not None:
                unpicklable.append(
                    (stmt.lineno, f"class attribute bound to a {kind}")
                )
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.append(stmt.name)
            facts, fn_units = _run_function_pass(
                stmt, module, path, imports, node.name
            )
            functions[f"{node.name}.{stmt.name}"] = facts
            unit_findings.extend(fn_units)
            # self.attr = <value> assignments: member types + pickle bans.
            for body_stmt in ast.walk(stmt):
                if not isinstance(body_stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    body_stmt.targets
                    if isinstance(body_stmt, ast.Assign)
                    else [body_stmt.target]
                )
                value = body_stmt.value
                for target in targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    if value is not None:
                        kind = _unpicklable_value(value, imports)
                        if kind is not None:
                            unpicklable.append(
                                (
                                    body_stmt.lineno,
                                    f"self.{target.attr} bound to a {kind}",
                                )
                            )
                    attr_type = _self_attr_type(
                        body_stmt, target, stmt, imports, facts
                    )
                    if attr_type and target.attr not in attr_types:
                        attr_types[target.attr] = attr_type

    facts = ClassFacts(
        name=node.name,
        qualname=qualname,
        lineno=node.lineno,
        bases=bases,
        frozen_dataclass=frozen,
        fields=fields,
        attr_types=attr_types,
        methods=tuple(methods),
        unpicklable=tuple(unpicklable),
    )
    return facts, functions, unit_findings


def _self_attr_type(
    stmt: ast.Assign | ast.AnnAssign,
    target: ast.Attribute,
    method: ast.FunctionDef | ast.AsyncFunctionDef,
    imports: _ImportMap,
    method_facts: FunctionFacts,
) -> str | None:
    """Type of a ``self.attr = ...`` binding, if statically evident."""
    if isinstance(stmt, ast.AnnAssign):
        return _primary_annotation(stmt.annotation, imports)
    value = stmt.value
    if isinstance(value, ast.Call):
        dotted = _dotted(value.func)
        if dotted is not None:
            resolved = imports.resolve(dotted)
            if resolved.split(".")[-1][:1].isupper():
                return resolved
    if isinstance(value, ast.Name):
        # `self.x = x` in a method whose parameter x is annotated.
        for name, annotation in method_facts.params:
            if name == value.id and annotation:
                return annotation
    return None


def extract_module(
    source: str,
    path: str | Path,
    module: str | None = None,
) -> ModuleAnalysis:
    """Index one module's source into plain-data facts."""
    path_str = str(path).replace("\\", "/")
    if module is None:
        module = module_name_for_path(Path(path))
    digest = source_digest(source)
    suppressions, suppression_findings = collect_suppressions(source, path_str)
    try:
        tree = ast.parse(source, filename=path_str)
    except SyntaxError as exc:
        return ModuleAnalysis(
            module=module,
            path=path_str,
            content_hash=digest,
            suppressions=suppressions,
            suppression_findings=tuple(suppression_findings),
            parse_error=Finding(
                path=path_str,
                line=exc.lineno or 0,
                rule="REPRO-L000",
                severity=Severity.ERROR,
                message=f"syntax error: {exc.msg}",
            ),
        )

    imports = _ImportMap(module)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports.add_import(node)
        elif isinstance(node, ast.ImportFrom):
            imports.add_import_from(node)
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            imports.module_scope.add(stmt.name)

    classes: dict[str, ClassFacts] = {}
    functions: dict[str, FunctionFacts] = {}
    local_findings: list[Finding] = []

    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            class_facts, class_functions, unit_findings = _extract_class(
                stmt, module, path_str, imports
            )
            classes[stmt.name] = class_facts
            functions.update(class_functions)
            local_findings.extend(unit_findings)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts, unit_findings = _run_function_pass(
                stmt, module, path_str, imports, None
            )
            functions[stmt.name] = facts
            local_findings.extend(unit_findings)

    # Module-level statements (imports, constants, __main__ guards).
    # Top-level defs are indexed as their own scopes, not inlined.
    module_pass = _FunctionPass(
        module, path_str, imports, f"{module}.{MODULE_SCOPE}", None,
        inline_closures=False,
    )
    module_env = module_pass.run(tree)
    functions[MODULE_SCOPE] = FunctionFacts(
        qualname=f"{module}.{MODULE_SCOPE}",
        name=MODULE_SCOPE,
        lineno=1,
        cls=None,
        params=(),
        calls=tuple(module_pass.calls),
        numpy_temps=tuple(module_pass.numpy_temps),
        attr_writes=tuple(module_pass.attr_writes),
        raises=tuple(module_pass.raises),
        var_types={
            name: entry[0]
            for name, entry in module_env.items()
            if entry and entry[0]
        },
    )
    local_findings.extend(module_pass.unit_findings)

    return ModuleAnalysis(
        module=module,
        path=path_str,
        content_hash=digest,
        imports=dict(imports.aliases),
        classes=classes,
        functions=functions,
        local_findings=tuple(local_findings),
        suppressions=suppressions,
        suppression_findings=tuple(suppression_findings),
    )
