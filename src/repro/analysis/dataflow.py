"""Interprocedural dataflow lint: call graph, escape analysis, purity.

The per-file AST rules (:mod:`repro.analysis.rules`) see one function at
a time; the hazards the inference fast path introduced are *paths*: an
arena buffer checked out in one function and returned to another, or an
``np.random`` draw buried three calls below a ``predict`` entry point.
This module adds the whole-program half of the safety story, sharing the
runtime ownership sanitizer's vocabulary (:mod:`repro.analysis.alias`):

- :func:`build_call_graph` — a best-effort static call graph over every
  function and method in the scanned tree.  Bare calls resolve through
  module scope and project imports, ``self.f()`` through the enclosing
  class (then project-unique method names), ``mod.f()`` through imported
  project modules.  Unresolvable call sites (foreign libraries, dynamic
  dispatch through untyped attributes) are dropped rather than guessed —
  the pass under-approximates reachability and never invents an edge.
- **Escape analysis** (``dataflow-arena-escape``) — taint-tracks every
  :meth:`BufferArena.get` checkout through local aliases, views, and
  subscripts, and reports any buffer that outlives its scope: returned,
  yielded, stored on ``self`` or a global, or smuggled out inside a
  ``Tensor``/container.  Arena scratch must die inside its kernel; the
  next checkout recycles the slot and corrupts whatever escaped.
- **Purity analysis** (``dataflow-impure-predict``) — computes the
  transitive call closure of every ``predict*`` / ``evaluate*`` entry
  point and reports global-RNG draws, ``backward()`` tape walks, and
  module-state writes reachable from it.  A serving path that mutates
  shared state works in a single-request test and corrupts forecasts the
  moment two requests share the model (ROADMAP: ``repro.serve``).

Findings reuse the lint :class:`~repro.analysis.lint.Finding` envelope
(so text/JSON/SARIF reporters and exit codes work unchanged), honour
inline ``# repro: noqa[rule-id]`` suppressions at the reported line, and
respect per-rule path allowlists from :class:`LintConfig`.  Run via
``python -m repro.cli lint --dataflow`` or :func:`dataflow_paths`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.lint import (
    Finding,
    LintConfig,
    _parse_file,
    default_config,
    iter_python_files,
    package_relative,
)
from repro.markers import inference_entry  # noqa: F401  (re-exported)

RULE_ARENA_ESCAPE = "dataflow-arena-escape"
RULE_IMPURE_PREDICT = "dataflow-impure-predict"

#: function-name prefixes that mark an inference-pure entry point
ENTRY_PREFIXES = ("predict", "evaluate")

#: decorator names that mark an inference-pure entry point explicitly —
#: the serving request path (``ForecastServer.submit`` and friends) is
#: not *named* ``predict*`` but must satisfy the same purity contract.
#: Decorator-marked entries are checked for global-RNG draws and
#: ``backward()`` tape walks; unlike name-matched entries they may write
#: their own bookkeeping state (queues, caches, counters) — serving
#: machinery is stateful by design, the *numeric* path must stay pure.
#: The decorator itself lives in :mod:`repro.markers`.
ENTRY_DECORATORS = frozenset({"inference_entry"})

#: purity facets (see :func:`analyze_purity`)
_ALL_FACETS = frozenset({"rng", "backward", "state"})
_NUMERIC_FACETS = frozenset({"rng", "backward"})

#: callee names the purity walk does not descend into: train()/eval()
#: toggle the (caller-restored) training flag by design, and __init__ runs
#: once at construction, not per request
PURE_BOUNDARY_METHODS = frozenset({"train", "eval", "__init__", "__post_init__"})

#: np.random attributes that are constructors/types, not global-state draws
#: (mirrors rules.NoGlobalRNG)
_RNG_ALLOWED = frozenset(
    {"Generator", "BitGenerator", "SeedSequence", "default_rng", "PCG64", "Philox", "MT19937"}
)

#: ndarray methods returning a view of the receiver — taint flows through
_VIEW_METHODS = frozenset({"reshape", "transpose", "swapaxes", "squeeze", "ravel", "view", "astype"})

#: constructors that wrap (alias) an array rather than copying it
_WRAPPERS = frozenset({"Tensor", "ensure_tensor", "asarray", "ascontiguousarray"})

#: method names owned by builtin containers/strings/files/ndarrays — the
#: unique-name fallback must not resolve these to a project function that
#: happens to share the name (``payload.update(...)`` is dict.update, not
#: EarlyStopping.update), or the purity walk invents reachability
_BUILTIN_METHODS = frozenset({
    "update", "get", "items", "keys", "values", "append", "extend", "insert",
    "pop", "popitem", "clear", "copy", "setdefault", "add", "remove",
    "discard", "sort", "reverse", "count", "index", "join", "split", "strip",
    "lstrip", "rstrip", "format", "startswith", "endswith", "replace",
    "encode", "decode", "read", "write", "close", "flush", "readline",
    "open", "put", "sum", "mean", "std", "max", "min", "all", "any",
    "astype", "reshape", "tolist", "item", "fill", "seek",
})


# ----------------------------------------------------------------------
# per-function facts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body.

    ``kind`` is how the callee was spelled: ``bare`` (``f()``), ``self``
    (``self.f()`` / ``cls.f()``), ``attr`` (``mod.f()`` — ``base`` holds
    the receiver name), or ``method`` (``obj.attr.f()`` — receiver type
    unknown, resolved only by a project-unique name).
    """

    kind: str
    name: str
    base: Optional[str]
    lineno: int


@dataclass
class FunctionInfo:
    """Everything the dataflow passes know about one function/method."""

    module: str
    class_name: Optional[str]
    name: str
    path: str
    rel_path: str
    lineno: int
    col: int
    decorators: Tuple[str, ...] = ()
    calls: List[CallSite] = field(default_factory=list)
    #: (lineno, col, "np.random.<fn>") global-RNG draws in this body
    rng_calls: List[Tuple[int, int, str]] = field(default_factory=list)
    #: (lineno, col) ``*.backward(...)`` calls in this body
    backward_calls: List[Tuple[int, int]] = field(default_factory=list)
    #: (lineno, col, attr) writes to ``self.<attr>`` in this body
    state_writes: List[Tuple[int, int, str]] = field(default_factory=list)

    @property
    def qualname(self) -> str:
        owner = f"{self.class_name}." if self.class_name else ""
        return f"{self.module}.{owner}{self.name}"

    @property
    def key(self) -> Tuple[str, Optional[str], str]:
        return (self.module, self.class_name, self.name)

    def is_entry(self) -> bool:
        return (
            self.name.lstrip("_").startswith(ENTRY_PREFIXES)
            or bool(ENTRY_DECORATORS.intersection(self.decorators))
        )

    def entry_facets(self) -> frozenset:
        """Which purity facets this entry point is checked for.

        Name-matched ``predict*``/``evaluate*`` entries get the full set
        (RNG, backward, module-state writes); decorator-marked serving
        entries get the numeric facets only — see :data:`ENTRY_DECORATORS`.
        """
        if self.name.lstrip("_").startswith(ENTRY_PREFIXES):
            return _ALL_FACETS
        return _NUMERIC_FACETS


class CallGraph:
    """Functions, classes, imports, and resolved call edges for one tree."""

    def __init__(self) -> None:
        #: (module, class_name|None, func_name) -> FunctionInfo
        self.functions: Dict[Tuple[str, Optional[str], str], FunctionInfo] = {}
        #: func name -> keys sharing that name (the unique-name fallback)
        self.by_name: Dict[str, List[Tuple[str, Optional[str], str]]] = {}
        #: module -> {local alias: fully qualified imported name}
        self.imports: Dict[str, Dict[str, str]] = {}
        #: (module, class_name) -> base-class expression names
        self.class_bases: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        #: module -> {line: suppressed rule ids or None (=all)}
        self.suppressions: Dict[str, Mapping[int, Optional[frozenset]]] = {}
        #: rel_path of every scanned module, keyed by module dotted name
        self.module_paths: Dict[str, Tuple[str, str]] = {}

    # ------------------------------------------------------------------
    def add_function(self, info: FunctionInfo) -> None:
        self.functions[info.key] = info
        self.by_name.setdefault(info.name, []).append(info.key)

    def resolve(self, caller: FunctionInfo, site: CallSite) -> Optional[FunctionInfo]:
        """The project function a call site targets, or None.

        Under-approximates: a site that cannot be pinned to exactly one
        in-tree function yields no edge (foreign call, ambiguous name).
        """
        if site.kind == "bare":
            local = self.functions.get((caller.module, None, site.name))
            if local is not None:
                return local
            target = self.imports.get(caller.module, {}).get(site.name)
            if target is not None:
                return self._by_qualified(target)
            return None
        if site.kind == "self":
            if caller.class_name is not None:
                found = self._method_in_class(caller.module, caller.class_name, site.name)
                if found is not None:
                    return found
            return self._fallback_by_name(site.name)
        if site.kind == "attr":
            assert site.base is not None
            target = self.imports.get(caller.module, {}).get(site.base)
            if target is not None:
                resolved = self._by_qualified(f"{target}.{site.name}")
                if resolved is not None:
                    return resolved
            # `arena.release()` style: base is a local object — fall through
            return self._fallback_by_name(site.name)
        return self._fallback_by_name(site.name)

    def edges(self, info: FunctionInfo) -> Iterable[Tuple[CallSite, "FunctionInfo"]]:
        for site in info.calls:
            target = self.resolve(info, site)
            if target is not None:
                yield site, target

    # ------------------------------------------------------------------
    def _method_in_class(
        self, module: str, class_name: str, func: str, _seen: Optional[Set] = None
    ) -> Optional[FunctionInfo]:
        """Resolve ``self.func`` in ``class_name``, walking project bases."""
        seen = _seen if _seen is not None else set()
        if (module, class_name) in seen:
            return None
        seen.add((module, class_name))
        found = self.functions.get((module, class_name, func))
        if found is not None:
            return found
        for base in self.class_bases.get((module, class_name), ()):
            base_module, base_class = module, base
            target = self.imports.get(module, {}).get(base)
            if target is not None and "." in target:
                base_module, base_class = target.rsplit(".", 1)
            resolved = self._method_in_class(base_module, base_class, func, seen)
            if resolved is not None:
                return resolved
        return None

    def _by_qualified(self, qualified: str) -> Optional[FunctionInfo]:
        """Resolve a dotted name: ``pkg.mod.func`` or ``pkg.mod.Class``(.__init__)."""
        if "." not in qualified:
            return None
        module, leaf = qualified.rsplit(".", 1)
        found = self.functions.get((module, None, leaf))
        if found is not None:
            return found
        # imported class: constructing it runs __init__
        found = self.functions.get((module, leaf, "__init__"))
        if found is not None:
            return found
        # re-export through a package __init__ (`from repro.training import
        # run_experiment`): fall back to a project-unique function name
        return self._unique_by_name(leaf)

    def _unique_by_name(self, name: str) -> Optional[FunctionInfo]:
        keys = self.by_name.get(name, ())
        if len(keys) == 1:
            return self.functions[keys[0]]
        return None

    def _fallback_by_name(self, name: str) -> Optional[FunctionInfo]:
        """Unique-name resolution for receivers of unknown type — refuses
        names that builtins own, so ``d.update()`` never grows an edge."""
        if name in _BUILTIN_METHODS:
            return None
        return self._unique_by_name(name)

    def suppressed(self, info_module: str, rule_id: str, line: int) -> bool:
        rules = self.suppressions.get(info_module, {}).get(line, False)
        if rules is False:
            return False
        return rules is None or rule_id in rules


# ----------------------------------------------------------------------
# index construction
# ----------------------------------------------------------------------
def _module_name(rel_path: str) -> str:
    """``core/model.py`` -> ``core.model``; ``nn/__init__.py`` -> ``nn``."""
    parts = rel_path[:-3].split("/") if rel_path.endswith(".py") else rel_path.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else "__root__"


def _strip_repro(qualified: str) -> str:
    """Project imports are spelled ``repro.x.y``; the index keys by ``x.y``."""
    if qualified == "repro":
        return ""
    if qualified.startswith("repro."):
        return qualified[len("repro."):]
    return qualified


def _decorator_name(node) -> Optional[str]:
    """The trailing identifier of a decorator expression.

    Handles ``@f``, ``@mod.f``, and both called forms (``@f(...)``);
    anything more dynamic yields None rather than a guess.
    """
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class _ModuleVisitor(ast.NodeVisitor):
    """One pass over a module collecting functions, facts, and imports."""

    def __init__(self, graph: CallGraph, module: str, path: str, rel_path: str) -> None:
        self.graph = graph
        self.module = module
        self.path = path
        self.rel_path = rel_path
        self._class_stack: List[str] = []
        self._func_stack: List[FunctionInfo] = []

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        table = self.graph.imports.setdefault(self.module, {})
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            table[local] = _strip_repro(target)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        # the tree uses absolute imports throughout; relative imports
        # (node.level > 0) are skipped rather than mis-anchored
        if node.module is None or node.level:
            return
        source = _strip_repro(node.module)
        table = self.graph.imports.setdefault(self.module, {})
        for alias in node.names:
            local = alias.asname or alias.name
            table[local] = f"{source}.{alias.name}" if source else alias.name

    # -- definitions ---------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = tuple(
            base.id for base in node.bases if isinstance(base, ast.Name)
        )
        self.graph.class_bases[(self.module, node.name)] = bases
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node) -> None:
        info = FunctionInfo(
            module=self.module,
            class_name=self._class_stack[-1] if self._class_stack else None,
            name=node.name,
            path=self.path,
            rel_path=self.rel_path,
            lineno=node.lineno,
            col=node.col_offset,
            decorators=tuple(
                name for name in (_decorator_name(dec) for dec in node.decorator_list)
                if name is not None
            ),
        )
        self.graph.add_function(info)
        self._func_stack.append(info)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- facts ---------------------------------------------------------
    @property
    def _current(self) -> Optional[FunctionInfo]:
        return self._func_stack[-1] if self._func_stack else None

    def visit_Call(self, node: ast.Call) -> None:
        info = self._current
        if info is not None:
            func = node.func
            if isinstance(func, ast.Name):
                info.calls.append(CallSite("bare", func.id, None, node.lineno))
            elif isinstance(func, ast.Attribute):
                rng = _global_rng_draw(func)
                if rng is not None:
                    info.rng_calls.append((node.lineno, node.col_offset, rng))
                elif func.attr == "backward":
                    info.backward_calls.append((node.lineno, node.col_offset))
                elif isinstance(func.value, ast.Name):
                    if func.value.id in ("self", "cls"):
                        info.calls.append(CallSite("self", func.attr, None, node.lineno))
                    else:
                        info.calls.append(
                            CallSite("attr", func.attr, func.value.id, node.lineno)
                        )
                else:
                    info.calls.append(CallSite("method", func.attr, None, node.lineno))
        self.generic_visit(node)

    def _record_state_write(self, target: ast.expr, node: ast.stmt) -> None:
        info = self._current
        if info is None:
            return
        if isinstance(target, (ast.Subscript, ast.Starred)):
            target = target.value
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id in ("self", "cls")
        ):
            info.state_writes.append((node.lineno, node.col_offset, target.attr))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Tuple):
                for element in target.elts:
                    self._record_state_write(element, node)
            else:
                self._record_state_write(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_state_write(node.target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_state_write(node.target, node)
        self.generic_visit(node)


def _global_rng_draw(func: ast.Attribute) -> Optional[str]:
    """``np.random.<draw>`` attribute, or None (mirrors rules.NoGlobalRNG)."""
    base = func.value
    if (
        isinstance(base, ast.Attribute)
        and base.attr == "random"
        and isinstance(base.value, ast.Name)
        and base.value.id in ("np", "numpy")
        and func.attr not in _RNG_ALLOWED
    ):
        return f"np.random.{func.attr}"
    return None


def build_call_graph(paths: Sequence[Path]) -> CallGraph:
    """Index every python file under ``paths`` into a :class:`CallGraph`."""
    graph = CallGraph()
    for file, scan_root in iter_python_files(paths):
        rel = package_relative(file, scan_root)
        parsed = _parse_file(file)
        if parsed.tree is None:
            continue  # lint_paths already reports parse errors
        module = _module_name(rel)
        graph.module_paths[module] = (str(file), rel)
        graph.suppressions[module] = parsed.suppressions
        _ModuleVisitor(graph, module, str(file), rel).visit(parsed.tree)
    return graph


# ----------------------------------------------------------------------
# escape analysis
# ----------------------------------------------------------------------
class _EscapeVisitor(ast.NodeVisitor):
    """Taint-tracks arena checkouts through one function body."""

    def __init__(self, func: ast.AST, path: str, rel_path: str, owner: str) -> None:
        self.path = path
        self.rel_path = rel_path
        self.owner = owner
        #: local name -> arena tag it aliases
        self.tainted: Dict[str, str] = {}
        #: names bound from get_arena() — receivers whose .get() taints
        self.arena_names: Set[str] = {"arena"}
        self.findings: List[Finding] = []
        self.func = func

    def run(self) -> List[Finding]:
        for stmt in ast.iter_child_nodes(self.func):
            self.visit(stmt)
        return self.findings

    # nested defs get their own _EscapeVisitor via analyze_escapes
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    # -- taint sources and propagation ---------------------------------
    def _checkout_tag(self, value: ast.expr) -> Optional[str]:
        """The arena tag when ``value`` is ``<arena>.get(...)``, else None."""
        if not (isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute)):
            return None
        func = value.func
        if func.attr != "get":
            return None
        receiver = func.value
        is_arena = (
            isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Name)
            and receiver.func.id == "get_arena"
        ) or (isinstance(receiver, ast.Name) and receiver.id in self.arena_names)
        if not is_arena:
            return None
        if value.args and isinstance(value.args[0], ast.Constant) and isinstance(value.args[0].value, str):
            return value.args[0].value
        return "<dynamic-tag>"

    def _taint_of(self, value: ast.expr) -> Optional[str]:
        """The arena tag ``value`` aliases, walking views and subscripts."""
        tag = self._checkout_tag(value)
        if tag is not None:
            return tag
        if isinstance(value, ast.Name):
            return self.tainted.get(value.id)
        if isinstance(value, ast.Subscript):
            return self._taint_of(value.value)
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
            if value.func.attr in _VIEW_METHODS:
                return self._taint_of(value.func.value)
        return None

    def _escaping_tag(self, value: Optional[ast.expr]) -> Optional[str]:
        """The arena tag ``value`` would leak if it left the function."""
        if value is None:
            return None
        tag = self._taint_of(value)
        if tag is not None:
            return tag
        if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            for element in value.elts:
                tag = self._escaping_tag(element)
                if tag is not None:
                    return tag
        if isinstance(value, ast.Dict):
            for element in value.values:
                tag = self._escaping_tag(element)
                if tag is not None:
                    return tag
        if isinstance(value, ast.Call):
            name = value.func.id if isinstance(value.func, ast.Name) else (
                value.func.attr if isinstance(value.func, ast.Attribute) else None
            )
            if name in _WRAPPERS:
                for arg in value.args:
                    tag = self._escaping_tag(arg)
                    if tag is not None:
                        return tag
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        # arena handle bookkeeping: `arena = get_arena()`
        if (
            isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "get_arena"
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.arena_names.add(target.id)
            return
        tag = self._taint_of(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if tag is not None:
                    self.tainted[target.id] = tag
                else:
                    self.tainted.pop(target.id, None)  # rebound to fresh data
            elif (
                tag is not None
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in ("self", "cls")
            ):
                self._report(
                    node, tag,
                    f"stored on {target.value.id}.{target.attr} — the attribute "
                    "outlives the checkout and reads recycled memory",
                )
        self.generic_visit(node.value)

    def visit_Return(self, node: ast.Return) -> None:
        tag = self._escaping_tag(node.value)
        if tag is not None:
            self._report(
                node, tag,
                "returned to the caller — the slot is recycled by the next "
                "checkout while the caller still holds the array",
            )
        self.generic_visit(node)

    def visit_Yield(self, node: ast.Yield) -> None:
        tag = self._escaping_tag(node.value)
        if tag is not None:
            self._report(node, tag, "yielded out of the owning kernel")
        self.generic_visit(node)

    def _report(self, node: ast.AST, tag: str, how: str) -> None:
        self.findings.append(
            Finding(
                self.path, node.lineno, node.col_offset, RULE_ARENA_ESCAPE,
                f"arena buffer '{tag}' escapes {self.owner}: {how}; arena "
                "scratch must die inside its kernel — allocate fresh memory "
                "for anything that outlives the call",
            )
        )


def analyze_escapes(graph: CallGraph) -> List[Finding]:
    """Run the per-function escape analysis over every indexed function."""
    findings: List[Finding] = []
    for info in graph.functions.values():
        parsed = _parse_file(Path(info.path))
        if parsed.tree is None:
            continue
        node = _find_def(parsed.tree, info)
        if node is None:
            continue
        findings.extend(
            _EscapeVisitor(node, info.path, info.rel_path, info.qualname).run()
        )
    return findings


def _find_def(tree: ast.AST, info: FunctionInfo):
    """Locate ``info``'s def node in the (cached) parsed tree by position."""
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == info.name
            and node.lineno == info.lineno
        ):
            return node
    return None


# ----------------------------------------------------------------------
# purity analysis
# ----------------------------------------------------------------------
def _closure(graph: CallGraph, entry: FunctionInfo) -> Dict[Tuple, List[str]]:
    """BFS reachability from ``entry``; value = call chain (qualnames)."""
    chains: Dict[Tuple, List[str]] = {entry.key: [entry.qualname]}
    queue = [entry]
    while queue:
        current = queue.pop(0)
        for site, target in graph.edges(current):
            if target.name in PURE_BOUNDARY_METHODS:
                continue
            if target.key in chains:
                continue
            chains[target.key] = chains[current.key] + [target.qualname]
            queue.append(target)
    return chains


def analyze_purity(graph: CallGraph) -> List[Finding]:
    """Report impurities reachable from every predict*/evaluate* entry.

    Each offending statement is reported once, attributed to the shortest
    entry chain that reaches it — the finding's location is the impure
    line itself, so an inline noqa there suppresses it for every entry.
    Decorator-marked entries (:data:`ENTRY_DECORATORS`) check the RNG and
    backward facets only; see :meth:`FunctionInfo.entry_facets`.
    """
    #: (path, line, facet, detail) -> (chain, Finding-builder args)
    seen: Dict[Tuple, Tuple[List[str], Finding]] = {}
    for entry in graph.functions.values():
        if not entry.is_entry():
            continue
        facets = entry.entry_facets()
        chains = _closure(graph, entry)
        for key, chain in chains.items():
            reached = graph.functions[key]
            for lineno, col, fn in reached.rng_calls:
                if "rng" not in facets:
                    continue
                _keep(seen, (reached.path, lineno, "rng", fn), chain, Finding(
                    reached.path, lineno, col, RULE_IMPURE_PREDICT,
                    f"{fn}() draws from global RNG state on the inference path "
                    f"{' -> '.join(chain)}; predict/evaluate must stay "
                    "reproducible — use repro.tensor.random",
                ))
            for lineno, col in reached.backward_calls:
                if "backward" not in facets:
                    continue
                _keep(seen, (reached.path, lineno, "backward", ""), chain, Finding(
                    reached.path, lineno, col, RULE_IMPURE_PREDICT,
                    f"backward() walks the autodiff tape on the inference path "
                    f"{' -> '.join(chain)}; predict/evaluate paths must be "
                    "tape-free (inference_mode)",
                ))
            for lineno, col, attr in reached.state_writes:
                if "state" not in facets or reached.name in PURE_BOUNDARY_METHODS:
                    continue
                _keep(seen, (reached.path, lineno, "state", attr), chain, Finding(
                    reached.path, lineno, col, RULE_IMPURE_PREDICT,
                    f"write to self.{attr} mutates module state on the "
                    f"inference path {' -> '.join(chain)}; concurrent requests "
                    "sharing this module would corrupt each other",
                ))
    return [finding for _, finding in seen.values()]


def _keep(seen: Dict, key: Tuple, chain: List[str], finding: Finding) -> None:
    held = seen.get(key)
    if held is None or len(chain) < len(held[0]):
        seen[key] = (chain, finding)


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def dataflow_paths(
    paths: Sequence[Path],
    config: Optional[LintConfig] = None,
    graph: Optional[CallGraph] = None,
) -> List[Finding]:
    """Run both interprocedural passes; mirrors :func:`lint_paths`.

    Honours ``# repro: noqa[dataflow-*]`` comments on the reported line
    and per-rule path allowlists from ``config``.
    """
    if config is None:
        config = default_config(paths)
    if graph is None:
        graph = build_call_graph([Path(p) for p in paths])
    rel_by_path = {path: rel for path, rel in graph.module_paths.values()}
    suppression_by_path = {
        graph.module_paths[module][0]: table
        for module, table in graph.suppressions.items()
    }
    findings: List[Finding] = []
    for finding in analyze_escapes(graph) + analyze_purity(graph):
        rel = rel_by_path.get(finding.path, finding.path)
        if config.allowed(finding.rule_id, rel):
            continue
        rules = suppression_by_path.get(finding.path, {}).get(finding.line, False)
        if rules is not False and (rules is None or finding.rule_id in rules):
            continue
        findings.append(finding)
    findings.sort()
    return findings
