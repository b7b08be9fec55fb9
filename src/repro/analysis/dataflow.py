"""The one analysis behind ``repro lint``: DET, FS and TNT in one pass.

The per-line DET rules catch a ``time.time()`` *call*; they cannot see
that its value, three assignments and two helper calls later, lands in
a job-log record that ``--resume`` replays.  This module follows the
value, and runs every other rule family in the same pass.

Architecture (two phases):

1. **Extraction** (:func:`extract_module`) — parse one file and build a
   :class:`ModuleSummary`: the module's name-resolution facts
   (:mod:`repro.analysis.callgraph`), its pre-suppression per-line
   findings (DET rules via :func:`~repro.analysis.linter.run_rules`
   and FS rules via :mod:`repro.analysis.fs_rules`), and — the heart —
   one :class:`FnSummary` per function: every call site, plus *taint
   edges* recording how values flow between nondeterminism sources
   (:mod:`repro.analysis.taint_rules`), parameters, call results,
   ``self`` attributes, sinks, and the return value.
2. **Solving** (:class:`Program`) — resolve call names program-wide,
   then run a fixpoint over the summaries: which functions return
   tainted values, which parameters reach sinks (transitively), which
   class attributes carry taint across methods.  Every source→sink
   path becomes a :class:`~repro.analysis.linter.Finding` anchored at
   the *source* (where the nondeterminism is born — that is where the
   fix goes) whose ``trace`` walks assignment-by-assignment, call-by-
   call to the sink.

The analysis is deliberately conservative where it cannot resolve a
callee (no type inference): an unresolved call with a tainted argument
is assumed to return taint.  It is *not* sound — implicit flows
through branches, container element tracking, and closure captures are
out of scope — but it is sharp enough to catch the bug shapes this
repo has actually shipped (a process-global counter leaking into run
behaviour; wall-clock values reaching durable records; non-atomic
publishes into a shared store).

Suppression: a taint finding honors ``# repro: allow(TNTxxx)`` pragmas
on *either* end of the flow — the source line or the sink line — since
the legitimate party differs case by case.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis import fs_rules
from repro.analysis.callgraph import (
    ModuleInfo,
    ProgramIndex,
    index_module,
)
from repro.analysis.fs_rules import FS_RULES
from repro.analysis.linter import (
    Finding,
    all_rules,
    apply_pragmas,
    dotted_name,
    pragmas_for_source,
    run_rules,
)
from repro.analysis.rules import is_set_expression
from repro.analysis.taint_rules import (
    ORDER_KINDS,
    SANITIZERS,
    TNT_RULES,
    match_sink,
    match_source,
    severity_for,
)

#: Caps keeping pathological files from blowing up traces and routes.
_MAX_STEPS = 8
_MAX_SINK_PATHS = 3

# Atom shapes (hashable tuples):
#   ("src", kind, detail, line)   a concrete nondeterminism source
#   ("par", index)                the function's parameter
#   ("call", callsite_index)      the result of a call
#   ("attr", "mod.Class.attr")    a self-attribute of the class
Atom = tuple
Steps = tuple[tuple[int, str], ...]


def _short(node: ast.AST, limit: int = 60) -> str:
    text = ast.unparse(node)
    return text if len(text) <= limit else text[: limit - 3] + "..."


# ---------------------------------------------------------------------------
# summaries


@dataclass
class CallSiteRec:
    """One call expression inside a function."""

    index: int
    name: str  # dotted, as written
    line: int
    col: int
    is_attr: bool  # spelled with a receiver (``x.f(...)``)
    sink: str | None = None  # TNT code when the call is a sink
    sink_detail: str = ""


@dataclass
class FnSummary:
    """Dataflow facts for one function."""

    qname: str
    class_qname: str | None
    class_name: str | None
    params: list[str]
    line: int
    calls: list[CallSiteRec] = field(default_factory=list)
    #: edge-kind -> list of edges; see module docstring for shapes.
    edges: dict[str, list[tuple]] = field(default_factory=dict)

    def edge(self, kind: str, *payload) -> None:
        self.edges.setdefault(kind, []).append(payload)


@dataclass
class ModuleSummary:
    """Everything the solver needs to know about one file."""

    path: str
    info: ModuleInfo
    functions: list[FnSummary] = field(default_factory=list)
    #: Pre-suppression per-line findings (DET + FS) for this file.
    local_findings: list[Finding] = field(default_factory=list)
    #: line -> codes allowed by pragmas on that line.
    pragmas: dict[int, frozenset[str]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# extraction


class _FunctionExtractor:
    """One pass over a function body building its :class:`FnSummary`."""

    def __init__(
        self,
        summary: FnSummary,
        module_qname: str,
        class_body: bool = False,
    ) -> None:
        self.s = summary
        self.module_qname = module_qname
        #: Extracting a class body: bare-name assignments define class
        #: attributes, not locals.
        self.class_body = class_body
        #: variable name -> {atom: steps}
        self.env: dict[str, dict[Atom, Steps]] = {
            name: {("par", i): ()} for i, name in enumerate(summary.params)
        }

    # -- helpers -------------------------------------------------------

    def _merge(
        self, into: dict[Atom, Steps], atoms: dict[Atom, Steps]
    ) -> dict[Atom, Steps]:
        for atom, steps in atoms.items():
            into.setdefault(atom, steps)
        return into

    def _step(self, steps: Steps, line: int, text: str) -> Steps:
        if len(steps) >= _MAX_STEPS:
            return steps
        return steps + ((line, text),)

    def _emit_atom_edges(
        self,
        atoms: dict[Atom, Steps],
        target_kind: str,
        *target_payload,
        extra_step: tuple[int, str] | None = None,
    ) -> None:
        """Record ``atom -> target`` edges for every atom."""
        for atom, steps in atoms.items():
            if extra_step is not None:
                steps = self._step(steps, *extra_step)
            tag, *payload = atom
            # Edge keys: "<atomkind>_<targetkind>", e.g. "src_call".
            self.s.edge(
                f"{tag}_{target_kind}", tuple(payload), *target_payload, steps,
            )

    # -- expressions ---------------------------------------------------

    def eval(self, node: ast.AST | None) -> dict[Atom, Steps]:
        if node is None:
            return {}
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        # Generic: union of child expressions.
        atoms: dict[Atom, Steps] = {}
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._merge(atoms, self.eval(child))
        return atoms

    def _eval_Name(self, node: ast.Name) -> dict[Atom, Steps]:
        return dict(self.env.get(node.id, {}))

    def _eval_Constant(self, node: ast.Constant) -> dict[Atom, Steps]:
        return {}

    def _eval_Lambda(self, node: ast.Lambda) -> dict[Atom, Steps]:
        return {}

    def _eval_Attribute(self, node: ast.Attribute) -> dict[Atom, Steps]:
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.s.class_qname is not None
        ):
            local = dict(self.env.get(f"self.{node.attr}", {}))
            attr_key = f"{self.s.class_qname}.{node.attr}"
            local.setdefault(("attr", attr_key), ())
            return local
        return self.eval(node.value)

    def _eval_Subscript(self, node: ast.Subscript) -> dict[Atom, Steps]:
        container = dotted_name(node.value)
        if container in ("os.environ", "os.environb"):
            return {
                ("src", "environment", f"{container}[...]", node.lineno): ()
            }
        atoms = self.eval(node.value)
        return self._merge(atoms, self.eval(node.slice))

    def _comprehension(self, node) -> dict[Atom, Steps]:
        saved = {}
        for gen in node.generators:
            iter_atoms = self.eval(gen.iter)
            if is_set_expression(gen.iter):
                iter_atoms = dict(iter_atoms)
                iter_atoms[
                    ("src", "set-order", _short(gen.iter), gen.iter.lineno)
                ] = ()
            for name in self._target_names(gen.target):
                saved.setdefault(name, self.env.get(name))
                self.env[name] = dict(iter_atoms)
        if isinstance(node, ast.DictComp):
            atoms = self.eval(node.key)
            self._merge(atoms, self.eval(node.value))
        else:
            atoms = self.eval(node.elt)
        for name, old in saved.items():
            if old is None:
                self.env.pop(name, None)
            else:
                self.env[name] = old
        return atoms

    _eval_ListComp = _comprehension
    _eval_SetComp = _comprehension
    _eval_DictComp = _comprehension
    _eval_GeneratorExp = _comprehension

    def _eval_Call(self, node: ast.Call) -> dict[Atom, Steps]:
        dotted = dotted_name(node.func)
        if dotted is None:
            # Call through a computed expression: evaluate children and
            # conservatively propagate argument taint to the result.
            atoms: dict[Atom, Steps] = {}
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._merge(atoms, self.eval(child))
            return atoms
        kind = match_source(dotted)
        if kind is not None:
            # Evaluate arguments anyway (they may contain calls), but
            # the result is a fresh source.
            for arg in node.args:
                self.eval(arg)
            return {("src", kind, f"{dotted}()", node.lineno): ()}
        if dotted in SANITIZERS:
            merged: dict[Atom, Steps] = {}
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                self._merge(merged, self.eval(arg))
            return {
                atom: steps
                for atom, steps in merged.items()
                if not (atom[0] == "src" and atom[1] in ORDER_KINDS)
            }
        receiver = ""
        receiver_atoms: dict[Atom, Steps] = {}
        if isinstance(node.func, ast.Attribute):
            receiver = _short(node.func.value, 40)
            receiver_atoms = self.eval(node.func.value)
        cs = CallSiteRec(
            index=len(self.s.calls),
            name=dotted,
            line=node.lineno,
            col=node.col_offset,
            is_attr=isinstance(node.func, ast.Attribute),
        )
        sink = match_sink(dotted, receiver, self.s.class_name)
        if sink is not None:
            cs.sink = sink.code
            cs.sink_detail = f"{sink.what} via {dotted}(...)"
        self.s.calls.append(cs)
        for position, arg in enumerate(node.args):
            value = arg.value if isinstance(arg, ast.Starred) else arg
            atoms = self.eval(value)
            self._emit_atom_edges(
                atoms, "call", cs.index, position,
                extra_step=(node.lineno, f"argument {position} of {dotted}(...)"),
            )
        for kw in node.keywords:
            atoms = self.eval(kw.value)
            # ``field(default_factory=time.time)`` passes a *reference*
            # to a source; the factory runs at instantiation, so the
            # call result is deferred-tainted.
            if kw.arg == "default_factory":
                deferred = dotted_name(kw.value)
                deferred_kind = match_source(deferred)
                if deferred_kind is not None:
                    atoms = dict(atoms)
                    atoms[(
                        "src", deferred_kind,
                        f"{deferred} (deferred factory)", node.lineno,
                    )] = ()
            spec = kw.arg if kw.arg is not None else "**"
            self._emit_atom_edges(
                atoms, "call", cs.index, spec,
                extra_step=(
                    node.lineno,
                    f"argument {spec!r} of {dotted}(...)",
                ),
            )
        result: dict[Atom, Steps] = {("call", cs.index): ()}
        # A method called on a tainted object yields a tainted value
        # (``stamp_str.encode()``); harmless for untainted receivers.
        self._merge(result, receiver_atoms)
        return result

    # -- statements ----------------------------------------------------

    def _target_names(self, target: ast.AST) -> list[str]:
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, (ast.Tuple, ast.List)):
            names: list[str] = []
            for element in target.elts:
                names.extend(self._target_names(element))
            return names
        return []

    def _assign_to(self, target: ast.AST, atoms: dict[Atom, Steps], line: int) -> None:
        if isinstance(target, ast.Name):
            if self.class_body and self.s.class_qname is not None:
                attr_key = f"{self.s.class_qname}.{target.id}"
                self._emit_atom_edges(
                    atoms, "attr", attr_key,
                    extra_step=(line, f"class attribute {target.id} = ..."),
                )
                return
            stamped = {
                atom: self._step(steps, line, f"{target.id} = ...")
                for atom, steps in atoms.items()
            }
            self.env[target.id] = stamped
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign_to(element, atoms, line)
        elif isinstance(target, ast.Starred):
            self._assign_to(target.value, atoms, line)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self.s.class_qname is not None
        ):
            attr_key = f"{self.s.class_qname}.{target.attr}"
            self._emit_atom_edges(
                atoms, "attr", attr_key,
                extra_step=(line, f"self.{target.attr} = ..."),
            )
            self.env[f"self.{target.attr}"] = dict(atoms)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self.eval(target)

    def exec_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # analyzed as their own functions
        if isinstance(stmt, ast.Assign):
            atoms = self.eval(stmt.value)
            for target in stmt.targets:
                self._assign_to(target, atoms, stmt.lineno)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign_to(stmt.target, self.eval(stmt.value), stmt.lineno)
        elif isinstance(stmt, ast.AugAssign):
            atoms = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                merged = dict(self.env.get(stmt.target.id, {}))
                self._merge(merged, atoms)
                self.env[stmt.target.id] = merged
            else:
                self._assign_to(stmt.target, atoms, stmt.lineno)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                atoms = self.eval(stmt.value)
                self._emit_atom_edges(
                    atoms, "ret",
                    extra_step=(stmt.lineno, f"return {_short(stmt.value)}"),
                )
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, (ast.If,)):
            self.eval(stmt.test)
            self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
        elif isinstance(stmt, ast.For):
            iter_atoms = self.eval(stmt.iter)
            if is_set_expression(stmt.iter):
                iter_atoms = dict(iter_atoms)
                iter_atoms[
                    ("src", "set-order", _short(stmt.iter), stmt.iter.lineno)
                ] = ()
            # Two passes approximate loop-carried taint.
            for _ in range(2):
                self._assign_to(stmt.target, iter_atoms, stmt.lineno)
                self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            for _ in range(2):
                self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
        elif isinstance(stmt, ast.With) or isinstance(stmt, ast.AsyncWith):
            for item in stmt.items:
                atoms = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign_to(item.optional_vars, atoms, stmt.lineno)
            self.exec_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.exec_body(stmt.body)
            for handler in stmt.handlers:
                if handler.name:
                    self.env[handler.name] = {}
                self.exec_body(handler.body)
            self.exec_body(stmt.orelse)
            self.exec_body(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)
        # Import/Global/Nonlocal/Pass/Break/Continue: nothing to do.


def _nested_defs(
    body: list[ast.stmt],
) -> Iterable[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Functions defined in ``body`` at any block depth (``if``/``with``/
    ``try``...), without descending into them or into classes."""
    stack: list[ast.AST] = list(reversed(body))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif not isinstance(node, ast.ClassDef):
            stack.extend(reversed(list(ast.iter_child_nodes(node))))


def _iter_functions(
    tree: ast.Module, qname: str
) -> Iterable[
    tuple[str, str | None, str | None, list[ast.stmt], list[str], int, bool]
]:
    """Yield (qname, class_qname, class_name, body, params, line,
    is_class_body) units.

    Covers the module body (as pseudo-function ``<module>``), top-level
    functions, methods, class bodies (field defaults), and nested
    functions (qname-chained; nested functions are analyzed standalone
    — closure taint is out of scope).
    """
    yield f"{qname}.<module>", None, None, list(tree.body), [], 1, False

    def walk_fn(
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        prefix: str,
        class_qname: str | None,
        class_name: str | None,
    ):
        fn_qname = f"{prefix}.{node.name}"
        # Keyword-only args ride at the end: positional mapping never
        # reaches them in practice, and by-name mapping needs them.
        params = [a.arg for a in (
            node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        )]
        yield (
            fn_qname, class_qname, class_name, list(node.body), params,
            node.lineno, False,
        )
        for child in _nested_defs(node.body):
            yield from walk_fn(child, fn_qname, class_qname, class_name)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from walk_fn(node, qname, None, None)
        elif isinstance(node, ast.ClassDef):
            class_qname = f"{qname}.{node.name}"
            yield (
                f"{class_qname}.<class>", class_qname, node.name,
                list(node.body), [], node.lineno, True,
            )
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from walk_fn(item, class_qname, class_qname, node.name)


def extract_module(source: str, path: str | Path) -> ModuleSummary:
    """Phase 1: parse one file into its :class:`ModuleSummary`.

    Raises :class:`SyntaxError` when the source does not parse.
    """
    path_str = str(path)
    tree = ast.parse(source, filename=path_str)
    info = index_module(tree, path_str)
    summary = ModuleSummary(
        path=path_str,
        info=info,
        pragmas=pragmas_for_source(source),
    )
    summary.local_findings.extend(run_rules(tree, path_str))
    for (
        fn_qname, class_qname, class_name, body, params, line, is_class_body
    ) in _iter_functions(tree, info.qname):
        summary.local_findings.extend(
            fs_rules.check_function(body, path_str)
        )
        fn = FnSummary(
            qname=fn_qname,
            class_qname=class_qname,
            class_name=class_name,
            params=params,
            line=line,
        )
        _FunctionExtractor(fn, info.qname, class_body=is_class_body).exec_body(body)
        summary.functions.append(fn)
    return summary


# ---------------------------------------------------------------------------
# solving


#: A trace: (root, steps) where root = (path, line, detail) and each
#: step = (path, line, text).
Trace = tuple[tuple[str, int, str], tuple[tuple[str, int, str], ...]]


def _cap_steps(steps: tuple) -> tuple:
    return steps if len(steps) <= 2 * _MAX_STEPS else steps[: 2 * _MAX_STEPS]


@dataclass(frozen=True)
class _SinkPath:
    """A (transitive) route from a function parameter to a sink."""

    code: str
    detail: str
    path: str
    line: int
    steps: tuple


class Program:
    """Phase 2: the cross-module fixpoint over extracted summaries."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.summaries = list(summaries)
        self.index = ProgramIndex([s.info for s in summaries])
        self.functions: dict[str, FnSummary] = {}
        self.fn_path: dict[str, str] = {}
        self.fn_module: dict[str, ModuleInfo] = {}
        for summary in summaries:
            for fn in summary.functions:
                self.functions[fn.qname] = fn
                self.fn_path[fn.qname] = summary.path
                self.fn_module[fn.qname] = summary.info
        #: (fn_qname, callsite_index) -> resolved candidate qnames.
        self.resolved: dict[tuple[str, int], tuple[str, ...]] = {}
        for fn in self.functions.values():
            module = self.fn_module[fn.qname]
            for cs in fn.calls:
                candidates = self.index.resolve_call(
                    cs.name, module, fn.class_qname
                )
                self.resolved[(fn.qname, cs.index)] = tuple(
                    c for c in candidates if c in self.functions
                )
        # Fixpoint state.
        self.ret_kinds: dict[str, dict[str, Trace]] = {}
        self.call_kinds: dict[tuple[str, int], dict[str, Trace]] = {}
        self.attr_kinds: dict[str, dict[str, Trace]] = {}
        self.par_ret: dict[str, dict[int, tuple]] = {}
        self.par_sink: dict[tuple[str, int], list[_SinkPath]] = {}
        self.attr_sink: dict[str, list[_SinkPath]] = {}

    # -- step/trace plumbing -------------------------------------------

    def _steps(self, fn: str, raw: Steps) -> tuple:
        path = self.fn_path[fn]
        return tuple((path, line, text) for line, text in raw)

    def _src_root(self, fn: str, payload: tuple) -> tuple[str, int, str]:
        kind, detail, line = payload
        return (self.fn_path[fn], line, f"{kind} {detail}")

    def _param_index(self, cand: str, cs: CallSiteRec, arg) -> int | None:
        callee = self.functions.get(cand)
        if callee is None:
            return None
        if isinstance(arg, str):
            if arg == "**":
                return None
            return callee.params.index(arg) if arg in callee.params else None
        offset = 0
        if callee.params and callee.params[0] in ("self", "cls"):
            if cs.is_attr or cand.endswith(".__init__"):
                offset = 1
        position = arg + offset
        return position if position < len(callee.params) else None

    # -- fixpoint ------------------------------------------------------

    def solve(self) -> list[Finding]:
        for _ in range(30):
            changed = False
            for fn_qname in sorted(self.functions):
                changed |= self._update_fn(fn_qname)
            if not changed:
                break
        return self._emit()

    def _add_kinds(
        self, into: dict[str, Trace], kinds: dict[str, Trace]
    ) -> bool:
        changed = False
        for kind, trace in kinds.items():
            if kind not in into:
                into[kind] = trace
                changed = True
        return changed

    def _incoming(self, fn: FnSummary) -> dict[int, list[tuple[str, Trace, object]]]:
        """Per-callsite concrete taint arriving at each argument."""
        arriving: dict[int, list[tuple[str, Trace, object]]] = {}
        for payload, cs_i, arg, steps in fn.edges.get("src_call", ()):
            root = self._src_root(fn.qname, payload)
            trace: Trace = (root, self._steps(fn.qname, steps))
            arriving.setdefault(cs_i, []).append(
                (payload[0], trace, arg)
            )
        for payload, cs_i, arg, steps in fn.edges.get("call_call", ()):
            from_cs = payload[0]
            for kind, (root, s0) in self.call_kinds.get(
                (fn.qname, from_cs), {}
            ).items():
                trace = (root, _cap_steps(s0 + self._steps(fn.qname, steps)))
                arriving.setdefault(cs_i, []).append((kind, trace, arg))
        for payload, cs_i, arg, steps in fn.edges.get("attr_call", ()):
            attr = payload[0]
            for kind, (root, s0) in self.attr_kinds.get(attr, {}).items():
                trace = (root, _cap_steps(s0 + self._steps(fn.qname, steps)))
                arriving.setdefault(cs_i, []).append((kind, trace, arg))
        return arriving

    def _update_fn(self, fn_qname: str) -> bool:
        fn = self.functions[fn_qname]
        changed = False
        arriving = self._incoming(fn)

        # 1. call_kinds: what each call's *result* may carry.
        for cs in fn.calls:
            key = (fn_qname, cs.index)
            current = self.call_kinds.setdefault(key, {})
            candidates = self.resolved.get(key, ())
            incoming = arriving.get(cs.index, [])
            if not candidates:
                # Unresolved callee: assume arguments taint the result.
                for kind, trace, _arg in incoming:
                    changed |= self._add_kinds(current, {kind: trace})
                continue
            for cand in candidates:
                bridge = (
                    self.fn_path[fn_qname], cs.line,
                    f"{cs.name}(...) returns it",
                )
                for kind, (root, steps) in self.ret_kinds.get(cand, {}).items():
                    changed |= self._add_kinds(
                        current,
                        {kind: (root, _cap_steps(steps + (bridge,)))},
                    )
                for kind, trace, arg in incoming:
                    pi = self._param_index(cand, cs, arg)
                    if pi is not None and pi in self.par_ret.get(cand, {}):
                        root, steps = trace
                        through = self.par_ret[cand][pi]
                        changed |= self._add_kinds(
                            current,
                            {kind: (root, _cap_steps(steps + through))},
                        )

        # 2. ret_kinds.
        current_ret = self.ret_kinds.setdefault(fn_qname, {})
        for payload, steps in fn.edges.get("src_ret", ()):
            root = self._src_root(fn_qname, payload)
            changed |= self._add_kinds(
                current_ret,
                {payload[0]: (root, self._steps(fn_qname, steps))},
            )
        for payload, steps in fn.edges.get("call_ret", ()):
            cs_i = payload[0]
            for kind, (root, s0) in self.call_kinds.get(
                (fn_qname, cs_i), {}
            ).items():
                changed |= self._add_kinds(
                    current_ret,
                    {kind: (root, _cap_steps(s0 + self._steps(fn_qname, steps)))},
                )
        for payload, steps in fn.edges.get("attr_ret", ()):
            for kind, (root, s0) in self.attr_kinds.get(payload[0], {}).items():
                changed |= self._add_kinds(
                    current_ret,
                    {kind: (root, _cap_steps(s0 + self._steps(fn_qname, steps)))},
                )

        # 3. par_ret: which parameters flow to the return value.
        current_par = self.par_ret.setdefault(fn_qname, {})
        for payload, steps in fn.edges.get("par_ret", ()):
            i = payload[0]
            if i not in current_par:
                current_par[i] = self._steps(fn_qname, steps)
                changed = True
        has_call_ret = {
            payload[0]: steps
            for payload, steps in fn.edges.get("call_ret", ())
        }
        for payload, cs_i, arg, steps in fn.edges.get("par_call", ()):
            cs_i = cs_i
            if cs_i not in has_call_ret:
                continue
            i = payload[0]
            if i in current_par:
                continue
            cs = fn.calls[cs_i]
            candidates = self.resolved.get((fn_qname, cs_i), ())
            passes = not candidates  # unresolved: args taint the result
            for cand in candidates:
                pi = self._param_index(cand, cs, arg)
                if pi is not None and pi in self.par_ret.get(cand, {}):
                    passes = True
                    break
            if passes:
                current_par[i] = _cap_steps(
                    self._steps(fn_qname, steps)
                    + self._steps(fn_qname, has_call_ret[cs_i])
                )
                changed = True

        # 4. attr_kinds.
        for payload, attr, steps in fn.edges.get("src_attr", ()):
            root = self._src_root(fn_qname, payload)
            current_attr = self.attr_kinds.setdefault(attr, {})
            changed |= self._add_kinds(
                current_attr,
                {payload[0]: (root, self._steps(fn_qname, steps))},
            )
        for payload, attr, steps in fn.edges.get("call_attr", ()):
            cs_i = payload[0]
            current_attr = self.attr_kinds.setdefault(attr, {})
            for kind, (root, s0) in self.call_kinds.get(
                (fn_qname, cs_i), {}
            ).items():
                changed |= self._add_kinds(
                    current_attr,
                    {kind: (root, _cap_steps(s0 + self._steps(fn_qname, steps)))},
                )

        # 5. par_sink / attr_sink: parameters and attributes that reach
        # a sink (transitively).
        changed |= self._update_sink_routes(fn)
        return changed

    def _add_sink_path(
        self, store: list[_SinkPath], entry: _SinkPath
    ) -> bool:
        if len(store) >= _MAX_SINK_PATHS:
            return False
        if any(
            e.code == entry.code and e.path == entry.path and e.line == entry.line
            for e in store
        ):
            return False
        store.append(entry)
        return True

    def _routes_for(
        self, fn: FnSummary, cs_i: int, arg, steps: tuple
    ) -> list[_SinkPath]:
        """Sink routes reachable by feeding argument ``arg`` of call ``cs_i``."""
        routes: list[_SinkPath] = []
        cs = fn.calls[cs_i]
        if cs.sink is not None:
            routes.append(
                _SinkPath(
                    code=cs.sink,
                    detail=cs.sink_detail,
                    path=self.fn_path[fn.qname],
                    line=cs.line,
                    steps=steps,
                )
            )
        for cand in self.resolved.get((fn.qname, cs_i), ()):
            pi = self._param_index(cand, cs, arg)
            if pi is None:
                continue
            for route in self.par_sink.get((cand, pi), ()):
                routes.append(
                    _SinkPath(
                        code=route.code,
                        detail=route.detail,
                        path=route.path,
                        line=route.line,
                        steps=_cap_steps(steps + route.steps),
                    )
                )
        return routes

    def _update_sink_routes(self, fn: FnSummary) -> bool:
        changed = False
        for payload, cs_i, arg, steps in fn.edges.get("par_call", ()):
            i = payload[0]
            store = self.par_sink.setdefault((fn.qname, i), [])
            for route in self._routes_for(
                fn, cs_i, arg, self._steps(fn.qname, steps)
            ):
                changed |= self._add_sink_path(store, route)
        for payload, attr, steps in fn.edges.get("par_attr", ()):
            i = payload[0]
            store = self.par_sink.setdefault((fn.qname, i), [])
            for route in self.attr_sink.get(attr, ()):
                changed |= self._add_sink_path(
                    store,
                    _SinkPath(
                        code=route.code, detail=route.detail,
                        path=route.path, line=route.line,
                        steps=_cap_steps(
                            self._steps(fn.qname, steps) + route.steps
                        ),
                    ),
                )
        for payload, cs_i, arg, steps in fn.edges.get("attr_call", ()):
            attr = payload[0]
            store_attr = self.attr_sink.setdefault(attr, [])
            for route in self._routes_for(
                fn, cs_i, arg, self._steps(fn.qname, steps)
            ):
                changed |= self._add_sink_path(store_attr, route)
        return changed

    # -- emission ------------------------------------------------------

    def _emit(self) -> list[Finding]:
        findings: list[Finding] = []
        seen: set[tuple] = set()

        def report(
            kind: str, trace: Trace, route: _SinkPath
        ) -> None:
            root, steps = trace
            key = (root[0], root[1], kind, route.code, route.path, route.line)
            if key in seen:
                return
            seen.add(key)
            summary, _ = TNT_RULES[route.code]
            sink_at = f"{route.path}:{route.line}"
            message = (
                f"{summary}: {root[2]} reaches {route.detail} "
                f"at {sink_at}"
            )
            full_trace = (
                (root,)
                + tuple(steps)
                + tuple(route.steps)
                + ((route.path, route.line, route.detail),)
            )
            findings.append(
                Finding(
                    path=root[0],
                    line=root[1],
                    col=1,
                    code=route.code,
                    message=message,
                    severity=severity_for(route.code, kind),
                    trace=full_trace,
                )
            )

        for fn_qname in sorted(self.functions):
            fn = self.functions[fn_qname]
            for payload, cs_i, arg, steps in fn.edges.get("src_call", ()):
                root = self._src_root(fn_qname, payload)
                trace: Trace = (root, self._steps(fn_qname, steps))
                for route in self._routes_for(
                    fn, cs_i, arg, ()
                ):
                    report(payload[0], trace, route)
            for payload, cs_i, arg, steps in fn.edges.get("call_call", ()):
                from_cs = payload[0]
                kinds = self.call_kinds.get((fn_qname, from_cs), {})
                local_steps = self._steps(fn_qname, steps)
                for kind, (root, s0) in kinds.items():
                    for route in self._routes_for(fn, cs_i, arg, ()):
                        report(
                            kind,
                            (root, _cap_steps(s0 + local_steps)),
                            route,
                        )
            for payload, cs_i, arg, steps in fn.edges.get("attr_call", ()):
                attr = payload[0]
                kinds = self.attr_kinds.get(attr, {})
                local_steps = self._steps(fn_qname, steps)
                for kind, (root, s0) in kinds.items():
                    for route in self._routes_for(fn, cs_i, arg, ()):
                        report(
                            kind,
                            (root, _cap_steps(s0 + local_steps)),
                            route,
                        )
            for payload, attr, steps in fn.edges.get("src_attr", ()):
                root = self._src_root(fn_qname, payload)
                local_steps = self._steps(fn_qname, steps)
                for route in self.attr_sink.get(attr, ()):
                    report(payload[0], (root, local_steps), route)
            for payload, attr, steps in fn.edges.get("call_attr", ()):
                cs_i = payload[0]
                kinds = self.call_kinds.get((fn_qname, cs_i), {})
                local_steps = self._steps(fn_qname, steps)
                for kind, (root, s0) in kinds.items():
                    for route in self.attr_sink.get(attr, ()):
                        report(kind, (root, _cap_steps(s0 + local_steps)), route)
        return findings


# ---------------------------------------------------------------------------
# driver


@dataclass
class Report:
    """Outcome of one ``repro lint`` run."""

    findings: list[Finding]
    #: Paths that could not be analyzed ("path: reason") — missing,
    #: unreadable or syntactically invalid.  Any entry is a hard failure.
    errors: list[str]
    files_checked: int

    @property
    def ok(self) -> bool:
        return not self.findings and not self.errors


def rule_codes() -> frozenset[str]:
    """Every rule code the pass runs (DET000 bookkeeping, --list-rules)."""
    return frozenset(
        [rule.code for rule in all_rules()] + list(TNT_RULES) + list(FS_RULES)
    )


def _python_files(paths: Iterable[str | Path]) -> tuple[list[Path], list[str]]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: list[Path] = []
    errors: list[str] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            errors.append(f"{path}: no such file or directory")
    return files, errors


def analyze_paths(paths: Iterable[str | Path]) -> Report:
    """Run every rule over files and directory trees, as one program."""
    files, errors = _python_files(paths)
    summaries: list[ModuleSummary] = []
    for file_path in files:
        try:
            source = file_path.read_text(encoding="utf-8")
            summaries.append(extract_module(source, file_path))
        except SyntaxError as exc:
            errors.append(f"{file_path}: {exc.msg} (line {exc.lineno})")
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8
            errors.append(f"{file_path}: {exc}")

    findings = Program(summaries).solve()
    for summary in summaries:
        findings.extend(summary.local_findings)
    pragmas = {summary.path: summary.pragmas for summary in summaries}
    return Report(
        findings=apply_pragmas(findings, pragmas, rule_codes()),
        errors=errors,
        files_checked=len(files),
    )


__all__ = [
    "FnSummary",
    "ModuleSummary",
    "Program",
    "Report",
    "analyze_paths",
    "extract_module",
    "rule_codes",
]
