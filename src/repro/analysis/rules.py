"""The per-line determinism rules (DET001–DET004, DET006–DET008).

Each rule targets a concrete way reproducibility has been lost in
cycle simulators (see the Ramulator 2.0 re-evaluation literature and
this repo's own history): results must be a pure function of the
configuration, so anything that lets process history, wall-clock time,
hash randomization, or memory layout leak into simulation behaviour is
flagged.  A rule stays only while it has evidence: a shipped bug, or a
one-line mutation of the tree that it flags and the goldens and chaos
suite miss (``docs/static-analysis.md`` lists each one;
``tests/analysis/test_self_clean.py`` replays them).

Rules are heuristic where the AST cannot prove intent (DET003, DET006,
DET007 carry ``WARNING`` severity); suppress deliberate uses with
``# repro: allow(DETxxx) <justification>`` on the flagged line.
"""

from __future__ import annotations

import ast

from repro.analysis.linter import (
    FileContext,
    Rule,
    Severity,
    dotted_name,
    register,
)

#: Files allowed to touch :mod:`random` directly: the sanctioned
#: seed-derivation plumbing everything else is supposed to go through.
_RNG_MODULE_SUFFIX = "repro/common/rng.py"


def _is_rng_module(ctx: FileContext) -> bool:
    return ctx.path.replace("\\", "/").endswith(_RNG_MODULE_SUFFIX)


@register
class RawRandomRule(Rule):
    """DET001: raw ``random`` use outside ``repro.common.rng``.

    Bug class: an unseeded or shared random stream.  Module-level :mod:`random` functions share one hidden global
    generator: any new caller (or import-order change) perturbs every
    stream drawn after it, and ``random.Random()`` with no seed is
    nondeterministic outright.  Derive streams with
    :func:`repro.common.rng.child_rng` instead.
    """

    code = "DET001"
    summary = (
        "raw 'random' use; derive streams from repro.common.rng instead"
    )
    severity = Severity.ERROR
    node_types = (ast.Import, ast.ImportFrom, ast.Call)

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if _is_rng_module(ctx):
            return
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    ctx.report(self, node)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                ctx.report(self, node)
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None and name.startswith("random."):
                ctx.report(self, node)


@register
class WallClockRule(Rule):
    """DET002: wall-clock reads (``time.time``, ``datetime.now``).

    Bug class: host time steering a decision that must replay.
    Timestamps differ between runs by construction.  Simulation logic
    must use the simulated clock (``EventQueue.now`` / core cycles);
    wall-clock reads are only legitimate in provenance/reporting code,
    where they should carry a pragma.
    """

    code = "DET002"
    summary = "wall-clock read in simulation code; use the simulated clock"
    severity = Severity.ERROR
    node_types = (ast.Call,)

    _CLOCK_CALLS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "datetime.now",
            "datetime.utcnow",
            "datetime.today",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
            "date.today",
        }
    )

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        if name in self._CLOCK_CALLS:
            ctx.report(self, node, f"wall-clock read '{name}()'")


def is_set_expression(node: ast.AST) -> bool:
    """Literal sets, set comprehensions, and ``set()``/``frozenset()``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@register
class UnorderedIterationRule(Rule):
    """DET003: iteration over a set expression.

    Bug class: hash-seed-dependent order reaching ordered output.  Set
    iteration order depends on insertion history and element
    hashes (strings hash differently per process unless
    ``PYTHONHASHSEED`` is pinned), so any downstream consumer that is
    ordering-sensitive — heap pushes, scheduler candidate lists,
    serialized output — becomes run-dependent.  Wrap the expression in
    ``sorted(...)`` or keep an ordered container.
    """

    code = "DET003"
    summary = "iteration over an unordered set; wrap in sorted(...)"
    severity = Severity.WARNING
    node_types = (ast.For, ast.comprehension)

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, (ast.For, ast.comprehension))
        if is_set_expression(node.iter):
            ctx.report(self, node.iter)


@register
class ModuleStateRule(Rule):
    """DET004: module-level mutable state.

    Bug class: process history leaking into a run.  Counters or containers living at module scope accumulate across
    simulations in one process, so a run's behaviour (request IDs,
    cache keys, trace contents) depends on what ran before it — the
    exact failure the per-system request-ID counter fix addressed.
    State must be owned by a per-run object.
    """

    code = "DET004"
    summary = "module-level mutable state; own it in a per-run object"
    severity = Severity.ERROR
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Assign)

    def _check_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, ctx: FileContext
    ) -> None:
        global_stmts = [
            stmt for stmt in ast.walk(node) if isinstance(stmt, ast.Global)
        ]
        if not global_stmts:
            return
        assigned: set[str] = set()
        for inner in ast.walk(node):
            if isinstance(inner, ast.Assign):
                for target in inner.targets:
                    if isinstance(target, ast.Name):
                        assigned.add(target.id)
            elif isinstance(inner, ast.AugAssign):
                if isinstance(inner.target, ast.Name):
                    assigned.add(inner.target.id)
        for stmt in global_stmts:
            mutated = [name for name in stmt.names if name in assigned]
            if mutated:
                ctx.report(
                    self,
                    stmt,
                    f"function '{node.name}' mutates module-level "
                    f"state: {', '.join(mutated)}",
                )

    def _check_assign(self, node: ast.Assign, ctx: FileContext) -> None:
        if not isinstance(ctx.parent(node), ast.Module):
            return
        if not isinstance(node.value, (ast.List, ast.Dict, ast.Set)):
            return
        for target in node.targets:
            # ALL_CAPS module-level containers are registry constants
            # by convention (populated at import, read-only after), and
            # dunders (__all__ & co.) are interpreter metadata; only
            # lowercase names are working state.
            if (
                isinstance(target, ast.Name)
                and not target.id.isupper()
                and not (
                    target.id.startswith("__") and target.id.endswith("__")
                )
            ):
                ctx.report(
                    self,
                    node,
                    f"module-level mutable '{target.id}'; "
                    "own it in a per-run object",
                )

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._check_function(node, ctx)
        elif isinstance(node, ast.Assign):
            self._check_assign(node, ctx)


@register
class UnsortedListingRule(Rule):
    """DET006: directory listing without ``sorted()``.

    Bug class: filesystem-dependent order reaching ordered output.
    ``os.listdir``/``glob`` order is filesystem-dependent (and differs
    between machines and runs); any consumer that iterates, merges, or
    serializes the entries inherits that order.
    """

    code = "DET006"
    summary = "unsorted directory listing; wrap in sorted(...)"
    severity = Severity.WARNING
    node_types = (ast.Call,)

    _FUNCTIONS = frozenset({"os.listdir", "os.scandir", "glob.glob", "glob.iglob"})
    _METHODS = frozenset({"glob", "iglob", "rglob", "iterdir"})

    def _is_listing(self, node: ast.Call, ctx: FileContext) -> bool:
        name = dotted_name(node.func)
        if name in self._FUNCTIONS:
            return True
        return (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in self._METHODS
        )

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.Call)
        if not self._is_listing(node, ctx):
            return
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.stmt):
                break
            if (
                isinstance(ancestor, ast.Call)
                and isinstance(ancestor.func, ast.Name)
                and ancestor.func.id == "sorted"
            ):
                return
        ctx.report(self, node)


@register
class FloatSetReductionRule(Rule):
    """DET007: ``sum()`` over a set expression.

    Bug class: a reduction over the wrong container.  A set silently
    drops equal values (two threads with the same IPC count once in a
    throughput), and for string-hashed elements its order — hence the
    low bits of a float total — varies between processes.  Sum the
    sequence itself, or sort first / use ``math.fsum``.
    """

    code = "DET007"
    summary = (
        "sum() over an unordered set; sort first or use math.fsum"
    )
    severity = Severity.WARNING
    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.Call)
        if not (isinstance(node.func, ast.Name) and node.func.id == "sum"):
            return
        if node.args and is_set_expression(node.args[0]):
            ctx.report(self, node)


@register
class IdOrderingRule(Rule):
    """DET008: ``id()``-derived keys or ordering.

    Bug class: memory layout leaking into output.  ``id()`` is a memory address: it differs between runs, so anything
    keyed, sorted, or serialized by it is irreproducible.  Give objects
    an explicit sequence number instead.
    """

    code = "DET008"
    summary = (
        "id()-derived key/ordering is address-dependent; "
        "use an explicit sequence number"
    )
    severity = Severity.ERROR
    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.Call)
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and len(node.args) == 1
        ):
            ctx.report(self, node)
