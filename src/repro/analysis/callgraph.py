"""Whole-program module/class/call-graph index for ``repro lint``.

The per-statement linter (:mod:`repro.analysis.rules`) sees one AST at
a time; the dataflow pass (:mod:`repro.analysis.dataflow`) needs to
follow a value through ``helper()`` calls into other modules.  This
module provides the name-resolution substrate for that:

* :func:`module_qname` — map a file path to its dotted module name by
  walking up through ``__init__.py`` packages.
* :func:`import_map` — per-module mapping of local names to the
  qualified names they were imported as (handles ``import a.b``,
  ``from a import b as c``, and relative imports).
* :class:`ProgramIndex` — the union of every analyzed module: which
  qualified names are functions, which are classes (and their base
  classes), and :meth:`ProgramIndex.resolve_call`, which turns a call
  expression's dotted name as written (``helper``, ``mod.helper``,
  ``self.method``, ``ClassName``) into candidate function qnames.

Resolution is deliberately *syntactic*: there is no type inference, so
a call through an arbitrary object (``joblog.append(...)``) resolves to
nothing and the dataflow pass falls back to its conservative
assumption (tainted arguments taint the return value) plus the
name/receiver-based sink table in :mod:`repro.analysis.taint_rules`.
``self.method()`` and ``ClassName(...)`` calls *are* resolved, walking
syntactic base classes, which is what the repo's helper-and-wrapper
style actually needs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.linter import dotted_name


def module_qname(path: str | Path) -> str:
    """Dotted module name of ``path``, derived from package structure.

    Walks parent directories for as long as they contain an
    ``__init__.py``; a file outside any package is just its stem.
    """
    file_path = Path(path).resolve()
    if file_path.name == "__init__.py":
        parts: list[str] = []
        parent = file_path.parent
    else:
        parts = [file_path.stem]
        parent = file_path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        if parent.parent == parent:  # filesystem root
            break
        parent = parent.parent
    return ".".join(parts) if parts else file_path.stem


def import_map(tree: ast.Module, qname: str) -> dict[str, str]:
    """Map each imported local name to the qualified name it denotes.

    ``import a.b.c`` binds ``a`` -> ``a`` (attribute access spells the
    rest), ``import a.b.c as x`` binds ``x`` -> ``a.b.c``, and
    ``from a.b import c as d`` binds ``d`` -> ``a.b.c``.  Relative
    imports are resolved against ``qname``'s package.
    """
    mapping: dict[str, str] = {}
    package_parts = qname.split(".")[:-1] if qname else []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    mapping[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    mapping[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: climb level-1 packages above ours.
                base_parts = package_parts[: len(package_parts) - (node.level - 1)]
                base = ".".join(base_parts)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mapping[local] = f"{base}.{alias.name}" if base else alias.name
    return mapping


@dataclass
class ClassInfo:
    """One class definition: its methods and syntactic base classes."""

    qname: str
    bases: tuple[str, ...] = ()  # resolved-to-qname where possible
    methods: frozenset[str] = frozenset()


@dataclass
class ModuleInfo:
    """Name-resolution facts for one module."""

    qname: str
    path: str
    imports: dict[str, str] = field(default_factory=dict)
    #: Top-level function names defined in the module.
    functions: frozenset[str] = frozenset()
    #: Class name -> ClassInfo for classes defined in the module.
    classes: dict[str, ClassInfo] = field(default_factory=dict)


def index_module(tree: ast.Module, path: str | Path) -> ModuleInfo:
    """Build the :class:`ModuleInfo` for one parsed module."""
    qname = module_qname(path)
    imports = import_map(tree, qname)
    functions: set[str] = set()
    classes: dict[str, ClassInfo] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.add(node.name)
        elif isinstance(node, ast.ClassDef):
            methods = frozenset(
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
            bases: list[str] = []
            for base in node.bases:
                dotted = dotted_name(base)
                if dotted is None:
                    continue
                head, _, rest = dotted.partition(".")
                resolved = imports.get(head)
                if resolved is not None:
                    dotted = f"{resolved}.{rest}" if rest else resolved
                elif "." not in dotted:
                    # Same-module base class.
                    dotted = f"{qname}.{dotted}"
                bases.append(dotted)
            classes[node.name] = ClassInfo(
                qname=f"{qname}.{node.name}",
                bases=tuple(bases),
                methods=methods,
            )
    return ModuleInfo(
        qname=qname,
        path=str(path),
        imports=imports,
        functions=frozenset(functions),
        classes=classes,
    )


class ProgramIndex:
    """The union of every analyzed module's name-resolution facts."""

    def __init__(self, modules: list[ModuleInfo]) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: set[str] = set()
        for info in modules:
            self.modules[info.qname] = info
            for name in info.functions:
                self.functions.add(f"{info.qname}.{name}")
            for class_info in info.classes.values():
                self.classes[class_info.qname] = class_info
                for method in class_info.methods:
                    self.functions.add(f"{class_info.qname}.{method}")

    # ------------------------------------------------------------------

    def lookup_method(self, class_qname: str, method: str) -> str | None:
        """Find ``method`` on ``class_qname`` or a syntactic base class."""
        seen: set[str] = set()
        queue = [class_qname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if method in info.methods:
                return f"{current}.{method}"
            queue.extend(info.bases)
        return None

    def resolve_call(
        self,
        name: str,
        module: ModuleInfo,
        class_qname: str | None = None,
    ) -> tuple[str, ...]:
        """Candidate function qnames for a call spelled ``name``.

        Returns an empty tuple when the callee cannot be identified
        syntactically (a call through an arbitrary object); the
        dataflow pass then applies its conservative fallback.
        Constructor calls resolve to ``Class.__init__`` when defined,
        else to the bare class qname (still useful as a sink anchor).
        """
        parts = name.split(".")
        head = parts[0]
        if head in ("self", "cls") and class_qname is not None:
            if len(parts) == 2:
                resolved = self.lookup_method(class_qname, parts[1])
                return (resolved,) if resolved else ()
            return ()
        # Resolve the head through local definitions, then imports.
        if head in module.functions and len(parts) == 1:
            return (f"{module.qname}.{head}",)
        if head in module.classes:
            qualified = [module.classes[head].qname, *parts[1:]]
        elif head in module.imports:
            qualified = [module.imports[head], *parts[1:]]
        elif len(parts) == 1:
            return ()
        else:
            qualified = parts
        dotted = ".".join(qualified)
        if dotted in self.functions:
            return (dotted,)
        if dotted in self.classes:
            init = self.lookup_method(dotted, "__init__")
            return (init,) if init else (dotted,)
        # ``module_alias.func`` where the alias maps to a module qname.
        target_module = self.modules.get(".".join(qualified[:-1]))
        if target_module is not None:
            simple = qualified[-1]
            if simple in target_module.functions:
                return (f"{target_module.qname}.{simple}",)
            if simple in target_module.classes:
                class_qname_full = target_module.classes[simple].qname
                init = self.lookup_method(class_qname_full, "__init__")
                return (init,) if init else (class_qname_full,)
        # ``Class.method`` through an import of the class.
        if len(qualified) >= 2:
            class_part = ".".join(qualified[:-1])
            if class_part in self.classes:
                resolved = self.lookup_method(class_part, qualified[-1])
                return (resolved,) if resolved else ()
        return ()


__all__ = [
    "ClassInfo",
    "ModuleInfo",
    "ProgramIndex",
    "import_map",
    "index_module",
    "module_qname",
]
