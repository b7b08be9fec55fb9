"""AST-based determinism linter: the per-line rule framework.

The linter exists because the experiment engine caches and memoizes
simulation results under the assumption that a run is a pure function
of its configuration.  Any nondeterminism — a raw :mod:`random` call,
a wall-clock read, iteration order leaking from a ``set`` into a
scheduling decision — silently breaks that contract and poisons every
cached figure downstream.

The framework is flake8-plugin shaped: each check is a :class:`Rule`
subclass registered with :func:`register`, declaring which AST node
types it wants to see.  One walk of each file's tree dispatches nodes
to the interested rules; rules report :class:`Finding` objects through
the shared :class:`FileContext`.

Suppression: a finding on line *N* is suppressed when line *N* carries
a ``# repro: allow(DETxxx)`` pragma naming its code.  Pragmas should
carry a trailing justification, e.g.::

    created = time.time()  # repro: allow(DET002) wall-clock provenance

Rules live in :mod:`repro.analysis.rules`; ``repro lint`` runs them in
the one whole-program pass (:func:`repro.analysis.dataflow.analyze_paths`).
See ``docs/static-analysis.md`` for the catalog and how to add one.
"""

from __future__ import annotations

import ast
import enum
import io
import re
import tokenize
from dataclasses import dataclass
from typing import Iterable


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings are near-certain reproducibility hazards;
    ``WARNING`` findings are heuristic (the pattern is dangerous in
    ordering-sensitive positions, which the AST alone cannot always
    prove).  Both fail ``repro lint`` unless suppressed.
    """

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One linter hit, pinned to a file location.

    Taint findings additionally carry ``trace`` — the source→sink path
    as ``(path, line, description)`` steps.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    severity: Severity
    trace: tuple[tuple[str, int, str], ...] = ()

    @property
    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def render(self) -> str:
        """Human-readable one-liner (``path:line:col: CODE message``)."""
        return (
            f"{self.path}:{self.line}:{self.col}: {self.code} "
            f"[{self.severity.value}] {self.message}"
        )

    def render_trace(self) -> list[str]:
        """Indented source→sink steps (empty for per-line findings)."""
        return [
            f"    {'->' if i else '  '} {path}:{line}: {text}"
            for i, (path, line, text) in enumerate(self.trace)
        ]


#: ``# repro: allow(DET001)`` or ``# repro: allow(DET001, FS003) why...``
#: Code families: DET (per-line determinism), TNT (taint source→sink),
#: FS (filesystem atomicity).
_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*allow\(\s*([A-Z]{2,4}\d{3}(?:\s*,\s*[A-Z]{2,4}\d{3})*)\s*\)"
)


def pragmas_for_source(source: str) -> dict[int, frozenset[str]]:
    """Map 1-based line numbers to the rule codes allowed on that line.

    Only genuine comments count: the source is tokenized so a pragma
    *example* inside a docstring neither suppresses anything nor trips
    the DET000 unused-pragma audit.  Tokenization failures (the file
    parsed, so these are exotic) fall back to a plain line scan.
    """
    allowed: dict[int, frozenset[str]] = {}

    def record(lineno: int, comment: str) -> None:
        # Anchored at the comment's own start: a comment *quoting* the
        # pragma syntax (like the one above this function) is not a
        # pragma.
        match = _PRAGMA_RE.match(comment)
        if match is not None:
            allowed[lineno] = frozenset(
                code.strip() for code in match.group(1).split(",")
            )

    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                record(tok.start[0], tok.string)
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        allowed.clear()
        for lineno, text in enumerate(source.splitlines(), start=1):
            hash_at = text.find("#")
            while hash_at != -1:
                record(lineno, text[hash_at:])
                if lineno in allowed:
                    break
                hash_at = text.find("#", hash_at + 1)
    return allowed


#: Meta-rule: a pragma that suppresses nothing (bug class: an
#: acceptance that outlives its hazard and would hide the next one on
#: that line).  Not in the registry (it has no AST check); emitted by
#: :func:`apply_pragmas` when a code a pragma names has run and matched
#: no finding on that line.
UNUSED_PRAGMA_CODE = "DET000"
UNUSED_PRAGMA_SUMMARY = (
    "unused suppression: pragma names code(s) that suppress nothing here"
)


def apply_pragmas(
    findings: Iterable[Finding],
    pragmas: dict[str, dict[int, frozenset[str]]],
    ran_codes: frozenset[str],
) -> list[Finding]:
    """Drop suppressed findings and add DET000 for stale pragmas; sorted.

    ``pragmas`` maps path -> line -> allowed codes.  A finding is
    suppressed by a pragma naming its code on its own line or, for a
    taint finding, on its sink line (the last trace step): the
    legitimate party differs case by case.  Pragma codes outside
    ``ran_codes`` are never reported unused, so a TNT suppression
    survives a DET-only :func:`lint_source`.
    """
    used: set[tuple[str, int, str]] = set()
    kept: list[Finding] = []
    for finding in findings:
        sites = [(finding.path, finding.line)]
        if finding.trace:
            sites.append((finding.trace[-1][0], finding.trace[-1][1]))
        for path, line in sites:
            if finding.code in pragmas.get(path, {}).get(line, frozenset()):
                used.add((path, line, finding.code))
                break
        else:
            kept.append(finding)
    for path, allowed in pragmas.items():
        for line in sorted(allowed):
            for code in sorted(allowed[line]):
                if code in ran_codes and (path, line, code) not in used:
                    kept.append(
                        Finding(
                            path=path,
                            line=line,
                            col=1,
                            code=UNUSED_PRAGMA_CODE,
                            message=(
                                f"unused suppression: {code} suppresses "
                                "nothing on this line"
                            ),
                            severity=Severity.WARNING,
                        )
                    )
    return sorted(kept, key=lambda finding: finding.sort_key)


def dotted_name(node: ast.AST) -> str | None:
    """Resolve a Name/Attribute chain to ``"a.b.c"`` (else None)."""
    parts: list[str] = []
    current: ast.AST = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


class FileContext:
    """Per-file state shared by every rule during one walk.

    Provides parent links (``parent``, ``ancestors``) and the
    ``report`` sink rules append findings to.
    """

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.findings: list[Finding] = []
        # Parent links are attached to the nodes themselves; an AST is
        # private to this walk, so decorating it is safe and avoids
        # keying a side table by object identity.
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                setattr(child, "_repro_parent", parent)

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of ``node`` (None for the module)."""
        parent = getattr(node, "_repro_parent", None)
        return parent if isinstance(parent, ast.AST) else None

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        """Walk from ``node``'s parent up to the module root."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def report(self, rule: "Rule", node: ast.AST, message: str | None = None) -> None:
        """Record a finding for ``rule`` at ``node``'s location."""
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code=rule.code,
                message=message if message is not None else rule.summary,
                severity=rule.severity,
            )
        )


class Rule:
    """Base class for determinism checks.

    Subclasses set the class attributes and implement :meth:`check`,
    which is called once for every node whose type appears in
    ``node_types``.  Register concrete rules with :func:`register` so
    the driver and the CLI can find them.
    """

    #: Unique rule identifier, e.g. ``"DET001"``.
    code: str = ""
    #: One-line description used as the default finding message.
    summary: str = ""
    severity: Severity = Severity.WARNING
    #: AST node types this rule wants to inspect.
    node_types: tuple[type, ...] = ()

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        raise NotImplementedError


_REGISTRY: list[type[Rule]] = []


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.code or not rule_cls.node_types:
        raise ValueError(
            f"rule {rule_cls.__name__} must define code and node_types"
        )
    if any(existing.code == rule_cls.code for existing in _REGISTRY):
        raise ValueError(f"duplicate rule code {rule_cls.code}")
    _REGISTRY.append(rule_cls)
    return rule_cls


def all_rules() -> list[type[Rule]]:
    """Every registered rule class, sorted by code."""
    # The import populates the registry on first use; rules live in a
    # separate module so the framework stays dependency-free.
    import repro.analysis.rules  # noqa: F401

    return sorted(_REGISTRY, key=lambda rule: rule.code)


def run_rules(tree: ast.Module, path: str) -> list[Finding]:
    """Every DET rule over one parsed file, before pragma filtering."""
    dispatch: dict[type, list[Rule]] = {}
    for rule_cls in all_rules():
        instance = rule_cls()
        for node_type in instance.node_types:
            dispatch.setdefault(node_type, []).append(instance)
    ctx = FileContext(path, tree)
    for node in ast.walk(tree):
        for instance in dispatch.get(type(node), ()):
            instance.check(node, ctx)
    return ctx.findings


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """The DET rules over one source string; unsuppressed findings, sorted.

    A pragma naming a DET code that suppressed nothing earns a
    :data:`DET000 <UNUSED_PRAGMA_CODE>` finding; TNT/FS codes are left
    alone (those rules need the whole program, see
    :func:`repro.analysis.dataflow.analyze_paths`).  Raises
    :class:`SyntaxError` if the source does not parse.
    """
    findings = run_rules(ast.parse(source, filename=path), path)
    ran_codes = frozenset(rule.code for rule in all_rules())
    return apply_pragmas(
        findings, {path: pragmas_for_source(source)}, ran_codes
    )
