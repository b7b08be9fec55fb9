"""Filesystem-atomicity rules (FS001–FS004).

These target the bug class fixed by hand in the cache-dir publish race:
code that writes results, journals, or indexes into a *shared*
directory (multiple runners, a scheduler next to API workers, a crash
mid-write) must stage to a private temp file, fsync it, and atomically
``os.replace``/``os.link`` it into place.  Each rule flags one way that
discipline decays:

* **FS001** — torn publish: a write opened directly on a final shared
  path with no ``os.replace``/``os.link``/``publish*`` in the same
  function, so a reader (or a crash) can observe a torn or empty
  entry.  Half of the shipped cache-dir publish race.
* **FS002** — unsynced rename: ``os.replace`` of a file this function
  wrote without an ``os.fsync`` first, so a crash can surface the
  rename but not the data, publishing a zero-length "valid" entry.
  Shipped twice (the client's server info and the run manifest).
* **FS003** — check-then-act: ``exists()`` followed by ``open()`` of
  the same shared path with no atomic installer in the function.
  Functions that *do* link/replace are exempt (their ``exists()`` is
  an advisory fast path; the link is the real arbiter).  The other
  half of the publish race.
* **FS004** — colliding staging file: a temp file in a shared
  directory whose name carries no uniquifier (pid/thread/uuid/
  ``mkstemp``) and isn't opened with an exclusive ``"x"`` mode, so two
  writers stage to the same file and interleave.

All four are *function-scoped* heuristics over the AST, with one level
of variable expansion (``path = self.cache_dir / name`` then
``open(path, "w")`` is matched through ``path``).  "Shared" is spelled
by name: an expression mentions a store/cache/journal/quarantine
directory.  That trades recall for precision — an ordinary CSV export
never matches — and the deliberate exceptions that remain (an
append-only single-writer journal, say) carry ``# repro: allow(FSxxx)``
pragmas with their justification.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

from repro.analysis.linter import Finding, Severity, dotted_name

#: FS rule codes -> (summary, severity).
FS_RULES: dict[str, tuple[str, Severity]] = {
    "FS001": (
        "non-atomic write to a shared path; stage to a temp file and "
        "os.replace()/os.link() it into place",
        Severity.ERROR,
    ),
    "FS002": (
        "os.replace of a written file without fsync; a crash can publish "
        "the rename but not the data",
        Severity.ERROR,
    ),
    "FS003": (
        "exists()-then-open() on a shared path is a check-then-act race",
        Severity.WARNING,
    ),
    "FS004": (
        "shared-directory temp file without an exclusive or uniquified "
        "name; racing writers can interleave",
        Severity.WARNING,
    ),
}

#: Substrings that mark a path expression as living in a directory
#: shared between processes/threads of this system.
SHARED_HINTS = (
    "cache_dir",
    "store",
    "journal",
    "quarantine",
    "campaigns",
    "manifest_dir",
    "server.json",
    "spool",
)

#: Substrings that mark a path expression as a staging/temp file.
TMP_HINTS = ("tmp", "temp", "staging")

#: Evidence that a temp-file name cannot collide between writers.
UNIQUIFIER_HINTS = (
    "getpid",
    "get_ident",
    "uuid",
    "mkstemp",
    "namedtemporaryfile",
    "o_excl",
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class _Write:
    target: str  # unparsed path expression
    mode: str  # "" when not determinable (dynamic or write_text/bytes)
    line: int
    col: int


@dataclass(frozen=True)
class _PathUse:
    text: str
    line: int
    col: int


def _local_walk(body: list[ast.stmt]):
    """Walk statements without descending into nested def/class.

    Defs in ``body`` itself are skipped too: a module-body scan must
    not re-scan the functions it contains (each gets its own scan).
    """
    stack: list[ast.AST] = [
        node
        for node in body
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    ]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.append(child)


class _FunctionScan:
    """One pass over a function body collecting file-operation facts."""

    def __init__(self, body: list[ast.stmt]) -> None:
        self.assigned: dict[str, str] = {}  # var -> unparsed RHS
        self.writes: list[_Write] = []
        self.replaces: list[_PathUse] = []  # text of the *source* path
        self.opens: list[_PathUse] = []  # any open/read of a path
        self.exists: list[_PathUse] = []
        self.has_fsync = False
        self.has_link = False
        self.has_replace = False
        self.has_publish = False
        for node in _local_walk(body):
            if isinstance(node, ast.Assign):
                self._scan_assign(node)
            elif isinstance(node, ast.Call):
                self._scan_call(node)

    # ------------------------------------------------------------------

    def _scan_assign(self, node: ast.Assign) -> None:
        rhs = ast.unparse(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.assigned[target.id] = rhs

    def _scan_call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        simple = name.rsplit(".", 1)[-1] if name else ""
        if name == "os.fsync":
            self.has_fsync = True
        elif name == "os.link":
            self.has_link = True
        elif simple == "publish":
            self.has_publish = True
        elif name == "os.replace" and node.args:
            self.has_replace = True
            self.replaces.append(self._use(node.args[0], node))
        elif simple == "replace" and isinstance(node.func, ast.Attribute):
            # Path.replace(target) — receiver is the source path.  Only
            # treated as a file op if the receiver was written in this
            # function (str.replace never is).
            self.has_replace = True
            self.replaces.append(self._use(node.func.value, node))
        elif simple == "exists" and isinstance(node.func, ast.Attribute):
            self.exists.append(self._use(node.func.value, node))
        elif name == "os.path.exists" and node.args:
            self.exists.append(self._use(node.args[0], node))
        if name == "open" and node.args:
            mode = ""
            mode_node: ast.AST | None = None
            if len(node.args) >= 2:
                mode_node = node.args[1]
            else:
                for kw in node.keywords:
                    if kw.arg == "mode":
                        mode_node = kw.value
            if isinstance(mode_node, ast.Constant) and isinstance(
                mode_node.value, str
            ):
                mode = mode_node.value
            elif mode_node is None:
                mode = "r"
            use = self._use(node.args[0], node)
            self.opens.append(use)
            if any(c in mode for c in "wax"):
                self.writes.append(_Write(use.text, mode, node.lineno, node.col_offset))
        elif simple in ("write_text", "write_bytes") and isinstance(
            node.func, ast.Attribute
        ):
            use = self._use(node.func.value, node)
            self.opens.append(use)
            self.writes.append(_Write(use.text, "w", node.lineno, node.col_offset))
        elif simple in ("open", "read_text", "read_bytes") and isinstance(
            node.func, ast.Attribute
        ):
            self.opens.append(self._use(node.func.value, node))

    def _use(self, expr: ast.AST, call: ast.Call) -> _PathUse:
        return _PathUse(ast.unparse(expr), call.lineno, call.col_offset)

    # ------------------------------------------------------------------

    def expand(self, text: str) -> str:
        """``text`` plus the RHS of every local variable it mentions.

        One level only: enough to see through ``path = self.cache_dir /
        name`` without dragging in unrelated definitions.
        """
        parts = [text]
        for name in _NAME_RE.findall(text):
            rhs = self.assigned.get(name)
            if rhs is not None:
                parts.append(rhs)
        return " ".join(parts)

    def wrote(self, text: str) -> bool:
        return any(w.target == text for w in self.writes)


def _is_shared(expanded: str) -> bool:
    lowered = expanded.lower()
    return any(hint in lowered for hint in SHARED_HINTS)


def _is_tmp(expanded: str) -> bool:
    lowered = expanded.lower()
    return any(hint in lowered for hint in TMP_HINTS)


def _finding(code: str, path: str, line: int, col: int, detail: str) -> Finding:
    summary, severity = FS_RULES[code]
    return Finding(
        path=path,
        line=line,
        col=col + 1,
        code=code,
        message=f"{summary} ({detail})",
        severity=severity,
    )


def check_function(body: list[ast.stmt], path: str) -> list[Finding]:
    """Run FS001–FS004 over one function body (or the module body)."""
    scan = _FunctionScan(body)
    findings: list[Finding] = []
    atomic_installer = scan.has_link or scan.has_replace or scan.has_publish

    for write in scan.writes:
        expanded = scan.expand(write.target)
        tmp = _is_tmp(expanded)
        shared = _is_shared(expanded)
        # FS001: direct overwrite of a final shared path.  Appends are
        # exempt (journals are append-only by design) as are exclusive
        # creates; temp-file writes are FS004's concern.
        if (
            shared
            and not tmp
            and not atomic_installer
            and "w" in write.mode
            and "x" not in write.mode
        ):
            findings.append(
                _finding(
                    "FS001", path, write.line, write.col,
                    f"write to {write.target!r}",
                )
            )
        # FS004: shared-directory temp file with a collidable name.
        if (
            tmp
            and shared
            and "x" not in write.mode
            and not any(
                hint in expanded.lower() for hint in UNIQUIFIER_HINTS
            )
        ):
            findings.append(
                _finding(
                    "FS004", path, write.line, write.col,
                    f"temp file {write.target!r}",
                )
            )

    # FS002: replace of a file written here, with no fsync anywhere in
    # the function.  Matching on the written target's exact spelling
    # keeps str.replace out (its receiver is never a written path).
    if not scan.has_fsync:
        for replace in scan.replaces:
            if scan.wrote(replace.text):
                findings.append(
                    _finding(
                        "FS002", path, replace.line, replace.col,
                        f"os.replace of {replace.text!r}",
                    )
                )

    # FS003: exists() then open() of the same shared path.  An atomic
    # installer in the function makes the exists() advisory (the
    # compare-and-publish fast path), so those are exempt.
    if not atomic_installer:
        for exists in scan.exists:
            expanded = scan.expand(exists.text)
            if not _is_shared(expanded):
                continue
            for use in scan.opens:
                if use.text == exists.text and use.line >= exists.line:
                    findings.append(
                        _finding(
                            "FS003", path, use.line, use.col,
                            f"exists() at line {exists.line}, then open of "
                            f"{use.text!r}",
                        )
                    )
                    break

    return findings


__all__ = ["FS_RULES", "SHARED_HINTS", "TMP_HINTS", "check_function"]
