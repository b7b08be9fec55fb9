"""The µop stream memo (:mod:`repro.engine.fast`) and the oracle.

The one SMT core, :class:`repro.cpu.core.SMTCore`, imports the memo, so
this package imports nothing at module level (that would be a cycle).
"""

from __future__ import annotations


def core_class(engine: str) -> type:
    """The SMT core class, for the one engine name there is.

    Kept only because ``bench/trace.py`` asks for ``core_class("fast")``;
    drop it with that call.
    """
    from repro.common.errors import ConfigError
    from repro.cpu.core import SMTCore

    if engine != "fast":
        raise ConfigError(f"unknown engine {engine!r}; the only one is 'fast'")
    return SMTCore


__all__ = ["core_class"]
