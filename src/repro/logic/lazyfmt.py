"""Deferred formatting for exception messages on kernel hot paths.

The conversion combinators (``ORELSEC``, ``TOP_DEPTH_CONV`` and its repeat
loop) use exceptions as control flow: every node of a traversal may raise
and catch "not applicable" errors.  Formatting a large term into the message
at the raise site is O(term size) and dominated gate-level workloads; wrapping
the message in :class:`LazyMessage` defers the rendering until something
actually prints the exception (which for control-flow errors is never).
"""

from __future__ import annotations


class LazyMessage:
    """A format string plus arguments, rendered only on ``str()``."""

    __slots__ = ("fmt", "args")

    def __init__(self, fmt: str, *args):
        self.fmt = fmt
        self.args = args

    def __str__(self) -> str:
        return self.fmt.format(*self.args)

    def __repr__(self) -> str:
        return str(self)


def lazy(fmt: str, *args) -> LazyMessage:
    """Shorthand constructor: ``raise Err(lazy("no redex: {}", t))``."""
    return LazyMessage(fmt, *args)
