"""The package's one diagnostics channel.

Solvers report what a caller may want to know about a solve, such as an
exhaustive fallback or why bounding stopped, with ``note(text)``.  A caller
sees those notes by running the solve inside ``recording()``:

    with recording() as notes:
        solve_igm_claw_free(g, h, k)

Outside any block a note is dropped, at the cost of one context-variable
read.  Blocks nest: a note reaches the list of every enclosing block, in
order.
"""

import contextlib
import contextvars

__all__ = ["note", "recording"]

_SINKS = contextvars.ContextVar("igmatch_trace_sinks", default=())


def note(text: str) -> None:
    """Append ``text`` to the list of every enclosing ``recording()`` block."""
    for sink in _SINKS.get():
        sink.append(text)


@contextlib.contextmanager
def recording():
    """Yield a list that collects every note made inside the block."""
    notes: list = []
    token = _SINKS.set(_SINKS.get() + (notes,))
    try:
        yield notes
    finally:
        _SINKS.reset(token)
