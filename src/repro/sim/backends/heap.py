"""The heap dispatch backend: the original engine, under its own name.

:class:`HeapEngine` is :class:`~repro.sim.engine.Engine` -- a binary
heap of ``(time, seq, event)`` triples with lazy cancellation.  The
subclass exists so the backend registry can address it symmetrically
with :class:`~repro.sim.backends.native.NativeEngine` and so
``type(engine)`` names the selected backend in debugging output; it
adds no behaviour.
"""

from __future__ import annotations

from repro.sim.engine import Engine

__all__ = ["HeapEngine"]


class HeapEngine(Engine):
    """The default (heap-based) dispatch backend."""
