"""The native dispatch backend: the heap drain loop compiled to C.

:class:`NativeEngine` is :class:`~repro.sim.engine.Engine` with one
substitution: ``run()``'s drain loop executes inside a small C library
(``_native/engine_core.c``) compiled on first use with the stock ``cc``
toolchain and bound through stdlib :mod:`ctypes`.  Everything else --
the ``(time, seq, event)`` heap, ``schedule``/``cancel``, ``step()``,
compaction, introspection -- is inherited Python; the C side reads and
writes the very same attributes (``_heap``, ``_cancelled``, ``now``,
...), so the two halves can interleave freely.

The C loop additionally intercepts the CFS slice-expiry event
(:meth:`CoreSim._on_core_event`) and runs a line-for-line C twin of the
``_on_core_event`` -> ``_charge_current`` -> ``_redispatch`` chain:
C ``double`` arithmetic in the identical operation order reproduces
CPython float results bit for bit, so every run digest is unchanged --
the golden-digest wall holds this backend to the heap reference.  Cold
paths (tracing, balancers, observers, blocked/idle transitions) call
back into the ordinary Python methods, and cores whose slice policy is
not :class:`~repro.sched.cfs.CfsParams` are handed back to
``_on_core_event`` whole.

Construction raises :class:`~repro.sim.backends.nativebuild
.NativeUnavailableError` when no C compiler is available; the heap
backend remains the reference and the fallback.
"""

from __future__ import annotations

import gc
from typing import Optional

from repro.sim.backends.nativebuild import load_native_lib
from repro.sim.engine import Engine

__all__ = ["NativeEngine"]


class NativeEngine(Engine):
    """Heap engine whose drain loop runs in compiled C."""

    def __init__(self, max_events: int = 200_000_000) -> None:
        # compile/load before touching anything else so an unusable
        # toolchain surfaces as NativeUnavailableError at construction,
        # not as a mystery mid-run
        self._lib = load_native_lib()
        super().__init__(max_events=max_events)

    def run(self, until: Optional[int] = None) -> None:
        """Dispatch events in time order, with the cycle collector off.

        The drain loop allocates heavily (an Event and a heap entry per
        dispatch) but drops its garbage promptly via refcounting;
        Python's cycle collector only adds periodic sweep pauses on
        top.  Disabling it for the duration of the run is semantically
        invisible -- nothing in the simulator relies on collection
        timing -- and is restored even when the run raises.
        """
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            super().run(until)
        finally:
            if was_enabled:
                gc.enable()

    def _drain(self, until: Optional[int], single: bool) -> bool:
        if single:
            # step() is a debugging/inspection path; the Python loop's
            # single-event bookkeeping is not worth duplicating in C
            return super()._drain(until, single)
        rc: int = self._lib.repro_drain(self, until)
        # a set Python error flag raises through PyDLL before we get
        # here, so rc is 0 or 1
        return bool(rc)
