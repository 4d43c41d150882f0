"""Pluggable event-dispatch backends for the simulation engine.

The simulator's public contract is the :class:`~repro.sim.engine.Engine`
interface (``schedule``/``run``/``step``/``fingerprint``); *how* the
event queue is stored and drained is an implementation detail this
package makes swappable:

``heap``
    The binary heap of ``(time, seq, event)`` triples
    (:class:`~repro.sim.engine.Engine` itself) driving the plain
    Python dispatch chain in :class:`~repro.sched.core.CoreSim`.  The
    default, and the reference every other backend is held to.
``native``
    The same heap, drained by a C loop
    (:class:`~repro.sim.backends.native.NativeEngine`) that also runs
    a compiled twin of the CFS slice-expiry chain
    (``_on_core_event`` -> ``_charge_current`` -> ``_redispatch``).
    Built on demand with the stock ``cc`` toolchain, bound via stdlib
    :mod:`ctypes`, artifact cached under a source-digest key.  The C
    twin performs identical float operations in identical order, so
    digests match the heap reference bit for bit.  Machines without a
    C compiler get :class:`~repro.sim.backends.nativebuild
    .NativeUnavailableError` at construction; use
    :func:`backend_available` to probe.

Backends are selected by name everywhere a simulation is configured --
``System(engine=...)``, ``run_app(engine=...)``, ``RunSpec.engine``
(and therefore the content-addressed store key), ``repro run/bench/
sanitize/submit --engine``.  The golden run digests in the test suite
are parametrized over every backend, which is what makes a swap this
deep shippable: bit-identical behaviour is enforced mechanically, not
argued.
"""

from __future__ import annotations

from repro.sim.backends.heap import HeapEngine
from repro.sim.backends.native import NativeEngine
from repro.sim.backends.nativebuild import NativeUnavailableError, native_available
from repro.sim.engine import Engine

__all__ = [
    "ENGINE_BACKENDS",
    "HeapEngine",
    "NativeEngine",
    "NativeUnavailableError",
    "backend_available",
    "backend_names",
    "check_backend_name",
    "make_engine",
]

#: backend name -> engine class; insertion order is documentation order
ENGINE_BACKENDS: dict[str, type[Engine]] = {
    "heap": HeapEngine,
    "native": NativeEngine,
}


def backend_names() -> tuple[str, ...]:
    """The selectable backend names, default first."""
    return tuple(ENGINE_BACKENDS)


def backend_available(name: str) -> bool:
    """True iff ``name`` can actually be constructed on this machine.

    ``heap`` is always available; ``native`` additionally needs a
    working C toolchain (probing it compiles and caches the library as
    a side effect, so a True answer means later constructions are
    cheap).
    """
    if name not in ENGINE_BACKENDS:
        return False
    if name == "native":
        return native_available()
    return True


def check_backend_name(name: str) -> None:
    """Raise ``ValueError`` unless ``name`` is a registered backend.

    argparse ``choices`` catch bad names earlier on the CLI; this
    guards the library and wire paths (``make_engine``,
    ``RunSpec.make``).
    """
    if name not in ENGINE_BACKENDS:
        raise ValueError(
            f"unknown engine backend {name!r}; expected one of "
            f"{backend_names()}"
        )


def make_engine(name: str, max_events: int = 200_000_000) -> Engine:
    """Instantiate the engine backend called ``name``."""
    check_backend_name(name)
    return ENGINE_BACKENDS[name](max_events=max_events)
