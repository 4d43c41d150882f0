"""The KERN rule catalogue.

The KERN rules prove the kernel zone (``repro.sim.*``, ``repro.sched.*``,
``repro.balance.*``, ``repro.mem.*``) is a *compilable subset*: the
restrictions a mypyc- or Cython-compiled engine core imposes, enforced
statically before the port is attempted so the compiled backend cannot
diverge from the interpreted one.  KERN001/002/006 apply to every
kernel-zone class and module; KERN003/004/005/007/008 apply only to
functions reachable from an engine/dispatch entry point (the same
call-graph BFS the FLOW004 rule uses).

======== =============================================================
KERN001  Attribute created outside ``__init__``/``__slots__`` on a
         kernel class -- including monkeypatched methods and dynamic
         attributes attached to an instance from another function.
         Compiled classes have a fixed struct layout; late attribute
         creation is an AttributeError under mypyc.
KERN002  Attribute assigned incompatible types across the class (or
         across functions that hold a typed reference to an
         instance): type-unstable slots force boxed "object" fields
         and defeat unboxing.  ``None`` plus exactly one other type
         is tolerated (an Optional field).
KERN003  Un-annotated or ``Any``-typed function reachable from an
         engine/dispatch entry point: every hot call must have a
         precise static signature for the compiler to specialize.
KERN004  ``*args``/``**kwargs`` in a hot function's signature, or an
         argument-splat call on a hot call chain: variadic calling
         conventions stay generic (tuple/dict boxing) when compiled.
KERN005  Lambda, closure or nested def created inside a
         dispatch-reachable function: per-event closure allocation
         stays a heap-allocated PyObject under the compiler and
         blocks the direct-call optimization.
KERN006  Non-compilable construct in a kernel module: ``eval``,
         ``exec``, ``locals()``, ``globals()``, ``vars()``,
         ``compile``, ``__import__``, a ``metaclass=`` argument, or a
         dynamic attribute hook (``__getattr__``,
         ``__getattribute__``, ``__setattr__``, ``__delattr__``).
KERN007  Container allocation (list/dict/set/tuple literal or
         comprehension) inside a loop of a dispatch-reachable
         function beyond the per-function budget: the per-event
         inner loop must run allocation-free to hit the compiled
         target.
KERN008  ``isinstance``/``hasattr`` probing in dispatch-reachable
         code: type- or attribute-existence dispatch defeats static
         method binding -- use an explicit flag attribute or a
         ``type(x) is C`` check on a known class.
======== =============================================================
"""

from __future__ import annotations

from repro.analysis.driver import Rule

__all__ = ["KERN_RULES"]

KERN_RULES: dict[str, Rule] = {
    r.id: r
    for r in (
        Rule(
            "KERN001",
            "attribute created outside __init__/__slots__ on a kernel class",
        ),
        Rule(
            "KERN002",
            "attribute assigned incompatible types across the class",
        ),
        Rule(
            "KERN003",
            "un-annotated or Any-typed function on a dispatch-reachable path",
        ),
        Rule(
            "KERN004",
            "*args/**kwargs signature or argument splat on a hot call chain",
        ),
        Rule(
            "KERN005",
            "closure/lambda/nested def created on a per-event path",
        ),
        Rule(
            "KERN006",
            "non-compilable construct (eval/exec/locals/metaclass/dynamic hooks)",
        ),
        Rule(
            "KERN007",
            "container allocation in a dispatch-reachable loop beyond budget",
        ),
        Rule(
            "KERN008",
            "isinstance/hasattr dispatch in dispatch-reachable code",
        ),
    )
}
