"""The pass framework's core vocabulary: stages, invariants, the registry.

A :class:`Pass` is one named, parameterized unit of the compilation
pipeline.  Passes live in one of four *stages*:

``analyze``
    Static analyses over the un-rewritten core IR
    (:mod:`repro.analysis.passes`).  They never change the program; they
    record predictions (the exact static cost bound) and lint findings on
    the pass context, which verification mode checks against the built
    circuit.
``ir``
    Core-IR rewrites (the Spire optimizations of Section 6).  They map a
    :class:`~repro.ir.core.Stmt` to a new ``Stmt``.
``lower``
    The structural stages of the Tower compiler (Section 7): register
    allocation + abstract lowering (``alloc``) and gate expansion
    (``lower``).  Every pipeline contains each exactly once, in order.
``gates``
    Circuit-level optimizers (Section 8.3).  They map the compiled
    circuit to a Clifford+T circuit; each is one :mod:`repro.circopt`
    optimizer class.

Passes *declare* invariants (:data:`SEMANTICS_PRESERVING` and friends) —
documentation-sourced claims the paper makes about the rewrite.  The
:class:`~repro.passes.manager.PassManager` can check the machine-checkable
ones between passes (``--verify-passes``): IR passes are re-typechecked
under the relaxed Figure-20 rules, and gate passes declaring
:data:`TCOUNT_NONINCREASING` must not exceed the T-count of the Clifford+T
expansion they started from.

Several IR rewrites share one traversal *engine*: the paper's combined
Spire pass (Figure 22) applies conditional flattening and narrowing in a
single recursive sweep, so running ``flatten`` then ``narrow`` as separate
tree walks produces a structurally different (though still correct)
program.  Passes that set :attr:`Pass.engine` are therefore **fused** when
adjacent in a pipeline: ``flatten,narrow`` executes as one rewriter with
both rules enabled, reproducing :func:`repro.opt.spire_optimize`
bit-for-bit.

A pass's parameters are its constructor's keyword parameters with their
defaults (``peephole(window=32)``).  :func:`register_pass` records them
once per class, and :func:`make_pass` checks every parameter against that
record.
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, List, Type

from ..errors import ReproError

# ------------------------------------------------------------- invariants
#: the rewrite preserves circuit semantics (Theorems 6.3/6.5, Section 8.3)
SEMANTICS_PRESERVING = "semantics_preserving"
#: output still typechecks under the relaxed Figure-20 rules
PRESERVES_TYPES = "preserves_types"
#: output T-count never exceeds the Clifford+T expansion of the input
TCOUNT_NONINCREASING = "tcount_nonincreasing"
#: output circuit contains only Clifford+T gates
CLIFFORD_T_OUTPUT = "clifford_t_output"
#: running twice yields the same result as running once
DETERMINISTIC = "deterministic"
#: the analyze stage's static cost bound holds for the built circuit:
#: equality at the lower boundary, dominance after every gate pass
STATIC_COST_BOUND = "static_cost_bound"

#: every invariant name a pass may declare
KNOWN_INVARIANTS = frozenset(
    {
        SEMANTICS_PRESERVING,
        PRESERVES_TYPES,
        TCOUNT_NONINCREASING,
        CLIFFORD_T_OUTPUT,
        DETERMINISTIC,
        STATIC_COST_BOUND,
    }
)

ANALYZE = "analyze"
IR = "ir"
LOWER = "lower"
GATES = "gates"
STAGES = (ANALYZE, IR, LOWER, GATES)


class PassError(ReproError):
    """A malformed pipeline spec or an unknown/unusable pass."""


class PassVerificationError(ReproError):
    """A between-pass invariant check failed (``--verify-passes``)."""

    def __init__(self, pass_name: str, invariant: str, message: str) -> None:
        super().__init__(
            f"pass {pass_name!r} violated {invariant}: {message}"
        )
        self.pass_name = pass_name
        self.invariant = invariant


class Pass:
    """One registered pipeline pass.

    Subclasses set the class attributes and implement :meth:`apply`, which
    receives the mutable :class:`~repro.passes.manager.PassContext` and
    advances whichever artifact its stage owns (``ctx.stmt`` for ``ir``
    passes, ``ctx.circuit`` for ``gates`` passes, the lowering fields for
    ``lower`` passes).  A pass with parameters takes them as keyword
    arguments with defaults in its constructor.
    """

    #: registry key
    name: str = "abstract"
    #: one of :data:`STAGES`
    stage: str = IR
    #: doc-sourced invariant claims (subset of :data:`KNOWN_INVARIANTS`)
    invariants: frozenset = frozenset()
    #: fusion group: adjacent passes sharing a non-``None`` engine run as
    #: one combined rewrite (see the module docstring)
    engine: str = ""
    #: for engine-fused passes: the rewrite rules this pass contributes
    rules: frozenset = frozenset()
    #: constructor parameter -> default, recorded by :func:`register_pass`
    declared: Dict[str, Any] = {}

    # ------------------------------------------------------------------ API
    def apply(self, ctx) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    @classmethod
    def describe(cls) -> str:
        """First line of the class docstring (the ``passes --list`` text)."""
        doc = (cls.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else ""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Pass {self.name} stage={self.stage}>"


_REGISTRY: Dict[str, Type[Pass]] = {}


def register_pass(cls: Type[Pass]) -> Type[Pass]:
    """Class decorator adding a pass to the global registry and recording
    its constructor's parameters and defaults as ``cls.declared``."""
    if not cls.name or cls.name == "abstract":
        raise PassError(f"pass class {cls.__name__} has no registry name")
    unknown = set(cls.invariants) - KNOWN_INVARIANTS
    if unknown:
        raise PassError(
            f"pass {cls.name!r} declares unknown invariants {sorted(unknown)}"
        )
    if cls.stage not in STAGES:
        raise PassError(f"pass {cls.name!r} has unknown stage {cls.stage!r}")
    cls.declared = {
        param.name: param.default
        for param in inspect.signature(cls).parameters.values()
        if param.default is not param.empty
    }
    _REGISTRY[cls.name] = cls
    return cls


def unregister_pass(name: str) -> None:
    """Remove a pass (test hook for deliberately-broken passes)."""
    _REGISTRY.pop(name, None)


def get_pass_class(name: str) -> Type[Pass]:
    if name not in _REGISTRY:
        raise PassError(
            f"unknown pass {name!r}; available: {', '.join(pass_names())}"
        )
    return _REGISTRY[name]


def make_pass(name: str, **params: Any) -> Pass:
    """Instantiate a registered pass with parameters.

    A parameter the pass does not declare, or a value whose type differs
    from the declared default's, is a :class:`PassError`.  An ``int`` may
    stand for a ``float``; a ``bool`` is not an ``int``.
    """
    cls = get_pass_class(name)
    for key, value in params.items():
        if key not in cls.declared:
            problem = (
                f"unexpected parameter {key!r}; "
                f"declared: {sorted(cls.declared)}"
            )
        else:
            want = type(cls.declared[key])
            if type(value) is want or (want is float and type(value) is int):
                continue
            problem = f"parameter {key!r} must be {want.__name__}, got {value!r}"
        raise PassError(f"bad parameters for pass {name!r}: {problem}")
    return cls(**params)


def pass_names() -> List[str]:
    """Registered pass names, IR passes first, then lower, then gates."""
    order = {stage: i for i, stage in enumerate(STAGES)}
    return sorted(_REGISTRY, key=lambda n: (order[_REGISTRY[n].stage], n))


def pass_catalog() -> List[Dict[str, Any]]:
    """JSON-ready rows describing every registered pass (CLI/listing)."""
    return [
        {
            "name": name,
            "stage": _REGISTRY[name].stage,
            "invariants": sorted(_REGISTRY[name].invariants),
            "engine": _REGISTRY[name].engine,
            "description": _REGISTRY[name].describe(),
        }
        for name in pass_names()
    ]
