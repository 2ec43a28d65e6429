"""Gate representation for quantum circuits.

Two gate levels appear in the paper:

* the **MCX level** — the "idealized gate set consisting of arbitrarily
  controllable Clifford gates" (Section 5): multiply-controlled NOT gates of
  any size plus (controlled) Hadamard gates;
* the **Clifford+T level** — the surface-code gate set: ``H``, ``S``,
  ``S†``, ``Z``, ``CNOT``, ``X`` plus the expensive ``T`` and ``T†``.

A single :class:`Gate` type covers both levels.  A gate is a *kind*, a tuple
of control qubits, and a tuple of target qubits.  ``MCX`` with zero controls
is the NOT gate; with one control it is CNOT; with two it is the Toffoli.

T-counting conventions (Sections 3.3 and 5, Figures 5 and 6):

* an MCX with ``c`` controls costs ``0`` T gates for ``c <= 1`` and
  ``7 * (2*(c - 2) + 1)`` T gates for ``c >= 2``;
* a Hadamard with ``m >= 1`` controls costs ``2 + t_mcx(m)`` T gates under
  our controlled-H construction (A · C^mX · A† with A = S·H·T, 2 T gates of
  its own); the paper's constant ``c_T_CH = 8`` from Lee et al. is kept in
  :mod:`repro.cost.constants` for the paper-faithful model;
* ``T`` and ``T†`` each count 1 (footnote 3: T† = T·S·Z has T-complexity 1).
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple


class GateKind(str, Enum):
    """Enumeration of gate kinds used across both circuit levels."""

    MCX = "mcx"  # multiply-controlled NOT; 0 controls = X, 1 = CNOT, 2 = Toffoli
    H = "h"  # Hadamard (possibly controlled)
    T = "t"  # pi/4 phase rotation
    TDG = "tdg"  # inverse T
    S = "s"  # pi/2 phase rotation (= T^2, Clifford)
    SDG = "sdg"  # inverse S
    Z = "z"  # phase flip (= S^2, Clifford)
    SWAP = "swap"  # two-qubit swap (Clifford); used only by convenience builders

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GateKind.{self.name}"


#: Gate kinds that are diagonal phase rotations exp(i * k * pi/4 * x).
PHASE_KINDS = {GateKind.T, GateKind.TDG, GateKind.S, GateKind.SDG, GateKind.Z}

#: Number of eighth-turns (multiples of pi/4) applied by each phase kind.
PHASE_EIGHTHS = {
    GateKind.T: 1,
    GateKind.S: 2,
    GateKind.Z: 4,
    GateKind.SDG: 6,
    GateKind.TDG: 7,
}

#: Dense integer code per gate kind (stable across the package; the
#: snapshot format and the compiled kernels use these codes).
KIND_CODES = {
    GateKind.MCX: 0,
    GateKind.H: 1,
    GateKind.SWAP: 2,
    GateKind.T: 3,
    GateKind.TDG: 4,
    GateKind.S: 5,
    GateKind.SDG: 6,
    GateKind.Z: 7,
}

#: Layout of :attr:`GateRecord.fields`: kind code, phase eighth-turns (or
#: -1), control count, target count, first target, highest qubit.
RECORD_FIELDS = struct.Struct("<Bbiiii")

#: Inverse kind of each phase kind that is not self-inverse.
_INVERSE_KIND = {
    GateKind.T: GateKind.TDG,
    GateKind.TDG: GateKind.T,
    GateKind.S: GateKind.SDG,
    GateKind.SDG: GateKind.S,
}

#: Inverse map: eighth-turns (mod 8) to the minimal phase-gate sequence.
EIGHTHS_TO_KINDS = {
    0: (),
    1: (GateKind.T,),
    2: (GateKind.S,),
    3: (GateKind.S, GateKind.T),
    4: (GateKind.Z,),
    5: (GateKind.Z, GateKind.T),
    6: (GateKind.SDG,),
    7: (GateKind.TDG,),
}


def toffoli_count_for_mcx(num_controls: int) -> int:
    """Number of Toffoli gates in the Figure 5 decomposition of an MCX gate.

    ``2*(c-2) + 1`` for ``c >= 2``; CNOT and X decompose to zero Toffolis.
    """
    if num_controls < 0:
        raise ValueError("negative control count")
    if num_controls <= 1:
        return 0
    return 2 * (num_controls - 2) + 1


def t_cost_of_mcx(num_controls: int) -> int:
    """T gates used to realize an MCX gate via Figures 5 and 6 (7 per Toffoli)."""
    return 7 * toffoli_count_for_mcx(num_controls)


def t_cost_of_controlled_h(num_controls: int) -> int:
    """T gates used to realize a Hadamard with ``num_controls`` controls.

    Uses the A · C^mX · A† construction with A = S·H·T (2 T gates) plus the
    cost of the inner MCX.  An uncontrolled H is free.
    """
    if num_controls == 0:
        return 0
    return 2 + t_cost_of_mcx(num_controls)


class _cached:
    """A lock-free ``functools.cached_property``: the first use stores the
    value in the instance ``__dict__``, where later lookups find it (this
    is a non-data descriptor).  Python 3.11's ``cached_property`` takes a
    class-wide lock on every first use, about a quarter of the cost of
    building a gate's record; a racing first use here just computes an
    equal value twice, since a ``Gate`` is immutable."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class GateRecord(NamedTuple):
    """What the array passes read of one gate value (:attr:`Gate.record`)."""

    #: :data:`RECORD_FIELDS` packed; the eighth-turns are -1 unless the
    #: gate is an uncontrolled phase gate
    fields: bytes
    #: ``controls + targets`` as little-endian int32
    qubits: bytes
    #: equal exactly when two gates list the same controls and the same
    #: targets in the same order (a ``bytes``, so its hash is cached)
    key: bytes
    #: the highest qubit the gate touches
    top: int


@dataclass(frozen=True)
class Gate:
    """One gate application: ``kind`` on ``targets`` guarded by ``controls``.

    Controls and targets are qubit indices (non-negative ints).  A gate's
    qubits must be pairwise distinct.
    """

    kind: GateKind
    controls: Tuple[int, ...]
    targets: Tuple[int, ...]

    def __post_init__(self) -> None:
        qubits = self.controls + self.targets
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"gate touches a qubit twice: {self}")
        if self.kind is GateKind.SWAP:
            if len(self.targets) != 2:
                raise ValueError("SWAP needs exactly two targets")
        elif len(self.targets) != 1:
            raise ValueError(f"{self.kind} needs exactly one target")

    # ---------------------------------------------------------------- helpers
    #
    # ``qubits``, the control mask and the record are cached: they are
    # consulted on every ``apply_gate`` call and every gathered table,
    # and a ``Gate`` is immutable, so computing them once
    # per instance is safe.  The caches live in the instance ``__dict__``
    # (``_cached`` bypasses the frozen-dataclass ``__setattr__``) and do not
    # affect equality/hashing.
    @_cached
    def qubits(self) -> Tuple[int, ...]:
        """All qubits the gate touches (controls first)."""
        return self.controls + self.targets

    @_cached
    def control_mask(self) -> int:
        """Bitmask with bit ``c`` set for every control qubit ``c``."""
        mask = 0
        for c in self.controls:
            mask |= 1 << c
        return mask

    @_cached
    def record(self) -> GateRecord:
        """The gate's packed record, built in one step on first use.

        A table's records are gathered into columns by
        :class:`~repro.circuit.gatestream.RowRecords`; every shared
        instance builds its record once per process.
        """
        controls, targets = self.controls, self.targets
        qubits = controls + targets
        top = max(qubits)
        key = struct.pack(f"<{len(qubits) + 1}i", len(controls), *qubits)
        kind = self.kind
        fields = RECORD_FIELDS.pack(
            KIND_CODES[kind],
            -1 if controls else PHASE_EIGHTHS.get(kind, -1),
            len(controls),
            len(targets),
            targets[0],
            top,
        )
        return GateRecord(fields, key[4:], key, top)

    @property
    def target(self) -> int:
        """The single target of a non-SWAP gate."""
        return self.targets[0]

    def with_extra_controls(self, extra: Iterable[int]) -> "Gate":
        """Return this gate with additional control qubits prepended
        (the shared instance; ``self`` when ``extra`` is empty)."""
        extra_t = tuple(extra)
        if not extra_t:
            return self
        key = (self.kind, extra_t + self.controls, self.targets)
        return _SHARED.get(key) or _share(key)

    def inverse(self) -> "Gate":
        """The inverse gate, shared (phase kinds invert; MCX/H/SWAP/Z are
        self-inverse)."""
        key = (_INVERSE_KIND.get(self.kind, self.kind), self.controls, self.targets)
        return _SHARED.get(key) or _share(key)

    def is_self_inverse(self) -> bool:
        """True for MCX, H, Z and SWAP gates."""
        return self.kind in (GateKind.MCX, GateKind.H, GateKind.Z, GateKind.SWAP)

    def t_cost(self) -> int:
        """T gates needed to realize this gate on the surface code."""
        if self.kind is GateKind.MCX:
            return t_cost_of_mcx(len(self.controls))
        if self.kind is GateKind.H:
            return t_cost_of_controlled_h(len(self.controls))
        if self.kind in (GateKind.T, GateKind.TDG):
            if self.controls:
                raise ValueError("controlled T gates are not part of either level")
            return 1
        if self.kind in (GateKind.S, GateKind.SDG, GateKind.Z):
            if len(self.controls) == 0:
                return 0
            # a controlled phase is realized by conjugating an MCX; we never
            # emit these, but give them a defined cost for completeness.
            return t_cost_of_mcx(len(self.controls) + 1)
        if self.kind is GateKind.SWAP:
            # swap = 3 CNOTs; controlled swap = CNOT, C^{m+1}X, CNOT.
            return t_cost_of_mcx(len(self.controls) + 1)
        raise ValueError(f"unknown gate kind {self.kind}")  # pragma: no cover

    def is_clifford_t(self) -> bool:
        """True when the gate lies in the surface-code Clifford+T set."""
        if self.kind is GateKind.MCX:
            return len(self.controls) <= 1
        if self.kind in (GateKind.T, GateKind.TDG, GateKind.S, GateKind.SDG, GateKind.Z):
            return not self.controls
        if self.kind is GateKind.H:
            return not self.controls
        if self.kind is GateKind.SWAP:
            return not self.controls
        return False  # pragma: no cover

    def __str__(self) -> str:
        name = {
            GateKind.MCX: {0: "X", 1: "CNOT", 2: "Toffoli"}.get(
                len(self.controls), f"MCX{len(self.controls)}"
            ),
            GateKind.H: "H" if not self.controls else f"C{len(self.controls)}H",
            GateKind.T: "T",
            GateKind.TDG: "T†",
            GateKind.S: "S",
            GateKind.SDG: "S†",
            GateKind.Z: "Z",
            GateKind.SWAP: "SWAP",
        }[self.kind]
        ctrl = f"[{','.join(map(str, self.controls))}]" if self.controls else ""
        return f"{name}{ctrl}({','.join(map(str, self.targets))})"


# ------------------------------------------------------------------ sharing
#
# Every builder below, ``with_extra_controls`` and ``inverse`` return one
# shared instance per gate value, held in one intern table keyed by
# ``(kind, controls, targets)``.  Lowering emits the same gates, under the
# same ``if`` controls, many times over, and a circuit's gate table interns
# by identity (:mod:`repro.circuit.circuit`), so sharing keeps each table
# to one row per distinct gate value.  A ``Gate`` is immutable, so sharing
# is safe.  Only direct ``Gate(...)`` calls bypass the table.
#
# The table is bounded.  When it fills it starts over, together with every
# memo that holds shared instances (:func:`shared_memo`) and every other
# process memo registered with :func:`clear_with_shared_gates`, so gates
# built afterwards share with each other again.  A value built before and
# after a reset is two equal objects, which only costs a circuit holding
# both a second table row.  Lookups take no lock; a miss stores its gate
# under ``_LOCK``, so threads that miss on one value get one instance and
# the bound holds.

#: Bound on the intern table.  Every benchmark's gates fit well under it.
SHARED_GATES_MAX = 1 << 16

_SHARED: Dict[Tuple[GateKind, Tuple[int, ...], Tuple[int, ...]], Gate] = {}

#: what :func:`reset_shared_gates` clears besides the intern table
_CLEARS: List[Callable[[], None]] = []

_LOCK = threading.RLock()


def shared_memo(fn: Optional[Callable] = None, *, maxsize: Optional[int] = None):
    """``lru_cache`` for a function of gate values that returns shared
    instances; the memo starts over whenever the intern table does.

    Use it bare (unbounded) or as ``@shared_memo(maxsize=...)``.
    """

    def wrap(fn: Callable) -> Callable:
        memo = lru_cache(maxsize=maxsize)(fn)
        _CLEARS.append(memo.cache_clear)
        return memo

    return wrap if fn is None else wrap(fn)


def clear_with_shared_gates(clear: Callable[[], None]) -> None:
    """Run ``clear`` in :func:`reset_shared_gates`: for a process memo without gates."""
    _CLEARS.append(clear)


def reset_shared_gates() -> None:
    """Forget every shared instance: the table and every process memo start over."""
    with _LOCK:
        _SHARED.clear()
        for clear in _CLEARS:
            clear()


def _share(key: Tuple[GateKind, Tuple[int, ...], Tuple[int, ...]]) -> Gate:
    """Intern-table miss: build (and so validate) the gate, then store it
    unless another thread stored the value first."""
    gate = Gate(*key)
    with _LOCK:
        if len(_SHARED) >= SHARED_GATES_MAX:
            reset_shared_gates()
        return _SHARED.setdefault(key, gate)


def shared_gate(
    kind: GateKind, controls: Tuple[int, ...], targets: Tuple[int, ...]
) -> Gate:
    """The shared instance of ``Gate(kind, controls, targets)``."""
    key = (kind, controls, targets)
    return _SHARED.get(key) or _share(key)


# ------------------------------------------------------------------ builders
#
# The scalar builders keep a memo of their own in front of the intern
# table: optimizer, decomposition and lowering hot loops call them millions
# of times, and the memo lookup is cheaper than building the table key.
@shared_memo
def phase_gate(kind: GateKind, target: int) -> Gate:
    """Shared instance of an uncontrolled phase gate of ``kind``."""
    if kind not in PHASE_KINDS:
        raise ValueError(f"{kind} is not a phase kind")
    return shared_gate(kind, (), (target,))


@shared_memo
def x(target: int) -> Gate:
    """NOT gate."""
    return shared_gate(GateKind.MCX, (), (target,))


@shared_memo
def cnot(control: int, target: int) -> Gate:
    """Controlled-NOT gate."""
    return shared_gate(GateKind.MCX, (control,), (target,))


@shared_memo
def toffoli(c1: int, c2: int, target: int) -> Gate:
    """Doubly-controlled NOT gate."""
    return shared_gate(GateKind.MCX, (c1, c2), (target,))


def mcx(controls: Iterable[int], target: int) -> Gate:
    """Multiply-controlled NOT gate with any number of controls."""
    key = (GateKind.MCX, tuple(controls), (target,))
    return _SHARED.get(key) or _share(key)


def h(target: int, controls: Iterable[int] = ()) -> Gate:
    """(Controlled-) Hadamard gate."""
    key = (GateKind.H, tuple(controls), (target,))
    return _SHARED.get(key) or _share(key)


def t(target: int) -> Gate:
    """T gate."""
    return phase_gate(GateKind.T, target)


def tdg(target: int) -> Gate:
    """Inverse T gate."""
    return phase_gate(GateKind.TDG, target)


def s(target: int) -> Gate:
    """S gate."""
    return phase_gate(GateKind.S, target)


def sdg(target: int) -> Gate:
    """Inverse S gate."""
    return phase_gate(GateKind.SDG, target)


def z(target: int) -> Gate:
    """Z gate."""
    return phase_gate(GateKind.Z, target)


def swap(a: int, b: int) -> Gate:
    """Two-qubit SWAP gate."""
    return shared_gate(GateKind.SWAP, (), (a, b))
