"""Gate decompositions (Figures 5 and 6 of the paper).

* :func:`decompose_mcx_to_toffoli` — the Barenco et al. ladder of Figure 5:
  an MCX with ``c >= 3`` controls becomes ``2*(c-2) + 1`` Toffoli gates using
  ``c - 2`` clean ancilla qubits, which are returned to |0⟩.
* :func:`decompose_toffoli_to_clifford_t` — the standard 7-T-gate Clifford+T
  realization of the Toffoli gate (Figure 6).
* :func:`decompose_controlled_h` — a controlled Hadamard as
  ``A · C^mX · A†`` with ``A = S·H·T`` acting on the target (the Qiskit CH
  construction, 2 T gates of its own).

:func:`to_toffoli` and :func:`to_clifford_t` apply these over whole circuits,
appending ancilla qubits at the top of the wire range.  The number of T gates
produced by the full pipeline equals :meth:`Circuit.t_complexity` of the
original MCX-level circuit, which the test suite verifies gate-for-gate.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import LoweringError
from .circuit import Circuit, Register
from .gates import PHASE_KINDS, Gate, GateKind, cnot, h, mcx, s, sdg, shared_memo, t, tdg, toffoli


class _AncillaPool:
    """Allocates clean ancilla qubits above a circuit's wires and reuses them."""

    def __init__(self, first_free: int) -> None:
        self._next = first_free
        self._free: List[int] = []
        self.high_water = first_free

    def acquire(self) -> int:
        if self._free:
            return self._free.pop()
        qubit = self._next
        self._next += 1
        self.high_water = max(self.high_water, self._next)
        return qubit

    def release(self, qubit: int) -> None:
        self._free.append(qubit)

    @property
    def used(self) -> int:
        return self.high_water


def decompose_mcx_to_toffoli(
    gate: Gate, pool: _AncillaPool, out: List[Gate]
) -> None:
    """Expand one MCX gate into Toffoli/CNOT/X gates, appending to ``out``.

    Follows Figure 5: ``MCX(c1..ck -> t)`` becomes ``Toffoli(c1,c2 -> a)``,
    ``MCX(a,c3..ck -> t)`` recursively, ``Toffoli(c1,c2 -> a)``.  Each level
    borrows one clean ancilla and restores it.
    """
    if gate.kind is not GateKind.MCX:
        raise LoweringError(f"not an MCX gate: {gate}")
    controls = gate.controls
    if len(controls) <= 2:
        out.append(gate)
        return
    ancilla = pool.acquire()
    compute = toffoli(controls[0], controls[1], ancilla)
    out.append(compute)
    inner = mcx((ancilla,) + controls[2:], gate.target)
    decompose_mcx_to_toffoli(inner, pool, out)
    out.append(compute)
    pool.release(ancilla)


def decompose_controlled_h(gate: Gate, pool: _AncillaPool, out: List[Gate]) -> None:
    """Expand a controlled Hadamard into {Clifford, MCX} gates.

    ``C^m H = A · C^m X · A†`` with ``A = S · H · T`` on the target.  The MCX
    part is decomposed further by :func:`decompose_mcx_to_toffoli`.
    """
    if gate.kind is not GateKind.H:
        raise LoweringError(f"not an H gate: {gate}")
    target = gate.target
    if not gate.controls:
        out.append(gate)
        return
    out.append(s(target))
    out.append(h(target))
    out.append(t(target))
    decompose_mcx_to_toffoli(mcx(gate.controls, target), pool, out)
    out.append(tdg(target))
    out.append(h(target))
    out.append(sdg(target))


@shared_memo
def _toffoli_clifford_t(a: int, b: int, c: int) -> Tuple[Gate, ...]:
    """Memoized Figure 6 gate sequence for ``Toffoli(a, b -> c)``.

    Benchmark circuits repeat the same Toffoli (same qubit triple) thousands
    of times; gates are immutable, so the 15-gate sequence can be shared.
    """
    return (
        h(c),
        cnot(b, c),
        tdg(c),
        cnot(a, c),
        t(c),
        cnot(b, c),
        tdg(c),
        cnot(a, c),
        t(b),
        t(c),
        h(c),
        cnot(a, b),
        t(a),
        tdg(b),
        cnot(a, b),
    )


def decompose_toffoli_to_clifford_t(gate: Gate) -> List[Gate]:
    """The standard 7-T realization of the Toffoli gate (Figure 6)."""
    if gate.kind is not GateKind.MCX or len(gate.controls) != 2:
        raise LoweringError(f"not a Toffoli gate: {gate}")
    a, b = gate.controls
    return list(_toffoli_clifford_t(a, b, gate.target))


def decompose_swap(gate: Gate) -> List[Gate]:
    """A SWAP as three CNOTs (controls, if any, go on every CNOT)."""
    if gate.kind is not GateKind.SWAP:
        raise LoweringError(f"not a SWAP gate: {gate}")
    a, b = gate.targets
    seq = [cnot(a, b), cnot(b, a), cnot(a, b)]
    return [g.with_extra_controls(gate.controls) for g in seq]


def _toffoli_level(gate: Gate, pool: _AncillaPool) -> List[Gate]:
    """One MCX-level gate as Toffoli-level gates (ancillas from ``pool``)."""
    out: List[Gate] = []
    if gate.kind is GateKind.MCX:
        decompose_mcx_to_toffoli(gate, pool, out)
    elif gate.kind is GateKind.H:
        decompose_controlled_h(gate, pool, out)
    elif gate.kind is GateKind.SWAP:
        for g in decompose_swap(gate):
            decompose_mcx_to_toffoli(g, pool, out)
    elif gate.kind in PHASE_KINDS:
        if gate.controls:
            raise LoweringError(f"controlled phase gate in MCX-level circuit: {gate}")
        out.append(gate)
    else:  # pragma: no cover - enum is closed
        raise LoweringError(f"cannot decompose {gate}")
    return out


def to_toffoli(circuit: Circuit) -> Circuit:
    """Rewrite an MCX-level circuit so no gate has more than two controls.

    MCX gates with three or more controls are expanded via Figure 5;
    controlled Hadamards are expanded via the ``A · C^mX · A†`` construction.
    Ancilla wires are appended above ``circuit.num_qubits`` and shared.

    Each row of the gate table is expanded once and the applications are
    gathered by row (:meth:`Circuit.expand_rows`).  Every expansion returns
    its ancillas to the pool in the reverse of the order it took them, so
    the pool hands out ``num_qubits, num_qubits + 1, ...`` to every gate
    alike: a gate's ancillas depend only on the gate and
    ``circuit.num_qubits``, never on the gates before it.
    """
    pool = _AncillaPool(circuit.num_qubits)
    result = circuit.expand_rows([_toffoli_level(gate, pool) for gate in circuit.table])
    if pool.used > circuit.num_qubits:
        result.add_register(
            Register("%mcx_ancilla", circuit.num_qubits, pool.used - circuit.num_qubits)
        )
    return result


def expand_toffolis(toffoli_level: Circuit) -> Circuit:
    """Apply the Figure 6 rule to every Toffoli of a Toffoli-level circuit.

    Each row of the gate table is expanded once; the applications are
    gathered by row (:meth:`Circuit.expand_rows`).
    """
    return toffoli_level.expand_rows(
        [
            _toffoli_clifford_t(*gate.controls, gate.target)
            if gate.kind is GateKind.MCX and len(gate.controls) == 2
            else (gate,)
            for gate in toffoli_level.table
        ]
    )


def to_clifford_t(circuit: Circuit) -> Circuit:
    """Fully decompose a circuit to the Clifford+T gate set.

    First reduces to the Toffoli level (:func:`to_toffoli`), then applies the
    Figure 6 rule to every Toffoli.
    """
    return expand_toffolis(to_toffoli(circuit))


class DecompositionCache:
    """Shared ``to_toffoli``/``to_clifford_t`` results, keyed by circuit identity.

    The benchmark runner hands the *same* compiled :class:`Circuit` object to
    several optimizer baselines; each used to re-derive the (large) Toffoli
    and Clifford+T decompositions from scratch.  Entries pin the source
    circuit, so an ``id()`` can never be reused by a different live circuit
    while its entry exists.  Circuits are append-only, so the key pairs the
    identity with the gate count: appending to a circuit misses.  Cached
    circuits are shared — callers must treat them as read-only (all
    optimizers do; they build fresh output circuits).

    Capacity is bounded (``max_entries`` source circuits per level, oldest
    evicted first): baselines for one compiled circuit run back-to-back, so
    a small window keeps the hits while a table-wide sweep over many
    (benchmark, depth) points does not pin every expansion it ever made.
    """

    def __init__(self, max_entries: int = 8) -> None:
        self.max_entries = max_entries
        self._toffoli: Dict[Tuple[int, int], Tuple[Circuit, Circuit]] = {}
        self._clifford_t: Dict[Tuple[int, int], Tuple[Circuit, Circuit]] = {}

    def _put(self, cache: Dict[Tuple[int, int], Tuple[Circuit, Circuit]], key, entry) -> None:
        cache[key] = entry
        while len(cache) > self.max_entries:
            del cache[next(iter(cache))]  # dicts iterate in insertion order

    def toffoli(self, circuit: Circuit) -> Circuit:
        """Cached :func:`to_toffoli` of ``circuit``."""
        key = (id(circuit), len(circuit))
        hit = self._toffoli.get(key)
        if hit is not None and hit[0] is circuit:
            return hit[1]
        result = to_toffoli(circuit)
        self._put(self._toffoli, key, (circuit, result))
        return result

    def clifford_t(self, circuit: Circuit) -> Circuit:
        """Cached :func:`to_clifford_t`, built from the cached Toffoli level."""
        key = (id(circuit), len(circuit))
        hit = self._clifford_t.get(key)
        if hit is not None and hit[0] is circuit:
            return hit[1]
        result = expand_toffolis(self.toffoli(circuit))
        self._put(self._clifford_t, key, (circuit, result))
        return result

    def clear(self) -> None:
        self._toffoli.clear()
        self._clifford_t.clear()


def expanded_t_count(circuit: Circuit) -> int:
    """T/T† gates in the fully decomposed form of ``circuit``.

    Equal to ``circuit.t_complexity()``; provided for cross-checking.
    """
    return to_clifford_t(circuit).t_count()
