"""Circuit container and gate-count reports.

A :class:`Circuit` is an ordered sequence of :class:`~repro.circuit.gates.Gate`
applications over ``num_qubits`` wires, with an optional mapping from named
registers (program variables, memory cells, scratch space) to qubit ranges.

Storage is dictionary-encoded.  A circuit holds a *table* of distinct
``Gate`` objects and an ``int32`` *row column* with one entry per gate
application, naming the table row it applies.  :meth:`Circuit.append` and
:meth:`Circuit.extend` intern gates by object identity.  Every gate builder
returns one shared instance per gate value
(:func:`~repro.circuit.gates.shared_gate`), so a table holds distinct gate
*values* and stays small (``length@2`` un-optimized is 646 gates over 192
rows).  Equal but distinct objects, which only direct ``Gate(...)`` calls
make (as in :mod:`repro.reference` and the tests), simply occupy two rows.
``num_qubits`` grows only when a new row enters the table.
:attr:`Circuit.gates` is a list view built on first use and kept in step
with later appends; it is read-only.

Every consumer between the compiler and the artifact cache works on this
storage: snapshots write the table and the row column
(:mod:`repro.circuit.snapshot`),
:class:`~repro.circuit.gatestream.RowRecords` gathers per-row columns from
each table gate's cached record, and the compiled cancel and fold kernels
read the rows.

The two complexity metrics of the paper are computed here:

* :meth:`Circuit.mcx_complexity` — the number of gates when the circuit is
  expressed in the idealized, arbitrarily-controllable gate set (Section 5):
  every MCX and every (controlled) H counts as one gate.
* :meth:`Circuit.t_complexity` — the number of T gates when the circuit is
  expressed in Clifford+T, using the decompositions of Figures 5 and 6.
  For an MCX-level circuit this is computed analytically (without
  materializing the decomposition); for a Clifford+T circuit it simply counts
  ``T``/``T†`` gates.  The two agree, which the test suite verifies.

Every count is one value per table row, weighted by ``np.bincount`` of the
row column.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .gates import Gate, GateKind

_T_KINDS = (GateKind.T, GateKind.TDG)

_TOP = operator.attrgetter("record.top")

_EMPTY_ROWS = np.empty(0, dtype=np.int32)


@dataclass(frozen=True)
class Register:
    """A named contiguous range of qubits ``offset .. offset+width-1``."""

    name: str
    offset: int
    width: int

    @property
    def qubits(self) -> Tuple[int, ...]:
        """Qubit indices of the register, least-significant bit first."""
        return tuple(range(self.offset, self.offset + self.width))

    def bit(self, i: int) -> int:
        """Qubit index of bit ``i`` (0 = least significant)."""
        if not 0 <= i < self.width:
            raise IndexError(f"bit {i} out of range for {self}")
        return self.offset + i

    def __str__(self) -> str:
        return f"{self.name}[{self.offset}:{self.offset + self.width}]"


class Circuit:
    """An ordered sequence of gates over a fixed number of qubits.

    Stored as a table of distinct gates plus a row column (see the module
    docstring).  Circuits are append-only.
    """

    def __init__(
        self,
        num_qubits: int = 0,
        gates: Iterable[Gate] = (),
        registers: Dict[str, Register] | None = None,
    ) -> None:
        self.num_qubits = num_qubits
        self.registers: Dict[str, Register] = dict(registers or {})
        #: distinct gates, in order of first use; row ``r`` is ``table[r]``
        self.table: List[Gate] = []
        self._row_of: Dict[int, int] | None = {}  # id(gate) -> row
        self._buf = _EMPTY_ROWS  # row column, with spare capacity
        self._size = 0
        self._gates: List[Gate] | None = None
        self.extend(gates)

    @classmethod
    def from_rows(
        cls,
        table: Sequence[Gate],
        rows: np.ndarray,
        num_qubits: int,
        registers: Dict[str, Register] | None = None,
    ) -> "Circuit":
        """A circuit applying ``table[rows[0]], table[rows[1]], ...``.

        ``num_qubits`` must cover every qubit the table touches.  An object
        at several rows keeps its first, and rows the column never names are
        dropped, so every table row of a circuit is a distinct object that
        is applied at least once.
        """
        rows = np.array(rows, dtype=np.int32)
        if len(set(map(id, table))) < len(table):
            first: Dict[int, int] = {}
            merged = [first.setdefault(id(g), r) for r, g in enumerate(table)]
            rows = np.array(merged, dtype=np.int32).take(rows)
        return cls.from_distinct_rows(table, rows, num_qubits, registers)

    @classmethod
    def from_distinct_rows(
        cls,
        table: Sequence[Gate],
        rows: np.ndarray,
        num_qubits: int,
        registers: Dict[str, Register] | None = None,
    ) -> "Circuit":
        """:meth:`from_rows` for a table that holds distinct objects
        already: only the rows the column never names are dropped."""
        rows = np.array(rows, dtype=np.int32)
        used = np.bincount(rows, minlength=len(table)) > 0
        if not used.all():
            table = [table[r] for r in np.flatnonzero(used).tolist()]
            rows = (np.cumsum(used, dtype=np.int32) - 1).take(rows)
        circuit = cls(num_qubits, (), registers)
        circuit.table = list(table)
        circuit._row_of = None  # built on the first append
        circuit._buf = rows
        circuit._size = len(rows)
        return circuit

    # ----------------------------------------------------------- construction
    def _index(self) -> Dict[int, int]:
        row_of = self._row_of
        if row_of is None:
            row_of = self._row_of = {id(g): r for r, g in enumerate(self.table)}
        return row_of

    def _intern(self, gates: Iterable[Gate]) -> List[int]:
        """Table rows of ``gates``, adding a row for each new object."""
        row_of = self._index()
        table = self.table
        rows = []
        for gate in gates:
            key = id(gate)
            row = row_of.get(key)
            if row is None:
                row = row_of[key] = len(table)
                table.append(gate)
                top = gate.record.top
                if top >= self.num_qubits:
                    self.num_qubits = top + 1
            rows.append(row)
        return rows

    def _push(self, rows) -> None:
        n = self._size
        end = n + len(rows)
        if end > len(self._buf):
            grown = np.empty(max(end, 2 * len(self._buf), 16), dtype=np.int32)
            grown[:n] = self._buf[:n]
            self._buf = grown
        self._buf[n:end] = rows
        self._size = end

    def append(self, gate: Gate) -> None:
        """Append one gate, growing the qubit count if it is a new row."""
        self._push(self._intern((gate,)))
        if self._gates is not None:
            self._gates.append(gate)

    def extend(self, gates: Iterable[Gate]) -> List[int]:
        """Append several gates; returns their table rows."""
        batch = list(gates)
        if not batch:
            return []
        rows = self._intern(batch)
        self._push(rows)
        if self._gates is not None:
            self._gates.extend(batch)
        return rows

    def extend_rows(self, rows: Sequence[int]) -> None:
        """Append the gates at table rows ``rows`` again."""
        self._push(rows)
        if self._gates is not None:
            self._gates.extend(self.table[r] for r in rows)

    def expand_rows(self, expansions: Sequence[Sequence[Gate]]) -> "Circuit":
        """A new circuit with each application of row ``r`` replaced by the
        gate sequence ``expansions[r]`` (registers kept, width grown to
        cover the expansions).

        Each table row is expanded once.  The expansions are interned
        together, by one ``np.unique`` over the gates' ``id()`` values
        (table rows in order of first use), and the applications are
        gathered by row with numpy.
        """
        out = Circuit(self.num_qubits, (), self.registers)
        flat = list(itertools.chain.from_iterable(expansions))
        if not flat:
            return out
        ids = np.fromiter(map(id, flat), np.uint64, len(flat))
        _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty(len(order), dtype=np.int32)
        rank[order] = np.arange(len(order), dtype=np.int32)
        out.table = [flat[i] for i in first[order].tolist()]
        out._row_of = None  # built on the first append
        out.num_qubits = max(out.num_qubits, 1 + max(map(_TOP, out.table)))
        lengths = np.fromiter(map(len, expansions), np.int64, len(expansions))
        rows = self.rows
        take = lengths.take(rows)
        total = int(take.sum())
        # position j of the output reads flat[start of its row + offset]
        shift = np.repeat((np.cumsum(lengths) - lengths).take(rows) - (np.cumsum(take) - take), take)
        out._push(rank[inverse[shift + np.arange(total)]])
        return out

    def add_register(self, register: Register) -> Register:
        """Record a named register; returns it for convenience."""
        self.registers[register.name] = register
        end = register.offset + register.width
        if end > self.num_qubits:
            self.num_qubits = end
        return register

    def copy(self) -> "Circuit":
        """A shallow copy (gates are immutable)."""
        return Circuit.from_distinct_rows(self.table, self.rows, self.num_qubits, self.registers)

    def inverse(self) -> "Circuit":
        """The inverse circuit: reversed gate order, each gate inverted."""
        return Circuit.from_rows(
            [gate.inverse() for gate in self.table],
            self.rows[::-1],
            self.num_qubits,
            self.registers,
        )

    # ------------------------------------------------------------- iteration
    @property
    def rows(self) -> np.ndarray:
        """The row column: ``table[rows[i]]`` is gate ``i`` (read-only)."""
        view = self._buf[: self._size]
        view.flags.writeable = False
        return view

    @property
    def gates(self) -> List[Gate]:
        """The gate list, built on first use; callers must not mutate it."""
        gates = self._gates
        if gates is None:
            table = np.empty(len(self.table), dtype=object)
            table[:] = self.table
            gates = self._gates = table.take(self.rows).tolist()
        return gates

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.gates[index]
        return self.table[self.rows[index]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self.gates == other.gates

    # --------------------------------------------------------------- metrics
    def _used_rows(self) -> Iterator[Tuple[Gate, int]]:
        """``(gate, applications)`` for every table row (each is applied)."""
        return zip(self.table, np.bincount(self.rows, minlength=len(self.table)).tolist())

    def mcx_complexity(self) -> int:
        """Gate count in the idealized arbitrarily-controllable gate set.

        Only meaningful for MCX-level circuits; every gate counts once.
        """
        return self._size

    def t_complexity(self) -> int:
        """Number of T gates under the Clifford+T decomposition."""
        return sum(c * g.t_cost() for g, c in self._used_rows())

    def t_count(self) -> int:
        """Literal count of T/T† gates (for circuits already in Clifford+T)."""
        return sum(c for g, c in self._used_rows() if g.kind in _T_KINDS)

    def gate_histogram(self) -> Counter:
        """Histogram keyed by (kind, number of controls)."""
        hist: Counter = Counter()
        for g, c in self._used_rows():
            hist[(g.kind, len(g.controls))] += c
        return hist

    def count_kind(self, kind: GateKind, num_controls: int | None = None) -> int:
        """Count gates of one kind, optionally restricted to a control count."""
        return sum(
            c
            for g, c in self._used_rows()
            if g.kind is kind
            and (num_controls is None or len(g.controls) == num_controls)
        )

    def is_clifford_t(self) -> bool:
        """True when every gate lies in the Clifford+T set."""
        return all(g.is_clifford_t() for g, _ in self._used_rows())

    def max_controls(self) -> int:
        """Largest number of controls on any gate (0 for an empty circuit)."""
        return max((len(g.controls) for g, _ in self._used_rows()), default=0)

    def __repr__(self) -> str:
        return f"<Circuit {self.num_qubits} qubits, {len(self)} gates>"

