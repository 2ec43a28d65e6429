""".qc circuit format (Mosca 2016), the output format of the Tower compiler.

The format names every wire in a ``.v`` header, lists primary inputs in
``.i``, and writes one gate per line between ``BEGIN`` and ``END``.  Gate
spellings follow the conventions used by Feynman and related tools:

* ``tof a b ... t`` — multiply-controlled NOT (last wire is the target);
  ``tof t`` is X and ``tof a t`` is CNOT,
* ``H a`` / ``T a`` / ``T* a`` / ``S a`` / ``S* a`` / ``Z a`` — single-qubit
  gates,
* ``swap a b``.

We write qubit ``i`` as ``q<i>`` unless the circuit has a register map, in
which case wires are named ``<register>_<bit>``.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import ParseError
from .circuit import Circuit
from .gates import Gate, GateKind, mcx, shared_gate, swap

_KIND_TO_NAME = {
    GateKind.H: "H",
    GateKind.T: "T",
    GateKind.TDG: "T*",
    GateKind.S: "S",
    GateKind.SDG: "S*",
    GateKind.Z: "Z",
}
_NAME_TO_KIND = {name.lower(): kind for kind, name in _KIND_TO_NAME.items()}


def _wire_names(circuit: Circuit) -> List[str]:
    names = [f"q{i}" for i in range(circuit.num_qubits)]
    for reg in circuit.registers.values():
        safe = reg.name.replace(" ", "_").replace("%", "anc_")
        for bit in range(reg.width):
            idx = reg.offset + bit
            if idx < len(names):
                names[idx] = f"{safe}_{bit}" if reg.width > 1 else safe
    # ensure uniqueness even with odd register maps
    seen: Dict[str, int] = {}
    for i, name in enumerate(names):
        if name in seen:
            names[i] = f"{name}__{i}"
        seen[names[i]] = i
    return names


def dumps(circuit: Circuit, inputs: List[str] | None = None) -> str:
    """Serialize a circuit to .qc text."""
    names = _wire_names(circuit)
    lines = [".v " + " ".join(names)]
    lines.append(".i " + " ".join(inputs if inputs is not None else names))
    lines.append("")
    lines.append("BEGIN")
    for gate in circuit.gates:
        if gate.kind is GateKind.MCX:
            wires = [names[q] for q in gate.controls + gate.targets]
            lines.append("tof " + " ".join(wires))
        elif gate.kind is GateKind.SWAP:
            if gate.controls:
                raise ParseError("controlled SWAP has no .qc spelling; decompose first")
            lines.append("swap " + " ".join(names[q] for q in gate.targets))
        elif gate.kind in _KIND_TO_NAME:
            if gate.controls:
                raise ParseError(
                    f"controlled {gate.kind.value} has no .qc spelling; decompose first"
                )
            lines.append(f"{_KIND_TO_NAME[gate.kind]} {names[gate.target]}")
        else:  # pragma: no cover - enum is closed
            raise ParseError(f"cannot serialize {gate}")
    lines.append("END")
    return "\n".join(lines) + "\n"


def loads(text: str) -> Circuit:
    """Parse .qc text back into a circuit (wire order follows the .v line)."""
    wires: Dict[str, int] = {}
    gates: List[Gate] = []
    in_body = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(".v"):
            for name in line.split()[1:]:
                if name in wires:
                    raise ParseError(f"duplicate wire {name!r}")
                wires[name] = len(wires)
            continue
        if line.startswith("."):
            continue  # .i/.o/.c headers carry no circuit structure we need
        if line.upper() == "BEGIN":
            in_body = True
            continue
        if line.upper() == "END":
            in_body = False
            continue
        if not in_body:
            raise ParseError(f"gate outside BEGIN/END: {line!r}")
        parts = line.split()
        op = parts[0].lower()
        args = parts[1:]
        try:
            qubits = [wires[a] for a in args]
        except KeyError as exc:
            raise ParseError(f"unknown wire in {line!r}") from exc
        if op in ("tof", "x", "not", "cnot", "t1", "t2", "t3", "t4", "t5"):
            if not qubits:
                raise ParseError(f"tof with no wires: {line!r}")
            gates.append(mcx(qubits[:-1], qubits[-1]))
        elif op == "swap":
            if len(qubits) != 2:
                raise ParseError(f"swap needs two wires: {line!r}")
            gates.append(swap(*qubits))
        elif op in _NAME_TO_KIND:
            if len(qubits) != 1:
                raise ParseError(f"{op} needs one wire: {line!r}")
            gates.append(shared_gate(_NAME_TO_KIND[op], (), (qubits[0],)))
        else:
            raise ParseError(f"unknown gate {op!r}")
    return Circuit(len(wires), gates)


def dump(circuit: Circuit, path: str, inputs: List[str] | None = None) -> None:
    """Write a circuit to a .qc file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(circuit, inputs))


def load(path: str) -> Circuit:
    """Read a circuit from a .qc file."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())
