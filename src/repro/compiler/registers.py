"""Register allocation with the Appendix D discipline.

The Tower compiler maps IR variables to word-sized registers, reusing
registers aggressively to keep qubit counts down.  Appendix D shows that
under the conditional-narrowing optimization, careless reuse is unsound:
a register freed by an un-assignment that executes *under control* is only
guaranteed to be zero on the branches where the controls are true, so it
cannot be handed to an unrelated variable (Figure 23d).

The rules implemented here:

* **declaration** — a variable's first declaration takes a register from the
  free pool (exact width match) or extends the register file; a
  *re-declaration* of a live variable reuses its register (Appendix B.2:
  "allocate a re-declared variable to the same qubits as the original");
* **un-assignment in the same control-scope instance as the declaration** —
  the register is zero on every branch, so it returns to the free pool
  (this is the aggressive reuse of Figure 23b);
* **un-assignment in a different scope instance** — the register is parked
  in a per-name reserve; only a re-declaration of the *same name* may take
  it back (this is exactly the "same register at the beginning and end of
  the do-block" condition of Appendix D, and what Figure 23d requires).

Scope instances are unique per ``if`` statement encountered during
lowering; ``with`` blocks do not create scopes (they expand to straight-line
code).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..circuit.circuit import Register
from ..errors import AllocationError


@dataclass
class AllocationStats:
    """Bookkeeping for reports and tests."""

    allocated: int = 0
    pooled_reuses: int = 0
    reserved_reuses: int = 0
    high_water: int = 0


class RegisterAllocator:
    """Allocates named registers above ``base_offset`` (qubit index)."""

    def __init__(self, base_offset: int = 0) -> None:
        self.base_offset = base_offset
        self._next = base_offset
        self._free: Dict[int, List[int]] = {}
        self._live: Dict[str, Register] = {}
        self._counts: Dict[str, int] = {}
        self._reserved: Dict[str, Register] = {}
        self._live_scope: Dict[str, int] = {}
        self._scope_counter = 0
        self._scope_stack: List[int] = [0]
        self.stats = AllocationStats()

    # ----------------------------------------------------------------- scopes
    def enter_scope(self) -> int:
        """Enter a new control-scope instance (an ``if`` body)."""
        self._scope_counter += 1
        self._scope_stack.append(self._scope_counter)
        return self._scope_counter

    def exit_scope(self) -> None:
        if len(self._scope_stack) == 1:
            raise AllocationError("exit_scope with no open scope")
        self._scope_stack.pop()

    @property
    def current_scope(self) -> int:
        return self._scope_stack[-1]

    # ------------------------------------------------------------ allocation
    def declare(self, name: str, width: int) -> Register:
        """Bind ``name`` to a register of ``width`` bits.

        Re-declaration of a live name returns its existing register; a name
        with a parked (reserved) register takes it back; otherwise the free
        pool or fresh space is used.
        """
        if name in self._live:
            reg = self._live[name]
            if reg.width != width:
                raise AllocationError(
                    f"{name!r} re-declared at width {width}, register has {reg.width}"
                )
            self._counts[name] += 1
            return reg
        if name in self._reserved:
            reg = self._reserved.pop(name)
            if reg.width != width:
                raise AllocationError(
                    f"{name!r} reserved at width {reg.width}, redeclared at {width}"
                )
            self.stats.reserved_reuses += 1
        elif self._free.get(width):
            offset = self._free[width].pop()
            reg = Register(name, offset, width)
            self.stats.pooled_reuses += 1
        else:
            reg = Register(name, self._next, width)
            self._next += width
            self.stats.allocated += 1
            self.stats.high_water = max(self.stats.high_water, self._next)
        self._live[name] = reg
        self._counts[name] = 1
        self._live_scope[name] = self.current_scope
        return reg

    def lookup(self, name: str) -> Register:
        """The register of a live (or parked) variable."""
        if name in self._live:
            return self._live[name]
        if name in self._reserved:
            return self._reserved[name]
        raise AllocationError(f"no register for variable {name!r}")

    def unassign(self, name: str) -> Register:
        """Release ``name``'s register under the Appendix D rule."""
        if name not in self._live:
            raise AllocationError(f"un-assignment of unbound {name!r}")
        reg = self._live[name]
        if self._counts[name] > 1:
            # one binding of a multiply-declared name (guarded
            # re-declaration); the register stays live.
            self._counts[name] -= 1
            return reg
        del self._live[name]
        del self._counts[name]
        declared_in = self._live_scope.pop(name)
        if declared_in == self.current_scope:
            self._free.setdefault(reg.width, []).append(reg.offset)
        else:
            self._reserved[name] = reg
        return reg

    # --------------------------------------------------------------- queries
    @property
    def region_end(self) -> int:
        """First qubit index beyond the register region."""
        return self._next

    def final_registers(self) -> Dict[str, Register]:
        """Live and reserved registers at the end of compilation.

        This is the mapping callers use to read program outputs.
        """
        result = dict(self._reserved)
        result.update(self._live)
        return result
