"""Superposition budget: RPA301.

A program with ``H`` statements branches into superposition, and a
sparse simulation of its circuit carries up to ``2^H`` branches.  The
count is the number of ``H`` statements in the *checked entry* — the
entry point after inlining, exactly the core IR a compile lowers — so
one surface ``H`` inside a recursive function counts once per inlined
copy (a budget on *surface* H counts undercounts them and lets the
simulated support explode as ``2^H``), and an ``H`` the desugarer
drops (under a statically false ``if``) does not count.

RPA301 fires when ``2^H`` exceeds the sparse-simulation support cap.
"""

from __future__ import annotations

from typing import List

from ..ir import core
from ..lang import ast
from ..lang.desugar import Lowered
from .diagnostics import Diagnostic, make_diagnostic

#: the sparse statevector support cap the fuzz oracles simulate under
DEFAULT_SUPPORT_CAP = 1 << 12


def check_hadamard_budget(
    lowered: Lowered,
    fdef: ast.FunDef,
    support_cap: int = DEFAULT_SUPPORT_CAP,
) -> List[Diagnostic]:
    """RPA301: worst-case superposition support vs. the simulation cap.

    ``lowered`` is the checked entry and ``fdef`` the entry's surface
    definition.  The finding points at the first ``H`` the count
    includes (else at the definition).
    """
    total = sum(
        1 for node in lowered.stmt.walk() if isinstance(node, core.Hadamard)
    )
    cap_bits = max(0, support_cap.bit_length() - 1)
    if total <= cap_bits:
        return []
    return [
        make_diagnostic(
            "RPA301",
            f"{total} Hadamards reachable after inlining: worst-case "
            f"superposition support 2^{total} exceeds the sparse-"
            f"simulation cap of {support_cap} (2^{cap_bits}) branches",
            span=lowered.hadamard_span or fdef.span,
            function=fdef.name,
        )
    ]
