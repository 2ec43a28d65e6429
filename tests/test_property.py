"""Property-based tests (hypothesis) over random programs and circuits.

Invariants checked:

* the exact cost model equals the compiled circuit's counts on *random*
  well-formed core programs (Theorems 5.1/5.2);
* the compiled circuit agrees with the IR interpreter on random inputs;
* Spire rewrites preserve semantics and never increase T-complexity on
  control-flow-heavy random programs;
* circuit optimizers preserve the unitary (up to global phase) of random
  Clifford+T circuits;
* reversal: running ``s; I[s]`` restores every register.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.circopt import cancel_to_fixpoint, fold_phases
from repro.circuit import Circuit, classical_sim, cnot, h, s as s_gate, t as t_gate, tdg, toffoli, x
from repro.circuit.statevector import circuits_equivalent
from repro.compiler import compile_core
from repro.config import CompilerConfig
from repro.cost import exact_counts
from repro.ir import (
    Assign,
    AtomE,
    BinOp,
    BoolV,
    If,
    Lit,
    Stmt,
    Swap,
    UIntV,
    UnOp,
    Var,
    With,
    check_program,
    reverse,
    run_program,
    seq,
)
from repro.opt import spire_optimize
from repro.types import BOOL, UINT, TypeTable

CFG = CompilerConfig(word_width=2, addr_width=2, heap_cells=2)

# ---------------------------------------------------------------- programs
# A small generator of well-formed core programs over fixed inputs:
# bools c0..c2 and uints u0..u2.
BOOL_VARS = ["c0", "c1", "c2"]
UINT_VARS = ["u0", "u1", "u2"]
INPUT_TYPES = {**{b: BOOL for b in BOOL_VARS}, **{u: UINT for u in UINT_VARS}}

bool_atom = st.one_of(
    st.sampled_from(BOOL_VARS).map(Var),
    st.booleans().map(lambda b: Lit(BoolV(b))),
)
uint_atom = st.one_of(
    st.sampled_from(UINT_VARS).map(Var),
    st.integers(0, 3).map(lambda n: Lit(UIntV(n))),
)

fresh_names = st.integers(0, 1_000_000).map(lambda n: f"v{n}")


def bool_expr():
    return st.one_of(
        bool_atom.map(AtomE),
        st.tuples(bool_atom, bool_atom).map(lambda p: BinOp("&&", *p)),
        st.tuples(bool_atom, bool_atom).map(lambda p: BinOp("||", *p)),
        st.sampled_from(BOOL_VARS).map(lambda v: UnOp("not", Var(v))),
        st.tuples(uint_atom, uint_atom).map(lambda p: BinOp("==", *p)),
        st.tuples(uint_atom, uint_atom).map(lambda p: BinOp("<", *p)),
    )


def uint_expr():
    return st.one_of(
        uint_atom.map(AtomE),
        st.tuples(st.sampled_from(["+", "-", "*"]), uint_atom, uint_atom).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        st.sampled_from(UINT_VARS).map(lambda v: UnOp("test", Var(v))),
    )


def assign_stmt():
    # fresh targets only, so programs are trivially well-formed
    return st.one_of(
        st.tuples(fresh_names, bool_expr()).map(lambda p: Assign("b" + p[0], p[1])),
        st.tuples(fresh_names, uint_expr()).map(lambda p: Assign("x" + p[0], p[1])),
    )


def program(depth=2):
    if depth == 0:
        return assign_stmt()
    sub = program(depth - 1)
    return st.one_of(
        assign_stmt(),
        st.lists(sub, min_size=1, max_size=3).map(lambda ss: seq(*ss)),
        st.tuples(st.sampled_from(BOOL_VARS), sub).map(lambda p: If(p[0], p[1])),
        st.tuples(sub, sub).map(lambda p: With(p[0], p[1])),
    )


def well_formed(stmt: Stmt) -> bool:
    # these tests assert invariants on programs the compiler accepts: the
    # check is the only typing walk, so it alone decides (a drawn name
    # reused at another type after a With closed its scope is rejected)
    try:
        check_program(stmt, TypeTable(CFG), INPUT_TYPES)
        return True
    except Exception:
        return False


program_strategy = program(2).filter(well_formed)

input_strategy = st.fixed_dictionaries(
    {**{b: st.integers(0, 1) for b in BOOL_VARS}, **{u: st.integers(0, 3) for u in UINT_VARS}}
)

SLOW = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@SLOW
@given(stmt=program_strategy)
def test_exact_cost_model_matches_compiled_circuit(stmt):
    table = TypeTable(CFG)
    cp = compile_core(stmt, table, INPUT_TYPES)
    mcx, t = exact_counts(cp.core, cp.table, cp.var_types, cp.cell_bits)
    assert mcx == cp.mcx_complexity()
    assert t == cp.t_complexity()


@SLOW
@given(stmt=program_strategy, inputs=input_strategy)
def test_circuit_agrees_with_interpreter(stmt, inputs):
    table = TypeTable(CFG)
    cp = compile_core(stmt, table, INPUT_TYPES)
    machine = run_program(stmt, table, dict(inputs), dict(INPUT_TYPES))
    out = classical_sim.run_on_registers(cp.circuit, inputs)
    for name, value in machine.registers.items():
        if name in cp.circuit.registers:
            assert out[name] == value, name


@SLOW
@given(stmt=program_strategy, inputs=input_strategy)
def test_spire_preserves_semantics(stmt, inputs):
    table = TypeTable(CFG)
    optimized = spire_optimize(stmt)
    m1 = run_program(stmt, table, dict(inputs), dict(INPUT_TYPES))
    m2 = run_program(optimized, table, dict(inputs), dict(INPUT_TYPES))
    for name in set(m1.registers) | set(m2.registers):
        if name.startswith("%cf"):
            assert m2.registers.get(name, 0) == 0, name  # temporaries clean
        else:
            assert m1.registers.get(name, 0) == m2.registers.get(name, 0), name


@SLOW
@given(stmt=program_strategy)
def test_spire_t_overhead_bounded_by_flattening_constant(stmt):
    # Theorem 6.1: flattening turns O(kn) into O(k+n) — for tiny bodies the
    # introduced `z <- x && y` (one Toffoli, computed and uncomputed: 14 T)
    # per nesting level may exceed the savings, so the bound is additive.
    table = TypeTable(CFG)
    before = compile_core(stmt, table, INPUT_TYPES, optimization="none")
    after = compile_core(stmt, table, INPUT_TYPES, optimization="spire")
    n_ifs = sum(1 for node in stmt.walk() if isinstance(node, If))
    assert after.t_complexity() <= before.t_complexity() + 14 * n_ifs


@SLOW
@given(stmt=program_strategy, inputs=input_strategy)
def test_reversal_restores_state(stmt, inputs):
    table = TypeTable(CFG)
    round_trip = seq(stmt, reverse(stmt))
    machine = run_program(round_trip, table, dict(inputs), dict(INPUT_TYPES))
    for name, value in machine.registers.items():
        if name in inputs:
            assert value == inputs[name], name
        else:
            assert value == 0, name


# ---------------------------------------------------------------- circuits
def random_clifford_t(num_qubits=3):
    gate = st.one_of(
        st.tuples(st.sampled_from(range(num_qubits))).map(lambda q: x(q[0])),
        st.tuples(st.sampled_from(range(num_qubits))).map(lambda q: h(q[0])),
        st.tuples(st.sampled_from(range(num_qubits))).map(lambda q: t_gate(q[0])),
        st.tuples(st.sampled_from(range(num_qubits))).map(lambda q: tdg(q[0])),
        st.tuples(st.sampled_from(range(num_qubits))).map(lambda q: s_gate(q[0])),
        st.permutations(range(num_qubits)).map(lambda p: cnot(p[0], p[1])),
        st.permutations(range(num_qubits)).map(lambda p: toffoli(p[0], p[1], p[2])),
    )
    return st.lists(gate, min_size=0, max_size=14).map(
        lambda gates: Circuit(num_qubits, gates)
    )


@SLOW
@given(circ=random_clifford_t())
def test_cancel_pass_preserves_unitary(circ):
    reduced = Circuit(circ.num_qubits, cancel_to_fixpoint(circ.gates))
    assert circuits_equivalent(circ, reduced)


@SLOW
@given(circ=random_clifford_t())
def test_phase_folding_preserves_unitary(circ):
    from repro.circuit import to_clifford_t

    clifford_t = to_clifford_t(circ)
    folded = fold_phases(clifford_t)
    assert circuits_equivalent(clifford_t, folded)
    assert folded.t_count() <= clifford_t.t_count()
