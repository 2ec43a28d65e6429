"""Symbolic cost analysis: closed-form T/MCX bounds in the depth bound d.

Section 8.1 fits "the lowest-degree polynomial that exactly fits the
T-complexities" over a depth range; this module turns that methodology
into a *static analysis with a soundness argument*:

* the polynomial degree is bounded **structurally** — every level of
  bounded-recursion nesting multiplies the work by at most a linear
  factor of the depth bound, so the cost series of an entry with
  recursion-nesting depth ``r`` (:meth:`CallGraph.recursion_depth`) is a
  polynomial of degree at most ``r + 1`` once the recursion is "warm";
* the closed form is fitted exactly (over rationals, via
  :mod:`repro.cost.asymptotics`) on a tail window of ``degree_bound + 1``
  probe depths and then *confirmed* on additional independent probes; a
  mismatch is an :class:`~repro.errors.AnalysisError`, never a silently
  wrong bound;
* depths below the stabilization point are carried as an exact table, so
  :meth:`ClosedForm.evaluate` equals the measured cost at **every**
  depth, not only asymptotically.

The same module provides the concrete single-depth path
(:func:`static_bounds`): desugar, apply the pipeline's own IR passes
(:func:`repro.passes.rewrite_ir`), and run the exact cost model — the
number the fuzz oracle compares against compiled circuits, which it must
equal gate-for-gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..compiler.pipeline import infer_cell_bits
from ..config import CompilerConfig
from ..cost.asymptotics import evaluate as poly_eval
from ..cost.asymptotics import fit_polynomial, format_polynomial
from ..cost.exact import exact_counts
from ..errors import AnalysisError
from ..ir import core
from ..ir.typecheck import check_program
from ..lang import ast
from ..lang.desugar import lower_entry
from ..passes.manager import rewrite_ir
from ..passes.pipeline import resolve_pipeline
from ..types import Type, TypeTable
from .dataflow import CallGraph

#: extra probe depths beyond the fitting window, used purely to confirm
#: that the fitted polynomial has stabilized
CONFIRM_POINTS = 3

#: probes tolerated as irregular warmup below the stabilization point
#: (recursion base cases legitimately break the polynomial pattern)
WARMUP_POINTS = 2


def counts_for_stmt(
    stmt: core.Stmt,
    table: TypeTable,
    param_types: Mapping[str, Type],
) -> Tuple[int, int]:
    """(MCX, T) of a core statement by the exact cost model, at the
    widths its relaxed check (Figure 20) types its names at."""
    var_types = check_program(stmt, table, param_types, relaxed=True).types
    cell_bits = infer_cell_bits(stmt, table, var_types)
    return exact_counts(stmt, table, var_types, cell_bits)


def static_bounds(
    program: ast.Program,
    entry: str,
    size: Optional[int],
    pipeline: str = "none",
    config: Optional[CompilerConfig] = None,
) -> Tuple[int, int]:
    """The static (MCX, T) bound for one entry at one depth, per pipeline.

    ``pipeline`` is any spec (see :func:`repro.passes.resolve_pipeline`);
    a bad one raises :class:`~repro.passes.PassError`.  The bound is
    computed on the core IR *as rewritten by the pipeline's own IR
    passes* — dominance across pipelines does not hold (flattening can
    increase T on programs whose conditionals are cheaper than the
    flattened guard plumbing), so each pipeline is verified against the
    bound of its own rewrite.  Without gate passes it equals the compiled
    circuit's counts exactly.
    """
    resolved = resolve_pipeline(pipeline)
    lowered = lower_entry(program, entry, size, config)
    stmt = rewrite_ir(resolved, lowered.stmt, lowered.table, lowered.param_types)
    return counts_for_stmt(stmt, lowered.table, lowered.param_types)


# ------------------------------------------------------------ closed forms
@dataclass(frozen=True)
class ClosedForm:
    """A cost series as an exact polynomial tail plus a low-depth table.

    ``evaluate(d)`` equals the measured cost at every probed depth: the
    polynomial applies for ``d >= valid_from`` and the ``exact`` table
    covers the probed depths below it.
    """

    coeffs: Tuple[Fraction, ...]  # lowest degree first
    valid_from: int
    exact: Tuple[Tuple[int, int], ...] = ()  # sorted (depth, value) pairs
    var: str = "d"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, depth: int) -> int:
        if depth >= self.valid_from:
            value = poly_eval(self.coeffs, depth)
            if value.denominator != 1:
                raise AnalysisError(
                    f"closed form is non-integral at depth {depth}"
                )
            return int(value)
        for d, v in self.exact:
            if d == depth:
                return v
        raise AnalysisError(
            f"closed form has no value for depth {depth} "
            f"(polynomial valid from {self.valid_from})"
        )

    def render(self) -> str:
        text = format_polynomial(list(self.coeffs), var=self.var)
        if self.valid_from > 1 and self.exact:
            table = ", ".join(f"{self.var}={d}: {v}" for d, v in self.exact)
            return f"{text} for {self.var} >= {self.valid_from}; {table}"
        return text


def fit_closed_form(
    series: Mapping[int, int], degree_bound: int, var: str = "d"
) -> ClosedForm:
    """Fit an exact closed form to a cost series probed at integer depths.

    The fit interpolates the highest ``degree_bound + 1`` depths; the
    polynomial must then be *confirmed* by up to :data:`CONFIRM_POINTS`
    independent probes immediately below the window (up to
    :data:`WARMUP_POINTS` probes of base-case irregularity are tolerated
    — recursion base cases legitimately break the pattern).
    ``valid_from`` slides down as far as the polynomial keeps matching;
    probes below it are carried as an exact table.  A series that fails
    confirmation raises — the structural degree argument would be
    falsified, so no bound is produced.
    """
    if not series:
        raise AnalysisError("cannot fit a closed form to an empty series")
    points = sorted(series.items())
    if len(points) == 1:
        depth, value = points[0]
        return ClosedForm((Fraction(value),), valid_from=depth, var=var)
    window = degree_bound + 1
    tail = points[-window:]
    coeffs = fit_polynomial([d for d, _ in tail], [v for _, v in tail])
    if coeffs is None or len(coeffs) - 1 > degree_bound:
        raise AnalysisError(
            f"cost series did not stabilize to degree <= {degree_bound} "
            f"on depths {[d for d, _ in tail]}"
        )
    valid_from = tail[0][0]
    matched = 0
    for depth, value in reversed(points[: -len(tail)]):
        if poly_eval(coeffs, depth) == value:
            valid_from = depth
            matched += 1
        else:
            break
    needed = min(CONFIRM_POINTS, max(0, len(points) - window - WARMUP_POINTS))
    if matched < needed:
        raise AnalysisError(
            f"cost series did not stabilize to degree <= {degree_bound}: "
            f"the polynomial interpolating depths {[d for d, _ in tail]} "
            f"is confirmed by only {matched} of the {needed} required "
            "independent probes below the window"
        )
    exact = tuple((d, v) for d, v in points if d < valid_from)
    return ClosedForm(tuple(coeffs), valid_from=valid_from, exact=exact, var=var)


# ------------------------------------------------------- per-function bounds
@dataclass(frozen=True)
class FunctionBound:
    """Closed-form T and MCX bounds for one function under one pipeline."""

    name: str
    sized: bool
    t: ClosedForm
    mcx: ClosedForm
    depths: Tuple[int, ...]
    recurrence: str = ""

    def row(self) -> Dict[str, object]:
        return {
            "function": self.name,
            "sized": self.sized,
            "t": self.t.render(),
            "t_degree": self.t.degree,
            "mcx": self.mcx.render(),
            "mcx_degree": self.mcx.degree,
            "probed_depths": list(self.depths),
            "recurrence": self.recurrence,
        }


@dataclass(frozen=True)
class SymbolicReport:
    """Per-function closed forms for one entry point under one pipeline."""

    entry: str
    #: the pipeline spec as the caller gave it
    pipeline: str
    size_param: Optional[str]
    functions: Tuple[FunctionBound, ...]  # entry first, then callees

    @property
    def entry_bound(self) -> FunctionBound:
        return self.functions[0]

    def evaluate(self, depth: Optional[int]) -> Tuple[int, int]:
        """(MCX, T) at one depth, from the entry's closed forms."""
        d = 1 if depth is None else depth
        bound = self.entry_bound
        return bound.mcx.evaluate(d), bound.t.evaluate(d)

    def render_human(self) -> str:
        var = "d"
        lines = [
            f"symbolic cost bounds for entry '{self.entry}' "
            f"(pipeline '{self.pipeline}', depth variable {var}):"
        ]
        for fb in self.functions:
            if fb.sized:
                head = f"{fb.name}[{var}]"
            else:
                head = fb.name
            lines.append(f"  {head}:")
            lines.append(f"    T({var})   = {fb.t.render()}")
            lines.append(f"    MCX({var}) = {fb.mcx.render()}")
            if fb.recurrence:
                lines.append(f"    {fb.recurrence}")
        return "\n".join(lines)

    def rows(self) -> List[Dict[str, object]]:
        return [fb.row() for fb in self.functions]


def _probe_series(
    probe: Callable[[int], Tuple[int, int]], depths: List[int]
) -> Tuple[Dict[int, int], Dict[int, int]]:
    mcx_series: Dict[int, int] = {}
    t_series: Dict[int, int] = {}
    for depth in depths:
        mcx, t = probe(depth)
        mcx_series[depth] = mcx
        t_series[depth] = t
    return mcx_series, t_series


def _render_size(size: ast.SizeExpr, var: str = "d") -> str:
    if size.var is None:
        return str(size.offset)
    if size.offset == 0:
        return var
    if size.offset < 0:
        return f"{var}+{-size.offset}"
    return f"{var}-{size.offset}"


def _recurrence_for(
    fdef: ast.FunDef,
    graph: CallGraph,
    bounds: Mapping[str, FunctionBound],
    t_series: Mapping[int, int],
    degree_bound: int,
) -> str:
    """Render ``T_f(d) = Δ(d) + Σ T_g(size)`` with Δ fitted exactly.

    The residual Δ is fitted only at depths where every sized callee's
    bound evaluates to >= 1 — below that, a call site degenerates to the
    zero value of its return type and its (constant) cost belongs to a
    different piece of the piecewise form.
    """
    size_param = fdef.size_param
    if size_param is None:
        return ""
    sized_sites = [
        site
        for site in graph.callees(fdef.name)
        if site.size is not None and site.callee in bounds
    ]
    residual: Dict[int, int] = {}
    for depth, total in sorted(t_series.items()):
        value = total
        uniform = True
        for site in sized_sites:
            assert site.size is not None
            try:
                k = site.size.evaluate({size_param: depth})
            except KeyError:
                uniform = False
                break
            if k < 1:
                uniform = False
                break
            try:
                value -= bounds[site.callee].t.evaluate(k)
            except AnalysisError:
                uniform = False
                break
        if uniform:
            residual[depth] = value
    if len(residual) < 2:
        return ""
    try:
        delta = fit_closed_form(residual, degree_bound, var="d")
    except AnalysisError:
        return ""
    calls = " + ".join(
        f"T_{site.callee}({_render_size(site.size)})"
        for site in sized_sites
        if site.size is not None
    )
    body = format_polynomial(list(delta.coeffs), var="d")
    tail = f" + {calls}" if calls else ""
    lo = min(residual)
    return f"recurrence: T_{fdef.name}(d) = {body}{tail}  [d >= {lo}]"


def symbolic_cost(
    program: ast.Program,
    entry: str,
    pipeline: str = "none",
    config: Optional[CompilerConfig] = None,
) -> SymbolicReport:
    """Closed-form T/MCX bounds for ``entry`` and every reachable function.

    Probes each sized function at depths ``1 .. degree_bound + 1 +
    CONFIRM_POINTS + WARMUP_POINTS`` (its structural degree bound plus
    confirmation probes plus warmup allowance), fits the exact
    polynomial tail, and renders per-function recurrences.  Raises :class:`AnalysisError` if any series fails to
    stabilize at its structural degree bound — that would falsify the
    degree argument, not merely widen a constant.  A bad ``pipeline``
    spec raises :class:`~repro.passes.PassError`, as in
    :func:`static_bounds`.
    """
    graph = CallGraph(program)
    entry_fdef = program.fun(entry)
    order = [
        name
        for name in graph.reachable(entry)
        if program.has_fun(name)
    ]

    bounds: Dict[str, FunctionBound] = {}
    t_tables: Dict[str, Dict[int, int]] = {}
    # fit callees first so the entry's recurrence can reference them
    for name in reversed(order):
        fdef = program.fun(name)
        degree_bound = graph.recursion_depth(name) + 1
        if fdef.size_param is None:
            depths = [1]
            mcx, t = static_bounds(program, name, None, pipeline, config)
            bounds[name] = FunctionBound(
                name=name,
                sized=False,
                t=ClosedForm((Fraction(t),), valid_from=0),
                mcx=ClosedForm((Fraction(mcx),), valid_from=0),
                depths=(1,),
            )
            continue
        depths = list(
            range(1, degree_bound + 1 + CONFIRM_POINTS + WARMUP_POINTS + 1)
        )
        mcx_series, t_series = _probe_series(
            lambda d, _n=name: static_bounds(program, _n, d, pipeline, config),
            depths,
        )
        t_tables[name] = t_series
        bounds[name] = FunctionBound(
            name=name,
            sized=True,
            t=fit_closed_form(t_series, degree_bound),
            mcx=fit_closed_form(mcx_series, degree_bound),
            depths=tuple(depths),
        )
    # second pass: recurrences (need every callee bound present)
    for name in order:
        fb = bounds[name]
        if not fb.sized:
            continue
        recurrence = _recurrence_for(
            program.fun(name),
            graph,
            bounds,
            t_tables[name],
            graph.recursion_depth(name) + 1,
        )
        if recurrence:
            bounds[name] = FunctionBound(
                name=fb.name,
                sized=fb.sized,
                t=fb.t,
                mcx=fb.mcx,
                depths=fb.depths,
                recurrence=recurrence,
            )

    ordered = tuple(bounds[name] for name in order)
    return SymbolicReport(
        entry=entry,
        pipeline=pipeline,
        size_param=entry_fdef.size_param,
        functions=ordered,
    )
