"""Unit tests for the dataflow framework (repro.analysis.dataflow)."""

from __future__ import annotations

from typing import FrozenSet

from repro.analysis import (
    BACKWARD,
    BODY,
    CallGraph,
    FORWARD,
    SETUP,
    UNCOMPUTE,
    Analysis,
    NodeView,
    run_surface,
)
from repro.lang.parser import parse_program

WITH_SRC = """
fun main(x: uint) -> uint {
  with { let a <- x + 1; } do {
    let y <- a * 2;
  }
  return y;
}
"""

IF_SRC = """
fun main(x: uint) -> uint {
  let c <- x == 1;
  if c { let y <- 3; } else { let y <- 4; }
  return y;
}
"""


class _Trace(Analysis):
    """Records (kind, role) of every atomic statement, in visit order."""

    def __init__(self, direction: str = FORWARD) -> None:
        self.direction = direction
        self.events: list = []

    def initial(self):
        return 0

    def join(self, a, b):
        return max(a, b)

    def transfer(self, view: NodeView, state, role: str = BODY):
        self.events.append((view.kind, role))
        return state + 1


class _Defined(Analysis):
    """Forward may-be-defined names (frozenset lattice)."""

    direction = FORWARD

    def initial(self) -> FrozenSet[str]:
        return frozenset()

    def join(self, a, b):
        return a | b

    def transfer(self, view, state, role=BODY):
        if view.kind in ("let", "unlet"):
            if view.kind == "unlet" or role == UNCOMPUTE:
                return state - frozenset(view.writes[:1])
            return state | frozenset(view.writes[:1])
        return state


def _body(src: str):
    return parse_program(src).fundefs[0].body


class TestRoles:
    def test_with_setup_replayed_as_uncompute(self):
        tr = _Trace()
        run_surface(_body(WITH_SRC), tr)
        lets = [e for e in tr.events if e[0] == "let"]
        # setup leg, body let, uncompute leg (the desugared with replays
        # its setup), then the return binding is not a statement
        assert ("let", SETUP) in lets
        assert ("let", UNCOMPUTE) in lets
        assert ("let", BODY) in lets
        # forward order: setup before body before uncompute
        assert lets.index(("let", SETUP)) < lets.index(("let", BODY))
        assert lets.index(("let", BODY)) < lets.index(("let", UNCOMPUTE))

    def test_backward_reverses_the_with_legs(self):
        tr = _Trace(direction=BACKWARD)
        run_surface(_body(WITH_SRC), tr)
        lets = [e for e in tr.events if e[0] == "let"]
        assert lets.index(("let", UNCOMPUTE)) < lets.index(("let", BODY))
        assert lets.index(("let", BODY)) < lets.index(("let", SETUP))

    def test_nested_setup_inherits_the_outer_role(self):
        src = """
        fun main(x: uint) -> uint {
          with {
            with { let a <- x + 1; } do { let b <- a; }
          } do {
            let y <- b;
          }
          return y;
        }
        """
        tr = _Trace()
        run_surface(_body(src), tr)
        roles = [r for k, r in tr.events if k == "let"]
        # the inner with's own legs run under the outer setup's role:
        # nothing inside an outer setup is ever plain BODY except the
        # outer body itself
        assert roles.count(BODY) == 1


class TestJoins:
    def test_if_branches_join_with_fall_through(self):
        out = run_surface(_body(IF_SRC), _Defined())
        # both branches bind y; the join keeps it (may-analysis)
        assert "y" in out and "c" in out

    def test_with_uncompute_removes_setup_bindings(self):
        out = run_surface(_body(WITH_SRC), _Defined())
        assert "a" not in out  # uncomputed by the with
        assert "y" in out


class TestCallGraph:
    def test_recursion_depth_and_reachability(self, length_source):
        program = parse_program(length_source)
        graph = CallGraph(program)
        assert graph.recursion_depth("length") == 1
        assert graph.reachable("length") == ["length"]
        sites = graph.callees("length")
        assert len(sites) == 1
        assert sites[0].callee == "length"
        assert sites[0].size is not None

    def test_nested_recursion_counts_levels(self):
        from repro.benchsuite.programs import get_source

        program = parse_program(get_source("contains"))
        graph = CallGraph(program)
        # contains recurses and calls recursive compare: two levels
        assert graph.recursion_depth("contains") == 2
        assert set(graph.reachable("contains")) == {"contains", "compare"}
