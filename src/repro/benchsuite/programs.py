"""The benchmark programs of Table 1, in Tower source.

Data-structure operations used by quantum algorithms for search, subset-sum
and geometry (Section 8): four list operations, two queue operations, three
string operations, and two set operations, plus the ``length-simplified``
variant of Sections 8.2/8.3 (structure of ``length`` with the memory
dereference and addition dropped, so circuit optimizers can be run on it).

Conventions shared by all programs:

* ``list`` / ``str`` are singly linked lists of words; a node is
  ``(value, next)`` in one heap cell; ``null`` is address 0.
* recursion is bounded by the ``[n]`` annotation; the ``f[0]`` instance
  returns zero, following Section 3.1.
* mutating operations (``remove``, ``push_back``, ``insert``) consume their
  leftover registers with the *guarded-value pattern*: a register whose
  value is ``g ? x : 0`` is un-assigned against a ``with``-scoped witness
  built by a guarded XOR re-declaration.  This mirrors the swap-based
  cleanup of Figure 11 and is why the paper's mutating benchmarks carry
  roughly twice the MCX constant of ``length``.

The set is implemented as a bounded-depth binary search tree keyed by
linked-list strings, with a full ``compare`` per level: the paper's radix
tree has the same cost recurrence (an O(d) string compare under each of d
nested conditionals), which is what Table 1 measures —
``insert``/``contains`` are O(d^2) MCX and O(d^3) T before optimization.

Every benchmark name resolves, through :func:`resolve`, to one
:class:`Benchmark` value: a Table 1 name, a generated ``fuzz:`` name, or
the ``src:`` name of an inline program (:func:`inline_name`), which
resolves from the program record an artifact cache holds.  The tables
here are read-only; nothing registers a program at run time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, List, Mapping, Optional, Tuple

if TYPE_CHECKING:
    from .cache import ArtifactCache

#: type declarations shared by the list/queue benchmarks
LIST_PRELUDE = "type list = (uint, ptr<list>);\n"

#: type declarations shared by the string/set benchmarks
STR_PRELUDE = (
    "type str = (uint, ptr<str>);\n"
    "type node = (ptr<str>, (ptr<node>, ptr<node>));\n"
)

LENGTH = LIST_PRELUDE + """
fun length[n](xs: ptr<list>, acc: uint) -> uint {
  with {
    let is_empty <- xs == null;
  } do if is_empty {
    let out <- acc;
  } else with {
    let temp <- default<list>;
    *xs <-> temp;
    let next <- temp.2;
    let r <- acc + 1;
  } do {
    let out <- length[n-1](next, r);
  }
  return out;
}
"""

LENGTH_SIMPLIFIED = LIST_PRELUDE + """
fun length_simplified[n](xs: ptr<list>, acc: uint) -> uint {
  // Section 8: same control-flow structure as length, but the memory
  // dereference and the addition are omitted, so the compiled circuit is a
  // constant factor smaller (and the function's output is incorrect).
  with {
    let is_empty <- xs == null;
  } do if is_empty {
    let out <- acc;
  } else with {
    let temp <- default<list>;
    let next <- temp.2;
  } do {
    let out <- length_simplified[n-1](next, acc);
  }
  return out;
}
"""

SUM = LIST_PRELUDE + """
fun sum[n](xs: ptr<list>, acc: uint) -> uint {
  with {
    let is_empty <- xs == null;
  } do if is_empty {
    let out <- acc;
  } else with {
    let temp <- default<list>;
    *xs <-> temp;
    let val <- temp.1;
    let next <- temp.2;
    let r <- acc + val;
  } do {
    let out <- sum[n-1](next, r);
  }
  return out;
}
"""

FIND_POS = LIST_PRELUDE + """
fun find_pos[n](xs: ptr<list>, v: uint, idx: uint) -> uint {
  // 1-based position of the first node whose value is v; 0 if absent.
  // Call with idx = 1.
  with {
    let is_empty <- xs == null;
  } do if is_empty {
    let out <- default<uint>;
  } else with {
    let temp <- default<list>;
    *xs <-> temp;
    let val <- temp.1;
    let next <- temp.2;
    let found <- val == v;
    let idx2 <- idx + 1;
  } do if found {
    let out <- idx;
  } else {
    let out <- find_pos[n-1](next, v, idx2);
  }
  return out;
}
"""

REMOVE = LIST_PRELUDE + """
fun remove[n](xs: ptr<list>, v: uint, idx: uint) -> uint {
  // "Erase" removal: swaps the value of the first node equal to v with
  // zero and returns its 1-based position (0 if no node matches).  The
  // returned position is exactly the information needed to reverse the
  // operation, keeping the function reversible.  Call with idx = 1.
  with {
    let is_empty <- xs == null;
    let not_empty <- not is_empty;
  } do {
    if is_empty { let out <- default<uint>; }
    if not_empty {
      let cur <- default<list>;
      *xs <-> cur;                       // read: cell is now zero
      let val <- cur.1;
      let next <- cur.2;
      let cur -> (val, next);
      let found <- val == v;
      let keep <- not found;
      // val2 = found ? 0 : val, zv = found ? v : 0
      let val2 <- val;
      let zv <- default<uint>;
      if found { val2 <-> zv; }
      let val -> val2 + zv;              // val == val2 + zv in both branches
      with {
        let fu <- default<uint>;
        if found { let fu <- v; }        // witness: fu = found ? v : 0
      } do {
        let zv -> fu;
      }
      // write the (possibly erased) node back
      let back <- (val2, next);
      *xs <-> back;
      let back -> default<list>;
      if found { let out <- idx; }
      with { let idx2 <- idx + 1; } do {
        if keep { let out <- remove[n-1](next, v, idx2); }
      }
      // consume the evidence by re-reading the (updated) cell
      with {
        let chk <- default<list>;
        *xs <-> chk;
        let cval <- chk.1;
        let cnext <- chk.2;
      } do {
        let val2 -> cval;
        let next -> cnext;
        let keep -> not found;
      }
      // a match at this node is reported as out == idx (deeper matches
      // return strictly larger positions, misses return 0 < idx)
      let found -> out == idx;
    }
  }
  return out;
}
"""

POP_FRONT = LIST_PRELUDE + """
fun pop_front(xs: ptr<list>) -> (uint, ptr<list>) {
  // Detaches the head node: returns its (value, next) contents and leaves
  // the cell zeroed.  O(1): no recursion, one memory operation.
  with {
    let is_empty <- xs == null;
  } do {
    let out <- default<list>;
    *xs <-> out;
  }
  return out;
}
"""

PUSH_BACK = LIST_PRELUDE + """
fun push_back[n](xs: ptr<list>, v: uint, node: ptr<list>) -> bool {
  // Appends a new node with value v at the end of the (non-empty) list,
  // using the caller-provided free cell `node`.  Returns true when the
  // append happened within the recursion bound.
  with {
    let is_null <- xs == null;
    let not_null <- not is_null;
  } do {
    if is_null { let out <- false; }
    if not_null {
      let cur <- default<list>;
      *xs <-> cur;                        // read: cell is now zero
      let val <- cur.1;
      let next <- cur.2;
      let cur -> (val, next);
      let at_end <- next == null;
      let go <- not at_end;
      if at_end {
        // fill the fresh node and splice it in
        let fresh <- (v, default<ptr<list>>);
        *node <-> fresh;
        let fresh -> default<list>;
        let linked <- (val, node);
        *xs <-> linked;
        let linked -> default<list>;
        let out <- true;
      }
      if go {
        let back <- (val, next);
        *xs <-> back;
        let back -> default<list>;
        let out <- push_back[n-1](next, v, node);
      }
      // consume val/next by re-reading the updated cell; the witness nn
      // equals next in both branches (at_end: next == null == 0)
      with {
        let chk <- default<list>;
        *xs <-> chk;
        let cval <- chk.1;
        let cnext <- chk.2;
        let nn <- default<ptr<list>>;
        if go { let nn <- cnext; }
      } do {
        let val -> cval;
        let next -> nn;
      }
      // consume go/at_end with a second re-read (this setup must not
      // mention go/at_end, which the do-block erases)
      with {
        let chk2 <- default<list>;
        *xs <-> chk2;
        let spliced <- chk2.2 == node;
      } do {
        let go -> not at_end;
        let at_end -> spliced;
      }
    }
  }
  return out;
}
"""

IS_PREFIX = STR_PRELUDE + """
fun is_prefix[n](a: ptr<str>, b: ptr<str>) -> bool {
  // Whether string a is a prefix of string b.
  with {
    let a_empty <- a == null;
  } do if a_empty {
    let out <- true;
  } else with {
    let b_empty <- b == null;
  } do if b_empty {
    let out <- false;
  } else with {
    let an <- default<str>;
    *a <-> an;
    let av <- an.1;
    let anext <- an.2;
    let bn <- default<str>;
    *b <-> bn;
    let bv <- bn.1;
    let bnext <- bn.2;
    let same <- av == bv;
  } do if same {
    let out <- is_prefix[n-1](anext, bnext);
  } else {
    let out <- false;
  }
  return out;
}
"""

NUM_MATCHING = STR_PRELUDE + """
fun num_matching[n](a: ptr<str>, b: ptr<str>, acc: uint) -> uint {
  // Number of positions (up to the shorter length) where a and b agree.
  with {
    let a_empty <- a == null;
    let b_empty <- b == null;
    let either <- a_empty || b_empty;
  } do if either {
    let out <- acc;
  } else with {
    let an <- default<str>;
    *a <-> an;
    let av <- an.1;
    let anext <- an.2;
    let bn <- default<str>;
    *b <-> bn;
    let bv <- bn.1;
    let bnext <- bn.2;
    let same <- av == bv;
    let bump <- default<uint>;
    if same { let bump <- 1; }
    let acc2 <- acc + bump;
  } do {
    let out <- num_matching[n-1](anext, bnext, acc2);
  }
  return out;
}
"""

COMPARE = STR_PRELUDE + """
fun compare[n](a: ptr<str>, b: ptr<str>) -> uint {
  // Lexicographic three-way comparison: 0 if a == b, 1 if a < b, 2 if a > b.
  with {
    let a_empty <- a == null;
    let b_empty <- b == null;
    let both <- a_empty && b_empty;
    let only_a <- a_empty && b != null;
    let only_b <- b_empty && a != null;
    let neither <- (not a_empty) && (not b_empty);
  } do {
    if both { let out <- default<uint>; }
    if only_a { let out <- 1; }
    if only_b { let out <- 2; }
    if neither with {
      let an <- default<str>;
      *a <-> an;
      let av <- an.1;
      let anext <- an.2;
      let bn <- default<str>;
      *b <-> bn;
      let bv <- bn.1;
      let bnext <- bn.2;
      let lt <- av < bv;
      let gt <- av > bv;
      let eq <- av == bv;
    } do {
      if lt { let out <- 1; }
      if gt { let out <- 2; }
      if eq { let out <- compare[n-1](anext, bnext); }
    }
  }
  return out;
}
"""

CONTAINS = STR_PRELUDE + """
fun contains[d](t: ptr<node>, key: ptr<str>) -> bool {
  // Whether the bounded-depth binary search tree rooted at t contains key.
  // Invokes a full string compare at every level (the Section 8.1 insert
  // recurrence: C(d) = C_compare(d) + C(d-1) under control flow).
  with {
    let t_empty <- t == null;
  } do if t_empty {
    let out <- false;
  } else with {
    let tn <- default<node>;
    *t <-> tn;
    let k <- tn.1;
    let kids <- tn.2;
    let left <- kids.1;
    let right <- kids.2;
    let c <- compare[d](k, key);
    let eq <- c == 0;
    let lt <- c == 2;
    let gt <- c == 1;
  } do {
    // single recursive call on the selected child (a guarded XOR builds
    // the child pointer; both guards false leave it null, and contains of
    // null is false) — this keeps the inlined program at O(d^2) MCX.
    let out <- false;
    if eq { let out <- true; }
    with {
      let child <- default<ptr<node>>;
      if lt { let child <- left; }
      if gt { let child <- right; }
      let went <- lt || gt;
    } do {
      let sub <- contains[d-1](child, key);
      if went { out <-> sub; }
      let sub -> false;
    }
  }
  return out;
}
""" + COMPARE.replace(STR_PRELUDE, "")

INSERT = STR_PRELUDE + """
fun insert[d](t: ptr<node>, key: ptr<str>, fresh: ptr<node>) -> bool {
  // Inserts a pre-filled tree node (cell `fresh`, already holding
  // (key, (null, null))) into the bounded-depth BST rooted at t.  Returns
  // true when a link was created, false when the key was already present
  // or the depth bound was exhausted.  A full string compare runs at every
  // level, giving the Table 1 recurrence (O(d^2) MCX, O(d^3) T unoptimized).
  with {
    let t_empty <- t == null;
  } do if t_empty {
    let out <- false;
  } else {
    let tn <- default<node>;
    *t <-> tn;                           // read: cell is now zero
    let k <- tn.1;
    let kids <- tn.2;
    let tn -> (k, kids);
    let left <- kids.1;
    let right <- kids.2;
    let kids -> (left, right);
    with {
      let c <- compare[d](k, key);
      let eq <- c == 0;
      let lt <- c == 2;
      let gt <- c == 1;
      let l_null <- left == null;
      let r_null <- right == null;
      let link_l <- lt && l_null;
      let rec_l <- lt && (not l_null);
      let link_r <- gt && r_null;
      let rec_r <- gt && (not r_null);
      let linked <- link_l || link_r;
    } do {
      let out <- false;
      if linked { let out <- true; }
      // single recursive call on the selected child (insert into null is
      // a no-op returning false), keeping the program at O(d^2) MCX
      with {
        let child <- default<ptr<node>>;
        if rec_l { let child <- left; }
        if rec_r { let child <- right; }
        let went <- rec_l || rec_r;
      } do {
        let sub <- insert[d-1](child, key, fresh);
        if went { out <-> sub; }
        let sub -> false;
      }
      // splice: left2/right2 are the updated children (link_* implies the
      // old child was null = 0, so a guarded XOR writes fresh in place)
      with {
        let left2 <- left;
        if link_l { let left2 <- fresh; }
        let right2 <- right;
        if link_r { let right2 <- fresh; }
      } do {
        let back <- (k, (left2, right2));
        *t <-> back;
        let back -> default<node>;
      }
    }
    // consume k/left/right by re-reading the updated cell; children can
    // only have changed from null to fresh, which the witnesses undo.
    with {
      let chk <- default<node>;
      *t <-> chk;
      let ck <- chk.1;
      let ckids <- chk.2;
      let cl <- ckids.1;
      let cr <- ckids.2;
      let lf <- cl == fresh;
      let rf <- cr == fresh;
      let ol <- default<ptr<node>>;
      if lf { let ol <- fresh; }
      let or2 <- default<ptr<node>>;
      if rf { let or2 <- fresh; }
      let oldl <- cl;
      let oldl <- ol;                    // oldl = cl XOR (lf ? fresh : 0)
      let oldr <- cr;
      let oldr <- or2;
    } do {
      let k -> ck;
      let left -> oldl;
      let right -> oldr;
    }
  }
  return out;
}
""" + COMPARE.replace(STR_PRELUDE, "")

#: All benchmark sources keyed by Table 1 name (read-only).
SOURCES: Mapping[str, str] = MappingProxyType({
    "length": LENGTH,
    "length-simplified": LENGTH_SIMPLIFIED,
    "sum": SUM,
    "find_pos": FIND_POS,
    "remove": REMOVE,
    "push_back": PUSH_BACK,
    "pop_front": POP_FRONT,
    "is_prefix": IS_PREFIX,
    "num_matching": NUM_MATCHING,
    "compare": COMPARE,
    "insert": INSERT,
    "contains": CONTAINS,
})

#: Entry-point function per benchmark: its name, ``_`` for ``-`` (read-only).
ENTRIES: Mapping[str, str] = MappingProxyType({name: name.replace("-", "_") for name in SOURCES})

#: Benchmarks whose entry point takes no recursion bound.
UNSIZED: Tuple[str, ...] = ("pop_front",)

#: prefix of the content-derived name of an inline program
INLINE_PREFIX = "src:"


@dataclass(frozen=True)
class Benchmark:
    """One program under its benchmark name: what a name resolves to.

    ``unsized`` says the entry point takes no recursion bound, so the
    program is measured at depth None.
    """

    name: str
    source: str
    entry: str
    unsized: bool = False


def is_fuzz_name(name: str) -> bool:
    """Whether a benchmark name denotes a generated fuzz workload."""
    return name.startswith("fuzz:")


def is_inline_name(name: str) -> bool:
    """Whether a benchmark name has the shape of :func:`inline_name`'s."""
    return name.startswith(INLINE_PREFIX)


def is_unsized(name: str) -> bool:
    """Whether a benchmark's entry point takes no recursion bound.

    Fuzz workloads always use an unsized ``main`` (recursion bounds are
    baked into their call sites as constants), so they run at depth None.
    """
    return name in UNSIZED or is_fuzz_name(name)


def inline_name(source: str, entry: str) -> str:
    """The content-derived benchmark name of an inline program."""
    digest = hashlib.sha256(f"{entry}\n{source}".encode("utf-8")).hexdigest()
    return f"{INLINE_PREFIX}{digest[:16]}"


def inline_benchmark(source: str, entry: str) -> Benchmark:
    """An inline program under its :func:`inline_name` (never ``unsized``)."""
    return Benchmark(inline_name(source, entry), source, entry)


def resolve(name: str, cache: Optional["ArtifactCache"] = None) -> Benchmark:
    """The program a benchmark name denotes.

    A built-in name is a Table 1 program.  A
    ``fuzz:<seed>:<index>[:<max_depth>][:<flags>]`` name synthesizes its
    program deterministically from the name itself, so grid workers and
    artifact caches need no side channel to agree on the workload.  A
    ``src:`` name resolves from the program record ``cache`` holds for it
    (:meth:`~repro.benchsuite.cache.ArtifactCache.load_program`).
    Anything else raises :class:`KeyError`.
    """
    if name in SOURCES:
        return Benchmark(name, SOURCES[name], ENTRIES[name], name in UNSIZED)
    if is_fuzz_name(name):
        from ..fuzz.generator import program_for_spec  # lazy: avoid cycle

        try:
            source, entry = program_for_spec(name)
        except ValueError as exc:
            raise KeyError(f"unknown benchmark {name!r}: {exc}") from None
        return Benchmark(name, source, entry, unsized=True)
    if is_inline_name(name):
        if cache is None:
            raise KeyError(
                f"unknown benchmark {name!r}: a src: name resolves only "
                "from an artifact cache (--cache-dir)"
            )
        program = cache.load_program(name)
        if program is not None:
            return program
    raise KeyError(f"unknown benchmark {name!r}")


def get_source(name: str) -> str:
    """Tower source of a built-in or fuzz benchmark (see :func:`resolve`)."""
    return resolve(name).source


def get_entry(name: str) -> str:
    """Entry-point function of a built-in or fuzz benchmark (``main`` for
    fuzz workloads)."""
    return resolve(name).entry


#: Benchmarks measured in tree depth d (the set) rather than length n.
TREE_BENCHMARKS: List[str] = ["insert", "contains"]
