"""Pipeline specs: parsing, presets, canonical forms, prefixes.

A pipeline is written as a comma-separated pass list, each pass optionally
parameterized::

    flatten,narrow,alloc,lower,peephole(window=32)

Stage order is enforced (``ir* , alloc , lower , gates*``); the structural
``alloc,lower`` pair may be omitted and is inserted automatically, so
``flatten,narrow`` and ``spire+peephole`` are accepted shorthand.

Named **presets** reproduce the historical ``optimization`` levels:

==========  ==================================
preset      expands to
==========  ==================================
``none``    ``alloc,lower``
``flatten`` ``flatten,alloc,lower``
``narrow``  ``narrow,alloc,lower``
``spire``   ``flatten,narrow,alloc,lower``
==========  ==================================

A ``+<gate-pass>`` suffix appends a circuit optimizer: ``spire+peephole``,
``none+rotation-merge(window=32)``.  This is the one way to name a
circuit-optimizer baseline.  :func:`canonical_pipeline` maps every
spelling to one canonical string — the cache fingerprint of the pipeline,
embedding every per-pass parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple

from .base import ANALYZE, GATES, IR, LOWER, PassError, get_pass_class, make_pass

#: the historical optimization levels as IR-pass lists
PRESETS: Dict[str, Tuple[str, ...]] = {
    "none": (),
    "flatten": ("flatten",),
    "narrow": ("narrow",),
    "spire": ("flatten", "narrow"),
}


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _parse_value(text: str) -> Any:
    text = text.strip()
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


@dataclass(frozen=True)
class PassSpec:
    """One parsed pipeline element: a pass name plus sorted parameters."""

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def stage(self) -> str:
        return get_pass_class(self.name).stage

    def kwargs(self) -> Dict[str, Any]:
        return dict(self.params)

    def spec(self) -> str:
        """The canonical textual form of this element."""
        if not self.params:
            return self.name
        inner = ",".join(
            f"{key}={_format_value(value)}" for key, value in self.params
        )
        return f"{self.name}({inner})"

    @classmethod
    def parse(cls, text: str) -> "PassSpec":
        text = text.strip()
        if not text:
            raise PassError("empty pass name in pipeline spec")
        if "(" in text:
            if not text.endswith(")"):
                raise PassError(f"unbalanced parentheses in pass spec {text!r}")
            name, inner = text[:-1].split("(", 1)
            params: Dict[str, Any] = {}
            for part in filter(None, (p.strip() for p in inner.split(","))):
                if "=" not in part:
                    raise PassError(
                        f"pass parameter {part!r} is not key=value (in {text!r})"
                    )
                key, value = part.split("=", 1)
                params[key.strip()] = _parse_value(value)
            spec = cls(name.strip(), tuple(sorted(params.items())))
        else:
            spec = cls(text)
        make_pass(spec.name, **spec.kwargs())  # validate name and params eagerly
        return spec


def _split_top_level(text: str, sep: str) -> List[str]:
    """Split on ``sep`` outside parentheses."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise PassError(f"unbalanced parentheses in spec {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth:
        raise PassError(f"unbalanced parentheses in spec {text!r}")
    parts.append("".join(current))
    return parts


@dataclass(frozen=True)
class Pipeline:
    """An ordered, validated pass list
    (``analyze* , ir* , alloc , lower , gates*``)."""

    passes: Tuple[PassSpec, ...]

    def __post_init__(self) -> None:
        seen_lower: List[str] = []
        stage_rank = {ANALYZE: 0, IR: 1, LOWER: 2, GATES: 3}
        last = -1
        for spec in self.passes:
            stage = spec.stage
            if stage == LOWER:
                seen_lower.append(spec.name)
            rank = stage_rank[stage]
            if rank < last:
                raise PassError(
                    f"pipeline {self.spec()!r} is out of stage order at "
                    f"{spec.name!r} ({stage} after a later stage)"
                )
            last = rank
        if seen_lower != ["alloc", "lower"]:
            raise PassError(
                f"pipeline {self.spec()!r} must contain the structural "
                f"passes 'alloc,lower' exactly once, in order "
                f"(got {seen_lower})"
            )

    # -------------------------------------------------------------- parsing
    @classmethod
    def parse(cls, spec: str) -> "Pipeline":
        """Parse a comma-separated spec, inserting ``alloc,lower`` if absent."""
        elements = [
            PassSpec.parse(part)
            for part in _split_top_level(spec, ",")
            if part.strip()
        ]
        if not any(e.stage == LOWER for e in elements):
            insert_at = len(elements)
            for i, element in enumerate(elements):
                if element.stage == GATES:
                    insert_at = i
                    break
            elements[insert_at:insert_at] = [
                PassSpec("alloc"), PassSpec("lower")
            ]
        return cls(tuple(elements))

    # ------------------------------------------------------------ structure
    @property
    def analyze_passes(self) -> Tuple[PassSpec, ...]:
        return tuple(p for p in self.passes if p.stage == ANALYZE)

    @property
    def ir_passes(self) -> Tuple[PassSpec, ...]:
        return tuple(p for p in self.passes if p.stage == IR)

    @property
    def gate_passes(self) -> Tuple[PassSpec, ...]:
        return tuple(p for p in self.passes if p.stage == GATES)

    @property
    def lower_index(self) -> int:
        """Index just past the ``lower`` structural pass."""
        for i, spec in enumerate(self.passes):
            if spec.name == "lower":
                return i + 1
        raise PassError("pipeline has no lower pass")  # pragma: no cover

    def spec(self) -> str:
        """The canonical spec string (the cache fingerprint)."""
        return ",".join(p.spec() for p in self.passes)

    def compile_prefix(self) -> "Pipeline":
        """The pipeline truncated after ``lower`` (no gate passes)."""
        return Pipeline(self.passes[: self.lower_index])

    def gate_prefixes(self) -> Iterator["Pipeline"]:
        """Proper prefixes ending at ``lower`` or a gate pass, longest first.

        These are the replayable cut points of the pipeline: each prefix's
        artifact is a circuit, so a cached snapshot of it can resume the
        remaining gate passes without recompiling the earlier stages.
        """
        for cut in range(len(self.passes) - 1, self.lower_index - 1, -1):
            yield Pipeline(self.passes[:cut])

    def ir_prefixes(self) -> Iterator["Pipeline"]:
        """Pipelines with growing IR-pass prefixes (for defect bisection)."""
        head = self.analyze_passes
        structural = tuple(
            p for p in self.passes[: self.lower_index] if p.stage == LOWER
        )
        ir = self.ir_passes
        for cut in range(1, len(ir) + 1):
            yield Pipeline(head + ir[:cut] + structural)

    def __len__(self) -> int:
        return len(self.passes)


def resolve_pipeline(spec: str = "none") -> Pipeline:
    """Resolve a preset name, a raw spec, or a ``preset+gatepass`` string."""
    parts = _split_top_level(spec or "none", "+")
    head = parts[0].strip() or "none"
    if head in PRESETS:
        elements = [PassSpec(name) for name in PRESETS[head]]
        elements += [PassSpec("alloc"), PassSpec("lower")]
        pipeline = Pipeline(tuple(elements))
    else:
        pipeline = Pipeline.parse(head)
    for part in parts[1:]:
        suffix = PassSpec.parse(part)
        if suffix.stage != GATES:
            raise PassError(
                f"pass {suffix.name!r} is a {suffix.stage} pass; only gate "
                "passes can be appended with '+'"
            )
        pipeline = Pipeline(pipeline.passes + (suffix,))
    return pipeline


def canonical_pipeline(spec: str = "none") -> str:
    """The canonical spec string of a resolved pipeline (the cache key)."""
    return resolve_pipeline(spec).spec()
