"""Program-level optimizations: conditional flattening and narrowing (Section 6)."""

from .spire import flatten_only, narrow_only, spire_optimize

__all__ = ["flatten_only", "narrow_only", "spire_optimize"]
