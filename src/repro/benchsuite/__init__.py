"""Benchmark programs (Table 1) and the experiment harness."""

from .cache import ArtifactCache, task_key
from .memory_images import HeapImage, decode_list_from_memory
from .parallel import (
    BASELINE_OPTIMIZERS,
    ExecutionBackend,
    GRID_SELECTORS,
    GridResult,
    GridTask,
    LINEAR_BENCHMARKS,
    ParallelBackend,
    SerialBackend,
    fuzz_tasks,
    measure_tasks,
    paper_grid,
)
from .programs import (
    ENTRIES,
    SOURCES,
    TREE_BENCHMARKS,
    UNSIZED,
    get_entry,
    get_source,
    is_unsized,
)
from .resilience import RetryPolicy, failure_row
from .runner import (
    BenchmarkPoint,
    BenchmarkRunner,
    ScalingResult,
    default_depths,
)

__all__ = [
    "ArtifactCache",
    "task_key",
    "HeapImage",
    "decode_list_from_memory",
    "ENTRIES",
    "SOURCES",
    "TREE_BENCHMARKS",
    "UNSIZED",
    "LINEAR_BENCHMARKS",
    "BASELINE_OPTIMIZERS",
    "GRID_SELECTORS",
    "BenchmarkPoint",
    "BenchmarkRunner",
    "ScalingResult",
    "default_depths",
    "ExecutionBackend",
    "SerialBackend",
    "ParallelBackend",
    "RetryPolicy",
    "failure_row",
    "GridTask",
    "GridResult",
    "measure_tasks",
    "fuzz_tasks",
    "paper_grid",
    "get_entry",
    "get_source",
    "is_unsized",
]
