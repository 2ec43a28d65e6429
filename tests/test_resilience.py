"""Retry policy, failure rows, and the sweep checkpoint journal."""

from __future__ import annotations

import json

import pytest

from repro.benchsuite import (
    BenchmarkRunner,
    GridTask,
    RetryPolicy,
    SerialBackend,
    SweepJournal,
    failure_row,
    grid_fingerprint,
    measure_tasks,
    task_fingerprint,
)
from repro.benchsuite.parallel import GridResult, run_task_resilient
from repro.config import CompilerConfig

TINY = CompilerConfig(word_width=3, addr_width=3, heap_cells=5)
TASK = GridTask("length", 2)


class FlakyRunner:
    """Fails the first ``failures`` calls per task, then succeeds."""

    def __init__(self, failures: int, exc: Exception = None):
        self.failures = failures
        self.exc = exc or RuntimeError("transient")
        self.calls = 0
        self.cache = None

    def measure(self, name, depth, optimization):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc

        class Point:
            def row(self):
                return {
                    "name": name,
                    "depth": depth,
                    "optimization": optimization,
                    "t": 17,
                }

        return Point()


# ------------------------------------------------------------------- policy
def test_backoff_is_deterministic_and_bounded():
    policy = RetryPolicy(backoff_base=0.1, backoff_cap=1.0, seed=4)
    delays = [policy.backoff_delay("k", f) for f in range(1, 8)]
    assert delays == [policy.backoff_delay("k", f) for f in range(1, 8)]
    assert all(d >= delays[0] or d >= 1.0 for d in delays[1:])
    assert max(delays) <= 1.0 * 1.5  # cap times max jitter
    assert policy.backoff_delay("other", 1) != delays[0]  # jitter keyed


def test_failure_row_schema():
    row = failure_row(TASK, ValueError("boom"), stage="execute", attempts=3)
    assert row["failed"] is True
    assert row["name"] == "length" and row["depth"] == 2
    assert row["error_kind"] == "exception:ValueError"
    assert row["stage"] == "execute"
    assert row["attempts"] == 3
    assert row["message"] == "boom"
    assert len(row["traceback_digest"]) == 16
    json.dumps(row)  # failure rows must be JSON-ready


# ----------------------------------------------------------- resilient loop
def test_retry_then_success_annotates_attempts():
    runner = FlakyRunner(failures=2)
    row = run_task_resilient(runner, TASK, RetryPolicy(retries=2), sleep=lambda s: None)
    assert row["t"] == 17
    assert row["attempts"] == 3
    assert runner.calls == 3


def test_clean_success_has_no_attempts_key():
    row = run_task_resilient(FlakyRunner(0), TASK, RetryPolicy(), sleep=lambda s: None)
    assert "attempts" not in row  # bit-identity with non-resilient rows


def test_exhausted_retries_become_failure_row():
    runner = FlakyRunner(failures=99)
    row = run_task_resilient(runner, TASK, RetryPolicy(retries=2), sleep=lambda s: None)
    assert row["failed"] is True
    assert row["attempts"] == 3
    assert runner.calls == 3  # budget respected


def test_keyboard_interrupt_propagates():
    runner = FlakyRunner(failures=1, exc=None)
    runner.exc = KeyboardInterrupt()
    with pytest.raises(KeyboardInterrupt):
        run_task_resilient(runner, TASK, RetryPolicy(retries=5), sleep=lambda s: None)


# ---------------------------------------------------------- serial backend
def test_serial_backend_without_policy_propagates():
    with pytest.raises(RuntimeError):
        SerialBackend().run(FlakyRunner(99), [TASK])


def test_serial_backend_with_policy_isolates_failures():
    policy = RetryPolicy(retries=0, backoff_base=0.0)
    rows = SerialBackend(policy).run(FlakyRunner(1), [TASK, TASK])
    result = GridResult(rows)
    assert len(result.failed_rows) == 1
    assert len(result.ok()) == 1
    assert result.measure("length", 2)["t"] == 17  # indexers skip failures


def test_serial_backend_max_failures_aborts():
    policy = RetryPolicy(retries=0, max_failures=0, backoff_base=0.0)
    rows = SerialBackend(policy).run(FlakyRunner(99), [TASK] * 5)
    assert len(rows) == 1  # stopped right after crossing the threshold
    assert rows[0]["failed"]


# ------------------------------------------------------------------ journal
def test_journal_roundtrip(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl")
    journal.append("fp-1", {"t": 1})
    journal.append("fp-2", {"t": 2})
    journal.close()
    assert journal.load() == {"fp-1": {"t": 1}, "fp-2": {"t": 2}}


def test_journal_ignores_torn_trailing_line(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl")
    journal.append("fp-1", {"t": 1})
    journal.close()
    path = tmp_path / "j.jsonl"
    path.write_text(path.read_text() + '{"fp": "fp-2", "row": {"t"')
    assert journal.load() == {"fp-1": {"t": 1}}
    # appending after a torn line starts a fresh journal or keeps the
    # good prefix; either way load() keeps returning valid rows only
    journal.append("fp-3", {"t": 3})
    journal.close()
    assert journal.load()["fp-3"] == {"t": 3}


def test_journal_stale_meta_is_discarded(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl", meta={"grid": "a"})
    journal.append("fp-1", {"t": 1})
    journal.close()
    other = SweepJournal(tmp_path / "j.jsonl", meta={"grid": "b"})
    assert other.load() == {}


def test_journal_reset_discards(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl")
    journal.append("fp-1", {"t": 1})
    journal.reset()
    assert journal.load() == {}


# ------------------------------------------------------------- fingerprints
def test_task_fingerprint_distinguishes_tasks_and_configs():
    a = task_fingerprint(GridTask("length", 2), TINY)
    b = task_fingerprint(GridTask("length", 3), TINY)
    c = task_fingerprint(
        GridTask("length", 2), CompilerConfig(word_width=4)
    )
    assert len({a, b, c}) == 3
    assert a == task_fingerprint(GridTask("length", 2), TINY)


def test_grid_fingerprint_is_order_sensitive():
    tasks = measure_tasks("length", [2, 3])
    assert grid_fingerprint(tasks, TINY) != grid_fingerprint(tasks[::-1], TINY)


# --------------------------------------------------------- run_grid journal
def test_run_grid_checkpoints_and_resumes(tmp_path):
    runner = BenchmarkRunner(TINY)
    tasks = measure_tasks("length", [2, 3])
    journal = SweepJournal.for_grid(tmp_path, "t", tasks, TINY)
    first = runner.run_grid(tasks, journal=journal)
    assert len(first) == 2 and not first.failed_rows
    assert not any(r.get("journal_resumed") for r in first.rows)

    # a fresh runner resuming the same journal recomputes nothing: any
    # attempt to compile would blow up on this broken runner
    class BrokenRunner(BenchmarkRunner):
        def measure(self, *a, **k):
            raise AssertionError("resume must not recompute journaled rows")

    resumed = BrokenRunner(TINY).run_grid(
        tasks,
        journal=SweepJournal.for_grid(tmp_path, "t", tasks, TINY),
        resume=True,
    )
    assert len(resumed) == 2
    assert all(r.get("journal_resumed") for r in resumed.rows)
    stripped = [
        {k: v for k, v in row.items() if k != "journal_resumed"}
        for row in resumed.rows
    ]
    assert stripped == first.rows


def test_run_grid_without_resume_resets_journal(tmp_path):
    runner = BenchmarkRunner(TINY)
    tasks = measure_tasks("length", [2])
    journal = SweepJournal.for_grid(tmp_path, "t", tasks, TINY)
    runner.run_grid(tasks, journal=journal)
    again = BenchmarkRunner(TINY).run_grid(
        tasks, journal=SweepJournal.for_grid(tmp_path, "t", tasks, TINY)
    )
    assert not any(r.get("journal_resumed") for r in again.rows)


def test_run_grid_journal_skips_failure_rows(tmp_path):
    tasks = [TASK]
    runner = FlakyRunner(99)
    runner.config = TINY
    runner.backend = SerialBackend(RetryPolicy(retries=0, backoff_base=0.0))
    journal = SweepJournal.for_grid(tmp_path, "t", tasks, TINY)
    result = BenchmarkRunner.run_grid(runner, tasks, journal=journal)
    assert result.failed_rows
    fresh = SweepJournal.for_grid(tmp_path, "t", tasks, TINY)
    assert fresh.load() == {}  # failed tasks run again on resume
