"""Retry policy and failure rows."""

from __future__ import annotations

import json

import pytest

from repro.benchsuite import GridTask, RetryPolicy, SerialBackend, failure_row
from repro.benchsuite.parallel import GridResult, run_task_resilient

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
