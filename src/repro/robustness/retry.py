"""Retry with exponential backoff and deterministic jitter (DESIGN.md §12).

:class:`RetryPolicy` is the shared retry primitive for any subsystem
that must survive transient component failure — today the parallel
worker supervisor (:mod:`repro.parallel.supervision`), tomorrow the
``repro serve`` daemon's engine reloads.  It is a frozen value object:
the *decision* of whether an attempt may run (:meth:`allows`) and the
*delay* before it (:meth:`delay_before`) are pure functions, so callers
that interleave retries with other work (the supervisor's poll loop)
can drive the schedule themselves, while simple callers use
:meth:`run`.

Jitter is deterministic: the spread for retry ``n`` of key ``k`` is
drawn from ``random.Random(f"{seed}:{k}:{n}")``, never from the process
RNG.  Two runs with the same seed back off identically — the same
reproducibility stance as every other randomized component in this
repo (checkpoint resume must replay, chaos tests must be debuggable).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

__all__ = ["RetryPolicy", "RetryExhausted", "DEFAULT_RETRY_POLICY"]

T = TypeVar("T")


class RetryExhausted(Exception):
    """Every permitted attempt failed (or the deadline expired)."""

    def __init__(self, attempts: int, reason: str) -> None:
        super().__init__(f"gave up after {attempts} attempt(s): {reason}")
        self.attempts = attempts
        self.reason = reason


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded exponential backoff with seeded jitter and a deadline.

    Args:
        max_attempts: total attempts permitted (first try included).
        base_delay_s: backoff before the first retry.
        multiplier: geometric growth factor per retry.
        max_delay_s: backoff ceiling.
        jitter: fractional spread — retry ``n`` sleeps within
            ``±jitter`` of the nominal delay, deterministically.
        deadline_s: overall wall-clock budget for :meth:`run`
            (``None`` = unbounded).
        seed: jitter seed; same seed, same schedule.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.1
    multiplier: float = 2.0
    max_delay_s: float = 30.0
    jitter: float = 0.1
    deadline_s: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1.0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    # -- pure schedule ----------------------------------------------------

    def allows(self, attempt: int) -> bool:
        """May 0-based attempt number ``attempt`` run at all?"""
        return 0 <= attempt < self.max_attempts

    def delay_before(self, attempt: int, *, key: int = 0) -> float:
        """Backoff before 0-based attempt ``attempt`` (0 for the first try).

        ``key`` decorrelates independent retry streams sharing one
        policy (the supervisor passes the worker id), so a pool of
        crashed shards does not respawn in lockstep.
        """
        if attempt <= 0:
            return 0.0
        nominal = min(
            self.base_delay_s * self.multiplier ** (attempt - 1), self.max_delay_s
        )
        if not self.jitter or not nominal:
            return nominal
        # A string seed hashes via SHA-512 inside random.Random, so the
        # schedule is stable across processes and PYTHONHASHSEED values.
        rng = random.Random(f"{self.seed}:{key}:{attempt}")
        spread = nominal * self.jitter
        return nominal - spread + rng.random() * 2.0 * spread

    def delays(self, *, key: int = 0) -> list[float]:
        """The full backoff schedule: delay before attempts 1..max-1."""
        return [
            self.delay_before(attempt, key=key)
            for attempt in range(1, self.max_attempts)
        ]

    # -- generic driver ---------------------------------------------------

    def run(
        self,
        fn: "Callable[[], T]",
        *,
        key: int = 0,
        retry_on: tuple[type[BaseException], ...] = (Exception,),
        clock: "Callable[[], float]" = time.monotonic,
        sleep: "Callable[[float], None]" = time.sleep,
        on_retry: "Callable[[int, BaseException], None] | None" = None,
    ) -> T:
        """Call ``fn`` until it succeeds, attempts run out, or the
        deadline expires; raises :class:`RetryExhausted` chained to the
        last failure.  ``clock``/``sleep`` are injectable for tests.
        """
        started = clock()
        last: BaseException | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                delay = self.delay_before(attempt, key=key)
                if self.deadline_s is not None:
                    remaining = self.deadline_s - (clock() - started)
                    if remaining <= 0.0:
                        break
                    delay = min(delay, remaining)
                if delay > 0.0:
                    sleep(delay)
            try:
                return fn()
            except retry_on as exc:  # caller-chosen exception classes, re-raised via RetryExhausted
                last = exc
                if on_retry is not None:
                    on_retry(attempt, exc)
                if self.deadline_s is not None and clock() - started >= self.deadline_s:
                    break
        assert last is not None
        raise RetryExhausted(self.max_attempts, repr(last)) from last


# The pool supervisor's default: three total attempts with sub-second
# backoff — generous enough to absorb a transient (OOM-killed worker,
# queue hiccup), tight enough that a deterministic crash fails fast.
DEFAULT_RETRY_POLICY = RetryPolicy(
    max_attempts=3, base_delay_s=0.1, multiplier=2.0, max_delay_s=5.0
)
