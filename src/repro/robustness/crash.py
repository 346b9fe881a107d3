"""Crash and fault injection for the resilience equivalence tests.

The checkpoint subsystem's correctness claim — *a run killed anywhere
and resumed is byte-identical to an uninterrupted run* — is only
testable if runs can be killed at exact, reproducible points.
:class:`CrashInjector` counts records as the durable runner feeds them
and aborts the process after record N.

``HARD`` mode calls :func:`os._exit`, which skips ``atexit`` handlers,
buffered-stream flushing and ``finally`` blocks — the closest
in-process stand-in for a SIGKILL/OOM kill, and the mode the
subprocess test driver and the CI crash matrix use.  ``RAISE`` mode
raises :class:`InjectedCrash` instead, for in-process tests that want
to observe state after the "crash".

The *worker* fault layer (DESIGN.md §12) extends the same idea to the
shard pool: :class:`WorkerFaultInjector` arms per-worker faults parsed
from a chaos spec (the ``REPRO_CHAOS`` env var or ``--chaos``) and
fires them inside the worker run loop, so the supervision tests can
prove that a run with injected worker faults and retries enabled
produces output byte-identical to a fault-free run.  Spec grammar —
semicolon-separated faults, colon-separated ``key=value`` params::

    crash-hard:worker=1:after=2500;hang:worker=2:after=4000
    hang:worker=0:after=100:attempt=any        # fires on every respawn
    slow:worker=3:after=0:delay=0.01:for=500   # stays alive, just slow

``attempt`` defaults to 0 (first incarnation only), so a respawned
shard replays clean — which is exactly what the headline equivalence
property needs; ``attempt=any`` makes the fault permanent, for the
retries-exhausted / degrade paths.
"""

from __future__ import annotations

import enum
import os
import time
from dataclasses import dataclass, field

__all__ = [
    "CrashInjector",
    "CrashMode",
    "InjectedCrash",
    "CRASH_EXIT_CODE",
    "CHAOS_ENV",
    "ChaosSpecError",
    "FaultAction",
    "ServeActions",
    "ServeFault",
    "ServeFaultInjector",
    "ServeFaultMode",
    "WorkerFault",
    "WorkerFaultInjector",
    "WorkerFaultMode",
    "parse_chaos",
    "parse_serve_chaos",
]

# Distinctive exit code for an injected hard crash, so test drivers can
# tell "crashed as planned" (87) from real failures (1/2/tracebacks).
# Registered centrally; this module's historical name is a re-export.
from repro.exitcodes import EXIT_CHAOS_CRASH as CRASH_EXIT_CODE


class InjectedCrash(RuntimeError):
    """Raised by :class:`CrashInjector` in ``RAISE`` mode."""


class CrashMode(str, enum.Enum):
    HARD = "hard"  # os._exit: no flush, no cleanup — simulates SIGKILL/OOM
    RAISE = "raise"  # exception: unwinds normally — for in-process tests

    def __str__(self) -> str:
        return self.value


@dataclass(slots=True)
class CrashInjector:
    """Aborts the process once ``after_records`` records are counted.

    The durable runner ticks with each batch's record count *after* its
    effects (output rows, possible checkpoint) are applied, and ends a
    batch at :attr:`remaining`, so ``after_records=N`` means "die with
    exactly N records processed" — mid-interval or exactly on a
    checkpoint boundary, both of which resume must survive.
    """

    after_records: int
    mode: CrashMode = CrashMode.HARD
    seen: int = field(default=0, init=False)

    @property
    def remaining(self) -> int:
        """Records left before the crash (at least 1: it fires after one)."""
        return max(1, self.after_records - self.seen)

    def tick(self, records: int) -> None:
        self.seen += records
        if self.seen >= self.after_records:
            if self.mode is CrashMode.HARD:
                os._exit(CRASH_EXIT_CODE)
            raise InjectedCrash(f"injected crash after {self.seen} records")


# ---------------------------------------------------------------------------
# Worker fault modes (DESIGN.md §12)


# Environment variable the shard workers read their chaos spec from
# (the CLI's hidden --chaos flag sets the same spec explicitly).
CHAOS_ENV = "REPRO_CHAOS"

# `attempt=any`: the fault re-arms on every incarnation of the shard.
ANY_ATTEMPT = -1

_SLOW_DEFAULT_DELAY_S = 0.02
_SLOW_DEFAULT_RECORDS = 200
_HANG_NAP_S = 60.0


class ChaosSpecError(ValueError):
    """A chaos spec string failed to parse."""


class WorkerFaultMode(str, enum.Enum):
    CRASH_HARD = "crash-hard"  # os._exit mid-shard, like an OOM kill
    HANG = "hang"  # stop making progress (and heartbeating) forever
    SLOW = "slow"  # stay alive and correct, just pathologically slow
    GARBAGE = "garbage-message"  # emit an unintelligible queue message

    def __str__(self) -> str:
        return self.value


class FaultAction(enum.Enum):
    """What the worker run loop must do on behalf of the injector.

    Hang and slow execute inside :meth:`WorkerFaultInjector.tick`
    itself; crash and garbage need the worker's queue plumbing — a
    producer must never die while its queue feeder thread may hold the
    shared write lock (that would silently block every other worker's
    ``put``), so the worker flushes the feeder before ``os._exit`` and
    quiesces after emitting garbage.
    """

    CRASH = "crash"
    GARBAGE = "garbage"


@dataclass(slots=True)
class WorkerFault:
    """One armed fault: fire ``mode`` in ``worker`` after ``after`` records."""

    mode: WorkerFaultMode
    worker: int
    after: int = 0
    attempt: int = 0  # which incarnation fires; ANY_ATTEMPT = all of them
    delay_s: float = _SLOW_DEFAULT_DELAY_S  # slow: per-record stall
    records: int = _SLOW_DEFAULT_RECORDS  # slow: how many records stay slow

    def arms(self, worker_id: int, attempt: int) -> bool:
        return self.worker == worker_id and (
            self.attempt == ANY_ATTEMPT or self.attempt == attempt
        )


def _split_clauses(spec: str) -> list[tuple[str, dict[str, str], str]]:
    """Shared grammar front end: ``mode:key=value:...;...`` clauses."""
    clauses = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        head, _, tail = clause.partition(":")
        params: dict[str, str] = {}
        if tail:
            for pair in tail.split(":"):
                key, sep, value = pair.partition("=")
                if not sep:
                    raise ChaosSpecError(f"malformed fault param {pair!r} in {clause!r}")
                params[key.strip()] = value.strip()
        clauses.append((head.strip(), params, clause))
    return clauses


def parse_chaos(spec: str) -> list[WorkerFault]:
    """Parse a chaos spec string (see module docstring for the grammar)."""
    faults = []
    for head, params, clause in _split_clauses(spec):
        try:
            mode = WorkerFaultMode(head)
        except ValueError:
            raise ChaosSpecError(
                f"unknown fault mode {head!r} (expected one of "
                f"{', '.join(m.value for m in WorkerFaultMode)})"
            ) from None
        if "worker" not in params:
            raise ChaosSpecError(f"fault {clause!r} needs worker=<id>")
        try:
            attempt_raw = params.pop("attempt", "0")
            fault = WorkerFault(
                mode=mode,
                worker=int(params.pop("worker")),
                after=int(params.pop("after", "0")),
                attempt=ANY_ATTEMPT if attempt_raw == "any" else int(attempt_raw),
                delay_s=float(params.pop("delay", str(_SLOW_DEFAULT_DELAY_S))),
                records=int(params.pop("for", str(_SLOW_DEFAULT_RECORDS))),
            )
        except ValueError as exc:
            raise ChaosSpecError(f"bad fault param in {clause!r}: {exc}") from None
        if params:
            raise ChaosSpecError(
                f"unknown fault param(s) {sorted(params)} in {clause!r}"
            )
        faults.append(fault)
    return faults


class WorkerFaultInjector:
    """Fires armed faults from inside a shard worker's run loop.

    The worker calls :meth:`tick` once per parsed record.  Hang
    executes here (deliberately stopping the heartbeat clock along with
    everything else); slow stalls each of the next ``records`` ticks by
    ``delay_s``; crash returns :data:`FaultAction.CRASH` and garbage
    returns :data:`FaultAction.GARBAGE` exactly once, because both need
    the worker's own queue plumbing (see :class:`FaultAction`).
    """

    def __init__(self, faults: list[WorkerFault]) -> None:
        self.faults = faults
        self.seen = 0
        self._slow_until: int | None = None
        self._slow_delay = 0.0
        self._garbage_sent = False

    @classmethod
    def for_worker(
        cls, spec: str | None, worker_id: int, attempt: int
    ) -> "WorkerFaultInjector | None":
        """The injector for one worker incarnation, or ``None`` if no
        fault in ``spec`` arms for it."""
        if not spec:
            return None
        armed = [fault for fault in parse_chaos(spec) if fault.arms(worker_id, attempt)]
        return cls(armed) if armed else None

    def tick(self) -> FaultAction | None:
        self.seen += 1
        if self._slow_until is not None and self.seen <= self._slow_until:
            time.sleep(self._slow_delay)
        for fault in self.faults:
            if self.seen != max(1, fault.after):
                continue
            if fault.mode is WorkerFaultMode.CRASH_HARD:
                return FaultAction.CRASH
            if fault.mode is WorkerFaultMode.HANG:
                self.nap()
            if fault.mode is WorkerFaultMode.SLOW:
                self._slow_until = self.seen + fault.records
                self._slow_delay = fault.delay_s
            elif fault.mode is WorkerFaultMode.GARBAGE and not self._garbage_sent:
                self._garbage_sent = True
                return FaultAction.GARBAGE
        return None

    @staticmethod
    def nap() -> None:
        """Stop making progress — and heartbeating — forever."""
        while True:
            time.sleep(_HANG_NAP_S)


# ---------------------------------------------------------------------------
# Serve-path fault modes (DESIGN.md §13)


class ServeFaultMode(str, enum.Enum):
    """Faults the ``repro serve`` daemon injects into its own request path.

    Same ``REPRO_CHAOS`` grammar as the worker faults, different modes::

        slow-handler:after=0:delay=0.05:for=100   # stall each classify
        reload-storm:after=10:every=5:for=20      # reload every 5 requests
        malformed-body:after=3:every=7:for=10     # corrupt request bodies

    ``slow-handler`` drives the admission queue into backpressure and
    deadline territory; ``reload-storm`` exercises engine swap under
    load; ``malformed-body`` proves client-error accounting stays exact.
    """

    SLOW_HANDLER = "slow-handler"
    RELOAD_STORM = "reload-storm"
    MALFORMED_BODY = "malformed-body"

    def __str__(self) -> str:
        return self.value


_SERVE_SLOW_DEFAULT_DELAY_S = 0.05
_SERVE_DEFAULT_RECORDS = 100


@dataclass(slots=True)
class ServeFault:
    """One armed serve fault, counted in admitted classify requests.

    A fault covers requests ``after < n <= after+records`` and fires on
    every ``every``-th request in that window (``every=1``, the default:
    each one) — ``slow-handler:every=2`` stalls every other request.
    """

    mode: ServeFaultMode
    after: int = 0
    every: int = 1
    delay_s: float = _SERVE_SLOW_DEFAULT_DELAY_S
    records: int = _SERVE_DEFAULT_RECORDS

    def active(self, seen: int) -> bool:
        if not self.after < seen <= self.after + self.records:
            return False
        return (seen - self.after) % max(1, self.every) == 0


@dataclass(slots=True)
class ServeActions:
    """What the request path must do on behalf of the injector."""

    delay_s: float = 0.0
    reload: bool = False
    mangle_body: bool = False


def parse_serve_chaos(spec: str) -> list[ServeFault]:
    """Parse a serve chaos spec (see :class:`ServeFaultMode`)."""
    faults = []
    for head, params, clause in _split_clauses(spec):
        try:
            mode = ServeFaultMode(head)
        except ValueError:
            raise ChaosSpecError(
                f"unknown serve fault mode {head!r} (expected one of "
                f"{', '.join(m.value for m in ServeFaultMode)})"
            ) from None
        try:
            fault = ServeFault(
                mode=mode,
                after=int(params.pop("after", "0")),
                every=int(params.pop("every", "1")),
                delay_s=float(params.pop("delay", str(_SERVE_SLOW_DEFAULT_DELAY_S))),
                records=int(params.pop("for", str(_SERVE_DEFAULT_RECORDS))),
            )
        except ValueError as exc:
            raise ChaosSpecError(f"bad fault param in {clause!r}: {exc}") from None
        if params:
            raise ChaosSpecError(
                f"unknown fault param(s) {sorted(params)} in {clause!r}"
            )
        if fault.every < 1 or fault.records < 1:
            raise ChaosSpecError(f"every/for must be >= 1 in {clause!r}")
        faults.append(fault)
    return faults


class ServeFaultInjector:
    """Fires armed serve faults from the daemon's admission path.

    The app calls :meth:`observe` once per admitted classify request
    (before the body is parsed) and applies the returned actions: sleep
    ``delay_s`` inside the handler, schedule an engine reload, corrupt
    the request body before JSON decoding.  Unlike the worker injector
    this never kills anything — the serve robustness claim is about
    exact accounting, not crash recovery.
    """

    def __init__(self, faults: list[ServeFault]) -> None:
        self.faults = faults
        self.seen = 0

    @classmethod
    def from_spec(cls, spec: str | None) -> "ServeFaultInjector | None":
        if not spec:
            return None
        faults = parse_serve_chaos(spec)
        return cls(faults) if faults else None

    def observe(self) -> ServeActions:
        self.seen += 1
        actions = ServeActions()
        for fault in self.faults:
            if not fault.active(self.seen):
                continue
            if fault.mode is ServeFaultMode.SLOW_HANDLER:
                actions.delay_s += fault.delay_s
            elif fault.mode is ServeFaultMode.RELOAD_STORM:
                actions.reload = True
            elif fault.mode is ServeFaultMode.MALFORMED_BODY:
                actions.mangle_body = True
        return actions

    @staticmethod
    def mangle(body: bytes) -> bytes:
        """Deterministically corrupt a request body (drives the 400 path)."""
        return b"\xff\x00<not-json>" + body[: len(body) // 2]
