"""The single exit-code registry for every ``repro`` process.

Exit codes are a *contract*: operators script against them (the CI
jobs do, the README documents them, ``tests/test_cli_exitcodes.py``
pins them), so a literal ``sys.exit(3)`` scattered through the tree is
a latent drift bug — renumber one site and the contract silently
forks.  Every ``sys.exit``/``os._exit`` in ``src/repro/`` therefore
names a constant from this module (directly or via the re-exports in
:mod:`repro.robustness.health` / :mod:`repro.robustness.crash`, which
predate it).  ``tests/test_invariants.py`` holds both directions: no
integer literal reaches ``sys.exit`` / ``os._exit`` / ``SystemExit``
in the package, and the README's "Exit codes" table lists *exactly*
the public codes registered here.

``public=True`` entries are the CLI contract (the README table);
``public=False`` entries are process-internal codes (worker-pool
plumbing, the chaos harness) that never surface to an operator's shell
from the ``repro`` command itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "ExitCode",
    "REGISTRY",
    "public_codes",
    "EXIT_CLEAN",
    "EXIT_STRICT_ABORT",
    "EXIT_MISSING_INPUT",
    "EXIT_DEGRADED",
    "EXIT_MANIFEST_MISMATCH",
    "EXIT_WORKER_FAILURE",
    "EXIT_SNAPSHOT_INVALID",
    "EXIT_INTERRUPTED",
    "EXIT_CHAOS_CRASH",
    "EXIT_WORKER_TERMINATED",
    "EXIT_WORKER_ORPHANED",
]


@dataclass(frozen=True, slots=True)
class ExitCode:
    """One registered exit code: its number, visibility, and meaning."""

    name: str
    code: int
    public: bool
    description: str


# -- the CLI contract (README "Exit codes" table) ---------------------------

EXIT_CLEAN = 0
EXIT_STRICT_ABORT = 1
EXIT_MISSING_INPUT = 2
EXIT_DEGRADED = 3
EXIT_MANIFEST_MISMATCH = 4
EXIT_WORKER_FAILURE = 5
EXIT_SNAPSHOT_INVALID = 6
EXIT_INTERRUPTED = 130

# -- process-internal codes (never the repro CLI's own exit status) ---------

# A worker killed by the chaos harness's crash-hard fault (DESIGN.md §12):
# distinguishable from every real failure mode in the chaos tests.
EXIT_CHAOS_CRASH = 87
# A shard worker that died politely to the supervisor's SIGTERM
# (shell convention for "terminated by signal 15": 128 + 15).
EXIT_WORKER_TERMINATED = 143
# A shard worker that hard-exited because its parent vanished; the value
# deliberately shares 1 with EXIT_STRICT_ABORT — nobody observes an
# orphan's status, the name exists so the call site is greppable.
EXIT_WORKER_ORPHANED = 1


REGISTRY: Mapping[str, ExitCode] = {
    entry.name: entry
    for entry in (
        ExitCode(
            "EXIT_CLEAN",
            EXIT_CLEAN,
            True,
            "clean run (for `serve`: drained cleanly on SIGTERM)",
        ),
        ExitCode(
            "EXIT_STRICT_ABORT",
            EXIT_STRICT_ABORT,
            True,
            "usage error; strict-mode abort on the first bad line; `serve` startup failure",
        ),
        ExitCode("EXIT_MISSING_INPUT", EXIT_MISSING_INPUT, True, "input file not found"),
        ExitCode(
            "EXIT_DEGRADED",
            EXIT_DEGRADED,
            True,
            "completed degraded: dropped records or lost shards",
        ),
        ExitCode(
            "EXIT_MANIFEST_MISMATCH",
            EXIT_MANIFEST_MISMATCH,
            True,
            "--resume refused on a run-manifest mismatch",
        ),
        ExitCode(
            "EXIT_WORKER_FAILURE",
            EXIT_WORKER_FAILURE,
            True,
            "a shard worker failed terminally and the run aborted",
        ),
        ExitCode(
            "EXIT_SNAPSHOT_INVALID",
            EXIT_SNAPSHOT_INVALID,
            True,
            "engine snapshot corrupt/version-incompatible under --snapshot-policy=refuse",
        ),
        ExitCode(
            "EXIT_INTERRUPTED",
            EXIT_INTERRUPTED,
            True,
            "interrupted (SIGINT/SIGTERM); durable state kept for --resume",
        ),
        ExitCode(
            "EXIT_CHAOS_CRASH",
            EXIT_CHAOS_CRASH,
            False,
            "worker killed by the chaos harness's crash-hard fault",
        ),
        ExitCode(
            "EXIT_WORKER_TERMINATED",
            EXIT_WORKER_TERMINATED,
            False,
            "worker died politely to the supervisor's SIGTERM (128+15)",
        ),
        ExitCode(
            "EXIT_WORKER_ORPHANED",
            EXIT_WORKER_ORPHANED,
            False,
            "worker hard-exited because its parent process vanished",
        ),
    )
}


def public_codes() -> dict[int, ExitCode]:
    """The operator-facing contract, keyed by numeric code."""
    return {entry.code: entry for entry in REGISTRY.values() if entry.public}
