"""Self-healing dynamic runs: checkpoint/restore, crash-recovery, and
incremental re-convergence under churn.

Three layers, from mechanism to policy:

* :mod:`~repro.recovery.checkpoint` -- versioned, digest-verified
  snapshots of per-node program state and run-level simulator state
  (round counter, in-flight fault-injector envelopes), serializable to
  disk via :class:`CheckpointStore`; a suspended run restored with
  :func:`restore_network` / :func:`resume_from_checkpoint` continues
  bit-identically to an uninterrupted one, on either backend.
* :mod:`~repro.recovery.recover` -- :class:`RecoverableProgram` wraps
  any node program with periodic snapshots, crash rollback
  (``CrashWindow(..., restart_from="checkpoint")``), virtual-time skew,
  and a bounded neighbor-replay protocol, so a restarted node re-joins
  the computation instead of replaying from round 0.
* :mod:`~repro.recovery.dynamic` -- :class:`DynamicRun` applies
  streaming graph updates (:class:`EdgeUpdate`, :class:`NodeLeave`,
  :class:`NodeJoin`), computes the affected-source set, and re-runs
  only those sources through the existing k-source pipeline, reporting
  ``rounds_to_repair``.

:mod:`~repro.recovery.chaos` composes all three into a seeded chaos
campaign (randomized fault plans x update streams, oracle-checked,
cross-backend digest-pinned).  The package does not import it, so
``python -m repro.recovery.chaos`` executes the module once; import
its names from ``repro.recovery.chaos``.  See docs/RECOVERY.md for the
protocol details and the composition rules (notably: do **not** stack
:class:`~repro.faults.ResilientProgram` on top of
:class:`RecoverableProgram`).
"""

from .checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointStore,
    NodeCheckpoint,
    RunCheckpoint,
    capture_state,
    checkpoint_network,
    decode_value,
    encode_value,
    restore_network,
    restore_state,
    resume_from_checkpoint,
)
from .dynamic import (
    DynamicRun,
    EdgeUpdate,
    NodeJoin,
    NodeLeave,
    RepairRecord,
)
from .recover import (
    RecoverableProgram,
    RecoveryStats,
    RollbackAwareMonotonicity,
    checkpoint_windows_of,
    recovery_monitor,
    run_recoverable,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointStore",
    "NodeCheckpoint",
    "RunCheckpoint",
    "capture_state",
    "checkpoint_network",
    "decode_value",
    "encode_value",
    "restore_network",
    "restore_state",
    "resume_from_checkpoint",
    "DynamicRun",
    "EdgeUpdate",
    "NodeJoin",
    "NodeLeave",
    "RepairRecord",
    "RecoverableProgram",
    "RecoveryStats",
    "RollbackAwareMonotonicity",
    "checkpoint_windows_of",
    "recovery_monitor",
    "run_recoverable",
]
