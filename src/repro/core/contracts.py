"""Runtime numerical contracts for the LSPI core.

The static pass (:mod:`repro.analysis`) keeps determinism hazards out of
the source; this module is its runtime counterpart, extending the
:mod:`repro.cloudsim.validation` invariant-oracle pattern to the learner
itself.  The central check is a **Sherman–Morrison drift audit**: the
incremental inverse ``B`` maintained by
:class:`~repro.core.lstd.SparseLstd` is periodically compared against a
fresh ``np.linalg.solve`` of the mirrored operator
``T = delta I + sum_t u_t v_t^T``.  Because rank-1 updates compound any
rounding error, silent divergence here corrupts every Q-value the agent
ranks — exactly the approximation-drift failure mode the paper's
convergence claim (Theorem 2) assumes away.

Contracts are cheap to keep on in tests and easy to switch off in
benchmarks: the harness reads :func:`contracts_enabled` (environment
variable ``REPRO_CONTRACTS``), the agent takes an explicit
:class:`ContractConfig`, and fleets whose ``d = N x M`` exceeds
``max_audit_dimension`` automatically skip the dense mirror (finiteness
and shape checks still run).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError, ReproError

_TRUE_VALUES = frozenset({"1", "true", "yes", "on"})
_FALSE_VALUES = frozenset({"0", "false", "no", "off", ""})


def contracts_enabled(default: bool = False) -> bool:
    """Whether runtime contracts are globally enabled.

    Controlled by the ``REPRO_CONTRACTS`` environment variable; the
    test suite turns it on (see ``tests/conftest.py``), benchmarks
    leave it off so timings stay clean.  Any value outside the
    case-insensitive true/false spellings raises
    :class:`~repro.errors.ConfigurationError`, so a typo cannot turn
    the audits off unnoticed.
    """
    raw = os.environ.get("REPRO_CONTRACTS")
    if raw is None:
        return default
    value = raw.strip().lower()
    if value in _TRUE_VALUES:
        return True
    if value in _FALSE_VALUES:
        return False
    raise ConfigurationError(
        f"REPRO_CONTRACTS={raw!r} invalid; expected one of "
        f"{sorted(_TRUE_VALUES)} or {sorted(_FALSE_VALUES)}"
    )


class NumericalContractError(ReproError):
    """A runtime numerical contract does not hold."""

    def __init__(self, violations: List[str]) -> None:
        self.violations = violations
        super().__init__(
            "numerical contracts violated:\n  " + "\n  ".join(violations)
        )


@dataclass(frozen=True)
class ContractConfig:
    """Knobs of the runtime contract layer.

    Attributes:
        audit_every: run the drift audit every this many LSTD updates.
        tolerance: max allowed ``|B_incremental - B_reference|`` entry.
        max_audit_dimension: above this ``d`` the dense mirror is
            skipped (memory/solve cost grows as ``d^2``/``d^3``);
            finiteness and shape checks still run.
        raise_on_violation: raise :class:`NumericalContractError`
            (True, the test default) or record violations only.
    """

    audit_every: int = 200
    tolerance: float = 1e-6
    max_audit_dimension: int = 640
    raise_on_violation: bool = True

    def __post_init__(self) -> None:
        if self.audit_every < 1:
            raise ConfigurationError("audit_every must be >= 1")
        if self.tolerance <= 0:
            raise ConfigurationError("tolerance must be > 0")
        if self.max_audit_dimension < 1:
            raise ConfigurationError("max_audit_dimension must be >= 1")


def require_finite(name: str, value: float) -> float:
    """Raise if ``value`` is NaN/inf; returns it otherwise."""
    if not math.isfinite(value):
        raise NumericalContractError(
            [f"{name} is not finite: {value!r}"]
        )
    return value


class ShermanMorrisonAuditor:
    """Audits an LSTD learner's incremental inverse against a fresh solve.

    Mirrors every *applied* rank-1 update into a dense operator ``T``
    (starting from ``delta I``), so that at audit time the exact system
    the incremental ``B`` claims to invert is known.  The audit then
    solves ``T X = I`` from scratch with ``np.linalg.solve`` and
    compares entrywise.  Works with both
    :class:`~repro.core.lstd.SparseLstd` and
    :class:`~repro.core.dense.DenseLstd` (anything exposing
    ``dimension``, ``gamma``, ``delta``, ``updates_applied``, ``B`` and
    ``theta()``).

    Args:
        lstd: the learner to audit.
        config: contract knobs; defaults to :class:`ContractConfig`.
    """

    def __init__(self, lstd, config: Optional[ContractConfig] = None) -> None:
        self.lstd = lstd
        self.config = config or ContractConfig()
        self.dense_mirror_active = (
            lstd.dimension <= self.config.max_audit_dimension
        )
        if self.dense_mirror_active:
            self._mirror = np.eye(lstd.dimension) * lstd.delta
        else:
            self._mirror = None
        self._applied_seen = lstd.updates_applied
        self.updates_observed = 0
        self.audits_run = 0
        self.last_drift: Optional[float] = None
        self.violations: List[str] = []

    # ------------------------------------------------------------------
    # Update mirroring
    # ------------------------------------------------------------------
    def after_update(self, action_index: int, next_action_index: int) -> None:
        """Record one ``lstd.update(...)`` call; audit on schedule.

        Must be called once per update, immediately after it.  Skipped
        updates (denominator floor) are detected via
        ``updates_applied`` and excluded from the mirror, matching what
        the incremental ``B`` actually represents.
        """
        applied = self.lstd.updates_applied > self._applied_seen
        self._applied_seen = self.lstd.updates_applied
        if applied and self._mirror is not None:
            # T += u v^T with u = e_a, v = e_a - gamma e_a'.
            self._mirror[action_index, action_index] += 1.0
            self._mirror[action_index, next_action_index] -= self.lstd.gamma
        self.updates_observed += 1
        if self.updates_observed % self.config.audit_every == 0:
            self.audit()

    def after_retirement(self, indices) -> None:
        """Record an ``lstd.retire_actions(indices)`` call and audit now.

        Retirement rewrites whole rows and columns of ``B`` in one shot,
        so unlike routine updates the audit runs immediately — every
        retirement is validated against a fresh solve of the mirrored
        operator with the same rows/columns reset to ``delta I``.
        """
        if self._mirror is not None:
            for index in indices:
                self._mirror[index, :] = 0.0
                self._mirror[:, index] = 0.0
                self._mirror[index, index] = self.lstd.delta
        self.audit()

    def rebuild_mirror(self, entries) -> None:
        """Reseed the dense mirror from ``(row, col, value)`` triplets.

        Checkpoint resume cannot replay the update history, but the
        learner's operator tracker stores exactly ``T - delta I``; the
        mirror restored here matches what incremental replay would have
        produced up to float summation order (well inside the audit
        tolerance, and exactly for dyadic ``gamma``).  No-op when the
        dense mirror is inactive.
        """
        if self._mirror is None:
            return
        mirror = np.eye(self.lstd.dimension) * self.lstd.delta
        for i, j, value in entries:
            mirror[int(i), int(j)] += float(value)
        self._mirror = mirror
        self._applied_seen = self.lstd.updates_applied

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def _dense_inverse(self) -> np.ndarray:
        matrix = self.lstd.B
        # Settle any rank-1 updates the deferred kernel still has staged
        # before cross-checking densely — the audit must see the same
        # matrix a reader would (to_dense flushes too; this makes the
        # contract explicit rather than incidental).
        flush = getattr(matrix, "flush_pending", None)
        if flush is not None:
            flush()
        to_dense = getattr(matrix, "to_dense", None)
        if to_dense is not None:
            return to_dense()
        return np.asarray(matrix, dtype=np.float64)

    def find_violations(self) -> List[str]:
        """Every broken contract right now (empty = healthy)."""
        violations: List[str] = []
        dense_b = self._dense_inverse()
        dimension = self.lstd.dimension
        if dense_b.shape != (dimension, dimension):
            violations.append(
                f"inverse operator has shape {dense_b.shape}, "
                f"expected ({dimension}, {dimension})"
            )
            return violations
        if not np.all(np.isfinite(dense_b)):
            violations.append("inverse operator B has non-finite entries")
        theta = np.asarray(self.lstd.theta(), dtype=np.float64)
        if theta.shape != (dimension,):
            violations.append(
                f"theta has shape {theta.shape}, expected ({dimension},)"
            )
        elif not np.all(np.isfinite(theta)):
            violations.append("projection vector theta has non-finite entries")
        verify_cache = getattr(self.lstd, "verify_theta_cache", None)
        if verify_cache is not None:
            stale_rows = verify_cache()
            if stale_rows:
                preview = ", ".join(str(i) for i in stale_rows[:8])
                violations.append(
                    f"theta cache is stale for {len(stale_rows)} row(s) "
                    f"[{preview}{', ...' if len(stale_rows) > 8 else ''}]: "
                    "dirty-row invalidation missed an update"
                )
        if violations:
            return violations
        if self._mirror is not None:
            reference = np.linalg.solve(
                self._mirror, np.eye(dimension)
            )
            drift = float(np.max(np.abs(dense_b - reference)))
            self.last_drift = drift
            if drift > self.config.tolerance:
                violations.append(
                    f"Sherman–Morrison drift {drift:.3e} exceeds "
                    f"tolerance {self.config.tolerance:.1e} after "
                    f"{self.lstd.updates_applied} applied updates "
                    "(incremental inverse vs fresh np.linalg solve)"
                )
        return violations

    def audit(self) -> List[str]:
        """Run all checks; raise or record depending on configuration."""
        self.audits_run += 1
        violations = self.find_violations()
        if violations:
            self.violations.extend(violations)
            if self.config.raise_on_violation:
                raise NumericalContractError(violations)
        return violations
