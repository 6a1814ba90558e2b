"""Balance-aware ASETS*: trading average- for worst-case performance.

Section III-D: SRPT-style policies starve long transactions.  ASETS* has
a natural aging signal — the missed deadline ("the oldest transaction is
the one that has the earliest deadline") — so the balance-aware variant
periodically overrides the normal choice and runs :math:`T_{old}`, the
ready transaction with the highest weight-to-deadline ratio
:math:`w_i / d_i`.  Running :math:`T_{old}` earlier than ASETS* would
have improves the worst case (maximum weighted tardiness) at a small
cost in the average case; the frequency is controlled by an *activation
rate*:

* **time-based** — every :math:`P^t = 1/\\rho_t` time units
  (:math:`\\rho_t \\in [0.002, 0.01]` in Section IV-F), implemented through
  the simulator's activation ticks;
* **count-based** — every :math:`P^c = 1/\\rho_c` scheduling points
  (:math:`\\rho_c \\in [0.02, 0.1]`), counted locally over ``select``
  calls.

Two aspects of the mechanism are under-specified in the paper; the
defaults here are the combination that reproduces the reported trade-off
(worst case −7..−27 %, average +≤5 %), and both knobs are exposed for the
ablation benchmarks:

* ``tardy_only`` (default True) — :math:`T_{old}` is drawn from the
  transactions that have already missed their deadlines, matching the
  paper's framing of the missed deadline as the aging signal.  Drawing
  from *all* ready transactions makes activations interfere with feasible
  work and blows up the average-case cost.
* ``pin_until_completion`` (default False) — an activated
  :math:`T_{old}` runs until the next scheduling point only; because the
  run shortens its remaining time (raising its HDF density), ASETS*
  itself then finishes the job.  Pinning it non-preemptively to
  completion rescues single transactions faster but inflates average
  tardiness far beyond the paper's 5 %.

The wrapper delegates every other decision to an inner policy — normally
:class:`~repro.policies.asets_star.ASETSStar`, but any scheduler works,
which the test-suite exploits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.priorities import aging_key
from repro.core.transaction import Transaction, TransactionState
from repro.errors import SchedulingError
from repro.policies.base import Scheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.workflow_set import WorkflowSet
    from repro.obs.profile import Probe

__all__ = ["BalanceAware"]

_READY = TransactionState.READY


class BalanceAware(Scheduler):
    """Aging wrapper around a scheduling policy (Section III-D).

    Parameters
    ----------
    inner:
        The policy taking the ordinary decisions (e.g. ``ASETSStar()``).
    time_rate:
        Time-based activation rate :math:`\\rho_t` (activations per time
        unit); mutually exclusive with ``count_rate``.
    count_rate:
        Count-based activation rate :math:`\\rho_c` (activations per
        scheduling point).
    tardy_only:
        Restrict the :math:`T_{old}` pick to transactions past their
        deadline (default True; see module docstring).
    pin_until_completion:
        Keep selecting :math:`T_{old}` until it completes instead of
        letting it run to the next scheduling point only (default False).
    """

    name = "balance-aware"

    def __init__(
        self,
        inner: Scheduler,
        time_rate: float | None = None,
        count_rate: float | None = None,
        tardy_only: bool = True,
        pin_until_completion: bool = False,
    ) -> None:
        super().__init__()
        if (time_rate is None) == (count_rate is None):
            raise SchedulingError(
                "provide exactly one of time_rate / count_rate"
            )
        if time_rate is not None and time_rate <= 0:
            raise SchedulingError(f"time_rate must be > 0, got {time_rate}")
        if count_rate is not None and not 0 < count_rate <= 1:
            raise SchedulingError(
                f"count_rate must be in (0, 1], got {count_rate}"
            )
        self.inner = inner
        self.time_rate = time_rate
        self.count_rate = count_rate
        self.tardy_only = tardy_only
        self.pin_until_completion = pin_until_completion
        self.requires_workflows = inner.requires_workflows
        if time_rate is not None:
            self.activation_period = 1.0 / time_rate
        self._count_period = (
            max(1, round(1.0 / count_rate)) if count_rate is not None else None
        )
        self._ready: dict[int, Transaction] = {}
        self._pending_activation = False
        self._select_calls = 0
        self._pinned: Transaction | None = None
        self.activations = 0  # observable for tests/experiments

    # ------------------------------------------------------------------
    # Delegation plus local ready-set tracking (needed to find T_old).
    # ------------------------------------------------------------------
    def bind(
        self,
        transactions: Sequence[Transaction],
        workflow_set: "WorkflowSet | None",
    ) -> None:
        super().bind(transactions, workflow_set)
        self.inner.bind(transactions, workflow_set)

    def attach_probe(self, probe: "Probe | None") -> None:
        """Propagate the probe so the inner policy's spans attribute too."""
        super().attach_probe(probe)
        self.inner.attach_probe(probe)

    def on_arrival(self, txn: Transaction, now: float) -> None:
        self.inner.on_arrival(txn, now)

    def on_ready(self, txn: Transaction, now: float) -> None:
        self._ready[txn.txn_id] = txn
        self.inner.on_ready(txn, now)

    def on_requeue(self, txn: Transaction, now: float) -> None:
        self._ready[txn.txn_id] = txn
        self.inner.on_requeue(txn, now)

    def on_completion(self, txn: Transaction, now: float) -> None:
        self._ready.pop(txn.txn_id, None)
        if self._pinned is txn:
            self._pinned = None
        self.inner.on_completion(txn, now)

    def on_fault(self, txn: Transaction, now: float) -> None:
        self._ready.pop(txn.txn_id, None)
        if self._pinned is txn:
            self._pinned = None
        self.inner.on_fault(txn, now)

    def on_activation(self, now: float) -> None:
        self._pending_activation = True

    # ------------------------------------------------------------------
    # Selection with the aging override.
    # ------------------------------------------------------------------
    def select(self, now: float) -> Transaction | None:
        self._select_calls += 1
        if (
            self._count_period is not None
            and self._select_calls % self._count_period == 0
        ):
            self._pending_activation = True

        if self._pinned is not None:
            if self._pinned.state is _READY:
                return self._pinned
            # Defensive: pins are ready transactions and only completion
            # unpins, so this should be unreachable.
            self._pinned = None

        if self._pending_activation:
            probe = self._probe
            if probe is None:
                t_old = self._pick_t_old(now)
            else:
                with probe.span("aging"):
                    t_old = self._pick_t_old(now)
            if t_old is not None:
                self._pending_activation = False
                if self.pin_until_completion:
                    self._pinned = t_old
                self.activations += 1
                return t_old
            # No eligible transaction yet; keep the activation pending so
            # it fires at the next eligible scheduling point.

        return self.inner.select(now)

    def _pick_t_old(self, now: float) -> Transaction | None:
        """The eligible transaction with the highest :math:`w_i/d_i` ratio."""
        best: Transaction | None = None
        best_key: tuple[float, int] | None = None
        for txn in self._ready.values():
            if txn.state is not _READY:
                continue
            if self.tardy_only and not txn.is_past_deadline(now):
                continue
            key = (aging_key(txn), txn.txn_id)
            if best_key is None or key < best_key:
                best, best_key = txn, key
        return best

    def __repr__(self) -> str:
        rate = (
            f"time_rate={self.time_rate}"
            if self.time_rate is not None
            else f"count_rate={self.count_rate}"
        )
        return f"BalanceAware({self.inner!r}, {rate})"
