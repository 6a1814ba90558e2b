"""Workflows of interdependent transactions (Section II-A).

A *workflow* is defined for every transaction that appears in no dependency
list (a *root*): it contains the root plus, recursively, every transaction
the root depends on.  The paper's Figure 1 shows chains, but because a
transaction may belong to several workflows, the dependency closure of a
root is in general a DAG; this module handles the general case.

Two derived transactions drive the workflow-level ASETS* policy:

* the **head transaction** (Definition 8) — the ready member that would
  actually execute if the workflow were selected, and
* the **representative transaction** (Definition 9) — a virtual transaction
  carrying the earliest deadline, the shortest remaining processing time and
  the largest weight among the workflow's pending members.

Both are recomputed lazily: the owning
:class:`~repro.core.workflow_set.WorkflowSet` invalidates a workflow when
one of its members arrives or completes.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.transaction import Transaction, TransactionState
from repro.errors import InvalidWorkflowError

__all__ = ["Workflow", "RepresentativeView"]

# Hoisted state constants: enum attribute lookups are measurable in
# _refresh, which runs at every invalidation of every touched workflow.
_CREATED = TransactionState.CREATED
_COMPLETED = TransactionState.COMPLETED
_ABORTED = TransactionState.ABORTED
_SHED = TransactionState.SHED
_WAITING = TransactionState.WAITING
_READY = TransactionState.READY
_RUNNING = TransactionState.RUNNING
_INF = float("inf")


class RepresentativeView:
    """Snapshot of a workflow's representative transaction (Definition 9).

    Exposes the same ``deadline`` / ``remaining`` / ``weight`` /
    ``scheduling_remaining`` attributes as a real transaction, so the slack
    helpers and the ASETS* decision rule can treat it uniformly.  Like
    :class:`~repro.core.transaction.Transaction`, the view keeps the
    engine's ground truth (``remaining``) apart from the scheduler's
    belief (``scheduling_remaining``, aggregated from the members' length
    estimates): the estimate-error discussion of §II-A only makes sense if
    policies rank by the believed value, never the oracle one.
    """

    __slots__ = ("deadline", "remaining", "weight", "scheduling_remaining")

    def __init__(
        self,
        deadline: float,
        remaining: float,
        weight: float,
        scheduling_remaining: float | None = None,
    ) -> None:
        self.deadline = deadline
        self.remaining = remaining
        self.weight = weight
        # Exact estimates (the default) make belief and truth coincide.
        self.scheduling_remaining = (
            remaining if scheduling_remaining is None else scheduling_remaining
        )

    def slack(self, at: float) -> float:
        """Believed slack of the representative, :math:`d_{rep} - (t + r_{rep})`."""
        return self.deadline - (at + self.scheduling_remaining)

    def is_past_deadline(self, at: float) -> bool:
        """EDF-List membership test (Definition 6), on the believed time."""
        return at + self.scheduling_remaining > self.deadline

    def __repr__(self) -> str:
        return (
            f"RepresentativeView(d={self.deadline:g}, r={self.remaining:g}, "
            f"r_sched={self.scheduling_remaining:g}, w={self.weight:g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RepresentativeView):
            return NotImplemented
        return (
            self.deadline == other.deadline
            and self.remaining == other.remaining
            and self.weight == other.weight
            and self.scheduling_remaining == other.scheduling_remaining
        )

    def __hash__(self) -> int:
        return hash(
            (self.deadline, self.remaining, self.weight, self.scheduling_remaining)
        )


class Workflow:
    """The dependency closure of one root transaction.

    Parameters
    ----------
    wf_id:
        Unique workflow identifier.
    root_id:
        Id of the root transaction (the one no other transaction depends
        on within this workflow's closure).
    members:
        Mapping of transaction id to :class:`Transaction` covering the
        closure.  Every dependency of every member must itself be a member;
        this is validated at construction time.
    """

    __slots__ = (
        "wf_id",
        "root_id",
        "_members",
        "_order",
        "_member_seq",
        "_dirty",
        "_rep",
        "has_pending",
        "rep_deadline",
        "rep_scheduling_remaining",
        "rep_weight",
        "rep_true_remaining",
        "head_txn",
    )

    def __init__(
        self, wf_id: int, root_id: int, members: Mapping[int, Transaction]
    ) -> None:
        if root_id not in members:
            raise InvalidWorkflowError(
                f"workflow {wf_id}: root {root_id} not among members"
            )
        for txn in members.values():
            missing = [dep for dep in txn.depends_on if dep not in members]
            if missing:
                raise InvalidWorkflowError(
                    f"workflow {wf_id}: member {txn.txn_id} depends on "
                    f"{missing} which are outside the workflow"
                )
        self.wf_id = wf_id
        self.root_id = root_id
        self._members = dict(members)
        self._order = self._topological_order()
        # Members as objects in topological order: the refresh loop runs
        # at every invalidation of every touched workflow, and the
        # id -> Transaction dict lookups are measurable there.
        self._member_seq = tuple(self._members[tid] for tid in self._order)
        self._dirty = True
        self._rep: RepresentativeView | None = None
        # Plain-slot aggregate mirror of the representative view, valid
        # while _dirty is False and has_pending is True (_refresh()
        # recomputes them).  The incremental ASETS* stages read these
        # directly — no snapshot allocation per touched workflow per
        # scheduling point.  rep_true_remaining is the engine-truth
        # minimum, swept lazily at view build (see representative());
        # policies must keep ranking by rep_scheduling_remaining (the
        # believed value, RL008).
        self.has_pending = False
        self.rep_deadline = _INF
        self.rep_scheduling_remaining = _INF
        self.rep_weight = -_INF
        self.rep_true_remaining = _INF
        self.head_txn: Transaction | None = None

    def _topological_order(self) -> tuple[int, ...]:
        """Return member ids in a dependency-respecting order.

        Kahn's algorithm with a deterministic (smallest-id-first) tie
        break; raises :class:`InvalidWorkflowError` on cycles.
        """
        indegree = {tid: 0 for tid in self._members}
        dependents: dict[int, list[int]] = {tid: [] for tid in self._members}
        for txn in self._members.values():
            for dep in txn.depends_on:
                indegree[txn.txn_id] += 1
                dependents[dep].append(txn.txn_id)
        frontier = sorted(tid for tid, deg in indegree.items() if deg == 0)
        order: list[int] = []
        while frontier:
            tid = frontier.pop(0)
            order.append(tid)
            for succ in dependents[tid]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    # Insert keeping the frontier sorted; workflows are
                    # small (paper: length <= 10) so linear insertion is fine.
                    lo = 0
                    while lo < len(frontier) and frontier[lo] < succ:
                        lo += 1
                    frontier.insert(lo, succ)
        if len(order) != len(self._members):
            raise InvalidWorkflowError(
                f"workflow {self.wf_id} contains a dependency cycle"
            )
        return tuple(order)

    # ------------------------------------------------------------------
    # Membership and bookkeeping.
    # ------------------------------------------------------------------
    @property
    def member_ids(self) -> tuple[int, ...]:
        """Member ids in topological order (leaves first, root last)."""
        return self._order

    def members(self) -> Iterable[Transaction]:
        """Iterate members in topological order."""
        return (self._members[tid] for tid in self._order)

    def __contains__(self, txn_id: int) -> bool:
        return txn_id in self._members

    def __len__(self) -> int:
        return len(self._members)

    def invalidate(self) -> None:
        """Mark cached head/representative stale (member state changed).

        The full re-sweep is only *required* for changes that can remove
        a member from the pending set or worsen its contribution —
        completion, abort, shed, retry.  The monotone changes (a member
        arriving, a believed time shrinking) have O(1) targeted updates
        below; :meth:`~repro.core.workflow_set.WorkflowSet.notify_changed`
        routes by event kind.
        """
        self._dirty = True

    def note_arrival(self, txn: Transaction) -> None:
        """O(1) aggregate update for a member entering the pending set.

        A new pending member can only *improve* the min/max aggregates,
        never remove a contribution, so merging its fields is exactly
        what the full sweep would recompute.  No-op (sweep pending) when
        the workflow is already dirty.
        """
        if self._dirty:
            return
        self._rep = None
        deadline = txn.deadline
        believed = txn.scheduling_remaining
        state = txn.state
        if not self.has_pending:
            self.has_pending = True
            self.rep_deadline = deadline
            self.rep_scheduling_remaining = believed
            self.rep_weight = txn.weight
            self.head_txn = (
                txn if state is _READY or state is _RUNNING else None
            )
            return
        if deadline < self.rep_deadline:
            self.rep_deadline = deadline
        if believed < self.rep_scheduling_remaining:
            self.rep_scheduling_remaining = believed
        if txn.weight > self.rep_weight:
            self.rep_weight = txn.weight
        if state is _READY or state is _RUNNING:
            head = self.head_txn
            if head is None or (deadline, believed, txn.txn_id) < (
                head.deadline,
                head.scheduling_remaining,
                head.txn_id,
            ):
                self.head_txn = txn

    def note_shrunk(self, txn: Transaction) -> None:
        """O(1) aggregate update for a member whose believed time shrank.

        Charging a running member only ever *lowers* its believed
        remaining time (and its true remaining), so the believed min can
        be merged in place and the head choice can only swing toward the
        charged member.  Deadline and weight are untouched by a charge.
        No-op (sweep pending) when the workflow is already dirty.
        """
        if self._dirty:
            return
        if not self.has_pending:
            # A charged member is pending by definition; a clean
            # no-pending snapshot means the caller raced a lifecycle
            # change — fall back to the sweep.
            self._dirty = True
            return
        self._rep = None
        believed = txn.scheduling_remaining
        if believed < self.rep_scheduling_remaining:
            self.rep_scheduling_remaining = believed
        state = txn.state
        if state is _READY or state is _RUNNING:
            head = self.head_txn
            if head is None or (txn.deadline, believed, txn.txn_id) < (
                head.deadline,
                head.scheduling_remaining,
                head.txn_id,
            ):
                self.head_txn = txn

    def note_truth_changed(self) -> None:
        """Drop the cached representative view (true remaining moved).

        A stall inflates the engine-truth remaining time without touching
        any believed value, deadline, weight or state: the slot
        aggregates stay exact, only the lazily built snapshot (which
        carries ``remaining``) must be rebuilt.
        """
        self._rep = None

    def pending_members(self) -> list[Transaction]:
        """Members that have been submitted but not finished.

        The scheduler only knows about transactions that have arrived
        (Section II-A: characteristics become available on submission), so
        members still in ``CREATED`` state are invisible.  Terminal
        failure states (``ABORTED`` / ``SHED``, fault injection only) are
        excluded like ``COMPLETED`` — a dead member must not pin the
        workflow's representative or block its head forever.
        """
        return [
            txn
            for txn in self.members()
            if txn.state not in (_CREATED, _COMPLETED, _ABORTED, _SHED)
        ]

    @property
    def is_completed(self) -> bool:
        """True once every member has completed."""
        return all(txn.is_completed for txn in self._members.values())

    # ------------------------------------------------------------------
    # Head and representative transactions.
    # ------------------------------------------------------------------
    def head(self) -> Transaction | None:
        """Return the head transaction (Definition 8), or ``None``.

        The head is the pending member that is ready for execution (all
        dependencies completed).  Chains have at most one; in the general
        DAG case we pick the ready member with the earliest deadline
        (ties: shortest remaining time, then smallest id) — the member the
        transaction-level policies would favour anyway.

        Returns ``None`` when no submitted member is ready, i.e. the
        workflow cannot run right now (either everything completed or the
        runnable member has not arrived yet).
        """
        if self._dirty:
            self._refresh()
        return self.head_txn

    def representative(self) -> RepresentativeView | None:
        """Return the representative transaction (Definition 9), or ``None``.

        Aggregates over the *pending* (submitted, not completed) members:
        minimum deadline, minimum remaining processing time, maximum
        weight.  ``None`` when no member is pending.

        The snapshot object is built lazily from the plain-slot
        aggregates and cached until the next invalidation.  Callers that
        only need the believed numbers (the incremental ASETS* stages)
        instead run ``_refresh()`` when ``_dirty`` is set and read the
        ``has_pending`` / ``rep_*`` / ``head_txn`` slots, so they never
        pay for an allocation.
        """
        if self._dirty:
            self._refresh()
        if not self.has_pending:
            return None
        rep = self._rep
        if rep is None:
            # The engine-truth minimum is swept here, not in _refresh:
            # no policy may rank by it (RL008), so the believed-value
            # hot path never pays for it — only view consumers
            # (reference scan, introspection, analysis) do, and the
            # result is cached until the next change notification.
            r_min = _INF
            for txn in self._member_seq:
                state = txn.state
                if (
                    state is _READY
                    or state is _RUNNING
                    or state is _WAITING
                ):
                    if txn.remaining < r_min:
                        r_min = txn.remaining
            self.rep_true_remaining = r_min
            rep = self._rep = RepresentativeView(
                deadline=self.rep_deadline,
                remaining=r_min,
                weight=self.rep_weight,
                scheduling_remaining=self.rep_scheduling_remaining,
            )
        return rep

    def _refresh(self) -> None:
        # One fused pass over the members replaces the previous four
        # min/max generator sweeps plus two list builds — this runs at
        # every invalidation of every touched workflow, squarely on the
        # engine's hot path.  Aggregates and head pick are identical to
        # the multi-pass version (same member order, same tie-breaks).
        d_min = b_min = _INF
        w_max = -_INF
        pending = False
        head: Transaction | None = None
        head_key: tuple[float, float, int] | None = None
        for txn in self._member_seq:
            state = txn.state
            # Three-way dispatch, runnable states first: READY/RUNNING
            # members are both aggregate contributors and head
            # candidates, WAITING members contribute aggregates only,
            # everything else (CREATED and the terminal states) is
            # invisible to the scheduler.  The engine-truth remaining
            # minimum is *not* swept here — see representative().
            if state is _READY or state is _RUNNING:
                deadline = txn.deadline
                believed = txn.scheduling_remaining
                key = (deadline, believed, txn.txn_id)
                if head_key is None or key < head_key:
                    head, head_key = txn, key
            elif state is _WAITING:
                deadline = txn.deadline
                believed = txn.scheduling_remaining
            else:
                continue
            pending = True
            if deadline < d_min:
                d_min = deadline
            if believed < b_min:
                b_min = believed
            if txn.weight > w_max:
                w_max = txn.weight
        self._dirty = False
        self._rep = None
        if not pending:
            self.has_pending = False
            self.head_txn = None
            return
        self.has_pending = True
        self.rep_deadline = d_min
        self.rep_scheduling_remaining = b_min
        self.rep_weight = w_max
        self.head_txn = head

    def __repr__(self) -> str:
        return (
            f"Workflow(id={self.wf_id}, root={self.root_id}, "
            f"members={list(self._order)})"
        )
