"""ASETS*: the workflow-level, weighted general case (Sections III-B/III-C).

ASETS* lifts the two-list scheme from transactions to *workflows* so the
scheduler can see past the Wait queue: a workflow's position is determined
by its **representative transaction** (Definition 9 — earliest deadline,
shortest remaining time, largest weight among pending members), while the
transaction that actually executes is its **head transaction**
(Definition 8 — the ready member).

A workflow :math:`K_A` sits on the EDF-List iff its representative can
still meet its deadline, :math:`t + r_{rep,A} \\le d_{rep,A}`; otherwise it
sits on the HDF-List (which reduces to an SRPT-List under equal weights).
The EDF-List is ordered by :math:`d_{rep}`, the HDF-List by density
:math:`w_{rep}/r_{rep}`.  Membership, both orderings and the density
guard are defined once, in :mod:`repro.policies.ordering`, and shared by
every code path below (reference scan, incremental heaps, introspection).

The winner is decided by weighted negative impact (Figure 7):

.. code-block:: text

    NI(WF_EDF) = r_head(WF_EDF) * w_rep(WF_HDF)
    NI(WF_HDF) = (r_head(WF_HDF) - s_rep(WF_EDF)) * w_rep(WF_EDF)
    run head(WF_EDF) iff NI(WF_EDF) < NI(WF_HDF), else head(WF_HDF)

With singleton workflows and unit weights this is exactly transaction-level
ASETS; the policy therefore "decides at which level to operate" simply by
the structure of the workload, as the paper advertises.

All quantities above are the *scheduler's* view: feasibility, density and
slack are computed from ``scheduling_remaining`` (the believed remaining
time aggregated from length estimates), matching ASETS and
:meth:`~repro.core.transaction.Transaction.is_past_deadline`.  Reading the
engine's ground-truth ``remaining`` here would be an oracle leak — with
inexact estimates the policy would rank by information the system cannot
have (§II-A) — and is forbidden by lint rule RL008.

Incremental selection
---------------------
Historically ``select`` re-scanned every active workflow at each
scheduling point — O(active), and the dominant engine cost at scale
(BENCH_engine.json).  The default implementation now maintains the two
lists *across* points as lazy-deletion heaps over workflows, dropping
select to O(log n) amortized:

* ``_edf`` holds ``(d_rep, wf_id, serial, wf)``, ``_hdf`` holds
  ``(hdf_rank, wf_id, serial, wf)``; a third heap ``_alarm`` holds the
  feasibility flip threshold ``d_rep - r_rep`` for every EDF entry.
* ``serial`` is a per-workflow integer bumped every time the workflow's
  entries are replaced; an entry whose serial no longer matches
  ``_serial[wf_id]`` is stale and discarded when it surfaces.  Integer
  serials make staleness a single ``!=`` on ints — no float-key
  re-derivation, no float equality.
* **Targeted invalidation**: every lifecycle hook (arrival, ready,
  requeue, completion, fault — the last covering abort, retry and shed)
  marks the transaction's workflows *dirty* rather than re-keying them
  eagerly.  The engine fires hooks before
  :meth:`~repro.core.workflow_set.WorkflowSet.notify_changed`, so an
  eager re-key would cache a stale representative; deferring the work to
  the start of the next ``select`` both fixes that and batches all
  same-timestamp events into one re-key per touched workflow.
* **Weak vs. strong touches**: a requeue (the engine suspends every
  running transaction at every scheduling point) only *shrinks* one
  member's believed remaining time.  For a workflow currently placed on
  the EDF side that moves neither its key (the rep deadline) nor its
  validity — the drain skips it entirely, which is what makes the
  steady state O(log n) instead of O(members) per point.  The same
  touch on an HDF-side or unplaced workflow is promoted to a full
  re-key (its density key moved, and less remaining work can even flip
  it back to feasible).  All other hooks are strong.
* **Lazy migration**: while a workflow waits, its believed remaining
  time is frozen, so it leaves the EDF-List exactly when the clock
  passes ``d_rep - r_rep``.  ``_migrate_expired`` pops alarms strictly
  below ``now`` and moves the workflow to the HDF side.  The threshold
  is a *wake-up*, never the membership test itself: membership is
  re-judged by :func:`~repro.policies.ordering.feasible_at`, and an
  alarm that fires a float-ulp early re-arms at ``now`` (the strict
  ``< now`` pop keeps that from looping within a point).  The EDF top is
  also re-checked at peek time, so an ulp-late alarm cannot leak an
  infeasible workflow into the EDF decision.  HDF entries need no
  re-check: with frozen values, infeasible stays infeasible as the
  clock advances.
* A workflow whose head is not READY when an entry surfaces (it was
  dispatched this point, or its ready member is blocked) is simply
  popped: the head's next lifecycle hook — requeue, completion or
  fault; every state change has one — re-places the workflow.

``select`` runs these as five stage methods — ``_drain``,
``_migrate_expired``, ``_top_edf``, ``_top_hdf`` and ``_decide`` — and
the profiled select calls the very same methods, each inside its probe
span, so profiling cannot change a decision.

``ASETSStar(incremental=False)`` retains the original full-scan
implementation as the reference: it shares the predicate, keys and
``_decide`` with the incremental path, and the property suite asserts
the two are decision-identical across random workloads.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.core.transaction import Transaction, TransactionState
from repro.core.workflow import Workflow
from repro.errors import SchedulingError
from repro.policies.base import Scheduler
from repro.policies.ordering import (
    edf_key,
    feasible_at,
    hdf_key,
    hdf_rank,
    latest_start,
)

__all__ = ["ASETSStar"]

_READY = TransactionState.READY

#: Heap entry: (sort key, wf_id tie-break, validity serial, workflow).
_HeapEntry = tuple[float, int, int, Workflow]


class ASETSStar(Scheduler):
    """Workflow-level ASETS* for weighted, dependent transactions."""

    name = "asets-star"
    requires_workflows = True

    def __init__(self, incremental: bool = True) -> None:
        super().__init__()
        self._incremental = incremental
        self._active: dict[int, Workflow] = {}
        # Incremental-mode state (unused when incremental=False).
        #
        # _dirty: structural touches (arrival/ready/completion/fault) —
        #   membership or deadlines may have changed; full re-key.
        # _dirty_weak: requeue touches — only a member's believed
        #   remaining shrank.  That cannot move an EDF key (the rep
        #   deadline) and can only flip feasibility toward infeasible,
        #   which the EDF top re-judges at peek; only HDF density keys
        #   need re-keying.  Most scheduling points produce exactly one
        #   weak touch (the suspended transaction), so this distinction
        #   is the difference between O(log n) and O(members) per point.
        # _serial: per-workflow entry validity counter.
        # _side: current live placement, ``None`` when no valid entries
        #   are in any heap.  ``(True, deadline, alarm_threshold)`` for
        #   the EDF side, ``(False, rank)`` for the HDF side.  Carrying
        #   the live keys lets a re-key *keep* the existing entries when
        #   the recomputed key is unchanged (no serial bump, no pushes,
        #   no stale entries to pop later) — the common case for
        #   arrivals of later members and completions of non-critical
        #   ones.
        self._dirty: dict[int, Workflow] = {}
        self._dirty_weak: dict[int, Workflow] = {}
        # Dense arrays indexed by wf_id (WorkflowSet ids are 0..n-1,
        # sized at bind time): a serial bump orphans heap entries, a
        # ``None`` side means no live placement.
        self._serial: list[int] = []
        self._side: list[tuple | None] = []
        self._edf: list[_HeapEntry] = []
        self._hdf: list[_HeapEntry] = []
        self._alarm: list[_HeapEntry] = []

    def bind(self, transactions, workflow_set) -> None:  # type: ignore[no-untyped-def]
        super().bind(transactions, workflow_set)
        self._active.clear()
        self._dirty.clear()
        self._dirty_weak.clear()
        n_workflows = 0 if workflow_set is None else len(workflow_set)
        self._serial = [0] * n_workflows
        self._side = [None] * n_workflows
        self._edf.clear()
        self._hdf.clear()
        self._alarm.clear()

    # ------------------------------------------------------------------
    # Bookkeeping: track workflows that have at least one pending member.
    # ------------------------------------------------------------------
    def on_arrival(self, txn: Transaction, now: float) -> None:
        if self._workflow_set is None:
            raise SchedulingError("ASETS* requires a workflow set")
        incremental = self._incremental
        for wf in self._workflow_set.member_workflows(txn.txn_id):
            self._active[wf.wf_id] = wf
            if incremental:
                self._dirty[wf.wf_id] = wf

    def _touch(self, txn: Transaction) -> None:
        """Mark the transaction's workflows for re-keying at next select.

        Deferred on purpose: the engine calls policy hooks *before*
        invalidating the workflow caches, so re-keying here would read a
        stale representative.  The dirty set drains at select() start,
        after all same-timestamp events have been applied — one re-key
        per touched workflow per scheduling point, however many of its
        members changed state.
        """
        workflow_set = self._workflow_set
        if workflow_set is None:
            return
        dirty = self._dirty
        for wf in workflow_set.member_workflows(txn.txn_id):
            dirty[wf.wf_id] = wf

    def on_ready(self, txn: Transaction, now: float) -> None:
        if self._incremental:
            self._touch(txn)

    def on_requeue(self, txn: Transaction, now: float) -> None:
        # Weak touch: the believed remaining time was charged while the
        # transaction ran, but workflow membership and deadlines are
        # untouched — see the drain for what little this requires.
        if self._incremental:
            workflow_set = self._workflow_set
            if workflow_set is None:
                return
            weak = self._dirty_weak
            for wf in workflow_set.member_workflows(txn.txn_id):
                weak[wf.wf_id] = wf

    def on_completion(self, txn: Transaction, now: float) -> None:
        if self._incremental:
            self._touch(txn)

    def on_fault(self, txn: Transaction, now: float) -> None:
        # Abort (rollback resets the belief), retry scheduling and shed
        # all change representative values outside the normal lifecycle.
        if self._incremental:
            self._touch(txn)

    # ------------------------------------------------------------------
    # Selection.
    # ------------------------------------------------------------------
    def select(self, now: float) -> Transaction | None:
        probe = self._probe
        if probe is None:
            if self._incremental:
                if self._dirty or self._dirty_weak:
                    self._drain(now)
                self._migrate_expired(now)
                top_edf = self._top_edf(now)
                top_hdf = self._top_hdf()
            else:
                top_edf, top_hdf = self._scan(now)
            return self._decide(top_edf, top_hdf, now)
        if not self._incremental:
            with probe.span("scan"):
                top_edf, top_hdf = self._scan(now)
            with probe.span("decide"):
                return self._decide(top_edf, top_hdf, now)
        # The same stages as above, one span each.  One top-level span
        # covers the whole incremental body (the attribution contract is
        # over top-level spans), with nested spans carrying the per-stage
        # breakdown.
        with probe.span("incremental"):
            with probe.span("touch"):
                if self._dirty or self._dirty_weak:
                    self._drain(now)
            with probe.span("migrate"):
                self._migrate_expired(now)
            with probe.span("top-edf"):
                top_edf = self._top_edf(now)
            with probe.span("top-hdf"):
                top_hdf = self._top_hdf()
            with probe.span("decide"):
                return self._decide(top_edf, top_hdf, now)

    # -- reference scan (incremental=False) ----------------------------
    def _scan(self, now: float) -> tuple[Workflow | None, Workflow | None]:
        """One pass over the active set: top of the EDF- and HDF-lists.

        Also prunes workflows whose representative vanished (all members
        reached a terminal state) — the paper's lists only ever hold
        pending workflows.  Retained as the reference implementation the
        incremental path is property-tested against; it reads the
        workflows through :meth:`~repro.core.workflow.Workflow.representative`
        and :meth:`~repro.core.workflow.Workflow.head`, not the slots.
        """
        best_edf: Workflow | None = None
        best_edf_key: tuple[float, int] | None = None
        best_hdf: Workflow | None = None
        best_hdf_key: tuple[float, int] | None = None
        completed: list[int] = []

        for wf in self._active.values():
            rep = wf.representative()
            if rep is None:
                completed.append(wf.wf_id)
                continue
            head = wf.head()
            if head is None or head.state is not _READY:
                continue  # workflow cannot run right now
            if feasible_at(rep.deadline, rep.scheduling_remaining, now):
                key = edf_key(rep.deadline, wf.wf_id)
                if best_edf_key is None or key < best_edf_key:
                    best_edf, best_edf_key = wf, key
            else:
                key = hdf_key(rep.weight, rep.scheduling_remaining, wf.wf_id)
                if best_hdf_key is None or key < best_hdf_key:
                    best_hdf, best_hdf_key = wf, key

        for wf_id in completed:
            del self._active[wf_id]
        return best_edf, best_hdf

    # -- incremental structures ----------------------------------------
    #
    # The stages read the workflow's plain-slot aggregates (``rep_*``,
    # ``has_pending``, ``head_txn``) after refreshing a dirty workflow,
    # so no representative snapshot is allocated per scheduling point.
    def _drain(self, now: float) -> None:
        """Re-key every dirty workflow into the heaps (or out of them).

        Weak (requeue) touches are resolved first: a workflow with a live
        EDF entry needs *nothing* — the charged believed time cannot move
        the rep deadline (the EDF key), a feasibility flip is re-judged
        when the entry surfaces at the top, and its alarm threshold only
        became conservative-early (``d - r`` grows as ``r`` shrinks), so
        the wake-up re-arms itself with the fresh value.  A workflow with
        a live HDF entry *is* promoted to a full re-key: its density key
        moved, and the shrunken remaining time may even flip it back to
        feasible.  A workflow with no live entries re-keys fully too.
        """
        strong = self._dirty
        weak = self._dirty_weak
        side = self._side
        if weak:
            for wf_id, wf in weak.items():
                if wf_id not in strong:
                    s = side[wf_id]
                    if s is None or not s[0]:
                        strong[wf_id] = wf
            weak.clear()
            if not strong:
                return
        serials = self._serial
        active = self._active
        edf_heap = self._edf
        hdf_heap = self._hdf
        alarms = self._alarm
        for wf_id, wf in strong.items():
            if wf._dirty:
                wf._refresh()
            if not wf.has_pending:
                # All members terminal: prune.  Any surviving heap
                # entries are orphaned by the serial removal.
                active.pop(wf_id, None)
                serials[wf_id] += 1
                side[wf_id] = None
                continue
            head = wf.head_txn
            if head is None or head.state is not _READY:
                # Not runnable right now; orphan any live entries — the
                # head's next lifecycle hook marks the workflow dirty
                # again.
                if side[wf_id] is not None:
                    serials[wf_id] += 1
                    side[wf_id] = None
                continue
            deadline = wf.rep_deadline
            remaining = wf.rep_scheduling_remaining
            s = side[wf_id]
            if feasible_at(deadline, remaining, now):
                thr = latest_start(deadline, remaining)
                # repro-lint: disable=RL003 -- cached heap-key identity, not arithmetic
                if s is not None and s[0] and s[1] == deadline and thr >= s[2]:
                    # Keep: same EDF key, and the live alarm threshold is
                    # merely conservative-early (it re-arms with the
                    # fresh value when it fires).
                    continue
                serial = serials[wf_id] + 1
                serials[wf_id] = serial
                heappush(edf_heap, (deadline, wf_id, serial, wf))
                heappush(alarms, (thr, wf_id, serial, wf))
                side[wf_id] = (True, deadline, thr)
            else:
                rank = hdf_rank(wf.rep_weight, remaining)
                if s is not None and not s[0] and s[1] == rank:
                    continue  # keep: same HDF key
                serial = serials[wf_id] + 1
                serials[wf_id] = serial
                heappush(hdf_heap, (rank, wf_id, serial, wf))
                side[wf_id] = (False, rank)
        strong.clear()

    def _migrate_expired(self, now: float) -> None:
        """Move workflows whose feasibility flipped to the HDF side.

        Alarms are wake-ups, not judgements: membership is re-checked by
        the shared predicate, and an alarm that fired a float-ulp early
        re-arms at ``now`` (popped only once ``alarm < now``, i.e. at a
        later scheduling point, so this cannot loop within a point).
        """
        alarms = self._alarm
        serials = self._serial
        side = self._side
        while alarms and alarms[0][0] < now:
            _, wf_id, serial, wf = heappop(alarms)
            if serials[wf_id] != serial:
                continue  # superseded entry
            if wf._dirty:
                wf._refresh()
            if not wf.has_pending:
                self._active.pop(wf_id, None)
                serials[wf_id] += 1
                side[wf_id] = None
                continue
            deadline = wf.rep_deadline
            remaining = wf.rep_scheduling_remaining
            if feasible_at(deadline, remaining, now):
                # Re-arm at the *current* threshold: a weak touch may
                # have shrunk the believed remaining since this alarm was
                # set, pushing the real flip later — without the refresh
                # the stale-early alarm would refire at every point.
                thr = max(latest_start(deadline, remaining), now)
                heappush(alarms, (thr, wf_id, serial, wf))
                side[wf_id] = (True, deadline, thr)
                continue
            serial += 1
            serials[wf_id] = serial  # orphans the EDF entry
            head = wf.head_txn
            if head is None or head.state is not _READY:
                side[wf_id] = None
                continue  # re-placed by the head's next lifecycle hook
            rank = hdf_rank(wf.rep_weight, remaining)
            heappush(self._hdf, (rank, wf_id, serial, wf))
            side[wf_id] = (False, rank)

    def _top_edf(self, now: float) -> Workflow | None:
        """Valid top of the EDF heap, re-judging feasibility at peek.

        The peek-time re-check closes the other half of the float-ulp
        window: if the clock slipped past the feasibility flip before
        the alarm fired, the workflow migrates here instead of surfacing
        as a stale EDF top.
        """
        edf_heap = self._edf
        serials = self._serial
        side = self._side
        while edf_heap:
            _, wf_id, serial, wf = edf_heap[0]
            if serials[wf_id] != serial:
                heappop(edf_heap)
                continue
            if wf._dirty:
                wf._refresh()
            if not wf.has_pending:
                heappop(edf_heap)
                self._active.pop(wf_id, None)
                serials[wf_id] += 1
                side[wf_id] = None
                continue
            remaining = wf.rep_scheduling_remaining
            head = wf.head_txn
            if not feasible_at(wf.rep_deadline, remaining, now):
                heappop(edf_heap)
                serial += 1
                serials[wf_id] = serial
                if head is not None and head.state is _READY:
                    rank = hdf_rank(wf.rep_weight, remaining)
                    heappush(self._hdf, (rank, wf_id, serial, wf))
                    side[wf_id] = (False, rank)
                else:
                    side[wf_id] = None
                continue
            if head is None or head.state is not _READY:
                # Dispatched at this point (or blocked): pop, bump the
                # serial (orphaning the alarm) and clear the placement so
                # the head's next lifecycle hook — even a weak requeue —
                # re-keys the workflow from scratch.
                heappop(edf_heap)
                serials[wf_id] = serial + 1
                side[wf_id] = None
                continue
            return wf
        return None

    def _top_hdf(self) -> Workflow | None:
        """Valid top of the HDF heap.

        No feasibility re-check: a waiting workflow's believed values
        are frozen, and ``now + r <= d`` is (weakly) monotone in ``now``,
        so a workflow placed on the HDF side can never flip back without
        a state change — which would have bumped its serial.
        """
        hdf_heap = self._hdf
        serials = self._serial
        side = self._side
        while hdf_heap:
            _, wf_id, serial, wf = hdf_heap[0]
            if serials[wf_id] != serial:
                heappop(hdf_heap)
                continue
            if wf._dirty:
                wf._refresh()
            if not wf.has_pending:
                heappop(hdf_heap)
                self._active.pop(wf_id, None)
                serials[wf_id] += 1
                side[wf_id] = None
                continue
            head = wf.head_txn
            if head is None or head.state is not _READY:
                heappop(hdf_heap)
                serials[wf_id] = serial + 1
                side[wf_id] = None
                continue
            return wf
        return None

    # -- decision -------------------------------------------------------
    # A plain method, not a staticmethod: CPython 3.11 specializes a
    # bound-method call through ``self`` and not a staticmethod one,
    # which roughly halves the call's cost on every select.
    def _decide(
        self, wf_edf: Workflow | None, wf_hdf: Workflow | None, now: float
    ) -> Transaction | None:
        """Figure 7 lines 15-21: weighted negative-impact comparison.

        Reads the list-top workflows' representative slots and heads as
        the tops were found with — no re-lookup, so the decision cannot
        observe a different representative than the ordering did.  Ties
        go to the HDF head; an empty list hands the other list's head
        over undecided.
        """
        if wf_edf is None:
            return None if wf_hdf is None else wf_hdf.head_txn
        if wf_hdf is None:
            return wf_edf.head_txn
        head_edf = wf_edf.head_txn
        head_hdf = wf_hdf.head_txn
        assert head_edf is not None and head_hdf is not None  # READY tops
        slack = wf_edf.rep_deadline - (now + wf_edf.rep_scheduling_remaining)
        ni_edf = head_edf.scheduling_remaining * wf_hdf.rep_weight
        ni_hdf = (head_hdf.scheduling_remaining - slack) * wf_edf.rep_weight
        if ni_edf < ni_hdf:
            return head_edf
        return head_hdf

    # ------------------------------------------------------------------
    # Introspection for tests.
    # ------------------------------------------------------------------
    def _partition(
        self, now: float
    ) -> tuple[
        list[tuple[tuple[float, int], Workflow]],
        list[tuple[tuple[float, int], Workflow]],
    ]:
        """(feasible, infeasible) runnable workflows with their sort keys.

        One ``representative()``/``head()`` lookup per workflow per call
        — the keys are computed once and carried next to the workflow,
        so a sort can never observe a different representative than the
        membership test did.  Shared by both list helpers; membership and
        keys come from :mod:`repro.policies.ordering`, like select's.
        """
        feasible: list[tuple[tuple[float, int], Workflow]] = []
        infeasible: list[tuple[tuple[float, int], Workflow]] = []
        for wf in self._active.values():
            rep = wf.representative()
            if rep is None:
                continue
            head = wf.head()
            if head is None or head.state is not _READY:
                continue
            if feasible_at(rep.deadline, rep.scheduling_remaining, now):
                feasible.append((edf_key(rep.deadline, wf.wf_id), wf))
            else:
                infeasible.append(
                    (
                        hdf_key(
                            rep.weight, rep.scheduling_remaining, wf.wf_id
                        ),
                        wf,
                    )
                )
        feasible.sort(key=lambda entry: entry[0])
        infeasible.sort(key=lambda entry: entry[0])
        return feasible, infeasible

    def edf_list(self, now: float) -> list[Workflow]:
        """Runnable workflows whose representative is feasible, EDF order."""
        return [wf for _key, wf in self._partition(now)[0]]

    def hdf_list(self, now: float) -> list[Workflow]:
        """Runnable workflows whose representative is infeasible, HDF order."""
        return [wf for _key, wf in self._partition(now)[1]]
