"""The discrete-event RTDBMS engine.

Model (Section IV-A): a backend database server processes one transaction
at a time.  Scheduling points are transaction **arrivals** and
**completions** — "ASETS* needs only to be invoked in response to two
types of events, the arrival and the completion of a transaction" — plus
the optional periodic **activation** ticks of the balance-aware policy.
At every scheduling point the engine suspends the running transaction
(charging it the elapsed processing time; preempted work is never lost),
lets the policy choose among all ready transactions, and dispatches the
choice until the next event.

Precedence is enforced by the engine, not the policies: a dependent
transaction is reported ``ready`` only after everything in its dependency
list has completed (Section II-A).  Policies that operate at the workflow
level additionally receive the :class:`~repro.core.workflow_set.WorkflowSet`,
whose cached head/representative views the engine invalidates whenever a
member transaction arrives, completes, or accumulates processing time.

As an extension beyond the paper (whose conclusion notes ASETS* "could be
applied in any Real-Time system"), the engine also supports ``servers``
> 1: at each scheduling point every running transaction is suspended and
the policy is asked repeatedly until all servers are busy or no ready
transaction remains.  With ``servers=1`` (the default, used by the whole
reproduction) the behaviour is exactly the paper's single-server model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Sequence

from repro.core.transaction import Transaction, TransactionState
from repro.core.workflow_set import WorkflowSet
from repro.errors import SchedulingError, SimulationError
from repro.policies.base import Scheduler
from repro.sim.event_queue import EventQueue
from repro.sim.events import Event, EventKind
from repro.sim.results import SimulationResult, StreamSummary, TransactionRecord
from repro.sim.soa import TxnTable
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ckpt.snapshot import Checkpoint, Checkpointer
    from repro.faults.admission import ShedPolicy
    from repro.faults.plan import FaultPlan, TxnFaultSchedule
    from repro.obs.hooks import Instrument
    from repro.obs.profile import PhaseProfiler

__all__ = ["Simulator"]

#: Engine attributes captured by a run checkpoint (:mod:`repro.ckpt`).
#: Everything here must pickle as one object graph — shared Transaction
#: references between the pool, the SoA table, the event queue, the
#: running map and the policy keep their identity, which is what makes a
#: resumed run decision-identical to an uninterrupted one.  The frozen
#: tuple doubles as the snapshot schema: loads reject a payload whose
#: keys differ (:class:`~repro.errors.CheckpointError`).
_CKPT_CORE_FIELDS = (
    "_txns",
    "_table",
    "_workflows",
    "_trace",
    "_dependents",
    "_events",
    "_seq",
    "_pending_deps",
    "_running",
    "_token_counter",
    "_completed",
    "_finished",
    "_down",
    "_fault_state",
    "_faults",
    "_shed_policy",
    "_shed_limit",
    "_overhead",
    "_servers",
    "_retain_records",
    "scheduling_points",
    "preemptions",
    "_events_processed",
)

#: Tolerance for floating-point residues when a completion event fires.
_EPS = 1e-9

# Hoisted enum members: a class-attribute read of an enum member costs
# an order of magnitude more than a module global, and the handler chain,
# dispatch and reschedule read them at every scheduling point.
_COMPLETION = EventKind.COMPLETION
_FAULT = EventKind.FAULT
_CRASH = EventKind.CRASH
_RECOVER = EventKind.RECOVER
_ARRIVAL = EventKind.ARRIVAL
_RETRY = EventKind.RETRY
_ACTIVATION = EventKind.ACTIVATION
_WAITING = TransactionState.WAITING
_READY = TransactionState.READY
_COMPLETED = TransactionState.COMPLETED

#: Event kinds charged to the ``faults`` profiling phase (the rest of the
#: batch loop is ``events``: arrivals, completions, activations).
_FAULT_KINDS = frozenset((_FAULT, _CRASH, _RECOVER, _RETRY))


@dataclass(slots=True)
class _Dispatch:
    """Book-keeping for one transaction currently holding a server."""

    txn: Transaction
    since: float
    token: int
    #: Context-switch overhead still to be served before real work
    #: resumes (0 unless the simulator models preemption costs).
    overhead_left: float = 0.0


@dataclass(slots=True)
class _FaultState:
    """Mutable per-transaction cursor over its planned fault schedule."""

    schedule: "TxnFaultSchedule"
    #: Index of the next unconsumed abort point (one per attempt).
    next_abort: int = 0
    #: A stall fires at most once per transaction, across all attempts.
    stall_fired: bool = False


class Simulator:
    """Simulate one workload under one policy.

    Parameters
    ----------
    transactions:
        The transaction pool.  The engine resets each transaction before
        the run, so a generated workload can be replayed under several
        policies (construct a fresh policy per run).
    policy:
        The scheduling policy deciding at every scheduling point.
    workflow_set:
        Optional pre-built workflow network over ``transactions``.  Built
        automatically when the policy requires workflows; always validated
        against the same transaction objects.
    record_trace:
        When True the result carries a :class:`~repro.sim.trace.Trace` of
        execution slices.
    servers:
        Number of identical servers (default 1 = the paper's model).
    preemption_overhead:
        Context-switch cost in time units (default 0 = the paper's free
        preemption).  Charged whenever a server starts a transaction
        that was not running at the previous scheduling point — including
        a transaction's first dispatch (cache warm-up); a transaction
        that merely continues across a scheduling point pays nothing and
        keeps any unfinished overhead from its own dispatch.
    instrument:
        Optional :class:`~repro.obs.hooks.Instrument` receiving engine
        hooks (arrivals, dispatches, preemptions, completions,
        scheduling points).  ``None`` (the default) keeps the hot path
        free of any instrumentation cost beyond one ``is not None``
        check per call site; ``policy.select`` wall-time is measured
        (``perf_counter``) only when an instrument is attached.
    profiler:
        Optional :class:`~repro.obs.profile.PhaseProfiler` splitting the
        main loop's wall time into named phases (``pop``, ``sync``,
        ``events``, ``faults``, ``select``, ``dispatch``, ``emit``) and
        handing the policy a :class:`~repro.obs.profile.Probe` at bind
        time so its internal select stages self-attribute.  ``None``
        (the default) keeps the hot path identical to the unprofiled
        engine — the same zero-cost contract as ``instrument``.
        Profiling is observation-only: the event schedule and every
        simulation output stay byte-identical with or without it.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` enabling fault
        injection: planned aborts with bounded retries and exponential
        backoff, server crash/recovery windows (crashed servers drain
        their running transaction back to the ready pool), transient
        processing stalls, and — when the plan's spec sets
        ``backlog_limit`` — admission control shedding lowest-value
        ready work under overload.  ``None`` (the default) keeps every
        code path and event schedule byte-identical to the fault-free
        engine.
    retain_records:
        When True (default) the result carries one
        :class:`~repro.sim.results.TransactionRecord` per transaction
        plus a by-id index.  ``False`` is streaming mode: the result
        carries only a constant-size
        :class:`~repro.sim.results.StreamSummary` (every aggregate
        metric still answers; per-transaction queries raise).  Pair with
        a :class:`~repro.obs.streaming.StreamingRecorder` instrument for
        quantiles and windowed time-series at bounded memory.
    checkpoint_every:
        Event-count interval between run checkpoints; requires
        ``checkpointer`` (and vice versa).  After every batch of
        simultaneous events, once at least this many events have been
        processed since the last snapshot, the engine hands itself to
        the checkpointer at the post-reschedule safe point.  ``None``
        (the default) keeps the hot path free of any checkpoint cost
        beyond one ``is not None`` check per batch.  Incompatible with
        ``profiler``: wall-clock phase timings cannot survive a resume,
        and the byte-identity contract of :mod:`repro.ckpt` only covers
        simulation outputs.
    checkpointer:
        The :class:`~repro.ckpt.snapshot.Checkpointer` that persists
        snapshots (atomically, to one file).  A run killed between
        snapshots resumes from the last one via :meth:`resume_from`
        and finishes byte-identical to an uninterrupted run.

    Examples
    --------
    >>> from repro.policies import EDF
    >>> txns = [
    ...     Transaction(1, arrival=0, length=2, deadline=4),
    ...     Transaction(2, arrival=0, length=1, deadline=2),
    ... ]
    >>> result = Simulator(txns, EDF()).run()
    >>> result.average_tardiness
    0.0
    """

    def __init__(
        self,
        transactions: Sequence[Transaction],
        policy: Scheduler,
        workflow_set: WorkflowSet | None = None,
        record_trace: bool = False,
        servers: int = 1,
        preemption_overhead: float = 0.0,
        instrument: "Instrument | None" = None,
        faults: "FaultPlan | None" = None,
        retain_records: bool = True,
        profiler: "PhaseProfiler | None" = None,
        checkpoint_every: int | None = None,
        checkpointer: "Checkpointer | None" = None,
    ) -> None:
        if not transactions:
            raise SimulationError("cannot simulate an empty transaction pool")
        if servers < 1:
            raise SimulationError(f"servers must be >= 1, got {servers}")
        if preemption_overhead < 0:
            raise SimulationError(
                f"preemption_overhead must be >= 0, got {preemption_overhead}"
            )
        if (checkpoint_every is None) != (checkpointer is None):
            raise SimulationError(
                "checkpoint_every and checkpointer must be given together"
            )
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise SimulationError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if profiler is not None:
                raise SimulationError(
                    "checkpointing cannot be combined with a profiler: "
                    "wall-clock phase timings do not survive a resume"
                )
        self._checkpoint_every = checkpoint_every or 0
        self._checkpointer = checkpointer
        self._resume_pending = False
        self._resume_now = 0.0
        self._events_processed = 0
        self._ckpt_due = 0
        self._overhead = preemption_overhead
        self._instrument = instrument
        self._profiler = profiler
        self._retain_records = retain_records
        self._faults = faults
        self._shed_policy: "ShedPolicy | None" = None
        self._shed_limit: int | None = None
        if faults is not None and faults.spec.backlog_limit is not None:
            from repro.faults.admission import make_shed_policy

            self._shed_limit = faults.spec.backlog_limit
            self._shed_policy = make_shed_policy(faults.spec.shed_policy)
        self._txns = {txn.txn_id: txn for txn in transactions}
        if len(self._txns) != len(transactions):
            raise SimulationError("duplicate transaction ids in pool")
        # Struct-of-arrays view over the pool: dense pool-order indices,
        # flat hot-field columns, and the engine's ready set.
        self._table = TxnTable(transactions)
        self._policy = policy
        self._servers = servers
        if workflow_set is None and policy.requires_workflows:
            workflow_set = WorkflowSet(list(transactions))
        if workflow_set is not None:
            if workflow_set.transactions.keys() != self._txns.keys():
                raise SimulationError(
                    "workflow_set was built over a different transaction pool"
                )
        self._workflows = workflow_set
        self._trace = Trace() if record_trace else None
        # Dependency bookkeeping.
        self._dependents: dict[int, list[int]] = {tid: [] for tid in self._txns}
        for txn in self._txns.values():
            for dep in txn.depends_on:
                if dep not in self._txns:
                    raise SimulationError(
                        f"transaction {txn.txn_id} depends on unknown id {dep}"
                    )
                self._dependents[dep].append(txn.txn_id)
        self._check_acyclic()
        # Run state (initialised in run()).
        self._events = EventQueue()
        self._seq = itertools.count()
        self._pending_deps: dict[int, int] = {}
        self._running: dict[int, _Dispatch] = {}
        self._token_counter = 0
        self._completed = 0
        #: Transactions in any terminal state (completed + aborted +
        #: shed); the run loop drains until every transaction finished.
        self._finished = 0
        self._down = 0
        self._fault_state: dict[int, _FaultState] = {}
        self.scheduling_points = 0
        self.preemptions = 0

    def _check_acyclic(self) -> None:
        indegree = {tid: len(txn.depends_on) for tid, txn in self._txns.items()}
        frontier = [tid for tid, deg in indegree.items() if deg == 0]
        visited = 0
        while frontier:
            tid = frontier.pop()
            visited += 1
            for succ in self._dependents[tid]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    frontier.append(succ)
        if visited != len(self._txns):
            raise SimulationError("dependency graph contains a cycle")

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the workload to completion and return the result.

        On a simulator built by :meth:`resume_from` the first call
        continues the checkpointed run instead of starting over: no
        reset, no ``on_run_start`` (the resumed instrument and log
        already carry the run's opening), picking up at the snapshot's
        simulated time.
        """
        n = len(self._txns)
        if self._resume_pending:
            self._resume_pending = False
            now = self._resume_now
        else:
            self._reset()
            if self._instrument is not None:
                self._instrument.on_run_start(
                    self._policy.name, n, self._servers
                )
            now = 0.0
        profiler = self._profiler
        ckpt = self._checkpointer
        while self._finished < n:
            if not self._events:
                raise SimulationError(
                    f"event queue exhausted with {n - self._finished} "
                    "transactions unfinished"
                )
            if profiler is not None:
                # Profiled loop body: identical work, phase-timed.  Kept
                # as a separate branch so the unprofiled path below pays
                # nothing (the zero-cost-when-off contract, RL001).
                t_pop = perf_counter()
                batch = self._events.pop_batch()
                now = batch[0].time
                t_sync = perf_counter()
                profiler.engine_phase("pop", t_sync - t_pop)
                self._sync_running(now)
                t_events = perf_counter()
                profiler.engine_phase("sync", t_events - t_sync)
                for event in batch:
                    t_handle = perf_counter()
                    self._handle(event, now)
                    profiler.engine_phase(
                        "faults" if event.kind in _FAULT_KINDS else "events",
                        perf_counter() - t_handle,
                    )
            else:
                batch = self._events.pop_batch()
                now = batch[0].time
                self._sync_running(now)
                for event in batch:
                    self._handle(event, now)
            if self._finished >= n:
                break
            self._reschedule(now)
            if ckpt is not None:
                # Post-reschedule safe point: every event of the batch is
                # applied and the dispatch/event-queue state is exactly
                # what the next pop will see.  Event counting only runs
                # with a checkpointer attached (zero-cost-when-off).
                self._events_processed += len(batch)
                if self._events_processed >= self._ckpt_due:
                    self._ckpt_due = (
                        self._events_processed + self._checkpoint_every
                    )
                    ckpt.save(self, now)
        if self._instrument is not None:
            self._instrument.on_run_end(now)
        if not self._retain_records:
            summary = StreamSummary.from_transactions(
                sorted(self._txns.values(), key=lambda t: t.txn_id),
                preemptions=self.preemptions,
            )
            return SimulationResult(
                self._policy.name,
                (),
                self._trace,
                scheduling_points=self.scheduling_points,
                preemptions=self.preemptions,
                stream_summary=summary,
            )
        records = [
            TransactionRecord.from_transaction(txn)
            for txn in sorted(self._txns.values(), key=lambda t: t.txn_id)
        ]
        return SimulationResult(
            self._policy.name,
            records,
            self._trace,
            scheduling_points=self.scheduling_points,
            preemptions=self.preemptions,
        )

    def _reset(self) -> None:
        for txn in self._txns.values():
            txn.reset()
        if self._workflows is not None:
            for wf in self._workflows:
                wf.invalidate()
        self._events = EventQueue()
        self._seq = itertools.count()
        self._pending_deps = {
            tid: len(txn.depends_on) for tid, txn in self._txns.items()
        }
        self._running = {}
        self._token_counter = 0
        self._completed = 0
        self._finished = 0
        self._down = 0
        self._table.reset()
        self.scheduling_points = 0
        self.preemptions = 0
        self._events_processed = 0
        self._ckpt_due = self._checkpoint_every
        self._policy.bind(list(self._txns.values()), self._workflows)
        # Probe attachment mirrors the instrument contract: without a
        # profiler the policy holds None and its select paths pay a
        # single ``is None`` check.
        self._policy.attach_probe(
            self._profiler.probe() if self._profiler is not None else None
        )
        # Seed arrivals off the flat columns: one contiguous float read
        # per transaction instead of two attribute lookups.
        table = self._table
        for i, txn_id in enumerate(table.ids):
            self._events.push(
                Event(table.arrival[i], _ARRIVAL, next(self._seq), txn_id)
            )
        if self._faults is not None:
            self._fault_state = {
                tid: _FaultState(schedule=sched)
                for tid, sched in sorted(self._faults.schedules.items())
            }
            for window in self._faults.crash_windows:
                self._events.push(
                    Event(window.start, _CRASH, next(self._seq))
                )
                self._events.push(
                    Event(window.end, _RECOVER, next(self._seq))
                )
        period = self._policy.activation_period
        if period is not None:
            if period <= 0:
                raise SchedulingError(
                    f"activation_period must be > 0, got {period}"
                )
            self._events.push(
                Event(period, _ACTIVATION, next(self._seq))
            )

    # ------------------------------------------------------------------
    # Checkpoint / resume (:mod:`repro.ckpt`).
    # ------------------------------------------------------------------
    def _checkpoint_payload(self) -> dict[str, object]:
        """The core engine state a run checkpoint captures.

        One entry per :data:`_CKPT_CORE_FIELDS` name; the checkpointer
        pickles the mapping together with the policy snapshot so shared
        object identity survives.  Reading attributes mutates nothing —
        taking a checkpoint must leave the run byte-identical to one
        that never checkpointed.
        """
        return {name: getattr(self, name) for name in _CKPT_CORE_FIELDS}

    @classmethod
    def resume_from(
        cls,
        checkpoint: "Checkpoint",
        *,
        instrument: "Instrument | None" = None,
        checkpoint_every: int | None = None,
        checkpointer: "Checkpointer | None" = None,
    ) -> "Simulator":
        """Rebuild a mid-run simulator from a loaded checkpoint.

        The returned simulator continues the interrupted run: the next
        :meth:`run` call skips the reset and the ``on_run_start`` hook
        and resumes the event loop at the snapshot's simulated time.
        ``instrument`` must itself be the *resumed* instrument (e.g. a
        :class:`~repro.obs.streaming.StreamingRecorder` rebuilt via
        ``from_state``) or ``None``; pass ``checkpointer`` and
        ``checkpoint_every`` to keep checkpointing the resumed run.
        Profilers never survive a resume.
        """
        if (checkpoint_every is None) != (checkpointer is None):
            raise SimulationError(
                "checkpoint_every and checkpointer must be given together"
            )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise SimulationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        sim = object.__new__(cls)
        for name, value in checkpoint.core.items():
            setattr(sim, name, value)
        sim._policy = checkpoint.restore_policy()
        sim._policy.attach_probe(None)
        sim._instrument = instrument
        sim._profiler = None
        sim._checkpoint_every = checkpoint_every or 0
        sim._checkpointer = checkpointer
        sim._ckpt_due = sim._events_processed + (checkpoint_every or 0)
        sim._resume_pending = True
        sim._resume_now = checkpoint.now
        return sim

    # ------------------------------------------------------------------
    # Event handling.
    # ------------------------------------------------------------------
    def _sync_running(self, now: float) -> None:
        """Charge every running transaction for time since its dispatch."""
        for dispatch in self._running.values():
            elapsed = now - dispatch.since
            if elapsed < 0:
                raise SimulationError(
                    f"time moved backwards: dispatch at {dispatch.since}, "
                    f"event at {now}"
                )
            txn = dispatch.txn
            if dispatch.overhead_left > 0.0:
                # Context-switch overhead is served before real work.
                overhead = min(elapsed, dispatch.overhead_left)
                dispatch.overhead_left -= overhead
                if overhead > 0.0 and self._instrument is not None:
                    self._instrument.on_overhead(txn, overhead, now)
                txn.charge(min(elapsed - overhead, txn.remaining))
            else:
                txn.charge(min(elapsed, txn.remaining))
            if self._trace is not None:
                self._trace.record(txn.txn_id, dispatch.since, now)
            dispatch.since = now
            if elapsed > 0 and self._workflows is not None:
                # A charge only shrinks the believed remaining: the
                # workflow aggregates merge in O(1), no re-sweep.
                self._workflows.notify_changed(txn.txn_id, "shrunk")

    def _handle(self, event: Event, now: float) -> None:
        kind = event.kind
        if kind is _COMPLETION:
            self._handle_completion(event, now)
        elif kind is _ARRIVAL:
            self._handle_arrival(event, now)
        elif kind is _FAULT:
            self._handle_fault(event, now)
        elif kind is _CRASH:
            self._handle_crash(now)
        elif kind is _RECOVER:
            self._handle_recover(now)
        elif kind is _RETRY:
            self._handle_retry(event, now)
        else:
            self._handle_activation(now)

    def _handle_completion(self, event: Event, now: float) -> None:
        dispatch = self._running.get(event.txn_id)
        if dispatch is None:
            return  # stale: that dispatch was preempted earlier
        if event.token != dispatch.token:
            # Usually stale (the dispatch this event was scheduled for was
            # preempted).  One exception: preemption + re-dispatch moves
            # the completion time by a float ulp, so the *old* event can
            # fire first with the work already fully charged — that event
            # IS the completion, a few ulps early.
            if dispatch.txn.remaining > _EPS:
                return
        txn = dispatch.txn
        if txn.remaining > _EPS:
            raise SimulationError(
                f"completion event fired with {txn.remaining} work left "
                f"on transaction {txn.txn_id}"
            )
        txn.remaining = 0.0
        txn.mark_completed(now)
        del self._running[event.txn_id]
        self._completed += 1
        self._finished += 1
        self._policy.on_completion(txn, now)
        if self._instrument is not None:
            self._instrument.on_completion(txn, now)
        if self._workflows is not None:
            self._workflows.notify_changed(txn.txn_id)
        self._release_dependents(txn, now)

    def _release_dependents(self, txn: Transaction, now: float) -> None:
        """Unblock dependents once ``txn`` reached a terminal state.

        Shared by completion and by the terminal fault outcomes
        (aborted-exhausted, shed): a dead dependency no longer gates its
        dependents — the page renders the fragment from a fallback, the
        dependent fragments still materialise (documented in
        ``docs/faults.md``).  A dependent parked in retry-wait is never
        touched here: its dependencies completed before it first ran, so
        its pending count is already zero.
        """
        for dep_id in self._dependents[txn.txn_id]:
            self._pending_deps[dep_id] -= 1
            dependent = self._txns[dep_id]
            if (
                self._pending_deps[dep_id] == 0
                and dependent.state is _WAITING
            ):
                dependent.mark_ready()
                self._table.mark_ready(dep_id)
                self._policy.on_ready(dependent, now)

    def _handle_arrival(self, event: Event, now: float) -> None:
        txn = self._txns[event.txn_id]
        self._policy.on_arrival(txn, now)
        if self._instrument is not None:
            self._instrument.on_arrival(txn, now)
        if self._pending_deps[txn.txn_id] == 0:
            txn.mark_ready()
            self._table.mark_ready(txn.txn_id)
            self._policy.on_ready(txn, now)
        else:
            txn.mark_waiting()
        if self._workflows is not None:
            # A new pending member only improves the min/max aggregates.
            self._workflows.notify_changed(txn.txn_id, "arrived")

    def _handle_activation(self, now: float) -> None:
        self._policy.on_activation(now)
        period = self._policy.activation_period
        if period is not None and self._finished < len(self._txns):
            self._events.push(
                Event(now + period, _ACTIVATION, next(self._seq))
            )

    # ------------------------------------------------------------------
    # Fault injection (:mod:`repro.faults`); no-ops without a fault plan.
    # ------------------------------------------------------------------
    def _pending_trigger(
        self, txn: Transaction, state: _FaultState
    ) -> tuple[str, float] | None:
        """The next planned fault of the current attempt, or ``None``.

        Thresholds are served-time positions within the attempt.  On a
        tie the stall fires first (it keeps the transaction running, so
        the subsequent abort still has something to interrupt).
        """
        sched = state.schedule
        best: tuple[str, float] | None = None
        if sched.stall_at is not None and not state.stall_fired:
            best = ("stall", sched.stall_at)
        if state.next_abort < len(sched.abort_points):
            abort_at = sched.abort_points[state.next_abort]
            if best is None or abort_at < best[1]:
                best = ("abort", abort_at)
        return best

    def _schedule_fault_trigger(
        self, txn: Transaction, now: float, overhead: float, token: int
    ) -> None:
        """Arm the attempt's next fault trigger, if it precedes completion.

        Called at dispatch (and after a stall re-issues the completion):
        the trigger fires once the attempt has served up to the planned
        threshold.  A preemption makes the event stale via its dispatch
        ``token`` — the work postpones, and so does the fault.
        """
        state = self._fault_state.get(txn.txn_id)
        if state is None:
            return
        trigger = self._pending_trigger(txn, state)
        if trigger is None:
            return
        delta = trigger[1] - txn.attempt_served
        if delta >= txn.remaining - 1e-12:
            return  # the attempt completes before the fault lands
        self._events.push(
            Event(
                now + overhead + max(0.0, delta),
                _FAULT,
                next(self._seq),
                txn.txn_id,
                token=token,
            )
        )

    def _handle_fault(self, event: Event, now: float) -> None:
        dispatch = self._running.get(event.txn_id)
        if dispatch is None or event.token != dispatch.token:
            return  # stale: that dispatch was preempted or re-issued
        txn = dispatch.txn
        state = self._fault_state[txn.txn_id]
        trigger = self._pending_trigger(txn, state)
        if trigger is None:  # pragma: no cover - defensive
            return
        if trigger[0] == "stall":
            self._fire_stall(dispatch, state, now)
        else:
            self._fire_abort(dispatch, state, now)

    def _fire_stall(
        self, dispatch: _Dispatch, state: _FaultState, now: float
    ) -> None:
        """Inflate the running attempt's true remaining work.

        The belief is untouched (a stall is invisible to the scheduler
        until the work out-lives its estimate), but the pending
        completion event is now premature: re-issue it under a fresh
        token and re-arm the next trigger of this attempt.
        """
        txn = dispatch.txn
        extra = state.schedule.stall_extra
        state.stall_fired = True
        txn.inflate(extra)
        if self._instrument is not None:
            self._instrument.on_stall(txn, extra, now)
        if self._workflows is not None:
            # Only engine-truth remaining moved; believed aggregates
            # are untouched (a stall is invisible to the scheduler).
            self._workflows.notify_changed(txn.txn_id, "truth")
        self._token_counter += 1
        dispatch.token = self._token_counter
        self._events.push(
            Event(
                now + dispatch.overhead_left + txn.remaining,
                _COMPLETION,
                next(self._seq),
                txn.txn_id,
                token=dispatch.token,
            )
        )
        self._schedule_fault_trigger(
            txn, now, dispatch.overhead_left, dispatch.token
        )

    def _fire_abort(
        self, dispatch: _Dispatch, state: _FaultState, now: float
    ) -> None:
        """Abort the running attempt: retry with backoff, or give up."""
        assert self._faults is not None
        spec = self._faults.spec
        txn = dispatch.txn
        state.next_abort += 1
        attempt = txn.retries
        full_restart = spec.work_loss == "restart"
        lost = txn.attempt_served if full_restart else 0.0
        exhausted = txn.retries >= spec.max_retries
        del self._running[txn.txn_id]
        if exhausted:
            txn.mark_aborted(now)
            self._finished += 1
            self._policy.on_fault(txn, now)
            if self._instrument is not None:
                self._instrument.on_abort(txn, now, lost, attempt, True)
            if self._workflows is not None:
                self._workflows.notify_changed(txn.txn_id)
            self._release_dependents(txn, now)
            return
        txn.mark_retry_wait()
        txn.rollback(full=full_restart)
        self._policy.on_fault(txn, now)
        if self._instrument is not None:
            self._instrument.on_abort(txn, now, lost, attempt, False)
        if self._workflows is not None:
            self._workflows.notify_changed(txn.txn_id)
        delay = spec.retry_delay * spec.retry_backoff**txn.retries
        self._events.push(
            Event(now + delay, _RETRY, next(self._seq), txn.txn_id)
        )

    def _handle_retry(self, event: Event, now: float) -> None:
        """Re-submit an aborted transaction after its backoff elapsed.

        The re-submission deadline stretches the original *relative*
        deadline by the backoff factor: retry ``k`` (1-based) gets
        ``now + (d - a) * backoff**(k-1)`` — the SLA of a re-issued
        fragment is renegotiated from the moment of re-submission.
        """
        assert self._faults is not None
        txn = self._txns[event.txn_id]
        spec = self._faults.spec
        relative = txn.submitted_deadline - txn.arrival
        new_deadline = now + relative * spec.retry_backoff**txn.retries
        txn.resubmit(now, new_deadline)
        self._table.mark_ready(txn.txn_id)
        if self._instrument is not None:
            self._instrument.on_retry(txn, now, txn.retries, new_deadline)
        self._policy.on_ready(txn, now)
        if self._workflows is not None:
            self._workflows.notify_changed(txn.txn_id)

    def _handle_crash(self, now: float) -> None:
        """A crash window opens: one server goes down.

        The dispatch drain is not special-cased: the universal
        suspend-and-reselect of :meth:`_reschedule` already returns every
        running transaction to the ready pool, and the reduced server
        count simply re-dispatches fewer of them (preempted work is
        never lost, so a drained transaction resumes where it stopped).
        """
        self._down += 1
        if self._instrument is not None:
            self._instrument.on_crash(now, self._down)

    def _handle_recover(self, now: float) -> None:
        self._down = max(0, self._down - 1)
        if self._instrument is not None:
            self._instrument.on_recover(now, self._down)

    def _shed_overload(self, now: float) -> None:
        """Admission control: shed lowest-value ready work over the limit.

        Runs before the universal suspend, so running work is never a
        victim.  Shedding a transaction releases its dependents (they
        render from fallbacks), which can push the backlog back over the
        limit — hence the loop, which terminates because every pass
        sheds at least one transaction.
        """
        assert self._shed_policy is not None and self._shed_limit is not None
        instrument = self._instrument
        table = self._table
        while True:
            # The ready set is maintained incrementally; materialising it
            # costs O(k log k) of the *ready* population, not an O(pool)
            # state scan — and reproduces the old scan's pool order, so
            # victim enumeration is byte-identical.
            excess = table.ready_count - self._shed_limit
            if excess <= 0:
                return
            ready = table.ready_transactions()
            for txn in self._shed_policy.victims(ready, now, excess):
                txn.mark_shed(now)
                table.unmark_ready(txn.txn_id)
                self._finished += 1
                self._policy.on_fault(txn, now)
                if instrument is not None:
                    instrument.on_shed(txn, now, self._shed_policy.name)
                if self._workflows is not None:
                    self._workflows.notify_changed(txn.txn_id)
                self._release_dependents(txn, now)

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------
    def _reschedule(self, now: float) -> None:
        self.scheduling_points += 1
        instrument = self._instrument
        profiler = self._profiler
        t_body = perf_counter() if profiler is not None else 0.0
        # Admission control runs before the universal suspend: only READY
        # work can be shed, never a transaction holding a server.
        if self._shed_limit is not None:
            self._shed_overload(now)
        table = self._table
        previous = list(self._running.values())
        for dispatch in previous:
            dispatch.txn.mark_suspended()
            table.mark_ready(dispatch.txn.txn_id)
            self._policy.on_requeue(dispatch.txn, now)
        self._running.clear()

        # Continuations keep their unfinished overhead; switches pay anew.
        # With free preemption (the paper's model) every overhead is zero
        # — skip building the carry-over map on that hot path entirely.
        leftover_overhead: dict[int, float] | None = (
            {d.txn.txn_id: d.overhead_left for d in previous}
            if self._overhead > 0.0
            else None
        )
        # Crashed servers accept no work until their window closes.
        available = (
            self._servers
            if self._faults is None
            else max(0, self._servers - self._down)
        )
        dispatched: set[int] = set()
        select_seconds = 0.0
        for _ in range(available):
            if profiler is not None:
                profiler.select_begin(table.ready_count)
                t0 = perf_counter()
                candidate = self._policy.select(now)
                dt = perf_counter() - t0
                select_seconds += dt
                profiler.select_end(dt)
            elif instrument is not None:
                t0 = perf_counter()
                candidate = self._policy.select(now)
                select_seconds += perf_counter() - t0
            else:
                candidate = self._policy.select(now)
            if candidate is None:
                break
            if candidate.state is not _READY:
                raise SchedulingError(
                    f"policy {self._policy.name} selected transaction "
                    f"{candidate.txn_id} in state {candidate.state}"
                )
            if candidate.remaining <= 0:
                raise SchedulingError(
                    f"policy {self._policy.name} selected finished "
                    f"transaction {candidate.txn_id}"
                )
            overhead = (
                leftover_overhead.get(candidate.txn_id, self._overhead)
                if leftover_overhead is not None
                else 0.0
            )
            self._dispatch(candidate, now, overhead)
            dispatched.add(candidate.txn_id)

        if previous and not dispatched and available > 0:
            raise SchedulingError(
                f"policy {self._policy.name} idled while "
                f"{sorted(d.txn.txn_id for d in previous)} were runnable"
            )
        for dispatch in previous:
            txn = dispatch.txn
            if txn.txn_id not in dispatched and txn.state is not _COMPLETED:
                txn.preemptions += 1
                self.preemptions += 1
                if instrument is not None:
                    instrument.on_preempt(txn, now)
        if profiler is not None:
            t_emit = perf_counter()
            if instrument is not None:
                instrument.on_scheduling_point(
                    now, table.ready_count, len(self._running), select_seconds
                )
            t_done = perf_counter()
            profiler.point_end(select_seconds, t_emit - t_body, t_done - t_emit)
        elif instrument is not None:
            instrument.on_scheduling_point(
                now, table.ready_count, len(self._running), select_seconds
            )

    def _dispatch(self, txn: Transaction, now: float, overhead: float = 0.0) -> None:
        txn.mark_running(now)
        self._table.unmark_ready(txn.txn_id)
        if self._instrument is not None:
            self._instrument.on_dispatch(txn, now, overhead)
        self._token_counter += 1
        self._running[txn.txn_id] = _Dispatch(
            txn=txn,
            since=now,
            token=self._token_counter,
            overhead_left=overhead,
        )
        self._events.push(
            Event(
                now + overhead + txn.remaining,
                _COMPLETION,
                next(self._seq),
                txn.txn_id,
                token=self._token_counter,
            )
        )
        if self._faults is not None:
            self._schedule_fault_trigger(txn, now, overhead, self._token_counter)
