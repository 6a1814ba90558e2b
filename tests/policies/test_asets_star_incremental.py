"""The incremental ASETS* lists against the retained reference scan.

The incremental path (lazy-deletion heaps keyed by the shared ordering
functions, targeted invalidation from the lifecycle hooks, and the alarm
heap that migrates workflows whose feasibility expired) must be
*decision-identical* to ``ASETSStar(incremental=False)``, which rescans
the whole active set at every scheduling point.  These tests compare
full event streams byte-for-byte: directed scenarios for each
invalidation path (arrival, ready, completion, retry, crash, shed,
migration), then hypothesis-random workloads with faults on and off and
the length-estimation error swept.
"""

import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.experiments.config import PolicySpec
from repro.experiments.runner import run_policy_on
from repro.faults import FaultSpec
from repro.obs import Recorder
from repro.obs.profile import PhaseProfiler
from repro.policies import ASETSStar
from repro.workload.generator import generate
from repro.workload.spec import WorkloadSpec
from tests.conftest import make_txn
from tests.policies.test_asets_star import bind_and_arrive
from tests.workload.test_stats import hand_workload

INCREMENTAL = PolicySpec.of("asets-star", "incremental")
SCAN = PolicySpec.of("asets-star", "scan", incremental=False)


def norm(events):
    """Canonical JSON per event, wall-clock ``select_s`` removed."""
    out = []
    for event in events:
        event = dict(event)
        event.pop("select_s", None)
        out.append(json.dumps(event, sort_keys=True))
    return out


def stream(workload, spec, faults=None):
    recorder = Recorder()
    run_policy_on(workload, spec, instrument=recorder, faults=faults)
    return norm(recorder.events)


def assert_decision_identical(spec, faults=None, seed=11):
    workload = generate(spec, seed=seed)
    assert stream(workload, INCREMENTAL, faults) == stream(
        workload, SCAN, faults
    )


# ---------------------------------------------------------------------------
# Directed scenarios — one per invalidation path.
# ---------------------------------------------------------------------------
class TestDirectedEquivalence:
    def test_arrivals_and_completions(self):
        # Staggered arrivals exercise the arrival/ready/completion
        # invalidation hooks without any fault machinery.
        assert_decision_identical(
            WorkloadSpec(
                n_transactions=80, utilization=0.9, with_workflows=True
            )
        )

    def test_overload_keeps_hdf_side_busy(self):
        # Past saturation most workflows are infeasible: placements land
        # on the HDF heap and density re-keys dominate.
        assert_decision_identical(
            WorkloadSpec(
                n_transactions=80, utilization=1.6, with_workflows=True
            )
        )

    def test_retry_and_stall_invalidation(self):
        assert_decision_identical(
            WorkloadSpec(
                n_transactions=60, utilization=0.9, with_workflows=True
            ),
            faults=FaultSpec(
                seed=5, abort_prob=0.3, max_retries=2, stall_prob=0.2
            ),
        )

    def test_crash_and_shed_invalidation(self):
        assert_decision_identical(
            WorkloadSpec(
                n_transactions=60, utilization=1.1, with_workflows=True
            ),
            faults=FaultSpec(
                seed=7,
                crash_count=2,
                backlog_limit=6,
                shed_policy="feasibility",
            ),
        )

    def test_exact_negative_impact_tie(self):
        # At t=6 txn 1 is feasible (slack 3.697) and txn 2 is not, so
        # NI(EDF) = 4.053 and NI(HDF) = 7.75 - slack.  With the slack as
        # d - (now + r), NI(HDF) lands one ulp above NI(EDF) and txn 1
        # runs; as d - now - r the two tie exactly and the tie goes to
        # txn 2.  Every path must compute the slack the same way.
        def workload():
            return hand_workload(
                [
                    make_txn(1, arrival=6.0, length=4.053, deadline=13.75),
                    make_txn(2, arrival=6.0, length=7.75, deadline=10.0),
                ]
            )

        incremental = stream(workload(), INCREMENTAL)
        assert incremental == stream(workload(), SCAN)
        recorder = Recorder()
        run_policy_on(
            workload(),
            PolicySpec.of("asets-star"),
            instrument=recorder,
            profiler=PhaseProfiler(),
        )
        assert norm(recorder.events) == incremental

    @pytest.mark.parametrize("error", [0.0, 0.3, 0.8])
    def test_estimation_error_sweep(self, error):
        # Belief-vs-truth divergence drives the requeue (weak-dirty)
        # path: believed remaining shrinks at a different rate than the
        # engine's ground truth.
        assert_decision_identical(
            WorkloadSpec(
                n_transactions=60,
                utilization=0.9,
                with_workflows=True,
                length_estimate_error=error,
            )
        )


class TestMigrationAlarm:
    """A feasible placement whose slack runs out migrates to the HDF side."""

    def test_starved_workflow_migrates(self):
        # B (deadline 3) wins EDF over A (deadline 6) and runs for 3
        # time units.  A's latest start time is 6 - 4 = 2, so while B
        # runs A's alarm expires; at the next scheduling point A must
        # surface on the HDF list, not the EDF list.
        a = make_txn(1, length=4.0, deadline=6.0)
        b = make_txn(2, length=3.0, deadline=3.0)
        policy = ASETSStar()
        ws = bind_and_arrive(policy, [a, b])

        first = policy.select(0.0)
        assert first is b
        b.mark_running(0.0)  # dispatch needs no hook: the top re-check sees it
        b.charge(3.0)
        b.mark_completed(3.0)
        policy.on_completion(b, 3.0)
        ws.notify_changed(b.txn_id)

        assert policy.select(3.0) is a
        assert [wf.root_id for wf in policy.hdf_list(3.0)] == [1]
        assert policy.edf_list(3.0) == []

    def test_scan_agrees_after_migration(self):
        decisions = []
        for spec in (INCREMENTAL, SCAN):
            policy = spec.make()
            a = make_txn(1, length=4.0, deadline=6.0)
            b = make_txn(2, length=3.0, deadline=3.0)
            ws = bind_and_arrive(policy, [a, b])
            picked = policy.select(0.0)
            picked.mark_running(0.0)
            picked.charge(3.0)
            picked.mark_completed(3.0)
            policy.on_completion(picked, 3.0)
            ws.notify_changed(picked.txn_id)
            decisions.append((picked.txn_id, policy.select(3.0).txn_id))
        assert decisions[0] == decisions[1]


class TestHeadRedispatch:
    """Dispatching a head removes the workflow; completion re-places it."""

    def test_workflow_leaves_lists_while_head_runs(self):
        a = make_txn(1, length=2.0, deadline=10.0)
        policy = ASETSStar()
        bind_and_arrive(policy, [a])
        assert policy.select(0.0) is a
        a.mark_running(0.0)
        # Head is RUNNING: the workflow is runnable for introspection
        # (head() accepts RUNNING members) but select must not return a
        # non-READY transaction.
        assert policy.select(1.0) is None

    def test_dependent_released_by_completion_is_placed(self):
        a = make_txn(1, length=2.0, deadline=10.0)
        c = make_txn(2, length=1.0, deadline=12.0, depends_on=[1])
        policy = ASETSStar()
        ws = bind_and_arrive(policy, [a, c])
        assert policy.select(0.0) is a
        a.mark_running(0.0)
        a.charge(2.0)
        a.mark_completed(2.0)
        policy.on_completion(a, 2.0)
        c.mark_ready()
        policy.on_ready(c, 2.0)
        ws.notify_changed(a.txn_id)
        assert policy.select(2.0) is c


# ---------------------------------------------------------------------------
# Property: random workloads, faults on/off, error swept.
# ---------------------------------------------------------------------------
@st.composite
def scenario(draw):
    spec = WorkloadSpec(
        n_transactions=draw(st.integers(min_value=5, max_value=40)),
        utilization=draw(st.floats(min_value=0.3, max_value=1.8)),
        with_workflows=True,
        length_estimate_error=draw(st.sampled_from([0.0, 0.2, 0.5, 1.0])),
    )
    faults = None
    if draw(st.booleans()):
        faults = FaultSpec(
            seed=draw(st.integers(min_value=0, max_value=2**16)),
            abort_prob=draw(st.floats(min_value=0.0, max_value=0.4)),
            work_loss=draw(st.sampled_from(["restart", "checkpoint"])),
            max_retries=draw(st.integers(min_value=0, max_value=2)),
            stall_prob=draw(st.floats(min_value=0.0, max_value=0.3)),
            stall_max=1.5,
            crash_count=draw(st.integers(min_value=0, max_value=1)),
        )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return spec, faults, seed


@given(case=scenario())
@settings(max_examples=25, deadline=None)
def test_incremental_decision_identical_to_scan(case):
    spec, faults, seed = case
    assert_decision_identical(spec, faults=faults, seed=seed)
