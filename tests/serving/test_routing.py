"""Multi-model routing: the cost policy over per-session latency tables.

Sessions get hand-built latency tables with a wide, unambiguous gap
(40 ms/image vs 5 ms/image) so every routing decision is checkable
against the tables by hand: the default router must pick the session
minimizing table-estimated latency subject to the deadline, the
fidelity router the *least pruned* session that still meets it.
"""

import numpy as np
import pytest

from repro.serving import (HighestFidelityRouter, LeastLatencyRouter,
                           Scheduler, VirtualClock, backend_fidelity,
                           request_cost_ms)

from tests.serving.harness import flat_rate_session

# Flat per-block rates make the per-image estimate independent of keep
# ratios: mild costs exactly 10 ms per block (40 ms/image on the 4-block
# tiny model), aggressive 1.25 ms per block (5 ms/image).
MILD_MS, FAST_MS = 10.0, 1.25


@pytest.fixture()
def scheduler(mild_model, aggressive_model, clock_and_router):
    clock, router = clock_and_router
    scheduler = Scheduler(clock=clock, router=router, batch_window_ms=5.0)
    scheduler.register("mild", session=flat_rate_session(
        mild_model, MILD_MS, batch_size=32))
    scheduler.register("aggressive", session=flat_rate_session(
        aggressive_model, FAST_MS, batch_size=32))
    return scheduler


def routed_session(scheduler, images, **submit_kwargs):
    request_id = scheduler.submit(images, **submit_kwargs)
    for served in scheduler.sessions:
        if any(r.request_id == request_id for r in served.queue.snapshot()):
            return served.name
    raise AssertionError("request vanished")


class TestLeastLatencyRouter:
    @pytest.fixture()
    def clock_and_router(self):
        return VirtualClock(), LeastLatencyRouter()

    def test_estimates_come_from_tables(self, scheduler):
        by_name = {s.name: s for s in scheduler.sessions}
        assert by_name["mild"].marginal_image_ms == pytest.approx(40.0)
        assert by_name["aggressive"].marginal_image_ms == pytest.approx(5.0)
        # Bare latency tables wrap as ZERO-overhead cost models, so the
        # batch price is exactly the legacy per-image sum.
        assert by_name["mild"].cost_model.is_zero_overhead
        assert by_name["mild"].batch_cost_ms(3) == pytest.approx(120.0)

    def test_best_effort_picks_global_minimum(self, scheduler,
                                              tiny_dataset):
        assert routed_session(scheduler,
                              tiny_dataset.images[0]) == "aggressive"

    def test_minimizes_latency_subject_to_deadline(self, scheduler,
                                                   tiny_dataset):
        """Acceptance (c): argmin of the table estimates over the
        feasible set, checked against a hand computation."""
        candidates = scheduler.sessions
        for num_images, deadline in [(1, 100.0), (2, 11.0), (4, 30.0)]:
            request_id = scheduler.submit(tiny_dataset.images[:num_images],
                                          deadline_ms=deadline)
            request = next(
                r for s in candidates for r in s.queue.snapshot()
                if r.request_id == request_id)
            feasible = [s for s in candidates
                        if request_cost_ms(s, request) <= deadline]
            expected = min(feasible,
                           key=lambda s: request_cost_ms(s, request))
            chosen = next(s for s in candidates
                          if request in s.queue.snapshot())
            assert chosen.name == expected.name == "aggressive"

    def test_infeasible_deadline_falls_back_to_fastest(self, scheduler,
                                                       tiny_dataset):
        # 4 images * 5 ms = 20 ms > 2 ms: nothing is feasible.
        assert routed_session(scheduler, tiny_dataset.images[:4],
                              deadline_ms=2.0) == "aggressive"

    def test_explicit_model_overrides_router(self, scheduler,
                                             tiny_dataset):
        assert routed_session(scheduler, tiny_dataset.images[0],
                              model="mild") == "mild"

    def test_results_report_routing_decision(self, scheduler,
                                             tiny_dataset):
        scheduler.submit(tiny_dataset.images[0])
        scheduler.submit(tiny_dataset.images[1], model="mild")
        results = {r.request_id: r.session for r in scheduler.flush()}
        assert results == {0: "aggressive", 1: "mild"}


class TestHighestFidelityRouter:
    @pytest.fixture()
    def clock_and_router(self):
        return VirtualClock(), HighestFidelityRouter()

    def test_loose_deadline_gets_least_pruned(self, scheduler,
                                              tiny_dataset):
        # 40 ms <= 100 ms: the accurate operating point fits.
        assert routed_session(scheduler, tiny_dataset.images[0],
                              deadline_ms=100.0) == "mild"

    def test_tight_deadline_degrades_to_pruned(self, scheduler,
                                               tiny_dataset):
        # 5 ms <= 20 ms < 40 ms: only the aggressive point fits.
        assert routed_session(scheduler, tiny_dataset.images[0],
                              deadline_ms=20.0) == "aggressive"

    def test_impossible_deadline_falls_back_to_fastest(self, scheduler,
                                                       tiny_dataset):
        assert routed_session(scheduler, tiny_dataset.images[0],
                              deadline_ms=1.0) == "aggressive"

    def test_best_effort_gets_least_pruned(self, scheduler, tiny_dataset):
        assert routed_session(scheduler,
                              tiny_dataset.images[0]) == "mild"

    def test_per_session_queues_flush_independently(self, scheduler,
                                                    tiny_dataset):
        clock = scheduler.clock
        scheduler.submit(tiny_dataset.images[0], deadline_ms=100.0)  # mild
        scheduler.submit(tiny_dataset.images[1], deadline_ms=20.0)   # aggr
        clock.advance(5.0)                          # both windows expire
        results = scheduler.step()
        sessions = {r.request_id: r.session for r in results}
        assert sessions == {0: "mild", 1: "aggressive"}
        assert {e.session for e in scheduler.events} == {"mild",
                                                         "aggressive"}


class TestBackendFidelity:
    """Numerics-grade pricing: with mixed float/quantized replicas of
    the same operating point the cost estimates tie (the latency table
    prices token counts, not arithmetic), so the fidelity router must
    break the tie toward the higher numerics grade."""

    def test_grade_ordering(self):
        grades = [backend_fidelity("tensor", np.float64),
                  backend_fidelity("fastpath", np.float64),
                  backend_fidelity("fastpath", np.float32),
                  backend_fidelity("int16", np.float64),
                  backend_fidelity("int8", np.float64),
                  backend_fidelity("int8", np.float32)]
        assert grades == sorted(grades, reverse=True)
        assert len(set(grades)) == len(grades)

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError, match="int4"):
            backend_fidelity("int4")

    def test_served_model_exposes_fidelity(self, mild_model):
        scheduler = Scheduler(clock=VirtualClock())
        served = scheduler.register("q", session=flat_rate_session(
            mild_model, MILD_MS, batch_size=32, backend="int8"))
        assert served.fidelity == backend_fidelity("int8", np.float32)

    def test_cost_tie_breaks_to_float_replica(self, mild_model,
                                              tiny_dataset):
        scheduler = Scheduler(clock=VirtualClock(),
                              router=HighestFidelityRouter(),
                              batch_window_ms=5.0)
        # Same checkpoint, same latency table -- identical cost.  The
        # quantized replica sorts after "float" only by name, so a pure
        # (cost, name) max would pick it; fidelity must win instead.
        scheduler.register("float", session=flat_rate_session(
            mild_model, MILD_MS, batch_size=32, backend="fastpath"))
        scheduler.register("quantized", session=flat_rate_session(
            mild_model, MILD_MS, batch_size=32, backend="int8"))
        assert routed_session(scheduler, tiny_dataset.images[0],
                              deadline_ms=100.0) == "float"
