"""Symbolic max-plus execution (the engine of Algorithm 1).

The Figure 3 walkthrough of the paper is reproduced stamp by stamp.
"""

import random

import pytest

from repro.analysis.deadline import CancelToken, Deadline
from repro.errors import (
    AnalysisCancelled,
    DeadlockError,
    UnboundedThroughputError,
    ValidationError,
)
from repro.graphs.examples import figure3_graph
from repro.graphs.multimedia import mp3_playback
from repro.graphs.random_sdf import random_consistent_sdf
from repro.maxplus.algebra import EPSILON
from repro.maxplus.matrix import MaxPlusVector
from repro.core.symbolic import TokenId, initial_token_ids, symbolic_iteration
from repro.sdf.graph import SDFGraph
from repro.sdf.schedule import sequential_schedule


@pytest.fixture
def fig3():
    return figure3_graph()


@pytest.fixture
def fig3_iteration(fig3):
    # Fix the schedule to the paper's narration: L, L, R.
    return symbolic_iteration(fig3, schedule=["L", "L", "R"])


class TestTokenEnumeration:
    def test_canonical_order(self, fig3):
        ids = initial_token_ids(fig3)
        assert [str(t) for t in ids] == [
            "t1_t3[0]",
            "t1_t3[1]",
            "t2[0]",
            "t4[0]",
        ]

    def test_count_matches_total_tokens(self, fig3):
        assert len(initial_token_ids(fig3)) == fig3.total_tokens()


class TestFigure3Stamps:
    """Paper, Section 6: 't1, t2, t3, t4' with our canonical order
    (t1, t3, t2, t4) — index 0 = t1, 1 = t3, 2 = t2, 3 = t4."""

    def test_first_left_firing(self, fig3_iteration):
        # "the firing ... ends at max(t1+3, t2+3)"
        stamp = fig3_iteration.firing_completions[("L", 0)]
        assert stamp == MaxPlusVector([3, EPSILON, 3, EPSILON])

    def test_second_left_firing(self, fig3_iteration):
        # "starts at max(t1+3, t2+3, t3) and ends at max(t1+6, t2+6, t3+3)"
        start = fig3_iteration.firing_starts[("L", 1)]
        end = fig3_iteration.firing_completions[("L", 1)]
        assert start == MaxPlusVector([3, 0, 3, EPSILON])
        assert end == MaxPlusVector([6, 3, 6, EPSILON])

    def test_right_firing_closes_iteration(self, fig3_iteration):
        # R starts at max of both L outputs and t4, ends +1.
        end = fig3_iteration.firing_completions[("R", 0)]
        assert end == MaxPlusVector([7, 4, 7, 1])

    def test_iteration_matrix_rows(self, fig3_iteration):
        m = fig3_iteration.matrix
        # Slots t1 and t3 (rows 0, 1) and t4 (row 3) are produced by R.
        assert m.row(0) == MaxPlusVector([7, 4, 7, 1])
        assert m.row(1) == MaxPlusVector([7, 4, 7, 1])
        assert m.row(3) == MaxPlusVector([7, 4, 7, 1])
        # Slot t2 (row 2) is L's second self-loop token.
        assert m.row(2) == MaxPlusVector([6, 3, 6, EPSILON])


class TestScheduleIndependence:
    @pytest.mark.parametrize("seed", range(6))
    def test_any_admissible_schedule_same_matrix(self, seed):
        rng = random.Random(seed)
        g = random_consistent_sdf(rng, n_actors=4, extra_edges=2, max_repetition=3)
        reference = symbolic_iteration(g).matrix
        # Build a different admissible schedule by shuffling actor
        # priorities: greedily fire a random enabled actor.
        from repro.sdf.repetition import repetition_vector

        remaining = dict(repetition_vector(g))
        tokens = {e.name: e.tokens for e in g.edges}
        schedule = []
        while any(remaining.values()):
            candidates = [
                a
                for a in g.actor_names
                if remaining[a] > 0
                and all(tokens[e.name] >= e.consumption for e in g.in_edges(a))
            ]
            actor = rng.choice(candidates)
            for e in g.in_edges(actor):
                tokens[e.name] -= e.consumption
            for e in g.out_edges(actor):
                tokens[e.name] += e.production
            remaining[actor] -= 1
            schedule.append(actor)
        assert symbolic_iteration(g, schedule=schedule).matrix == reference


class TestErrors:
    def test_source_actor_rejected(self):
        g = SDFGraph()
        g.add_actors("src", "dst")
        g.add_edge("src", "dst")
        g.add_edge("dst", "dst", tokens=1)
        with pytest.raises(UnboundedThroughputError):
            symbolic_iteration(g)

    def test_deadlock_propagates(self):
        g = SDFGraph()
        g.add_actors("a", "b")
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        with pytest.raises(DeadlockError):
            symbolic_iteration(g)

    def test_inadmissible_schedule_rejected(self, fig3):
        with pytest.raises(ValidationError):
            symbolic_iteration(fig3, schedule=["R", "L", "L"])

    def test_partial_schedule_rejected(self, fig3):
        with pytest.raises(ValidationError):
            symbolic_iteration(fig3, schedule=["L", "L"])


class TestMatrixShape:
    def test_square_in_token_count(self, fig3_iteration):
        m = fig3_iteration.matrix
        assert m.nrows == m.ncols == 4

    def test_all_coefficients_nonnegative(self, fig3_iteration):
        for row in fig3_iteration.matrix.rows:
            for value in row:
                assert value == EPSILON or value >= 0

    def test_token_index_lookup(self, fig3_iteration):
        token = fig3_iteration.token_ids[2]
        assert fig3_iteration.token_index(token) == 2
        assert token == TokenId("t2", 0)


def _kernel_param(kernel):
    if kernel == "numpy":
        pytest.importorskip("numpy")
    return kernel


class CountingDeadline(Deadline):
    """An unlimited deadline that counts its clock consultations."""

    def __init__(self):
        super().__init__(budget=None)
        self.polls = 0

    def check_now(self):
        self.polls += 1
        super().check_now()


class TestEngines:
    """Both engines walk the run schedule and report the same progress."""

    @pytest.mark.parametrize("kernel", ["exact", "numpy"])
    def test_cancel_reports_symbolic_progress(self, kernel):
        token = CancelToken()
        token.cancel("shutdown")
        with pytest.raises(AnalysisCancelled) as excinfo:
            symbolic_iteration(mp3_playback(), kernel=_kernel_param(kernel),
                               deadline=Deadline(budget=None, token=token))
        assert excinfo.value.stage == "symbolic-iteration"
        assert excinfo.value.progress == {"firing": 0, "firings_total": 10601}

    def test_block_engine_polls_once_per_run(self):
        deadline = CountingDeadline()
        iteration = symbolic_iteration(
            mp3_playback(), kernel=_kernel_param("numpy"), deadline=deadline)
        assert deadline.polls == len(iteration.runs) == 18

    @pytest.mark.parametrize("kernel", ["exact", "numpy"])
    def test_runs_expand_to_the_schedule(self, fig3, kernel):
        iteration = symbolic_iteration(fig3, kernel=_kernel_param(kernel))
        assert iteration.schedule == [
            actor for actor, count in iteration.runs for _ in range(count)]
        assert iteration.schedule == sequential_schedule(fig3)
        assert len(iteration.firing_starts) == len(iteration.schedule)

    def test_given_repetitions_are_used(self, fig3):
        from repro.sdf.repetition import repetition_vector

        double = {a: 2 * g for a, g in repetition_vector(fig3).items()}
        iteration = symbolic_iteration(fig3, repetitions=double)
        assert len(iteration.schedule) == 2 * len(sequential_schedule(fig3))

    def test_equality_and_repr(self, fig3):
        exact = symbolic_iteration(fig3, kernel="exact")
        assert symbolic_iteration(fig3, kernel=_kernel_param("numpy")) == exact
        assert exact != symbolic_iteration(mp3_playback(), kernel="exact")
        assert repr(exact) == (
            f"SymbolicIteration({exact.token_count} tokens, "
            f"{len(exact.schedule)} firings in {len(exact.runs)} runs)")

    def test_unknown_kernel_rejected(self, fig3):
        with pytest.raises(ValueError):
            symbolic_iteration(fig3, kernel="cuda")
