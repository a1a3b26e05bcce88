"""Unit tests for protector-set evaluation."""

import pytest

from repro.diffusion.doam import DOAMModel
from repro.diffusion.opoao import OPOAOModel
from repro.errors import SeedError
from repro.exec.pool import ParallelExecutor
from repro.lcrb.evaluation import evaluate_protectors, resolve_seed_labels
from repro.rng import RngStream


class TestEvaluateProtectors:
    def test_full_cover_protects_everything(self, fig2_context):
        result = evaluate_protectors(
            fig2_context, ["v1", "R1"], DOAMModel(), runs=1
        )
        assert result.protected_bridge_fraction == 1.0
        assert result.bridge_infected.mean == 0.0

    def test_no_protectors_most_ends_fall(self, fig2_context):
        result = evaluate_protectors(fig2_context, [], DOAMModel(), runs=1)
        assert result.bridge_infected.mean == 3.0
        assert result.protected_bridge_fraction == 0.0

    def test_partial_cover(self, fig2_context):
        result = evaluate_protectors(fig2_context, ["v1"], DOAMModel(), runs=1)
        assert result.bridge_protected.mean == 2.0
        assert result.bridge_infected.mean == 1.0
        # Not-infected fraction (Definition 2's protection level): 2 of 3.
        assert result.protected_bridge_fraction == pytest.approx(2 / 3)

    def test_infected_series_monotone(self, fig2_context):
        result = evaluate_protectors(
            fig2_context, ["v1"], OPOAOModel(), runs=20, rng=RngStream(1)
        )
        series = result.infected_per_hop
        assert all(b >= a for a, b in zip(series, series[1:]))

    def test_protectors_reduce_infection_vs_noblocking(self, fig2_context):
        protected = evaluate_protectors(
            fig2_context, ["v1", "R1"], OPOAOModel(), runs=50, rng=RngStream(2)
        )
        unprotected = evaluate_protectors(
            fig2_context, [], OPOAOModel(), runs=50, rng=RngStream(2)
        )
        assert protected.final_infected_mean <= unprotected.final_infected_mean

    def test_bucket_counts_sum_to_total(self, fig2_context):
        result = evaluate_protectors(
            fig2_context, ["v1"], OPOAOModel(), runs=10, rng=RngStream(3)
        )
        total = (
            result.bridge_infected.mean
            + result.bridge_protected.mean
            + result.bridge_untouched.mean
        )
        assert total == pytest.approx(result.bridge_total)

    def test_protector_overlapping_rumor_rejected(self, fig2_context):
        with pytest.raises(Exception):
            evaluate_protectors(fig2_context, ["r1"], DOAMModel(), runs=1)

    def test_final_samples_collected(self, fig2_context):
        result = evaluate_protectors(
            fig2_context, ["v1"], OPOAOModel(), runs=15, rng=RngStream(5)
        )
        assert len(result.final_infected_samples) == 15
        assert sum(result.final_infected_samples) / 15 == pytest.approx(
            result.final_infected_mean
        )

    def test_two_workers_equal_inline(self, fig2_context):
        # The pooled run folds the same replica records in the same
        # order as the inline one: every statistic is bit-identical.
        def evaluate(**options):
            return evaluate_protectors(
                fig2_context, ["v1"], OPOAOModel(), runs=12, max_hops=8,
                rng=RngStream(4), **options,
            )

        inline = evaluate()
        with ParallelExecutor(2, share="pickle") as executor:
            shared = evaluate(workers=2, executor=executor)
        for pooled in (evaluate(workers=2), shared):
            assert pooled.final_infected_samples == inline.final_infected_samples
            assert pooled.infected_per_hop == inline.infected_per_hop
            assert pooled.aggregate.final_infected.variance == (
                inline.aggregate.final_infected.variance
            )
            for name in ("bridge_infected", "bridge_protected", "bridge_untouched"):
                mine, theirs = getattr(pooled, name), getattr(inline, name)
                assert (mine.count, mine.mean, mine.variance) == (
                    theirs.count, theirs.mean, theirs.variance
                )

    def test_compare_evaluations_resolves_clear_gap(self, fig2_context):
        from repro.lcrb.evaluation import compare_evaluations

        blocked = evaluate_protectors(
            fig2_context, ["v1", "R1", "a1"], OPOAOModel(), runs=60, rng=RngStream(6)
        )
        unblocked = evaluate_protectors(
            fig2_context, [], OPOAOModel(), runs=60, rng=RngStream(6)
        )
        verdict = compare_evaluations(blocked, unblocked, RngStream(7))
        assert verdict["observed_diff"] < 0
        assert verdict["p_left_better"] > 0.9
        assert verdict["resolved"]

    def test_compare_evaluations_identical_runs_unresolved(self, fig2_context):
        from repro.lcrb.evaluation import compare_evaluations

        a = evaluate_protectors(
            fig2_context, ["v1"], OPOAOModel(), runs=30, rng=RngStream(8)
        )
        b = evaluate_protectors(
            fig2_context, ["v1"], OPOAOModel(), runs=30, rng=RngStream(8)
        )
        verdict = compare_evaluations(a, b, RngStream(9))
        assert verdict["observed_diff"] == 0.0
        assert not verdict["resolved"]

    def test_empty_bridge_instance(self):
        from repro.algorithms.base import SelectionContext
        from repro.graph.digraph import DiGraph

        g = DiGraph.from_edges([("r", "c"), ("c", "r")])
        context = SelectionContext(g, ["r", "c"], ["r"])
        result = evaluate_protectors(context, [], DOAMModel(), runs=1)
        assert result.protected_bridge_fraction == 1.0


class TestSeedLabelValidation:
    """Unknown protector labels: one SeedError naming every offender."""

    def test_unknown_protectors_all_named(self, fig2_context):
        with pytest.raises(SeedError) as excinfo:
            evaluate_protectors(
                fig2_context,
                ["v1", "__ghost_a__", "__ghost_b__"],
                DOAMModel(),
                runs=1,
            )
        message = str(excinfo.value)
        assert "protector" in message
        assert "'__ghost_a__'" in message and "'__ghost_b__'" in message
        assert "2 of 3" in message

    def test_resolve_dedupes_preserving_order(self, fig2_context):
        indexed = fig2_context.indexed
        resolved = resolve_seed_labels(
            indexed, ["v1", "R1", "v1"], "protector"
        )
        assert resolved == indexed.indices(["v1", "R1"])

    def test_known_labels_pass_through(self, fig2_context):
        result = evaluate_protectors(
            fig2_context, ["v1", "v1"], DOAMModel(), runs=1
        )
        assert result.bridge_total == 3
