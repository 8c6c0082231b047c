"""Tests for the dry-run cost estimator."""

import pytest

from repro import PipelineConfig, Preprocessor, SimulatedLLM, load_dataset
from repro.core.dryrun import compare_batch_sizes, estimate_cost
from repro.data.instances import PreprocessingDataset, Task
from repro.errors import EvaluationError


class TestEstimateCost:
    @pytest.mark.parametrize(
        "fixture",
        ["restaurant_dataset", "adult_dataset", "synthea_dataset",
         "beer_dataset"],
        ids=["restaurant", "adult", "synthea", "beer"],
    )
    def test_prompt_tokens_match_real_run_exactly(self, fixture, request):
        """The estimator builds the same prompts the pipeline sends."""
        dataset = request.getfixturevalue(fixture)
        config = PipelineConfig(model="gpt-4")
        estimate = estimate_cost(dataset, config)
        real = Preprocessor(SimulatedLLM("gpt-4"), config).run(dataset)
        # No retries happened (gpt-4 fidelity ~1), so prompt tokens agree.
        assert real.n_format_retries == 0
        assert estimate.prompt_tokens == real.usage.prompt_tokens
        assert estimate.n_requests == real.n_requests

    def test_completion_estimate_in_band(self, restaurant_dataset):
        config = PipelineConfig(model="gpt-4")
        estimate = estimate_cost(restaurant_dataset, config)
        real = Preprocessor(SimulatedLLM("gpt-4"), config).run(restaurant_dataset)
        ratio = estimate.completion_tokens / max(real.usage.completion_tokens, 1)
        assert 0.4 < ratio < 2.5

    def test_batching_reduces_estimate(self, adult_dataset):
        single = estimate_cost(
            adult_dataset, PipelineConfig(model="gpt-3.5", batch_size=1)
        )
        batched = estimate_cost(
            adult_dataset, PipelineConfig(model="gpt-3.5", batch_size=15)
        )
        assert batched.total_tokens < single.total_tokens
        assert batched.cost_usd < single.cost_usd
        assert batched.hours < single.hours
        assert batched.n_requests < single.n_requests

    def test_reasoning_increases_completion_estimate(self, restaurant_dataset):
        with_reasoning = estimate_cost(
            restaurant_dataset, PipelineConfig(model="gpt-4", reasoning=True)
        )
        without = estimate_cost(
            restaurant_dataset, PipelineConfig(model="gpt-4", reasoning=False)
        )
        assert with_reasoning.completion_tokens > without.completion_tokens

    def test_gpt4_costs_more_than_gpt35(self, restaurant_dataset):
        cheap = estimate_cost(restaurant_dataset, PipelineConfig(model="gpt-3.5"))
        pricey = estimate_cost(restaurant_dataset, PipelineConfig(model="gpt-4"))
        assert pricey.cost_usd > cheap.cost_usd

    def test_empty_dataset_rejected(self):
        empty = PreprocessingDataset(
            name="e", task=Task.ENTITY_MATCHING, instances=[]
        )
        with pytest.raises(EvaluationError):
            estimate_cost(empty)

    def test_str_summary(self, restaurant_dataset):
        estimate = estimate_cost(restaurant_dataset, PipelineConfig(model="gpt-4"))
        text = str(estimate)
        assert "gpt-4" in text and "$" in text


class TestCompareBatchSizes:
    def test_monotone_token_curve(self):
        dataset = load_dataset("adult", size=200)
        curve = compare_batch_sizes(dataset, PipelineConfig(model="gpt-3.5"))
        tokens = [e.total_tokens for e in curve]
        assert tokens == sorted(tokens, reverse=True)
        assert [e.n_requests for e in curve] == sorted(
            (e.n_requests for e in curve), reverse=True
        )
