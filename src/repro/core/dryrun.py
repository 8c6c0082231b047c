"""Cost estimation without spending: the dry-run planner.

The paper's Table 3 is ultimately a budgeting exercise — how do batch size
and prompt components trade accuracy against dollars and hours?  This
module answers the *before you run it* version of that question: it builds
every prompt the pipeline would send, counts the prompt tokens exactly,
estimates completion tokens from the answer contract (one or two lines per
instance), and prices the total with the model's rate card and latency
model.  No LLM client is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import PipelineConfig
from repro.core.pipeline import plan_units, run_inputs
from repro.core.prep import PrepArtifacts
from repro.data.instances import PreprocessingDataset
from repro.llm.profiles import get_profile
from repro.text.tokenize import count_message_tokens

#: estimated completion tokens per answered instance
_ANSWER_TOKENS = 8
#: extra completion tokens when the two-line reasoning contract is active
_REASON_TOKENS = 18


@dataclass(frozen=True)
class CostEstimate:
    """What a run would cost, before running it."""

    model: str
    n_instances: int
    n_requests: int
    prompt_tokens: int
    completion_tokens: int
    cost_usd: float
    hours: float

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    @property
    def tokens_per_instance(self) -> float:
        if self.n_instances == 0:
            return 0.0
        return self.total_tokens / self.n_instances

    def __str__(self) -> str:
        return (
            f"{self.model}: {self.n_instances} instances in "
            f"{self.n_requests} requests — {self.total_tokens:,} tokens, "
            f"${self.cost_usd:.2f}, {self.hours:.2f} h"
        )


def estimate_cost(
    dataset: PreprocessingDataset,
    config: PipelineConfig | None = None,
) -> CostEstimate:
    """Estimate tokens/cost/time for running ``config`` over ``dataset``.

    Prompt tokens are exact (the same prompts the pipeline would build are
    counted); completion tokens use the per-instance answer contract; the
    estimate assumes no retries, so real runs with a noisy model can only
    cost more.
    """
    config = config or PipelineConfig()
    profile = get_profile(config.model)
    instances, fewshot = run_inputs(dataset, config)
    units = plan_units(
        dataset.task, config, instances, fewshot, PrepArtifacts()
    )

    per_answer = _ANSWER_TOKENS + (_REASON_TOKENS if config.reasoning else 0)
    n_requests = len(units)
    prompt_tokens = 0
    completion_tokens = 0
    for unit in units:
        prompt = unit.builder.build(unit.batch, fewshot_examples=unit.fewshot)
        prompt_tokens += count_message_tokens(
            [(m.role, m.content) for m in prompt.messages]
        )
        completion_tokens += per_answer * len(unit.batch)

    seconds = (
        n_requests * profile.latency.base_s
        + prompt_tokens * profile.latency.per_prompt_token_s
        + completion_tokens * profile.latency.per_completion_token_s
    )
    return CostEstimate(
        model=profile.name,
        n_instances=len(instances),
        n_requests=n_requests,
        prompt_tokens=prompt_tokens,
        completion_tokens=completion_tokens,
        cost_usd=profile.cost_usd(prompt_tokens, completion_tokens),
        hours=seconds / 3600.0,
    )


def compare_batch_sizes(
    dataset: PreprocessingDataset,
    config: PipelineConfig | None = None,
    batch_sizes: tuple[int, ...] = (1, 2, 4, 8, 15),
) -> list[CostEstimate]:
    """Table-3-style planning: the cost curve across batch sizes."""
    from dataclasses import replace

    config = config or PipelineConfig()
    return [
        estimate_cost(dataset, replace(config, batch_size=batch_size))
        for batch_size in batch_sizes
    ]
