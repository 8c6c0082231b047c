"""Vectorized batch decode: bit-identical to the scalar reference.

``SimulatedLLM`` amortizes the shared prompt prefix across a batch
through its memo; that may only ever change host-CPU cost.  Everything a
caller can observe -- reply text, token usage, latency, retry resampling,
checkpoint/resume -- must match the scalar, from-scratch decode in
:mod:`tests.llm.reference_decode` exactly, and the memo must stay bounded
by the distinct prompt prefixes it has seen.
"""

import pytest

from repro.llm.promptparse import PromptParseMemo, parse_prompt
from repro.llm.simulated import SimulatedLLM
from tests.llm.reference_decode import ReferenceLLM, build_decode_requests

#: one dataset per task: ED, EM, DI, SM
DATASETS = ("adult", "beer", "restaurant", "synthea")


@pytest.fixture(scope="module")
def requests():
    # Real pipeline prompts (shared system + few-shot prefix, then one
    # question block) for every task, so all four solvers are exercised.
    # Two data seeds give each task two few-shot blocks, and the batched
    # requests add cross-question interference to the mix.
    return [
        request
        for dataset in DATASETS
        for seed, batch_size in ((0, 1), (1, 4))
        for request in build_decode_requests(
            12, dataset=dataset, seed=seed, batch_size=batch_size
        )
    ]


def _observables(responses):
    return [(r.text, r.usage, r.latency_s) for r in responses]


class TestVectorizedEquivalence:
    def test_fixture_covers_every_task(self, requests):
        client = SimulatedLLM("gpt-3.5", seed=0)
        client.complete_batch(requests)
        # one fit per task that fits (DI retrieves per question)
        assert {key[0] for key in client.memo._fits} == {"ed", "em", "sm"}
        systems = client.memo._systems.values()
        assert len({parsed.task for parsed in systems}) == len(DATASETS)

    def test_replies_usage_and_latency_match_scalar(self, requests):
        reference = ReferenceLLM("gpt-3.5", seed=0)
        memoized = SimulatedLLM("gpt-3.5", seed=0)
        assert _observables(memoized.complete_batch(requests)) == (
            _observables(reference.complete_batch(requests))
        )

    def test_batch_equals_sequential_calls(self, requests):
        batched = SimulatedLLM("gpt-3.5", seed=0)
        sequential = SimulatedLLM("gpt-3.5", seed=0)
        batch = batched.complete_batch(requests)
        singles = [sequential.complete(request) for request in requests]
        assert [r.text for r in batch] == [r.text for r in singles]

    def test_retries_still_resample(self, requests):
        # The call counter must advance identically in both decodes: a
        # repeated prompt is a retry and may legitimately change its reply.
        client = SimulatedLLM("gpt-3.5", seed=0)
        repeated = [requests[0]] * 6
        replies = [r.text for r in client.complete_batch(repeated)]
        reference = ReferenceLLM("gpt-3.5", seed=0)
        assert replies == [
            reference.complete(request).text for request in repeated
        ]

    @pytest.mark.parametrize("split", [1, 17, 60])
    def test_restore_mid_batch_reproduces_the_remaining_replies(
        self, requests, split
    ):
        # A resumed run restores the call counter into a fresh client with
        # a cold memo; the rest of the batch must come out as if the run
        # had never stopped, and as the reference decodes it.
        uninterrupted = SimulatedLLM("gpt-3.5", seed=0)
        expected = _observables(uninterrupted.complete_batch(requests))
        interrupted = SimulatedLLM("gpt-3.5", seed=0)
        interrupted.complete_batch(requests[:split])
        resumed = SimulatedLLM("gpt-3.5", seed=0)
        resumed.restore_checkpoint_state(interrupted.checkpoint_state())
        assert _observables(resumed.complete_batch(requests[split:])) == (
            expected[split:]
        )
        reference = ReferenceLLM("gpt-3.5", seed=0)
        reference.restore_checkpoint_state(interrupted.checkpoint_state())
        assert _observables(reference.complete_batch(requests[split:])) == (
            expected[split:]
        )


class TestMemoBehaviour:
    def test_shared_prefixes_hit_the_memo(self, requests):
        client = SimulatedLLM("gpt-3.5", seed=0)
        client.complete_batch(requests)
        memo = client.memo
        assert memo.hits > memo.misses
        assert memo.hits > 0

    @pytest.mark.parametrize("dataset", ["beer", "restaurant", "synthea"])
    def test_memo_is_bounded_by_the_shared_prefix(self, dataset):
        # N batches with one shared prefix but distinct question blocks:
        # the memo holds the prefix, never a question block, so its size
        # does not depend on N.
        requests = build_decode_requests(40, dataset=dataset, batch_size=4)
        assert len({r.messages[-1].content for r in requests}) == 40

        def entry_counts(n_batches):
            client = SimulatedLLM("gpt-3.5", seed=0)
            client.complete_batch(requests[:n_batches])
            return client.memo.entry_counts()

        few, many = entry_counts(5), entry_counts(40)
        assert few == many
        assert few["systems"] == 1

    def test_ed_prompts_sharing_a_fewshot_block_share_one_fit(self):
        # Every ED example names its own target attribute, so the threshold
        # fit depends on the few-shot block alone: prompts that differ only
        # in their batch target must reuse one fit entry.
        requests = build_decode_requests(12, dataset="adult")
        targets = {
            parse_prompt(request, PromptParseMemo()).target_attribute
            for request in requests
        }
        assert len(targets) > 1
        client = SimulatedLLM("gpt-3.5", seed=0)
        client.complete_batch(requests)
        counts = client.memo.entry_counts()
        assert counts["examples"] == 1
        assert counts["fits"] == 1
