"""The reproduction's central integrity property: no ground-truth leakage.

The simulated LLM must answer from the prompt text plus its own knowledge
base — never from instance labels.  These tests attack that property from
several angles: output invariance under label flips, absence of label
objects in the solver call graph, and honest failure when evidence is
removed from the prompt.
"""

import pytest

from repro.core.config import PipelineConfig
from repro.core.feature_selection import FeatureSelection, select_features
from repro.core.parsing import parse_batch_answers
from repro.core.prompts import PromptBuilder
from repro.data.instances import EMInstance, Task
from repro.data.records import RecordPair
from repro.llm.base import CompletionRequest
from repro.llm.simulated import SimulatedLLM


class TestLabelInvariance:
    def test_em_answers_ignore_labels(self, beer_dataset):
        """Flipping every label must not change a single answer."""
        instances = list(beer_dataset.instances[:8])
        flipped = [
            EMInstance(pair=RecordPair(i.pair.left, i.pair.right),
                       label=not i.label, instance_id=i.instance_id)
            for i in instances
        ]
        builder = PromptBuilder(Task.ENTITY_MATCHING, PipelineConfig())
        request_a = CompletionRequest(
            messages=builder.build(instances).messages, model="gpt-4"
        )
        request_b = CompletionRequest(
            messages=builder.build(flipped).messages, model="gpt-4"
        )
        # Labels are not part of the prompt, so the prompts are identical…
        assert request_a.messages == request_b.messages
        # …and (fresh clients, same call sequence) so are the answers.
        a = SimulatedLLM("gpt-4", seed=0).complete(request_a).text
        b = SimulatedLLM("gpt-4", seed=0).complete(request_b).text
        assert a == b

    def test_di_truth_not_in_prompt(self, restaurant_dataset):
        builder = PromptBuilder(Task.DATA_IMPUTATION, PipelineConfig(),
                                target_attribute="city")
        instances = list(restaurant_dataset.instances[:5])
        prompt = builder.build(instances)
        text = "\n".join(m.content for m in prompt.messages)
        for instance in instances:
            # The held-out city name must not appear anywhere in the prompt
            # (the phone/area-code *evidence* is fine; the answer is not).
            assert f'city: "{instance.true_value}"' not in text


class TestEvidenceDependence:
    def test_removing_evidence_breaks_imputation(self, restaurant_dataset):
        """The model is only as good as the prompt: strip the evidence
        attributes and accuracy must collapse to near-guessing."""
        client = SimulatedLLM("gpt-4")
        builder = PromptBuilder(Task.DATA_IMPUTATION, PipelineConfig(),
                                target_attribute="city")
        instances = list(restaurant_dataset.instances[:20])

        prompt = builder.build(instances)
        response = client.complete(
            CompletionRequest(messages=prompt.messages, model="gpt-4")
        )
        full = parse_batch_answers(response.text, Task.DATA_IMPUTATION, 20)

        # Keep only the useless attributes (name, cuisine type).
        blinded = [
            select_features(i, FeatureSelection(keep=("name", "type")))
            for i in instances
        ]
        blind_prompt = builder.build(blinded)
        blind_response = client.complete(
            CompletionRequest(messages=blind_prompt.messages, model="gpt-4")
        )
        blind = parse_batch_answers(blind_response.text, Task.DATA_IMPUTATION, 20)

        truths = [i.true_value for i in instances]
        full_correct = sum(1 for a, t in zip(full, truths) if a == t)
        blind_correct = sum(1 for a, t in zip(blind, truths) if a == t)
        assert full_correct >= 16
        assert blind_correct <= 6

    def test_ed_typo_detection_requires_the_typo(self, hospital_dataset):
        """Restoring the clean value in the prompt must flip the verdict
        for values the model flags as typos."""
        client = SimulatedLLM("gpt-4")
        positives = [
            i for i in hospital_dataset.instances
            if i.label and i.clean_value is not None
            and i.target_attribute in ("measurename", "condition", "city")
        ][:6]
        if not positives:
            pytest.skip("no suitable positives in this sample")
        builder = PromptBuilder(Task.ERROR_DETECTION, PipelineConfig(),
                                target_attribute=positives[0].target_attribute)
        same_target = [i for i in positives
                       if i.target_attribute == positives[0].target_attribute]
        dirty_prompt = builder.build(same_target)
        dirty = parse_batch_answers(
            client.complete(
                CompletionRequest(messages=dirty_prompt.messages, model="gpt-4")
            ).text,
            Task.ERROR_DETECTION,
            len(same_target),
        )
        # Repair the records and ask again.
        repaired = []
        for instance in same_target:
            record = instance.record.copy()
            record[instance.target_attribute] = instance.clean_value
            repaired.append(
                type(instance)(record=record,
                               target_attribute=instance.target_attribute,
                               label=False)
            )
        clean_prompt = builder.build(repaired)
        clean = parse_batch_answers(
            client.complete(
                CompletionRequest(messages=clean_prompt.messages, model="gpt-4")
            ).text,
            Task.ERROR_DETECTION,
            len(repaired),
        )
        assert sum(dirty) > sum(clean)


class TestStructuralIsolation:
    def test_solver_inputs_carry_no_labels(self, beer_dataset):
        """The parsed prompt structure has no label field at all."""
        from repro.llm.promptparse import PromptParseMemo, parse_prompt

        builder = PromptBuilder(Task.ENTITY_MATCHING, PipelineConfig())
        prompt = builder.build(list(beer_dataset.instances[:3]))
        parsed = parse_prompt(
            CompletionRequest(messages=prompt.messages, model="gpt-4"),
            PromptParseMemo(),
        )
        for question in parsed.questions:
            assert not hasattr(question, "label")
