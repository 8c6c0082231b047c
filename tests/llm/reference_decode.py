"""The scalar decode: the from-scratch reference the memoized decode
must match.

:class:`~repro.llm.simulated.SimulatedLLM` decodes every request through
its shared-prefix :class:`~repro.llm.promptparse.PromptParseMemo`.  The
reference here does none of that sharing: it meters the whole transcript
with :func:`~repro.llm.accounting.request_prompt_tokens`, parses every
message from scratch, and hands the solvers a cold memo per request, so
no parse, count or few-shot fit carries over between requests.  Every
observable of a reply (text, usage, latency, retry resampling) must be
identical between the two.
"""

from __future__ import annotations

import itertools

from repro.data.instances import Task
from repro.errors import ContextWindowExceededError, LLMError
from repro.llm.accounting import meter_response, request_prompt_tokens
from repro.llm.base import CompletionRequest, CompletionResponse
from repro.llm.promptparse import (
    ParsedExample,
    ParsedPrompt,
    ParsedQuestion,
    PromptParseMemo,
    _answers_in,
    _detect_target,
    _detect_task,
    _detect_type_hint,
    _questions_in,
)
from repro.llm.simulated import SimulatedLLM


def reference_parse_prompt(request: CompletionRequest) -> ParsedPrompt:
    """Parse a transcript from scratch, sharing nothing across calls."""
    system_texts = [m.content for m in request.messages if m.role == "system"]
    if not system_texts:
        raise LLMError("prompt has no system message")
    system = "\n".join(system_texts)
    task = _detect_task(system)
    target = _detect_target(system, task)
    questions = _parse_final_questions(request, task)
    if not questions:
        raise LLMError("prompt contains no questions to answer")
    return ParsedPrompt(
        task=task,
        reasoning="in two lines" in system,
        target_attribute=target,
        confirm_target="confirm the target attribute" in system,
        type_hint=_detect_type_hint(system, target),
        examples=_parse_examples(request, task),
        questions=questions,
    )


def _parse_examples(
    request: CompletionRequest, task: Task
) -> list[ParsedExample]:
    """Pair up user questions with the following assistant answers."""
    examples: list[ParsedExample] = []
    messages = list(request.messages)
    for i, message in enumerate(messages[:-1]):
        if message.role != "user" or messages[i + 1].role != "assistant":
            continue
        questions = {
            q.number: q for q in _questions_in(message.content, task)
        }
        answers = _answers_in(messages[i + 1].content)
        for number, question in sorted(questions.items()):
            if number in answers:
                examples.append(
                    ParsedExample(question=question, answer=answers[number])
                )
    return examples


def _parse_final_questions(
    request: CompletionRequest, task: Task
) -> list[ParsedQuestion]:
    """The questions of the last user message (the batch to answer)."""
    for message in reversed(request.messages):
        if message.role == "user":
            return _questions_in(message.content, task)
    return []


class ReferenceLLM(SimulatedLLM):
    """A :class:`SimulatedLLM` that decodes every request from scratch.

    The stages are those of :meth:`SimulatedLLM.complete`; only the
    sharing differs.  The call counter (and with it retry resampling and
    checkpoint state) is the inherited one.
    """

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        if request.model != self.profile.name:
            raise LLMError(
                f"client serves {self.profile.name!r}, request asks for "
                f"{request.model!r}"
            )
        prompt_tokens = request_prompt_tokens(request)
        if prompt_tokens > self.profile.context_window:
            raise ContextWindowExceededError(
                self.profile.name, prompt_tokens, self.profile.context_window
            )
        parsed = reference_parse_prompt(request)
        rng = self._request_rng(request)
        self._memo = PromptParseMemo()  # cold: no fit survives the request
        solver = self._solver_for(parsed.task, rng, request.temperature)
        text = self._render(parsed, solver.solve(parsed), rng)
        return meter_response(self.profile, request, text)


def build_decode_requests(
    n: int = 1000,
    dataset: str = "adult",
    model: str = "gpt-3.5",
    seed: int = 0,
    batch_size: int = 1,
) -> list[CompletionRequest]:
    """``n`` realistic completion requests of ``batch_size`` questions.

    Realistic means what the pipeline actually sends: a shared system
    instruction and few-shot demonstration block (the bulk of the prompt)
    followed by one block of instance questions.  Instances are grouped by
    target attribute, so one request never mixes ED/DI targets, and the
    requests take the targets in turn.
    """
    from repro.core.config import PipelineConfig
    from repro.core.prompts import PromptBuilder
    from repro.core.tasks import target_attribute_of
    from repro.datasets import load_dataset

    config = PipelineConfig(model=model, seed=seed)
    data = load_dataset(dataset, size=n * batch_size, seed=seed)
    fewshot = data.sample_fewshot(config.fewshot_for(data.task), seed=seed)
    groups: dict = {}
    for instance in data.instances:
        groups.setdefault(target_attribute_of(instance), []).append(instance)
    # round-robin over the targets, so even a short list mixes prefixes
    per_target = [
        [members[i:i + batch_size] for i in range(0, len(members), batch_size)]
        for members in groups.values()
    ]
    batches = [
        batch
        for round_ in itertools.zip_longest(*per_target)
        for batch in round_
        if batch is not None
    ]
    builders: dict = {}
    requests = []
    for index in range(n):
        batch = batches[index % len(batches)]
        target = target_attribute_of(batch[0])
        builder = builders.get(target)
        if builder is None:
            builder = PromptBuilder(
                data.task, config, target_attribute=target
            )
            builders[target] = builder
        prompt = builder.build(batch, fewshot_examples=fewshot)
        requests.append(CompletionRequest(
            messages=prompt.messages, model=model, temperature=0.75
        ))
    return requests
