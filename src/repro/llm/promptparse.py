"""Prompt parsing: the simulated LLM reading its input.

A real LLM reads the prompt text; so does the simulator.  This module
recovers the task, the target attribute, the reasoning contract, the
few-shot examples, and the batch questions from *nothing but the chat
transcript*.  If the framework's prompt wording drifts from what this
parser understands, tests fail loudly — which is exactly the contract a
prompt template has with a real model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.core.contextualize import parse_record_pair, parse_serialized_record
from repro.data.instances import Task
from repro.errors import LLMError
from repro.llm.base import CompletionRequest
from repro.text.tokenize import count_tokens

_TARGET_RE = re.compile(r'the "([^"]+)" attribute')
_QUESTION_RE = re.compile(r"^\s*Question\s+(\d+)\s*:\s*(.*)$")
_ANSWER_RE = re.compile(r"^\s*Answer\s+(\d+)\s*:\s*(.*)$")
_QUESTION_ED_TARGET_RE = re.compile(r'error in the "([^"]+)" attribute')
_QUESTION_DI_TARGET_RE = re.compile(r"What is the ([\w\-. ]+?)\?")

_TASK_MARKERS: tuple[tuple[str, Task], ...] = (
    ("infer the value of", Task.DATA_IMPUTATION),
    ("detect whether there is an error", Task.ERROR_DETECTION),
    ("refer to the same attribute", Task.SCHEMA_MATCHING),
    ("refer to the same entity", Task.ENTITY_MATCHING),
)


@dataclass(frozen=True)
class ParsedQuestion:
    """One question of the batch, in structured form.

    ``fields`` holds the record for ED/DI; ``left``/``right`` hold the two
    sides for SM/EM.
    """

    number: int
    raw: str
    fields: dict[str, str | None] | None = None
    left: dict[str, str | None] | None = None
    right: dict[str, str | None] | None = None
    #: ED/DI: the attribute this particular question asks about (few-shot
    #: examples may target a different attribute than the batch does)
    target: str | None = None


@dataclass(frozen=True)
class ParsedExample:
    """One few-shot demonstration: a question and its gold answer line."""

    question: ParsedQuestion
    answer: str


@dataclass
class ParsedPrompt:
    """Everything the solver needs, recovered from the transcript."""

    task: Task
    reasoning: bool
    target_attribute: str | None
    confirm_target: bool
    type_hint: str | None
    examples: list[ParsedExample] = field(default_factory=list)
    questions: list[ParsedQuestion] = field(default_factory=list)


@dataclass(frozen=True)
class _ParsedSystem:
    """The (immutable) facts recovered from one system-message block."""

    task: Task
    reasoning: bool
    confirm_target: bool
    target: str | None
    type_hint: str | None


class PromptParseMemo:
    """The shared-prefix memo every decode goes through.

    The framework's requests share almost their whole transcript: the same
    system instruction and the same few-shot demonstration block, with
    only the final question block changing.  The memo parses each distinct
    prefix block **once** and replays the result, together with the token
    counts of the prefix messages and the solvers' few-shot fits.

    The bound is structural: entries are keyed by prefix content only
    (system text, (user, assistant) demonstration pairs, prefix message
    text, role names, fit keys built from example content), so the memo
    holds one entry per *distinct prefix* and never one per batch.  The final user
    message of a request -- its question block -- is parsed and counted
    afresh on every call and never enters the memo.

    Losslessness is structural too: every cached function is a pure,
    RNG-free function of message content given the owning client's fixed
    profile and knowledge base, and the key is exactly that content.  A
    warm memo therefore returns what a cold one computes (checked against
    the from-scratch reference parse in ``tests/llm/test_batch_decode.py``).

    All cached values are frozen dataclasses (or tuples of them), shared
    safely across the :class:`ParsedPrompt` results, which keep their own
    mutable list containers.
    """

    def __init__(self) -> None:
        self._systems: dict[str, _ParsedSystem] = {}
        self._examples: dict[tuple, tuple[ParsedExample, ...]] = {}
        self._token_counts: dict[str, int] = {}
        self._fits: dict[tuple, object] = {}
        self.hits = 0
        self.misses = 0

    def entry_counts(self) -> dict[str, int]:
        """Entries per cache; bounded by the distinct prefixes seen."""
        return {
            "systems": len(self._systems),
            "examples": len(self._examples),
            "token_counts": len(self._token_counts),
            "fits": len(self._fits),
        }

    def _cached(self, cache: dict, key, compute):
        value = cache.get(key)
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        value = cache[key] = compute()
        return value

    def system(self, system: str) -> _ParsedSystem:
        return self._cached(
            self._systems, system, lambda: _parse_system(system)
        )

    def example_pair(
        self, user: str, assistant: str, task: Task
    ) -> tuple[ParsedExample, ...]:
        return self._cached(
            self._examples, (task, user, assistant),
            lambda: _parse_example_pair(user, assistant, task),
        )

    def fit(self, key: tuple, compute):
        """Memoize a solver's few-shot fit (thresholds, attribute weights).

        A batch's requests all carry the same few-shot block, and every
        solver derives its decision criteria from that block before
        answering -- deterministically (no RNG touches the fit), from the
        example *content* plus the client's fixed profile and knowledge
        base.  The memo lives inside one client, so profile and knowledge
        are constant across its entries and ``key`` only needs to carry
        the solver tag and the example content.
        """
        return self._cached(self._fits, key, compute)

    def count_tokens(self, text: str) -> int:
        """Memoized :func:`repro.text.tokenize.count_tokens`, for prefix
        text only."""
        return self._cached(
            self._token_counts, text, lambda: count_tokens(text)
        )

    def prompt_tokens(self, request: CompletionRequest) -> int:
        """Transcript token count, identical to
        :func:`repro.llm.accounting.request_prompt_tokens` by construction
        (same per-message formula).  Roles and the messages before the
        final user message are counted through the memo; the rest
        directly."""
        final = _final_user_index(request.messages)
        total = 3
        for index, (role, content) in enumerate(request.transcript):
            total += 4 + self.count_tokens(role)
            if index < final:
                total += self.count_tokens(content)
            else:
                total += count_tokens(content)
        return total


def parse_prompt(
    request: CompletionRequest, memo: PromptParseMemo
) -> ParsedPrompt:
    """Parse a framework-built chat transcript.

    Raises :class:`LLMError` for prompts the simulated model cannot make
    sense of (no task instruction, no questions) -- the moral equivalent of
    a model answering garbage to a garbage prompt, made loud.

    The system text and the demonstration pairs before the final user
    message go through ``memo``; the final user message (the questions to
    answer) is parsed directly.
    """
    system_texts = [m.content for m in request.messages if m.role == "system"]
    if not system_texts:
        raise LLMError("prompt has no system message")
    parsed_system = memo.system("\n".join(system_texts))
    task = parsed_system.task
    messages = request.messages
    final = _final_user_index(messages)
    examples: list[ParsedExample] = []
    for i, message in enumerate(messages[:-1]):
        if message.role == "user" and messages[i + 1].role == "assistant":
            user, assistant = message.content, messages[i + 1].content
            examples.extend(
                memo.example_pair(user, assistant, task) if i < final
                else _parse_example_pair(user, assistant, task)
            )
    questions = (
        _questions_in(messages[final].content, task)
        if final < len(messages) else []
    )
    if not questions:
        raise LLMError("prompt contains no questions to answer")
    return ParsedPrompt(
        task=task,
        reasoning=parsed_system.reasoning,
        target_attribute=parsed_system.target,
        confirm_target=parsed_system.confirm_target,
        type_hint=parsed_system.type_hint,
        examples=examples,
        questions=questions,
    )


def _final_user_index(messages) -> int:
    """Index of the last user message (the question block), or
    ``len(messages)`` when there is none; everything before it is the
    shared prefix."""
    for index in range(len(messages) - 1, -1, -1):
        if messages[index].role == "user":
            return index
    return len(messages)


def _parse_system(system: str) -> _ParsedSystem:
    task = _detect_task(system)
    target = _detect_target(system, task)
    return _ParsedSystem(
        task=task,
        reasoning="in two lines" in system,
        confirm_target="confirm the target attribute" in system,
        target=target,
        type_hint=_detect_type_hint(system, target),
    )


def _parse_example_pair(
    user: str, assistant: str, task: Task
) -> tuple[ParsedExample, ...]:
    """The demonstrations in one (user, assistant) message pair: each
    question paired with its answer, in question-number order."""
    questions = {q.number: q for q in _questions_in(user, task)}
    answers = _answers_in(assistant)
    return tuple(
        ParsedExample(question=question, answer=answers[number])
        for number, question in sorted(questions.items())
        if number in answers
    )


def _detect_task(system: str) -> Task:
    for marker, task in _TASK_MARKERS:
        if marker in system:
            return task
    raise LLMError(f"cannot identify the task from: {system[:160]!r}")


def _detect_target(system: str, task: Task) -> str | None:
    if task not in (Task.ERROR_DETECTION, Task.DATA_IMPUTATION):
        return None
    match = _TARGET_RE.search(system)
    if match is None:
        raise LLMError("ED/DI prompt does not name a target attribute")
    return match.group(1)


def _detect_type_hint(system: str, target: str | None) -> str | None:
    if target is None:
        return None
    for line in system.splitlines():
        if line.startswith(f'The "{target}" attribute can be'):
            return line.strip()
    return None


def _parse_question_line(raw: str, number: int, task: Task) -> ParsedQuestion:
    if task in (Task.ERROR_DETECTION, Task.DATA_IMPUTATION):
        pattern = (
            _QUESTION_ED_TARGET_RE
            if task is Task.ERROR_DETECTION
            else _QUESTION_DI_TARGET_RE
        )
        match = pattern.search(raw)
        return ParsedQuestion(
            number=number,
            raw=raw,
            fields=parse_serialized_record(raw),
            target=match.group(1).strip() if match else None,
        )
    left, right = parse_record_pair(raw)
    return ParsedQuestion(number=number, raw=raw, left=left, right=right)


def _questions_in(text: str, task: Task) -> list[ParsedQuestion]:
    questions = []
    for line in text.splitlines():
        match = _QUESTION_RE.match(line)
        if match:
            questions.append(
                _parse_question_line(
                    match.group(2), int(match.group(1)), task
                )
            )
    return questions


def _answers_in(text: str) -> dict[int, str]:
    """Map answer number -> final answer line (two-line blocks collapse to
    their last line, matching the contract)."""
    answers: dict[int, str] = {}
    lines = text.splitlines()
    current: int | None = None
    buffer: list[str] = []
    for line in lines:
        match = _ANSWER_RE.match(line)
        if match:
            if current is not None and buffer:
                answers[current] = buffer[-1]
            current = int(match.group(1))
            buffer = [match.group(2).strip()] if match.group(2).strip() else []
        elif line.strip():
            buffer.append(line.strip())
    if current is not None and buffer:
        answers[current] = buffer[-1]
    return answers
