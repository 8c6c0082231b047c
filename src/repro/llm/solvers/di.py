"""Data-imputation solver.

Knowledge-bound: the solver infers the missing cell from the record's
other attributes via coverage-gated world facts (area code -> city, brand
token -> manufacturer), mirroring the paper's worked example ("The phone
number '770' suggests ... Marietta").

Few-shot conditioning matters in two mechanistic ways:

- **surface convention** — a model recalling a fact emits its *canonical*
  name ("hewlett-packard") unless examples demonstrate the dataset's
  convention ("hp"); this is the zero-shot accuracy gap of Table 2.
- **retrieval fallback** — when knowledge fails, the solver answers with
  the most similar example's answer (what an LLM's in-context induction
  does), so few-shot also lifts the no-knowledge cases.
"""

from __future__ import annotations

import random
import re

from repro.llm.knowledge import KnowledgeBase
from repro.llm.profiles import ModelProfile
from repro.llm.promptparse import ParsedExample, ParsedPrompt, ParsedQuestion
from repro.llm.solvers.common import SolvedAnswer
from repro.text.similarity import token_set_ratio

_AREA_CODE_RE = re.compile(r"\b(\d{3})[\s\-./)]")
_LEADING_AREA_RE = re.compile(r"^\(?(\d{3})\)?[\s\-./]")


class DISolver:
    """Answers "what is the missing value?" questions."""

    def __init__(self, profile: ModelProfile, knowledge: KnowledgeBase,
                 rng: random.Random, temperature: float, memo):
        self._profile = profile
        self._knowledge = knowledge
        self._rng = rng
        self._temperature = temperature
        self._memo = memo  # DI retrieves per-question; nothing to pre-fit

    def solve(self, prompt: ParsedPrompt) -> list[SolvedAnswer]:
        target = prompt.target_attribute or ""
        conditioned = bool(prompt.examples)
        answers: list[SolvedAnswer] = []
        for question in prompt.questions:
            answers.append(
                self._solve_one(question, target, prompt, conditioned)
            )
        return answers

    def _solve_one(self, question: ParsedQuestion, target: str,
                   prompt: ParsedPrompt, conditioned: bool) -> SolvedAnswer:
        fields = question.fields or {}
        value, reason = self._infer(fields, target, prompt.reasoning)
        if value is not None:
            value = self._apply_convention(value, target, conditioned)
        if value is None and conditioned:
            value, reason = self._retrieve_from_examples(fields, prompt.examples)
        if value is None:
            # The model has to say *something*: an uninformed guess.
            value = self._uninformed_guess(fields, target)
            reason = "No strong evidence; guessing from the record's style."
        # Hallucination: occasionally a confidently wrong recall.
        if self._rng.random() < self._hallucination_rate():
            value = self._perturb_guess(value)
        value = self._apply_type_hint(value, prompt.type_hint)
        return SolvedAnswer(reason=reason, answer=value)

    def _apply_type_hint(self, value: str, type_hint: str | None) -> str:
        """Honor the zero-shot data-type hint (paper Section 3.1).

        Given 'The "hoursperweek" attribute can be a range of integers',
        a numeric answer is widened into a plausible range instead of a
        point estimate — exactly the behaviour the hint exists to elicit.
        """
        if not type_hint or "range" not in type_hint.lower():
            return value
        try:
            center = float(value)
        except (TypeError, ValueError):
            return value
        spread = max(1, round(abs(center) * 0.1))
        low = center - spread
        high = center + spread
        if center.is_integer():
            return f"{int(low)}-{int(high)}"
        return f"{low:.1f}-{high:.1f}"

    # -- inference chains -----------------------------------------------------

    def _infer(self, fields: dict[str, str | None], target: str,
               careful: bool) -> tuple[str | None, str]:
        """Run the evidence chains for the target attribute.

        The careful (reasoning) path tries every chain and cross-checks;
        the shallow path stops at the first.
        """
        chains = []
        if target == "city":
            chains = [self._city_from_phone, self._city_from_zip]
        elif target in ("manufacturer", "brand"):
            chains = [self._brand_from_text]
        elif target == "state":
            chains = [self._state_from_city, self._state_from_stateavg]
        elif target == "condition":
            chains = [self._condition_from_measure]
        elif target == "measurename":
            chains = [self._measurename_from_code]
        elif target == "educationnum":
            chains = [self._educationnum_from_education]
        elif target == "education":
            chains = [self._education_from_number]
        results: list[tuple[str, str]] = []
        for chain in chains:
            outcome = chain(fields)
            if outcome is not None:
                results.append(outcome)
                if not careful:
                    break
        if not results:
            return None, ""
        # Careful path: prefer agreement; otherwise the first chain wins.
        values = [v for v, __ in results]
        if careful and len(set(values)) == 1 and len(values) > 1:
            return values[0], " ".join(r for __, r in results)
        return results[0]

    def _city_from_phone(self, fields: dict[str, str | None]) -> tuple[str, str] | None:
        phone = fields.get("phone")
        if not phone:
            return None
        match = _LEADING_AREA_RE.match(str(phone)) or _AREA_CODE_RE.search(str(phone))
        if not match:
            digits = re.sub(r"\D", "", str(phone))
            if len(digits) < 10:
                return None
            area = digits[:3]
        else:
            area = match.group(1)
        city = self._knowledge.city_for_area_code(area)
        if city is None:
            return None
        return city, f'The phone number "{area}" suggests {city}.'

    def _city_from_zip(self, fields: dict[str, str | None]) -> tuple[str, str] | None:
        zipcode = fields.get("zipcode") or fields.get("zip")
        if not zipcode or len(str(zipcode)) < 3:
            return None
        city = self._knowledge.city_for_zip_prefix(str(zipcode)[:3])
        if city is None:
            return None
        return city, f'The zip code prefix suggests {city}.'

    def _brand_from_text(self, fields: dict[str, str | None]) -> tuple[str, str] | None:
        for source in ("name", "title", "description"):
            text = fields.get(source)
            if not text:
                continue
            brand = self._knowledge.find_brand(str(text))
            if brand is not None:
                return brand, f'The {source} mentions the brand "{brand}".'
        return None

    def _state_from_city(self, fields: dict[str, str | None]) -> tuple[str, str] | None:
        city = fields.get("city")
        if not city:
            return None
        state = self._knowledge.state_for_city(str(city))
        if state is None:
            return None
        return state, f"{city} is in {state}."

    def _state_from_stateavg(
        self, fields: dict[str, str | None]
    ) -> tuple[str, str] | None:
        stateavg = fields.get("stateavg")
        if not stateavg or "_" not in str(stateavg):
            return None
        state = str(stateavg).partition("_")[0]
        legal = self._knowledge.domain_of("state")
        if legal is not None and state not in legal:
            return None
        return state, f'The stateavg prefix "{state}" names the state.'

    def _condition_from_measure(
        self, fields: dict[str, str | None]
    ) -> tuple[str, str] | None:
        """Hospital measure codes determine the condition family."""
        code = fields.get("measurecode")
        if not code:
            return None
        prefix = str(code).split("-")[0].lower()
        condition = {
            "ami": "heart attack",
            "hf": "heart failure",
            "pn": "pneumonia",
            "scip": "surgical infection prevention",
        }.get(prefix)
        if condition is None:
            return None
        return condition, f'Measure codes "{prefix}-*" track {condition}.'

    def _measurename_from_code(
        self, fields: dict[str, str | None]
    ) -> tuple[str, str] | None:
        code = fields.get("measurecode")
        if not code:
            return None
        from repro.datasets.vocabularies import HOSPITAL_MEASURES

        for known_code, name in HOSPITAL_MEASURES:
            if known_code == str(code).lower() and self._knowledge.knows_word(
                name.split()[0]
            ):
                return name, f'Measure {code} is "{name}".'
        return None

    def _educationnum_from_education(
        self, fields: dict[str, str | None]
    ) -> tuple[str, str] | None:
        education = fields.get("education")
        if not education:
            return None
        number = self._knowledge.education_number(str(education))
        if number is None:
            return None
        return str(number), f'"{education}" is education level {number}.'

    def _education_from_number(
        self, fields: dict[str, str | None]
    ) -> tuple[str, str] | None:
        number = fields.get("educationnum")
        if number is None:
            return None
        from repro.datasets.vocabularies import EDUCATION_LEVELS

        for name, level in EDUCATION_LEVELS:
            if str(level) == str(number):
                if self._knowledge.education_number(name) is not None:
                    return name, f'Education level {number} is "{name}".'
        return None

    # -- conditioning ----------------------------------------------------------

    def _apply_convention(self, value: str, target: str,
                          conditioned: bool) -> str:
        """Unconditioned models sometimes emit the canonical alias."""
        if conditioned:
            return value
        alias = None
        if target in ("manufacturer", "brand"):
            alias = self._knowledge.brand_alias(value)
        elif target == "city":
            alias = self._knowledge.city_alias(value)
        if alias is None:
            return value
        alias_rate = 0.55 * (1.0 - self._profile.zero_shot_calibration)
        if self._rng.random() < alias_rate:
            return alias
        return value

    def _retrieve_from_examples(
        self, fields: dict[str, str | None], examples: list[ParsedExample]
    ) -> tuple[str | None, str]:
        """In-context induction: answer like the most similar example."""
        best_answer: str | None = None
        best_score = 0.0
        query = _record_text(fields)
        for example in examples:
            if example.question.fields is None:
                continue
            score = token_set_ratio(query, _record_text(example.question.fields))
            if score > best_score:
                best_score = score
                best_answer = example.answer
        if best_answer is None or best_score < 0.3:
            return None, ""
        return best_answer, "Answering like the most similar example."

    def _uninformed_guess(self, fields: dict[str, str | None], target: str) -> str:
        """A plausible-sounding but uninformed answer (limitation (2))."""
        seeds = [str(v) for v in fields.values() if v]
        if target == "city":
            return "springfield"
        if target in ("manufacturer", "brand") and seeds:
            return seeds[0].split()[0]
        return "unknown"

    def _hallucination_rate(self) -> float:
        scale = 0.4 + 0.6 * (
            self._temperature / max(self._profile.default_temperature, 1e-6)
        )
        return self._profile.decision_noise * 0.18 * scale

    def _perturb_guess(self, value: str) -> str:
        """A confidently wrong variant: swap to a sibling fact."""
        if self._knowledge.knows_city(value):
            from repro.datasets.vocabularies import US_CITIES

            other = self._rng.choice(US_CITIES).name
            return other if other != value else value
        tokens = value.split()
        if len(tokens) > 1:
            return " ".join(tokens[:-1])
        return value + "s"


def _record_text(fields: dict[str, str | None]) -> str:
    return " ".join(str(v) for v in fields.values() if v)
