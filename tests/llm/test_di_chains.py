"""Unit tests for the DI solver's inference chains (repair support)."""

import random

import pytest

from repro.llm.knowledge import KnowledgeBase
from repro.llm.profiles import get_profile
from repro.llm.promptparse import PromptParseMemo
from repro.llm.solvers.di import DISolver


@pytest.fixture()
def solver():
    knowledge = KnowledgeBase("oracle", coverage=1.0, concept_coverage=1.0)
    return DISolver(get_profile("gpt-4"), knowledge, random.Random(0), 0.65,
                    PromptParseMemo())


class TestInferenceChains:
    def test_state_from_stateavg(self, solver):
        value, reason = solver._infer(
            {"stateavg": "ga_ami-1", "city": None}, "state", careful=True
        )
        assert value == "ga"
        assert "ga" in reason

    def test_state_from_stateavg_rejects_illegal_prefix(self, solver):
        value, __ = solver._infer(
            {"stateavg": "zz_ami-1"}, "state", careful=True
        )
        assert value is None

    def test_condition_from_measurecode(self, solver):
        for code, condition in (("ami-2", "heart attack"),
                                ("hf-1", "heart failure"),
                                ("pn-6", "pneumonia"),
                                ("scip-inf-1", "surgical infection prevention")):
            value, __ = solver._infer(
                {"measurecode": code}, "condition", careful=True
            )
            assert value == condition

    def test_measurename_from_code(self, solver):
        value, __ = solver._infer(
            {"measurecode": "ami-1"}, "measurename", careful=True
        )
        assert value == "aspirin at arrival"

    def test_educationnum_roundtrip(self, solver):
        number, __ = solver._infer(
            {"education": "bachelors"}, "educationnum", careful=True
        )
        assert number == "13"
        name, __ = solver._infer(
            {"educationnum": "13"}, "education", careful=True
        )
        assert name == "bachelors"

    def test_careful_path_prefers_agreement(self, solver):
        # Phone and zip agree -> combined reasoning mentions both chains.
        value, reason = solver._infer(
            {"phone": "617-555-0000", "zipcode": "02134"}, "city",
            careful=True,
        )
        assert value == "boston"

    def test_shallow_path_stops_at_first_chain(self, solver):
        value, __ = solver._infer(
            {"phone": "617-555-0000", "zipcode": "90001"}, "city",
            careful=False,
        )
        assert value == "boston"  # phone chain runs first
