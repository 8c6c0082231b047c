"""Chaos under degradation: crash-resume drills over the resilient stack.

The degraded cells of the chaos matrix (brownout/blackout at concurrency
1 and 2) run in CI via ``python -m repro.eval chaos``; this suite keeps a
fast representative subset in the tier-1 gate — one brownout cell and one
concurrent blackout cell, each crashed and resumed bit-identically with
the degradation script, router health, and AIMD state continuing
mid-sentence.
"""

import pytest

from repro.runtime.chaos import (
    SCENARIOS,
    ChaosCell,
    default_chaos_cells,
    run_crash_trial,
)


class TestDefaultCells:
    def test_matrix_covers_both_scenarios_at_both_concurrencies(self):
        cells = [cell for cell in default_chaos_cells() if cell.scenario]
        assert {cell.scenario for cell in cells} == set(SCENARIOS)
        assert {cell.concurrency for cell in cells} == {1, 2}
        assert len({cell.name for cell in cells}) == len(cells) == 4

    def test_unknown_scenario_is_rejected(self):
        with pytest.raises(ValueError):
            ChaosCell("bad", dataset="adult", size=8, scenario="heat_death")


class TestResilientCrashTrials:
    def test_brownout_survives_a_mid_batch_crash(self, tmp_path):
        cell = ChaosCell(
            "ed_adult_brownout_fast", dataset="adult", size=16,
            concurrency=2, degradation="ladder", scenario="brownout",
        )
        trial = run_crash_trial(cell, "mid_batch", tmp_path)
        assert trial.crashed, "the injected crash never fired"
        assert trial.identical, trial.render()
        assert trial.ok

    def test_concurrent_blackout_survives_a_journal_crash(self, tmp_path):
        cell = ChaosCell(
            "ed_adult_blackout_fast_c2", dataset="adult", size=16,
            concurrency=2, degradation="ladder", scenario="blackout",
        )
        trial = run_crash_trial(cell, "mid_journal", tmp_path)
        assert trial.ok, trial.render()
