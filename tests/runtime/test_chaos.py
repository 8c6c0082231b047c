"""The chaos harness: crash-site trials and the matrix driver."""

import pytest

from repro.runtime.chaos import (
    CRASH_SITES,
    ChaosCell,
    default_chaos_cells,
    run_crash_matrix,
    run_crash_trial,
)
from repro.runtime.journal import RunJournal


@pytest.fixture(scope="module")
def cell():
    return ChaosCell("ed_adult_fast", dataset="adult", size=20)


class TestDefaultCells:
    def test_matrix_covers_all_four_tasks_at_both_concurrencies(self):
        cells = [cell for cell in default_chaos_cells() if cell.scenario is None]
        datasets = {cell.dataset for cell in cells}
        assert datasets == {"adult", "restaurant", "synthea", "beer"}
        assert {cell.concurrency for cell in cells} == {1, 2}
        assert len(cells) == 8
        assert len({cell.name for cell in default_chaos_cells()}) == 12

    def test_sites_cover_batch_and_journal_crashes(self):
        assert CRASH_SITES == ("mid_batch", "pre_journal", "mid_journal")


class TestCrashTrials:
    @pytest.mark.parametrize("site", CRASH_SITES)
    def test_every_site_resumes_bit_identical(self, cell, site, tmp_path):
        trial = run_crash_trial(cell, site, tmp_path)
        assert trial.crashed, f"{site}: the injected crash never fired"
        assert trial.identical, trial.render()
        assert trial.ok

    def test_concurrent_cell_also_survives(self, tmp_path):
        concurrent = ChaosCell(
            "ed_adult_fast_c2", dataset="adult", size=20, concurrency=2
        )
        trial = run_crash_trial(concurrent, "mid_batch", tmp_path)
        assert trial.ok, trial.render()

    def test_ladder_cell_survives_with_quarantine(self, tmp_path):
        # vicuna's replies are rich in format violations, so the ladder
        # actually engages; the quarantine must replay too.
        ladder = ChaosCell(
            "ed_hospital_ladder", dataset="hospital", size=16,
            model="vicuna-13b", degradation="ladder",
        )
        trial = run_crash_trial(ladder, "pre_journal", tmp_path)
        assert trial.ok, trial.render()

    def test_unknown_site_is_rejected(self, cell, tmp_path):
        from repro.errors import LLMError

        with pytest.raises(LLMError):
            run_crash_trial(cell, "mid_universe", tmp_path)

    def test_failed_trial_renders_diff_paths(self, cell, tmp_path):
        trial = run_crash_trial(cell, "mid_batch", tmp_path)
        ok_text = trial.render()
        assert "OK" in ok_text


class TestMatrixDriver:
    def test_matrix_writes_no_artifact_when_clean(self, cell, tmp_path):
        artifact = tmp_path / "CHAOS_DIFF.txt"
        trials = run_crash_matrix(
            cells=(cell,), sites=("pre_journal",),
            workdir=tmp_path / "chaos", artifact=artifact,
        )
        assert len(trials) == 1
        assert trials[0].ok
        assert not artifact.exists()


class TestMidBatchDrill:
    @pytest.mark.parametrize(
        "cell", default_chaos_cells(), ids=lambda cell: cell.name
    )
    def test_crash_lands_after_a_journaled_batch(self, cell, tmp_path):
        # A mid_batch crash must leave a journaled prefix for the resume to
        # replay, as the journal sites do: half the baseline's batches.
        trial = run_crash_trial(cell, "mid_batch", tmp_path)
        assert trial.ok, trial.render()
        __, baseline = RunJournal.load(
            tmp_path / f"{cell.name}.baseline.journal"
        )
        assert len(baseline) >= 2
        assert trial.n_batches_journaled == len(baseline) // 2
