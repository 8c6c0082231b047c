"""Chaos drills: kill a run at every interesting point, resume, compare.

The run-durability contract is a *property*: for every crash site —
mid-batch (the completion call dies), pre-journal (the process dies after
a batch completed but before its record was written), mid-journal-append
(the process dies halfway through the fsync'd write, leaving a torn tail
line) — resuming from the journal must produce a final result
**bit-identical** to an uninterrupted run: same predictions, same
quarantine, same token accounting, same virtual-clock makespan, same
metrics snapshot, same span trace, same manifest.

This is the one crash→resume harness.  A :class:`ChaosCell` is plain
data; its client stack is a picklable :class:`~repro.llm.backend.Backend`
— a healthy simulated model, or, for a cell with a degradation
``scenario``, the degraded-primary failover pool
(:func:`~repro.resilience.pool.degraded_pool`) under the adaptive
executor.  Every run of a trial wraps that backend in a
:class:`~repro.llm.backend.FaultBackend`, so the crashed run only arms a
plan inside the same stack its baseline and resume build.

:func:`run_crash_trial` drives one (cell, site) experiment end to end:
baseline run → crashed run → resumed run → canonical-payload diff.
:func:`run_crash_matrix` sweeps the default cell grid across every site
— the CI chaos job — and writes a ``CHAOS_DIFF.txt`` artifact plus the
offending journal when a trial diverges.  The sharded worker-kill drill
(:func:`repro.shard.chaos.run_shard_crash_trial`) picks its crash points
and builds its :class:`ChaosTrial` through the same helpers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.manifest import canonical_json
from repro.runtime.checkpoint import JournalChaos, RunCheckpoint

#: every point the chaos suite kills a run at
CRASH_SITES: tuple[str, ...] = ("mid_batch", "pre_journal", "mid_journal")

#: the degradation scenarios a cell's primary backend can run through
SCENARIOS: tuple[str, ...] = ("brownout", "blackout")

#: where the CI chaos job's drift report is written
CHAOS_DIFF_ENV = "REPRO_CHAOS_DIFF_PATH"


@dataclass(frozen=True)
class ChaosCell:
    """One (task, config, backend) point the crash matrix drills.

    ``scenario`` (``None`` or one of :data:`SCENARIOS`) picks the client
    stack: a healthy simulated model, or the degraded-primary failover
    pool with the adaptive executor.
    """

    name: str
    dataset: str
    size: int
    model: str = "gpt-3.5"
    seed: int = 0
    batching: str = "random"
    concurrency: int = 1
    degradation: str = "off"
    scenario: str | None = None

    def __post_init__(self) -> None:
        if self.scenario is not None and self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; "
                f"expected one of {SCENARIOS}"
            )

    def config(self):
        from repro.core.config import PipelineConfig

        return PipelineConfig(
            model=self.model,
            seed=self.seed,
            batching=self.batching,
            concurrency=self.concurrency,
            observability=True,
            degradation=self.degradation,
        )

    def backend(self):
        """The cell's client stack, rebuilt identically for every run."""
        from repro.llm.backend import SimulatedBackend
        from repro.resilience import blackout_plan, brownout_plan, degraded_pool

        if self.scenario is None:
            return SimulatedBackend(self.model, self.seed)
        if self.scenario == "blackout":
            plan = blackout_plan(seed=self.seed, start_s=5.0, duration_s=20.0)
        else:
            plan = brownout_plan(seed=self.seed)
        return degraded_pool(self.model, self.seed, plan)

    def executor_config(self):
        if self.scenario is None:
            return None
        from repro.core.executor import ExecutorConfig
        from repro.resilience import ResilienceConfig

        return ExecutorConfig(resilience=ResilienceConfig())


def default_chaos_cells() -> tuple[ChaosCell, ...]:
    """The CI matrix: all four tasks, then ED under both degradation
    scenarios, each sequential and concurrent."""
    bases = (
        ("ed_adult", "adult", 24),
        ("di_restaurant", "restaurant", 18),
        ("sm_synthea", "synthea", 24),
        ("em_beer", "beer", 24),
    )
    healthy = tuple(
        ChaosCell(
            f"{name}_c{concurrency}",
            dataset=dataset,
            size=size,
            concurrency=concurrency,
        )
        for name, dataset, size in bases
        for concurrency in (1, 2)
    )
    degraded = tuple(
        ChaosCell(
            f"ed_adult_{scenario}_c{concurrency}",
            dataset="adult",
            size=24,
            concurrency=concurrency,
            degradation="ladder",
            scenario=scenario,
        )
        for scenario in SCENARIOS
        for concurrency in (1, 2)
    )
    return healthy + degraded


@dataclass(frozen=True)
class ChaosTrial:
    """The outcome of one crash→resume experiment."""

    cell: str
    site: str
    crashed: bool
    identical: bool
    n_batches_journaled: int
    diffs: list[str] = field(default_factory=list)
    journal: str = ""

    @property
    def ok(self) -> bool:
        return self.crashed and self.identical

    def render(self) -> str:
        if self.ok:
            return (
                f"chaos {self.cell} @ {self.site}: OK "
                f"({self.n_batches_journaled} batch(es) survived the crash)"
            )
        shown = "\n  ".join(self.diffs[:10])
        more = "" if len(self.diffs) <= 10 else f"\n  … {len(self.diffs) - 10} more"
        return (
            f"chaos {self.cell} @ {self.site}: FAIL "
            f"(crashed={self.crashed}, {len(self.diffs)} divergent path(s))\n"
            f"  {shown}{more}\n"
            f"  journal: {self.journal}"
        )


def result_payload(run) -> dict:
    """Everything a resumed run must reproduce, as canonical plain data.

    Covers predictions, quarantine, coverage, token/request accounting,
    the virtual-clock estimate, the kept raw replies, and the full run
    manifest (config, evaluation scores, metrics snapshot, execution
    report, span trace).  Deliberately excludes ``PipelineResult.prep`` —
    its wall-clock kernel timings differ between any two runs, crashed or
    not.
    """
    result = run.result
    payload = {
        "predictions": result.predictions,
        "quarantine": [
            {"index": q.index, "reason": q.reason, "detail": q.detail}
            for q in result.quarantine
        ],
        "coverage": result.coverage,
        "usage": {
            "prompt_tokens": result.usage.prompt_tokens,
            "completion_tokens": result.usage.completion_tokens,
        },
        "n_requests": result.n_requests,
        "n_format_retries": result.n_format_retries,
        "n_fallbacks": result.n_fallbacks,
        "estimated_seconds": result.estimated_seconds,
        "raw_replies": result.raw_replies,
        "manifest": run.manifest.to_dict() if run.manifest is not None else None,
    }
    return json.loads(canonical_json(payload))


def crash_point(site: str, baseline_records) -> int:
    """Where a drill kills a run, from its uninterrupted baseline journal.

    The journal sites die at batch sequence ``n // 2``; ``mid_batch``
    dies on the first completion call after batch ``n // 2 - 1`` was
    journaled (the outermost fault injector's call count is part of every
    record's client state).  Either way ``n // 2`` batches survive the
    crash, so a baseline of two or more batches always leaves a journaled
    prefix for the resume to replay.
    """
    n_batches = len(baseline_records)
    if site != "mid_batch":
        return n_batches // 2
    if n_batches < 2:
        return 1
    return baseline_records[n_batches // 2 - 1].state["client"]["n_calls"] + 1


def finish_trial(
    cell: str,
    site: str,
    crashed: bool,
    baseline: dict,
    resumed: dict,
    journal: str | Path,
    n_batches_journaled: int,
) -> ChaosTrial:
    """Diff a resumed payload against its baseline into a trial."""
    from repro.testing.golden import diff_payloads

    diffs = [diff.render() for diff in diff_payloads(baseline, resumed)]
    return ChaosTrial(
        cell=cell,
        site=site,
        crashed=crashed,
        identical=not diffs,
        n_batches_journaled=n_batches_journaled,
        diffs=diffs if crashed else ["the injected crash never fired", *diffs],
        journal=str(journal),
    )


def run_crash_trial(cell: ChaosCell, site: str, workdir: str | Path) -> ChaosTrial:
    """Crash one cell at ``site``, resume it, and compare bit for bit."""
    # Imported lazily so the runtime package stays importable without the
    # dataset/LLM/eval stack (mirrors repro.testing.golden).
    from repro.datasets import load_dataset
    from repro.errors import InjectedCrashError, LLMError
    from repro.eval.harness import evaluate_pipeline
    from repro.llm.backend import FaultBackend
    from repro.llm.faults import Fault
    from repro.runtime.journal import RunJournal

    if site not in CRASH_SITES:
        raise LLMError(
            f"unknown crash site {site!r}; expected one of {CRASH_SITES}"
        )
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    dataset = load_dataset(cell.dataset, size=cell.size, seed=cell.seed)
    config = cell.config()
    backend = cell.backend()
    executor_config = cell.executor_config()

    def run(checkpoint: RunCheckpoint, plan=()):
        return evaluate_pipeline(
            FaultBackend(backend, plan).build(), config, dataset,
            keep_raw=True, checkpoint=checkpoint,
            executor_config=executor_config,
        )

    # 1. Baseline: the uninterrupted run every crash must reproduce.  Its
    # journal says where each batch ended, which places the crash.
    baseline_journal = workdir / f"{cell.name}.baseline.journal"
    baseline_journal.unlink(missing_ok=True)
    baseline = run(RunCheckpoint(baseline_journal))
    __, baseline_records = RunJournal.load(baseline_journal)
    at = crash_point(site, baseline_records)

    # 2. Crash mid-run at the requested site.
    crash_journal = workdir / f"{cell.name}.{site}.journal"
    crash_journal.unlink(missing_ok=True)
    crashed = False
    try:
        if site == "mid_batch":
            run(RunCheckpoint(crash_journal), {
                at: Fault(kind="crash", message=f"chaos at call {at}"),
            })
        else:
            run(RunCheckpoint(
                crash_journal, chaos=JournalChaos(site=site, at_seq=at)
            ))
    except InjectedCrashError:
        crashed = True
    __, crash_records, __ = RunJournal.recover(crash_journal)

    # 3. Resume from whatever the crash left on disk, then compare.
    resumed = run(RunCheckpoint(crash_journal))
    return finish_trial(
        cell.name, site, crashed,
        result_payload(baseline), result_payload(resumed),
        crash_journal, len(crash_records),
    )


def run_crash_matrix(
    cells: tuple[ChaosCell, ...] | None = None,
    sites: tuple[str, ...] | None = None,
    workdir: str | Path = ".chaos",
    artifact: str | Path | None = None,
) -> list[ChaosTrial]:
    """The full crash-site sweep (the CI chaos job).

    Runs every (cell, site) pair and, on any failure, appends the drift
    report to the ``CHAOS_DIFF.txt`` artifact (path overridable via
    ``REPRO_CHAOS_DIFF_PATH``); the offending journal stays in
    ``workdir`` for upload.
    """
    from repro.testing.golden import write_diff_artifact

    trials: list[ChaosTrial] = []
    artifact_path = (
        artifact
        if artifact is not None
        else os.environ.get(CHAOS_DIFF_ENV, "CHAOS_DIFF.txt")
    )
    for cell in cells or default_chaos_cells():
        for site in sites or CRASH_SITES:
            trial = run_crash_trial(cell, site, workdir)
            trials.append(trial)
            if not trial.ok:
                write_diff_artifact(trial.render(), path=artifact_path)
    return trials
