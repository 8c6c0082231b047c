"""Chaos drills for sharded runs: kill one worker, resume, diff the merge.

Extends the single-process crash harness (:mod:`repro.runtime.chaos`) to
the multi-process world.  The contract is the same property, one level
up: for every crash site — ``mid_batch`` (the worker's client dies
mid-completion-call), ``pre_journal`` / ``mid_journal`` (the worker's
journal machinery dies around an append) — re-running
:func:`~repro.shard.runner.run_sharded` against the same ``workdir`` must
produce a **merged payload bit-identical** to an uninterrupted run.
Surviving shards replay entirely from their own journals; the killed
shard resumes from its journaled prefix.

The trial runs through :func:`~repro.shard.runner.run_sharded` rather
than :func:`~repro.runtime.chaos.run_crash_trial`, but it places its crash
with the same :func:`~repro.runtime.chaos.crash_point` and reports the
same :class:`~repro.runtime.chaos.ChaosTrial`.  As there, every run wraps
the backend in a :class:`~repro.llm.backend.FaultBackend` (the journal
header seals the client class); the crash run arms a plan inside the
target shard's injector.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import InjectedCrashError, ShardError
from repro.llm.backend import Backend, FaultBackend
from repro.runtime.chaos import ChaosTrial, crash_point, finish_trial
from repro.shard.runner import SHARD_CRASH_SITES, ShardChaos, run_sharded


def _target_shard(payloads: list[dict]) -> dict:
    """The busiest shard — the one with the most completion calls, so a
    mid-run kill leaves real journaled work on both sides."""
    return max(payloads, key=lambda p: (p["n_requests"], p["shard_id"]))


def run_shard_crash_trial(
    backend: Backend,
    config,
    dataset,
    site: str,
    workdir: str | Path,
    n_shards: int | None = None,
    workers: int = 2,
) -> ChaosTrial:
    """Crash the busiest worker at ``site``, resume, compare bit for bit."""
    from repro.runtime.journal import RunJournal

    if site not in SHARD_CRASH_SITES:
        raise ShardError(
            f"unknown shard crash site {site!r}; expected one of "
            f"{SHARD_CRASH_SITES}"
        )
    workdir = Path(workdir)
    base = FaultBackend(backend, {})

    def run(run_dir: Path, chaos: ShardChaos | None = None):
        return run_sharded(
            base, config, dataset,
            n_shards=n_shards, workers=workers,
            workdir=run_dir, keep_raw=True, chaos=chaos,
        )

    # 1. Baseline: the uninterrupted sharded run every crash must reproduce.
    baseline = run(workdir / "baseline")
    shard_id = _target_shard(baseline.shard_payloads)["shard_id"]
    journal_name = f"shard-{shard_id:04d}.journal"
    __, records = RunJournal.load(workdir / "baseline" / journal_name)
    at = crash_point(site, records)

    # 2. Crash that worker mid-run.
    crash_dir = workdir / "crash"
    crashed = False
    try:
        run(crash_dir, ShardChaos(shard_id=shard_id, site=site, at=at))
    except InjectedCrashError:
        crashed = True
    __, crash_records, __ = RunJournal.recover(crash_dir / journal_name)

    # 3. Resume from whatever the crash left behind, then compare.
    resumed = run(crash_dir)
    return finish_trial(
        f"shard-{shard_id:04d}", site, crashed,
        baseline.payload(), resumed.payload(),
        crash_dir / journal_name, len(crash_records),
    )
