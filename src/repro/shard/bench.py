"""The scaling benchmark behind ``BENCH_shards.json``.

**Shard scaling**, in *host* wall-clock (the virtual-clock cost model is
untouched: parallelism changes when work happens, never what it costs):
one fixed shard plan executed at several worker counts; reports wall
seconds and speedup per count, and checks the merged payload digest is
identical across all of them (the determinism half of the scaling story
is measured in the same breath as the speed half).

``python -m repro.eval shard-bench`` and ``benchmarks/test_shards.py``
both come through :func:`run_shard_bench`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

from repro.obs.manifest import canonical_json


def _payload_digest(payload: dict) -> str:
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()[:16]


def shard_scaling_bench(
    dataset: str = "adult",
    size: int = 240,
    model: str = "gpt-3.5",
    seed: int = 0,
    n_shards: int = 8,
    worker_counts: tuple[int, ...] = (1, 2, 4, 8),
) -> dict:
    """One shard plan, several worker counts: wall-clock plus identity."""
    from repro.core.config import PipelineConfig
    from repro.datasets import load_dataset
    from repro.llm.backend import SimulatedBackend
    from repro.shard.runner import run_sharded

    config = PipelineConfig(model=model, seed=seed)
    data = load_dataset(dataset, size=size, seed=seed)
    backend = SimulatedBackend(model=model, seed=seed)
    runs = []
    digests = []
    baseline_s: float | None = None
    for workers in worker_counts:
        started = time.perf_counter()
        run = run_sharded(
            backend, config, data, n_shards=n_shards, workers=workers
        )
        wall_s = time.perf_counter() - started
        if baseline_s is None:
            baseline_s = wall_s
        digest = _payload_digest(run.payload())
        digests.append(digest)
        runs.append({
            "workers": run.workers,
            "wall_s": wall_s,
            "speedup": baseline_s / wall_s if wall_s > 0 else 0.0,
            "digest": digest,
        })
    return {
        "dataset": dataset,
        "size": size,
        "model": model,
        "n_shards": n_shards,
        "runs": runs,
        "identical": len(set(digests)) == 1,
    }


def run_shard_bench(
    out: str | Path = "BENCH_shards.json",
    size: int = 240,
    n_shards: int = 8,
    worker_counts: tuple[int, ...] = (1, 2, 4, 8),
    dataset: str = "adult",
    model: str = "gpt-3.5",
    seed: int = 0,
) -> dict:
    """Run the scaling measurement and write the artifact; returns the
    payload."""
    payload = {
        "host": {"cpu_count": os.cpu_count()},
        "scaling": shard_scaling_bench(
            dataset=dataset, size=size, model=model, seed=seed,
            n_shards=n_shards, worker_counts=tuple(worker_counts),
        ),
    }
    Path(out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def render_bench(payload: dict) -> str:
    """A terminal-friendly summary of a bench payload."""
    lines = []
    scaling = payload["scaling"]
    lines.append(
        f"shard scaling — {scaling['dataset']} n={scaling['size']} "
        f"shards={scaling['n_shards']} "
        f"(identical={scaling['identical']})"
    )
    for run in scaling["runs"]:
        lines.append(
            f"  workers={run['workers']:>2}  wall={run['wall_s']:.2f}s  "
            f"speedup={run['speedup']:.2f}x"
        )
    return "\n".join(lines)
