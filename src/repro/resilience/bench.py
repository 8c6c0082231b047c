"""The resilience benchmark: what adaptivity buys under a scripted brownout.

Three arms run the *same* dataset against the *same* scripted degradation
(a brownout — throttle storm, latency spike, overload — followed by a
full blackout):

- ``unmitigated``: the degraded backend alone, default executor.  Retries
  exhaust inside the outage windows and the degradation ladder
  quarantines the affected instances.
- ``resilient``: the full stack — failover router with a healthy
  secondary, AIMD lane adaptation, hedged requests.  The run completes
  with near-full coverage because failures route around the outage.
- ``unhedged``: the resilient stack with hedging disabled — isolates the
  tail-latency contribution of hedging (p95 of ``llm.call_latency_s``).

Everything is virtual-clock simulated, so the numbers are deterministic
and the assertions in ``benchmarks/test_resilience.py`` are exact, not
flaky thresholds.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from repro.resilience.config import ResilienceConfig
from repro.resilience.degradation import DegradationPlan, Episode
from repro.resilience.pool import degraded_pool

#: p-quantile reported for the hedged-vs-unhedged tail comparison
TAIL_QUANTILE = 0.95


def bench_plan(seed: int = 0) -> DegradationPlan:
    """The scripted outage both arms face: brownout, then blackout.

    Ordering matters: the latency brownout comes *first*, while the
    primary's circuit is still closed, so the resilient arm actually
    routes slow calls through the primary and hedging has something to
    win.  The blackout then outlasts the non-adaptive executor's whole
    recovery apparatus — retries, breaker cooldowns, and the degradation
    ladder's bisection cascade — which is what turns the outage into
    quarantined instances on the unmitigated arm.
    """
    return DegradationPlan(seed=seed, episodes=(
        Episode(kind="latency_brownout", start_s=5.0, duration_s=20.0,
                intensity=1.0, latency_factor=6.0),
        Episode(kind="rate_limit_storm", start_s=25.0, duration_s=8.0,
                intensity=0.7, retry_after_s=3.0),
        Episode(kind="blackout", start_s=33.0, duration_s=600.0,
                intensity=1.0, retry_after_s=1.0),
    ))


def _arm_payload(run, extra: dict | None = None) -> dict:
    """The comparable core of one arm: coverage, cost, clock, tail."""
    metrics = run.result.observation.metrics
    payload = {
        "score": run.score,
        "coverage": round(run.coverage, 6),
        "n_instances": run.n_instances,
        "n_quarantined": run.n_quarantined,
        "n_requests": run.n_requests,
        "total_tokens": run.total_tokens,
        "makespan_s": round(run.hours * 3600.0, 6),
        "p95_call_latency_s": round(
            metrics.histogram("llm.call_latency_s").quantile(TAIL_QUANTILE), 6
        ),
        "throughput_rph": round(
            run.n_requests / run.hours if run.hours > 0 else 0.0, 3
        ),
        "goodput_iph": round(
            (run.n_instances - run.n_quarantined) / run.hours
            if run.hours > 0 else 0.0,
            3,
        ),
    }
    if extra:
        payload.update(extra)
    return payload


def run_resilience_bench(
    out_path: str | Path | None = "BENCH_resilience.json",
    dataset_name: str = "adult",
    size: int = 360,
    seed: int = 0,
    concurrency: int = 4,
    model: str = "gpt-3.5",
) -> dict:
    """Run all three arms and (optionally) write ``BENCH_resilience.json``."""
    from repro.core.config import PipelineConfig
    from repro.core.executor import ExecutorConfig
    from repro.datasets import load_dataset
    from repro.eval.harness import evaluate_pipeline
    from repro.obs.manifest import canonical_json

    dataset = load_dataset(dataset_name, size=size, seed=seed)
    config = PipelineConfig(
        model=model,
        seed=seed,
        concurrency=concurrency,
        observability=True,
        degradation="ladder",
    )
    plan = bench_plan(seed)
    resilience = ResilienceConfig()
    pool = degraded_pool(model, seed, plan, resilience)

    # The unmitigated arm runs the pool's degraded primary on its own.
    primary = pool.members[0].backend
    unmitigated = evaluate_pipeline(
        primary.build(), config, dataset, keep_raw=True
    )

    resilient_client = pool.build()
    resilient = evaluate_pipeline(
        resilient_client, config, dataset, keep_raw=True,
        executor_config=ExecutorConfig(resilience=resilience),
    )

    unhedged_config = replace(resilience, hedge=False)
    unhedged_client = replace(pool, resilience=unhedged_config).build()
    unhedged = evaluate_pipeline(
        unhedged_client, config, dataset, keep_raw=True,
        executor_config=ExecutorConfig(resilience=unhedged_config),
    )

    router = resilient_client.health_payload()["router"]
    payload = {
        "config": {
            "dataset": dataset_name,
            "size": size,
            "seed": seed,
            "concurrency": concurrency,
            "model": model,
            "plan": plan.payload(),
        },
        "unmitigated": _arm_payload(unmitigated),
        "resilient": _arm_payload(resilient, {
            "router": router,
            "backend_health": resilient_client.health_payload()["backends"],
            "breaker_transitions": dict(
                resilient.execution.breaker_transitions
            ),
        }),
        "unhedged": _arm_payload(unhedged, {
            "router": unhedged_client.health_payload()["router"],
        }),
        "comparison": {
            "quarantine_ratio": (
                unmitigated.n_quarantined / max(1, resilient.n_quarantined)
            ),
            "coverage_gain": round(
                resilient.coverage - unmitigated.coverage, 6
            ),
            "hedge_wins": router["n_hedge_wins"],
            "hedge_tail_gain_s": round(
                _arm_payload(unhedged)["p95_call_latency_s"]
                - _arm_payload(resilient)["p95_call_latency_s"],
                6,
            ),
        },
    }
    if out_path is not None:
        Path(out_path).write_text(
            canonical_json(payload) + "\n", encoding="utf-8"
        )
    return payload


def render_bench(payload: dict) -> str:
    """A terminal summary of one benchmark payload."""
    unmit = payload["unmitigated"]
    res = payload["resilient"]
    cmp_ = payload["comparison"]
    lines = [
        "resilience-bench — scripted brownout + blackout "
        f"({payload['config']['dataset']}, "
        f"{payload['config']['size']} instance(s), "
        f"concurrency {payload['config']['concurrency']})",
        f"  unmitigated: coverage {unmit['coverage'] * 100:.1f}%, "
        f"{unmit['n_quarantined']} quarantined, "
        f"p95 {unmit['p95_call_latency_s']:.2f}s",
        f"  resilient:   coverage {res['coverage'] * 100:.1f}%, "
        f"{res['n_quarantined']} quarantined, "
        f"p95 {res['p95_call_latency_s']:.2f}s, "
        f"{res['router']['n_failovers']} failover(s), "
        f"{cmp_['hedge_wins']} hedge win(s)",
        f"  quarantine ratio (unmitigated : resilient) "
        f"{cmp_['quarantine_ratio']:.1f}x, "
        f"hedged p95 gain {cmp_['hedge_tail_gain_s']:.2f}s vs unhedged",
    ]
    return "\n".join(lines)
