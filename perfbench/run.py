"""Wall-clock benchmark of the preprocessing system's three entry points.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-ed-journaled --seed 7 \\
        --seconds 25 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), runs one warm-up iteration, then times warm iterations until
``--seconds`` have passed and reports every end-to-end metric; the
throughput is the median over the timed iterations.  Both timings are
scaled to a reference host speed by a fixed loop timed right before and
right after each timed call (``workloads.timed``); the raw wall times
are in the detail line.  ``--trace 1`` is a
separate run that alternates untraced and traced iterations for the same
time and reports the per-layer metrics, the unattributed share and the
tracing overhead.  Either way the outputs are checked: every iteration
must reproduce the warm-up's predictions, plus the workload's own checks
(journal resume, pool-versus-inline merge, queue conservation).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the host, the run and the per-iteration samples behind each
median.  A failed check prints ``correct: false`` with no metrics and
exits 1.  ``--scale`` shrinks every input (the self-test uses it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 7
MIN_ITERATIONS = 3

#: seconds ``workloads.reference_loop`` takes at the reference host speed
#: (a 2-CPU x86_64 host, Python 3.11); timings are scaled to that speed
REFERENCE_S = 0.06

#: name -> unit, in report order
END_TO_END = {
    "instances_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "tokens_per_item": "tokens",
    "api_s": "vs",
    "quality": "score",
    "answered_share": "share",
    "p99_latency_vs": "vs",
}

#: layers reported with ``calls`` and ``self_s``
COUNTED_LAYERS = (
    "core.prep", "core.prompts", "text.tokenize", "llm.simulated",
    "llm.knowledge", "core.parsing", "core.executor", "runtime.journal",
    "obs.manifest", "serving.tenants", "serving.scheduler", "serving.cache",
)
#: layers reported with ``self_s`` only
TIMED_LAYERS = ("datasets", "shard.plan", "shard.pool", "shard.merge")

PER_LAYER = {
    **{f"{layer}.calls": "count" for layer in COUNTED_LAYERS},
    **{f"{layer}.self_s": "s" for layer in COUNTED_LAYERS + TIMED_LAYERS},
    "core.prep.hit_ratio": "ratio",
    "text.tokenize.calls_per_request": "1/request",
    "core.parsing.lenient_ratio": "ratio",
    "core.executor.retries": "count",
    "runtime.journal.bytes": "B",
    "runtime.journal.fsyncs": "count",
    "serving.scheduler.coalesce_ratio": "ratio",
    "serving.cache.hit_ratio": "ratio",
    "unattributed.share": "share",
    "trace.overhead_s": "s",
    "trace.overhead_share": "share",
}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def git_rev() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def peak_rss_mib(include_children: bool) -> float:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak_kib = max(
            peak_kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
    return peak_kib / 1024.0


def scaled(wall_s: float, reference_s: float) -> float:
    """``wall_s`` at the reference host speed."""
    return wall_s * REFERENCE_S / reference_s


def set_up(workload, repeats: int):
    """Set the workload up ``repeats`` times; keep the last state and the
    (wall, reference) seconds of each set-up."""
    from workloads import timed

    samples = []
    for __ in range(repeats):
        state = None  # let the previous state go before timing the next
        state, wall_s, reference_s = timed(workload.setup)
        samples.append((wall_s, reference_s))
    return state, samples


def check_repeat(reference, outcome, failures: list[str], label: str) -> None:
    if outcome.digest != reference.digest:
        failures.append(
            f"{label} predictions/quarantine differ from the warm-up's"
        )


def timed_run(workload, seconds: float):
    """The untraced run: end-to-end metrics from warm iterations."""
    state, setup_samples = set_up(workload, SETUP_REPEATS)
    failures: list[str] = []
    reference = workload.run(state)
    reference.result = None
    outcomes = []
    started = time.perf_counter()
    while (len(outcomes) < MIN_ITERATIONS
           or time.perf_counter() - started < seconds):
        outcome = workload.run(state)
        check_repeat(reference, outcome, failures, f"iteration {len(outcomes)}")
        if outcomes:
            outcomes[-1].result = None  # only the last run's output is checked
        outcomes.append(outcome)
    rss = peak_rss_mib(workload.uses_children)
    failures += workload.final_checks(state, outcomes[-1])
    workload.cleanup(state)

    walls = [outcome.wall_s for outcome in outcomes]
    iteration_s = [scaled(o.wall_s, o.reference_s) for o in outcomes]
    setup_s = [scaled(*sample) for sample in setup_samples]
    last = outcomes[-1]
    metrics = {
        "instances_per_s": last.n_items / statistics.median(iteration_s),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mib": rss,
        "tokens_per_item": last.tokens / last.n_items,
        "api_s": last.api_vs,
        "quality": last.quality,
        "answered_share": last.answered_share,
        "p99_latency_vs": last.p99_latency_vs,
    }
    everything = [reference] + outcomes
    detail = {
        "iterations": len(outcomes),
        "items_per_iteration": last.n_items,
        "reference_s": REFERENCE_S,
        "iteration_scaled_s": iteration_s,
        "iteration_scaled_quartiles_s": quartiles(iteration_s),
        "iteration_wall_s": walls,
        "iteration_reference_s": [o.reference_s for o in outcomes],
        "wall_instances_per_s": last.n_items / statistics.median(walls),
        "warmup_wall_s": reference.wall_s,
        "setup_scaled_s": setup_s,
        "setup_wall_s": [wall for wall, __ in setup_samples],
        "setup_reference_s": [ref for __, ref in setup_samples],
        "p99_latency_samples": last.p99_samples,
        "workload": last.detail,
    }
    counts = (
        sum(outcome.n_items for outcome in everything),
        sum(outcome.n_failed for outcome in everything),
    )
    return metrics, END_TO_END, detail, counts, failures


def traced_run(workload, seconds: float, seed: int):
    """The traced run: per-layer metrics, separate from the timed runs."""
    from tracer import Tracer

    tracer = Tracer(workload.unit_function)
    spans_path = os.path.join(WORKDIR, f"spans-{workload.name}-{seed}.npz")
    failures: list[str] = []

    with tracer:
        tracer.begin_pass()
        started = time.perf_counter()
        state = workload.setup()
        setup_pass = tracer.end_pass(time.perf_counter() - started)

    reference = workload.run(state)
    untraced, traced, passes = [], [], []
    n_failed = reference.n_failed
    last = reference
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        plain = workload.run(state)
        check_repeat(reference, plain, failures, "untraced iteration")
        untraced.append(plain.wall_s)
        n_failed += plain.n_failed
        with tracer:
            last = workload.run(state, on_start=tracer.begin_pass)
            passes.append(tracer.end_pass(last.wall_s))
            tracer.write(spans_path)
        check_repeat(reference, last, failures, "traced iteration")
        traced.append(last.wall_s)
        n_failed += last.n_failed

    # Spawned shard workers are out of the tracer's reach: the pool
    # passes time plan, pool and merge; one inline pass attributes the
    # layers inside the shards.
    inner = passes
    if workload.uses_children:
        with tracer:
            inline = workload.run(
                state, on_start=tracer.begin_pass, workers=1
            )
            inner = [tracer.end_pass(inline.wall_s)]
            tracer.write(spans_path.replace(".npz", "-inline.npz"))
        failures += workload.compare_inline(last, inline)
    else:
        failures += workload.final_checks(state, last)
    workload.cleanup(state)

    def median_self(source, layer):
        return statistics.median(p.layer_self_s[layer] for p in source)

    final = inner[-1]
    calls = final.function_calls
    metrics = {}
    for layer in COUNTED_LAYERS:
        metrics[f"{layer}.calls"] = final.layer_calls[layer]
        metrics[f"{layer}.self_s"] = median_self(inner, layer)
    metrics["datasets.self_s"] = setup_pass.layer_self_s["datasets"]
    for layer in ("shard.plan", "shard.pool", "shard.merge"):
        metrics[f"{layer}.self_s"] = median_self(passes, layer)
    executor_calls = calls["BatchExecutor.call"]
    metrics.update({
        "core.prep.hit_ratio": ratio(
            final.prep_hits, final.prep_hits + final.prep_misses
        ),
        "text.tokenize.calls_per_request": ratio(
            final.layer_calls["text.tokenize"], executor_calls
        ),
        "core.parsing.lenient_ratio": ratio(
            calls["parse_batch_answers_lenient"], calls["parse_batch_answers"]
        ),
        "core.executor.retries": max(
            0, calls["SimulatedLLM.complete"] - executor_calls
        ),
        "runtime.journal.bytes": final.journal_bytes,
        "runtime.journal.fsyncs": calls["fsync"],
        "serving.scheduler.coalesce_ratio": last.detail.get(
            "coalesce_ratio", 0.0
        ),
        "serving.cache.hit_ratio": ratio(
            final.cache_hits, calls["ServingCache.get"]
        ),
        "unattributed.share": statistics.median(
            p.unattributed_share for p in inner
        ),
    })
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / statistics.median(untraced)

    detail = {
        "iterations": len(passes),
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "spans": [p.n_spans for p in inner],
        "spans_file": os.path.relpath(spans_path, ROOT),
        "inline_wall_s": [p.wall_s for p in inner] if inner is not passes
        else None,
        "function_calls": calls,
    }
    runs = 1 + len(untraced) + len(traced)
    counts = (runs * last.n_items, n_failed)
    return metrics, PER_LAYER, detail, counts, failures


def stop_children() -> None:
    """Stop and reap every process the run started.  Shard pools join
    their workers, but a spawn pool also starts multiprocessing's resource
    tracker, which would otherwise outlive this process."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def host_info(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_rev": git_rev(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input-size multiplier (the self-test uses "
                             "a small one)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.scale <= 0:
        print("perfbench: --seconds and --scale must be positive",
              file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    # Import the program before set-up is timed: set-up measures data
    # generation and object construction, not interpreter start-up.
    import repro.eval.metrics  # noqa: F401
    import repro.runtime.checkpoint  # noqa: F401
    import repro.serving.service  # noqa: F401
    import repro.shard.runner  # noqa: F401

    workload = WORKLOADS[args.workload](args.seed, args.scale, WORKDIR)
    try:
        if args.trace:
            metrics, units, detail, counts, failures = traced_run(
                workload, args.seconds, args.seed
            )
        else:
            metrics, units, detail, counts, failures = timed_run(
                workload, args.seconds
            )
    finally:
        stop_children()
    attempted, failed = counts
    correct = not failures
    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    if correct:
        width = max(len(name) for name in units)
        for name, unit in units.items():
            print(f"{name:<{width}}  {metrics[name]:>16.6g}  {unit}")
    print(json.dumps({
        "perfbench": {"host": host_info(args), "failures": failures, **detail}
    }, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        } if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
