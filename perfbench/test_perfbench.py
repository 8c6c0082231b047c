"""Self-test of the benchmark: every workload at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench

It checks that each run names every metric of ``BENCHMARK.json`` with its
unit, that the metrics fixed by the seed repeat exactly, that the traced
run reports ``unattributed.share``, that no process outlives a run, and
that the benchmark refuses to run without the program.  The seed is one the workload sizes were never tuned
on.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 90517
DETERMINISTIC = (
    "tokens_per_item", "api_s", "quality", "answered_share", "p99_latency_vs",
)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    BENCHMARK = json.load(handle)
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def bench_command(workload: str, trace: int, cwd: str) -> list[str]:
    return [
        sys.executable, os.path.join(cwd, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(SEED), "--seconds", "0.2",
        "--trace", str(trace), "--scale", "0.02",
    ]


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        bench_command(workload, trace, cwd),
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def processes_in_session(session: int) -> list[int]:
    """Pids of live or unreaped processes in ``session`` (Linux /proc)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        # fields after the parenthesised command: state ppid pgrp session
        if int(stat.rsplit(")", 1)[1].split()[3]) == session:
            found.append(int(entry))
    return found


def result_of(workload: str, trace: int) -> dict:
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    return result


def assert_metrics(result: dict, declared: list[dict]) -> None:
    metrics = result["metrics"]
    assert set(metrics) == {metric["name"] for metric in declared}
    for metric in declared:
        reported = metrics[metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert isinstance(reported["value"], (int, float)), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_seeded_repeat(workload):
    first = result_of(workload, 0)
    second = result_of(workload, 0)
    for result in (first, second):
        assert_metrics(result, BENCHMARK["end_to_end"])
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name
    for name in DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    result = result_of(workload, 1)
    assert_metrics(result, BENCHMARK["per_layer"])
    share = result["metrics"]["unattributed.share"]["value"]
    assert 0.0 <= share <= 1.0


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
@pytest.mark.parametrize("trace", (0, 1))
def test_no_process_outlives_a_run(trace):
    """A spawn pool starts workers and a resource tracker; all must be
    gone when the benchmark exits.  The run leads a session of its own, so
    its session id is its pid."""
    with subprocess.Popen(
        bench_command("sharded-em", trace, ROOT), cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        __, stderr = proc.communicate(timeout=300)
    assert proc.returncode == 0, stderr
    assert processes_in_session(proc.pid) == []


def test_tracer_restores_every_patch():
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    try:
        import repro.llm.accounting as accounting
        import repro.text.tokenize as tokenize
        from repro.llm.simulated import SimulatedLLM
        from tracer import Tracer

        before = (
            tokenize.count_tokens, accounting.count_message_tokens,
            SimulatedLLM.__dict__["complete"],
        )
        tracer = Tracer("PromptBuilder.build")
        with tracer:
            assert accounting.count_message_tokens is not before[1]
            tracer.begin_pass()
            accounting.count_message_tokens([("user", "one two three")])
            stats = tracer.end_pass(1.0)
        # count_message_tokens calls count_tokens: one entry into the
        # layer, two function calls, and the child's time is not counted
        # twice.
        assert stats.layer_calls["text.tokenize"] == 1
        assert stats.function_calls["count_message_tokens"] == 1
        assert stats.function_calls["count_tokens"] >= 1
        assert 0.0 <= stats.layer_self_s["text.tokenize"] < 1.0
        after = (
            tokenize.count_tokens, accounting.count_message_tokens,
            SimulatedLLM.__dict__["complete"],
        )
        assert after == before
    finally:
        del sys.path[:2]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    proc = run_bench(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
