"""Decode benchmark — the shared-prefix memo against the from-scratch
reference.

The same 1k pipeline requests (a shared system + few-shot prefix, one
question each) are served by :class:`~repro.llm.simulated.SimulatedLLM`
and by the reference decode of :mod:`tests.llm.reference_decode`, which
re-meters, re-parses and re-fits the prefix for every request.  The
replies must match text for text, and the memo must be at least 3x
faster.  The bar is algorithmic -- prefix parses, token counts and
few-shot fits amortize across the batch -- so it holds on any host.
"""

import time

from benchmarks.conftest import run_once
from repro.llm.simulated import SimulatedLLM
from tests.llm.reference_decode import ReferenceLLM, build_decode_requests


def _timed(client, requests):
    started = time.perf_counter()
    replies = client.complete_batch(requests)
    return time.perf_counter() - started, [r.text for r in replies]


def decode_microbench(n: int, seed: int) -> dict:
    requests = build_decode_requests(n, seed=seed)
    reference_s, reference = _timed(ReferenceLLM(seed=seed), requests)
    memoized_s, memoized = _timed(SimulatedLLM(seed=seed), requests)
    return {
        "n": n,
        "reference_s": reference_s,
        "memoized_s": memoized_s,
        "speedup": reference_s / memoized_s,
        "identical": memoized == reference,
    }


def test_memoized_decode_beats_the_reference(benchmark, seed):
    result = run_once(benchmark, decode_microbench, n=1000, seed=seed)
    print()
    print(
        f"decode — n={result['n']}  reference={result['reference_s']:.2f}s  "
        f"memoized={result['memoized_s']:.2f}s  "
        f"speedup={result['speedup']:.2f}x "
        f"(identical={result['identical']})"
    )
    assert result["identical"], "memoized decode diverged from the reference"
    assert result["speedup"] >= 3.0, (
        f"decode speedup {result['speedup']:.2f}x is below the 3x bar"
    )
