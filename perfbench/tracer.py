"""Wall-clock spans around the public calls of each ``repro`` layer.

The tracer wraps callables where the program looks them up: class
attributes, and every ``repro`` module attribute bound to the same
function object (``from x import f`` copies the reference into the
importing module, so patching only the defining module would miss those
call sites).  Nothing under ``src/`` is edited, and :meth:`Tracer.remove`
puts every original back.

Each call becomes a span -- name, start, end, parent, and the id of the
unit of work it belongs to (a request or a batch) -- stored in flat
in-memory arrays and written out by :meth:`Tracer.write`.  A span's self
time is its duration minus the time its child spans cover; a layer's
``calls`` counts entries into the layer from outside it, so a layer
function calling another one of the same layer counts once.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array
from dataclasses import dataclass

#: (defining module, attribute, layer).  ``Class.method`` patches the class
#: attribute; a bare name patches the function in the defining module and
#: in every ``repro`` module that imported it by name.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.datasets.registry", "load_dataset", "datasets"),
    ("repro.core.batching", "make_batches", "core.prep"),
    ("repro.core.prep", "PrepArtifacts.text_of", "core.prep"),
    ("repro.core.prep", "PrepArtifacts.texts", "core.prep"),
    ("repro.core.prep", "PrepArtifacts.fingerprint", "core.prep"),
    ("repro.core.prep", "PrepArtifacts.matrix", "core.prep"),
    ("repro.core.prep", "PrepArtifacts.labels", "core.prep"),
    ("repro.core.prep", "PrepArtifacts.cluster_members", "core.prep"),
    ("repro.core.prompts", "PromptBuilder.build", "core.prompts"),
    ("repro.text.tokenize", "count_tokens", "text.tokenize"),
    ("repro.text.tokenize", "count_message_tokens", "text.tokenize"),
    ("repro.llm.simulated", "SimulatedLLM.complete", "llm.simulated"),
    ("repro.llm.simulated", "SimulatedLLM.complete_batch", "llm.simulated"),
    ("repro.llm.knowledge", "KnowledgeBase.domain_of", "llm.knowledge"),
    ("repro.core.parsing", "parse_batch_answers", "core.parsing"),
    ("repro.core.parsing", "parse_batch_answers_lenient", "core.parsing"),
    ("repro.core.executor", "BatchExecutor.call", "core.executor"),
    ("repro.runtime.checkpoint", "CheckpointSession.append_batch",
     "runtime.journal"),
    ("repro.runtime.journal", "RunJournal.append", "runtime.journal"),
    # The journal calls ``os.fsync`` through the ``os`` module; nothing
    # else in the program fsyncs, so this counts journal syncs.
    ("os", "fsync", "runtime.journal"),
    ("repro.obs.manifest", "canonical_json", "obs.manifest"),
    ("repro.shard.plan", "plan_shards", "shard.plan"),
    ("repro.shard.merge", "merge_shards", "shard.merge"),
    ("repro.serving.tenants", "TenantAdmission.admit", "serving.tenants"),
    ("repro.serving.scheduler", "BatchCoalescer.add", "serving.scheduler"),
    ("repro.serving.scheduler", "BatchCoalescer.due", "serving.scheduler"),
    ("repro.serving.scheduler", "BatchCoalescer.drain", "serving.scheduler"),
    ("repro.serving.cache", "ServingCache.get", "serving.cache"),
    ("repro.serving.cache", "ServingCache.put", "serving.cache"),
)

#: the shard pool phase is timed by swapping the pool class the runner
#: looks up for a subclass whose ``with`` block is one span
POOL_LAYER = "shard.pool"

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(
    [layer for __, __, layer in TARGETS] + [POOL_LAYER]
))


@dataclass
class PassStats:
    """What one traced pass measured, per layer and per function."""

    wall_s: float
    layer_calls: dict[str, int]
    layer_self_s: dict[str, float]
    function_calls: dict[str, int]
    #: answer-cache lookups that returned an entry
    cache_hits: int = 0
    #: (hits, misses) summed over every PrepArtifacts the pass touched
    prep_hits: int = 0
    prep_misses: int = 0
    #: bytes on disk of every journal the pass appended to
    journal_bytes: int = 0
    n_spans: int = 0

    @property
    def attributed_s(self) -> float:
        return sum(self.layer_self_s.values())

    @property
    def unattributed_share(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return max(0.0, self.wall_s - self.attributed_s) / self.wall_s


class Tracer:
    """Records spans for the wrapped calls while installed.

    ``unit_function`` names the wrapped function (``Class.method`` or
    function name) whose every call starts a new unit of work; spans carry
    the ordinal of the unit they ran in.
    """

    def __init__(self, unit_function: str):
        self._unit_function = unit_function
        self._names: list[str] = []
        self._name_layer: list[int] = []
        self._layer_index = {layer: i for i, layer in enumerate(LAYERS)}
        #: (owner, attribute, wrapper) for every site, built on first install
        self._plan: list[tuple[object, str, object]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._reset()

    # -- recording --------------------------------------------------------

    def _reset(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.name_ids = array("H")
        self.units = array("q")
        self._stack: list[list] = []
        self._unit = -1
        self._layer_calls = [0] * len(LAYERS)
        self._layer_self = [0.0] * len(LAYERS)
        self._function_calls: list[int] = [0] * len(self._names)
        self._cache_hits = 0
        #: id -> (PrepArtifacts, hits, misses when the pass first met it)
        self._prep_objects: dict[int, tuple] = {}
        self._journal_paths: set[str] = set()

    def _name_id(self, name: str, layer: str) -> int:
        self._names.append(name)
        self._name_layer.append(self._layer_index[layer])
        self._function_calls.append(0)
        return len(self._names) - 1

    def _enter(self, name_id: int) -> list:
        stack = self._stack
        layer = self._name_layer[name_id]
        if stack:
            parent, parent_layer = stack[-1][0], stack[-1][2]
        else:
            parent, parent_layer = -1, -1
        if parent_layer != layer:
            self._layer_calls[layer] += 1
        self._function_calls[name_id] += 1
        index = len(self.starts)
        self.parents.append(parent)
        self.name_ids.append(name_id)
        self.units.append(self._unit)
        self.ends.append(0.0)
        frame = [index, 0.0, layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        self.starts.append(start)
        frame[3] = start
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        index, child_s, layer, start = frame
        self.ends[index] = end
        duration = end - start
        self._stack.pop()
        self._layer_self[layer] += duration - child_s
        if self._stack:
            self._stack[-1][1] += duration

    def _make_wrapper(self, name: str, layer: str, original):
        name_id = self._name_id(name, layer)
        starts_unit = name == self._unit_function
        before = self._before_hook(name)
        observe = self._observer(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if starts_unit:
                tracer._unit += 1
            if before is not None:
                before(args)
            frame = tracer._enter(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__qualname__ = getattr(original, "__qualname__", name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        wrapper.__wrapped__ = original
        return wrapper

    def _before_hook(self, name: str):
        """State read before a call: a prep cache's counters when the pass
        first meets it, so traffic from before the pass is not counted."""
        if name.startswith("PrepArtifacts."):
            def before(args):
                prep = args[0]
                if id(prep) not in self._prep_objects:
                    stats = prep.stats
                    self._prep_objects[id(prep)] = (
                        prep, stats.total_hits, stats.total_misses
                    )
            return before
        return None

    def _observer(self, name: str):
        """Counts taken from a call's arguments or result."""
        if name == "ServingCache.get":
            def observe(args, result):
                if result is not None:
                    self._cache_hits += 1
            return observe
        if name == "RunJournal.append":
            def observe(args, result):
                self._journal_paths.add(str(args[0].path))
            return observe
        return None

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target where it is looked up.

        The wrappers are built on the first install and reused, so the
        function ids stay stable across passes.
        """
        if not self._plan:
            self._plan = self._build_plan()
        for owner, attribute, wrapper in self._plan:
            self._patches.append((owner, attribute, owner.__dict__[attribute]))
            setattr(owner, attribute, wrapper)

    def _build_plan(self) -> list[tuple[object, str, object]]:
        plan = []
        for module_name, attribute, layer in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                wrapper = self._make_wrapper(attribute, layer, original)
                plan.append((owner, method, wrapper))
                continue
            original = getattr(module, attribute)
            wrapper = self._make_wrapper(attribute, layer, original)
            plan.append((module, attribute, wrapper))
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", "")
                if other is module or not name.startswith("repro"):
                    continue
                if getattr(other, attribute, None) is original:
                    plan.append((other, attribute, wrapper))
        runner = importlib.import_module("repro.shard.runner")
        plan.append((runner, "ProcessPoolExecutor",
                     self._traced_pool(runner.ProcessPoolExecutor)))
        return plan

    def _traced_pool(self, base):
        name_id = self._name_id("ProcessPoolExecutor", POOL_LAYER)
        tracer = self

        class TracedPool(base):
            def __enter__(self):
                self._perfbench_frame = tracer._enter(name_id)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._exit(self._perfbench_frame)

        return TracedPool

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- passes -----------------------------------------------------------

    def begin_pass(self) -> None:
        """Forget the spans and counts of the previous pass."""
        self._reset()

    def end_pass(self, wall_s: float) -> PassStats:
        """Aggregate the spans recorded since :meth:`begin_pass`."""
        if self._stack:
            raise RuntimeError("a traced call is still open")
        prep_hits = sum(
            prep.stats.total_hits - hits
            for prep, hits, __ in self._prep_objects.values()
        )
        prep_misses = sum(
            prep.stats.total_misses - misses
            for prep, __, misses in self._prep_objects.values()
        )
        journal_bytes = sum(
            os.path.getsize(path) for path in self._journal_paths
            if os.path.exists(path)
        )
        return PassStats(
            wall_s=wall_s,
            layer_calls=dict(zip(LAYERS, self._layer_calls)),
            layer_self_s=dict(zip(LAYERS, self._layer_self)),
            function_calls=dict(zip(self._names, self._function_calls)),
            cache_hits=self._cache_hits,
            prep_hits=prep_hits,
            prep_misses=prep_misses,
            journal_bytes=journal_bytes,
            n_spans=len(self.starts),
        )

    def write(self, path: str) -> None:
        """Write the current pass's spans as arrays (NumPy ``.npz``)."""
        import numpy as np

        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        origin = self.starts[0] if self.starts else 0.0
        np.savez(
            path,
            names=np.array(self._names),
            name_id=np.frombuffer(self.name_ids, dtype=np.uint16),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            unit=np.frombuffer(self.units, dtype=np.int64),
            start_s=np.frombuffer(self.starts, dtype=np.float64) - origin,
            end_s=np.frombuffer(self.ends, dtype=np.float64) - origin,
        )
