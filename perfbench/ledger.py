"""Span recorder and layer ledger for the traced benchmark run.

The traced run times calls into the public entry points of each
``src/repro`` layer from the benchmark's own files: :class:`Probe`
replaces those functions with wrappers for the duration of a phase and
puts the originals back afterwards.  Nothing in ``src/`` changes.

Every wrapper opens a span.  A span's *self time* is its duration minus
the durations of the spans it caused, so the layer self times plus the
time spent outside every span (``unattributed``) add up to the wall
time of the traced phase.

Callbacks handed to the event loop (``EventLoop.schedule_at``, which
``schedule`` and ``call_soon`` go through) and completion callbacks
handed to ``GPUDevice.submit`` and ``SharingPolicy.submit`` are wrapped
too, so a callback's time lands on the layer of the module that defined
it rather than on whoever happened to fire it.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from typing import Callable

#: module prefix -> layer, first match wins
LAYER_OF_MODULE = (
    ("repro.gpu.engine", "engine"),
    ("repro.gpu.device", "device"),
    ("repro.core.scheduler", "policy"),
    ("repro.baselines", "policy"),
    ("repro.core.profiler", "profiler"),
    ("repro.workloads", "driver"),
    ("repro.cluster", "controlplane"),
    ("repro.core.server", "migrate"),
    ("repro.metrics", "metrics"),
)

#: layers whose self time the traced run reports, in report order
LAYERS = ("engine", "device", "policy", "profiler", "driver",
          "controlplane", "migrate", "metrics")

#: raw spans kept for the span file; the ledger itself is unbounded
SPAN_CAP = 20_000


def layer_of(fn: Callable) -> str | None:
    """The layer owning ``fn``, from the module that defined it."""
    module = getattr(fn, "__module__", None) or ""
    for prefix, layer in LAYER_OF_MODULE:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


class Ledger:
    """Self time and counts per layer for one traced phase."""

    def __init__(self) -> None:
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        #: open spans, innermost last: [child seconds, span id]
        self.stack: list[list] = [[0.0, -1]]
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._next_id = 0
        self.wall_s = 0.0

    def timed(self, layer: str | None, fn: Callable,
              count: str | None = None) -> Callable:
        """``fn`` wrapped in a span of ``layer``, counting calls as ``count``.

        ``None`` (a module outside the layer map) still opens a span,
        booked as unattributed time, so the ledger stays balanced.
        """
        stack = self.stack
        self_s = self.self_s
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter
        key = layer if layer is not None else "unattributed"

        def span(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][1]
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[key] += duration - frame[0]
                stack[-1][0] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, key, start, end))

        return span

    def measure(self, fn: Callable[[], object]) -> object:
        """Run ``fn`` as the traced phase and record its wall time."""
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.wall_s = time.perf_counter() - start

    @property
    def balanced(self) -> bool:
        """Every span closed again (only the root frame is left)."""
        return len(self.stack) == 1

    def unattributed_s(self) -> float:
        """Phase time outside every span, plus spans of unmapped modules."""
        return (self.wall_s - self.stack[0][0]) + self.self_s["unattributed"]

    def write(self, path: str, header: dict) -> None:
        """Write the ledger and the first :data:`SPAN_CAP` spans as JSON."""
        payload = {
            **header,
            "wall_s": self.wall_s,
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "spans_kept": len(self.spans),
            "spans_total": self._next_id,
            "spans": [
                {"id": i, "parent": p, "layer": layer, "start": s, "end": e}
                for i, p, layer, s, e in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


class Probe:
    """Installs the layer wrappers for one phase; a context manager.

    ``phase="setup"`` times only the standalone baselines (nothing below
    them is wrapped, so a baseline's whole cost is ``standalone`` self
    time).  ``phase="run"`` wraps every layer; there the standalone
    cache is only counted, because in the measured phase a baseline
    fetch is a cache hit whose time belongs to its caller.
    """

    def __init__(self, ledger: Ledger, phase: str) -> None:
        if phase not in ("setup", "run"):
            raise ValueError(f"unknown phase {phase!r}")
        self.ledger = ledger
        self.phase = phase
        self._undo: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------
    def _set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _replace_function(self, original: Callable, wrapper: Callable) -> None:
        """Point every ``repro`` module global bound to ``original`` at
        ``wrapper`` (``from x import f`` copies the reference)."""
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def __enter__(self) -> "Probe":
        from repro.harness import colocate

        self._wrap_standalone(colocate.standalone)
        if self.phase == "run":
            self._wrap_layers()
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    # -- the standalone cache ------------------------------------------
    def _wrap_standalone(self, original: Callable) -> None:
        from repro.harness import colocate

        ledger = self.ledger
        counts = ledger.counts
        inner = (ledger.timed("standalone", original)
                 if self.phase == "setup" else original)

        def standalone(job, config=None):
            cached = {id(entry[0])
                      for entry in colocate._STANDALONE_CACHE.values()}
            result = inner(job, config)
            counts["standalone.calls"] += 1
            if id(result) in cached:
                counts["standalone.hits"] += 1
            return result

        self._replace_function(original, standalone)

    # -- every layer of the measured phase ------------------------------
    def _wrap_layers(self) -> None:
        from repro.baselines.base import SharingPolicy
        from repro.cluster.controlplane import ClusterController
        from repro.core import server
        from repro.core.profiler import TransparentProfiler
        from repro.gpu.device import GPUDevice
        from repro.gpu.engine import Event, EventLoop
        from repro.metrics import LatencySummary, ServingSummary
        from repro.workloads.llm import KVCache

        ledger = self.ledger
        timed = ledger.timed
        counts = ledger.counts
        layer_cache: dict[object, str | None] = {}

        def callback(fn: Callable, count: str | None = None) -> Callable:
            module = getattr(fn, "__module__", None)
            if module not in layer_cache:
                layer_cache[module] = layer_of(fn)
            return timed(layer_cache[module], fn, count)

        # engine: the loop itself, scheduling and cancellation
        schedule_at = timed("engine", EventLoop.schedule_at,
                            "engine.scheduled")

        def wrapped_schedule_at(loop, when, fn):
            return schedule_at(loop, when, callback(fn, "engine.events"))

        self._set(EventLoop, "schedule_at", wrapped_schedule_at)
        self._timed(EventLoop, "run_until", "engine")
        cancel = timed("engine", Event.cancel)

        def wrapped_cancel(event):
            if not event.cancelled:
                counts["engine.cancelled"] += 1
            cancel(event)

        self._set(Event, "cancel", wrapped_cancel)

        # device: submission, preemption, kill; completion callbacks
        device_submit = timed("device", GPUDevice.submit, "device.submits")

        def wrapped_device_submit(device, launch, **kwargs):
            if launch.on_complete is not None:
                launch.on_complete = callback(launch.on_complete)
            return device_submit(device, launch, **kwargs)

        self._set(GPUDevice, "submit", wrapped_device_submit)
        self._timed(GPUDevice, "preempt", "device", "device.preempts")
        self._timed(GPUDevice, "kill", "device")

        # policy: the one public submit every policy inherits
        policy_submit = timed("policy", SharingPolicy.submit,
                              "policy.submits")

        def wrapped_policy_submit(policy, client_id, descriptor, on_done):
            return policy_submit(policy, client_id, descriptor,
                                 callback(on_done))

        self._set(SharingPolicy, "submit", wrapped_policy_submit)

        # profiler: choose (with its explore/exploit outcome) and record
        choose = timed("profiler", TransparentProfiler.choose,
                       "profiler.chooses")

        def wrapped_choose(profiler, descriptor):
            chosen = choose(profiler, descriptor)
            if chosen[1]:
                counts["profiler.explores"] += 1
            return chosen

        self._set(TransparentProfiler, "choose", wrapped_choose)
        self._timed(TransparentProfiler, "record", "profiler",
                    "profiler.records")

        # driver: the KV cache's public allocation calls
        self._timed(KVCache, "admit", "driver", "kv.admits")
        self._timed(KVCache, "grow", "driver", "kv.grows")
        self._timed(KVCache, "release", "driver")

        # control plane and live migration
        self._timed(ClusterController, "run", "controlplane")
        self._timed(server.TallyServer, "checkpoint", "migrate")
        self._timed(server.TallyServer, "restore", "migrate")
        self._replace_function(server.migrate_client,
                               timed("migrate", server.migrate_client))

        # metrics: the summary builders
        self._set(LatencySummary, "of",
                  staticmethod(timed("metrics", LatencySummary.of)))
        self._set(ServingSummary, "of",
                  staticmethod(timed("metrics", ServingSummary.of)))

    def _timed(self, owner: type, name: str, layer: str,
               count: str | None = None) -> None:
        self._set(owner, name,
                  self.ledger.timed(layer, getattr(owner, name), count))
