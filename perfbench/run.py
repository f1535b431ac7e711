"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload llm_serve --seed 1 \
        --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics in rounds.  Each round
times one measured simulation pass; the first :data:`SETUP_ROUNDS`
rounds first time an ``import repro`` probe in a fresh interpreter and
a cold set-up.  Rounds start while ``--seconds`` lasts, and there are
at least :data:`SETUP_ROUNDS`.  ``setup_s`` is the fastest import
probe plus the fastest set-up, ``run_s`` the fastest pass: the host
runs in slow and fast stretches, and the minimum is the estimate a
slow stretch moves least.  The run also reports peak memory
and the paper's simulated isolation metrics.  ``--trace 1`` sets up
once, times two untraced passes, then runs the
simulation once more with every layer wrapped (see ``ledger.py``) and
reports the per-layer metrics.  Either way the run checks its outputs,
prints every metric by name with its unit, and ends with one JSON
line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: rounds that also time an import probe and a cold set-up; every run
#: makes at least this many, so the cross-pass determinism check runs
SETUP_ROUNDS = 3

#: the import a set-up pays, timed in a fresh interpreter
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, {src!r})\n"
    "start = time.perf_counter()\n"
    "import repro, repro.harness, repro.cluster.controlplane\n"
    "print(time.perf_counter() - start)\n"
)

END_TO_END = (
    ("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("run_ok_frac", "fraction"), ("hp_p99_ratio", "ratio"),
    ("sys_tput_norm", "ratio"), ("ttft_p90_ratio", "ratio"),
    ("itl_p99_ratio", "ratio"), ("slo_attainment", "fraction"),
)

PER_LAYER_COUNTS = (
    "standalone.calls", "standalone.hits",
    "engine.events", "engine.scheduled", "engine.cancelled",
    "device.submits", "device.preempts",
    "policy.submits", "tally.preemptions", "tally.ptb_launches",
    "tally.slices",
    "profiler.chooses", "profiler.records",
    "hp.requests", "be.iterations", "llm.requests", "llm.itl_samples",
    "kv.admits", "kv.grows", "kv.evictions",
    "controlplane.admissions", "controlplane.migrations",
)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_seconds() -> float:
    """Wall time of importing the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(src=SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


class Run:
    """One benchmark process: set-ups, measured passes, checks."""

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        from cells import WORKLOADS

        self.name = name
        self.build = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.cell = None
        self.reference = None  # CellResult of the first pass
        self.imports: list[float] = []
        self.setups: list[float] = []
        self.walls: list[float] = []

    def setup(self) -> None:
        """Set a fresh cell up from a cold standalone cache."""
        from repro.harness import clear_standalone_cache

        clear_standalone_cache()
        cell = self.build(self.seed)
        _, elapsed = _timed(cell.setup)
        self.setups.append(elapsed)
        self.cell = cell

    def one_pass(self):
        """One measured simulation, evaluated and checked."""
        outcome, elapsed = _timed(self.cell.run)
        self.walls.append(elapsed)
        result = self.cell.evaluate(outcome)
        self.check(result, "simulated outputs differ between passes "
                           "of one seed")
        return result

    def check(self, result, differs: str, extra=()) -> None:
        """Count one pass; it fails on any output check, or when its
        simulated outputs differ from the first pass's."""
        self.attempted += 1
        failures = list(result.failures) + _output_failures(result)
        failures.extend(extra)
        if self.reference is None:
            self.reference = result
        elif result.fingerprint() != self.reference.fingerprint():
            failures.append(differs)
        if failures:
            self.failed += 1
            self.failures.extend(failures)

    def measure(self) -> None:
        """Rounds of one pass, the first :data:`SETUP_ROUNDS` preceded
        by an import probe and a cold set-up; another round starts
        while ``seconds`` lasts."""
        start = time.perf_counter()
        while (len(self.walls) < SETUP_ROUNDS
               or time.perf_counter() - start < self.seconds):
            if len(self.walls) < SETUP_ROUNDS:
                self.imports.append(_import_seconds())
                self.setup()
            self.one_pass()


def _output_failures(result) -> list[str]:
    """Checks every pass makes beyond the cell's own: each percentile
    rests on enough samples, and each simulated metric is finite."""
    from cells import MIN_BEYOND, samples_beyond

    failures = []
    for name, (count, q) in sorted(result.samples.items()):
        beyond = samples_beyond(count, q)
        if beyond < MIN_BEYOND:
            failures.append(f"{name}: p{q:g} of {count} samples has only "
                            f"{beyond} beyond it (need {MIN_BEYOND})")
    for name, value in sorted(result.metrics.items()):
        if not (math.isfinite(value) and value > 0):
            failures.append(f"{name} is {value}, not a positive number")
    return failures


def _end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    from cells import SIMULATED

    values = {
        "run_s": min(run.walls),
        "setup_s": min(run.imports) + min(run.setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "run_ok_frac": (run.attempted - run.failed) / run.attempted,
    }
    values.update({name: run.reference.metrics[name] for name in SIMULATED})
    return {name: (values[name], unit) for name, unit in END_TO_END}


def _ledger_failures(ledger, layers: frozenset) -> list[str]:
    """Checks on the traced pass's attribution.

    Layer self times plus ``unattributed`` equal the traced wall time
    by construction, so the checks that can fail are these: every key
    the ledger booked is a known layer, and the layers that spent time
    are exactly the ones the cell is built to reach.
    """
    from ledger import LAYERS

    failures = []
    unknown = set(ledger.self_s) - set(LAYERS) - {"unattributed"}
    if unknown:
        failures.append(f"ledger booked time to unknown layers "
                        f"{sorted(unknown)}")
    busy = {layer for layer in LAYERS if ledger.self_s[layer] > 0}
    if busy != layers:
        failures.append(f"traced pass spent time in {sorted(busy)}, "
                        f"expected {sorted(layers)}")
    if not ledger.balanced:
        failures.append("traced run left spans open")
    return failures


def _per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """Traced set-up and pass, checked against the untraced passes."""
    from ledger import LAYERS, Ledger, Probe
    from repro.harness import clear_standalone_cache

    run.imports = [_import_seconds() for _ in range(2)]
    clear_standalone_cache()
    setup_ledger = Ledger()
    cell = run.build(run.seed)
    with Probe(setup_ledger, "setup"):
        setup_ledger.measure(cell.setup)
    run.cell = cell
    for _ in range(2):
        run.one_pass()
    untraced = min(run.walls)

    ledger = Ledger()
    with Probe(ledger, "run"):
        outcome = ledger.measure(cell.run)
    traced = cell.evaluate(outcome)
    counts = ledger.counts
    extra = _ledger_failures(ledger, cell.layers)
    if counts["engine.events"] != traced.events:
        extra.append(f"engine.events {counts['engine.events']} != "
                     f"{traced.events} events simulated")
    run.check(traced, "traced simulation differs from the untraced one",
              extra)

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{run.name}-{run.seed}.json")
    ledger.write(path, {"workload": run.name, "seed": run.seed,
                        "phase": "run"})

    merged = dict(counts)
    merged.update(traced.counts)
    merged["standalone.calls"] = (setup_ledger.counts["standalone.calls"]
                                  + counts["standalone.calls"])
    merged["standalone.hits"] = (setup_ledger.counts["standalone.hits"]
                                 + counts["standalone.hits"])
    chooses = counts["profiler.chooses"]
    values: dict[str, tuple[float, str]] = {
        "import_s": (min(run.imports), "s"),
        "standalone.self_s": (setup_ledger.self_s["standalone"], "s"),
    }
    for name in PER_LAYER_COUNTS:
        values[name] = (merged.get(name, 0), "count")
    values["profiler.explore_frac"] = (
        counts["profiler.explores"] / chooses if chooses else 0.0,
        "fraction")
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (ledger.self_s[layer], "s")
    values["unattributed.self_s"] = (ledger.unattributed_s(), "s")
    values["trace.run_s"] = (ledger.wall_s, "s")
    values["trace.overhead"] = (ledger.wall_s / untraced, "ratio")
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return _fail(f"no repro package under {SRC}; run from the root "
                     "of a checkout")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        return _fail(f"imported repro from {repro.__file__}, not {SRC}")
    from cells import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")

    run = Run(args.workload, args.seed, args.seconds)
    if args.trace:
        metrics = _per_layer(run)
    else:
        run.measure()
        metrics = _end_to_end(run)
    for name, (value, _unit) in metrics.items():
        if not math.isfinite(value):
            run.failures.append(f"{name} is not finite: {value}")
    correct = not run.failures

    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {run.attempted}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:>16.6g} {unit}")
    for label, times in (("import probes", run.imports),
                         ("set-ups", run.setups), ("passes", run.walls)):
        print(f"  {label + ' (s)':<26} "
              + " ".join(f"{t:.3f}" for t in times))
    print(f"  {'events simulated':<26} {run.reference.events}")
    for failure in run.failures:
        print(f"  CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
