"""Tally's transparent profiler (paper §4.2).

Tally cannot require offline profiling (its criticism of Orion), so it
measures candidate launch configurations *on the fly*: the first
executions of a best-effort kernel each try one candidate and record
two quantities —

* **turnaround latency**: how quickly the configuration releases the
  GPU on preemption (a slice's completion time, or a PTB launch's
  per-iteration time via the paper's ``kernel_latency /
  (total_blocks / worker_blocks)`` heuristic);
* **duration**: the kernel's total execution time under the
  configuration (the best-effort throughput cost).

Once every candidate has a measurement, :meth:`TransparentProfiler.
choose` returns the fastest configuration whose turnaround meets the
bound; if none does, the fastest of those within 2x of the lowest
turnaround.  "Fastest" orders on (duration, turnaround), and the
earlier candidate wins a tie.  Repeat measurements update an
exponential moving average, so the profile adapts if co-location
conditions shift.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SchedulerError
from ..gpu.kernel import KernelDescriptor
from ..gpu.specs import GPUSpec
from .candidates import SchedConfig, SchedKind, generate_candidates
from .config import TallyConfig

__all__ = ["Measurement", "TransparentProfiler"]

#: EWMA weight of a new sample.
_ALPHA = 0.3


@dataclass
class Measurement:
    """Running measurement of one (kernel, configuration) pair."""

    turnaround: float
    duration: float
    samples: int = 1

    def update(self, turnaround: float, duration: float) -> None:
        """Fold in one more sample (exponential moving average)."""
        self.turnaround += _ALPHA * (turnaround - self.turnaround)
        self.duration += _ALPHA * (duration - self.duration)
        self.samples += 1


class TransparentProfiler:
    """Runtime measurement cache for best-effort launch configurations."""

    def __init__(self, spec: GPUSpec, config: TallyConfig) -> None:
        self.spec = spec
        self.config = config
        # One table keyed on the full (frozen, hashable) descriptor,
        # never the bare name: two kernels sharing a name with different
        # launch geometry (blocks, threads, shared memory) have different
        # candidate sets and must not inherit each other's profile.  An
        # entry holds the descriptor's candidates in profiling order as
        # [config, measurement] records (measurement None until known).
        self._profiles: dict[KernelDescriptor, list[list]] = {}
        self.profiling_runs = 0
        self.decisions = 0

    def _records(self, descriptor: KernelDescriptor) -> list[list]:
        records = self._profiles.get(descriptor)
        if records is None:
            records = [[c, None] for c in generate_candidates(
                descriptor, self.spec, self.config)]
            self._profiles[descriptor] = records
        return records

    # ------------------------------------------------------------------
    def prewarm(self, descriptor: KernelDescriptor) -> None:
        """Seed every candidate with the analytic cost model's estimate.

        Models a server whose profile cache is already warm; runtime
        measurements keep refining the entries.
        """
        for record in self._records(descriptor):
            if record[1] is not None:
                continue
            candidate = record[0]
            if candidate.kind is SchedKind.SLICED:
                turnaround = descriptor.slice_duration(
                    self.spec, candidate.blocks_per_slice)
                duration = descriptor.sliced_duration(
                    self.spec, candidate.blocks_per_slice)
            elif candidate.kind is SchedKind.PTB:
                turnaround = descriptor.ptb_iteration_duration()
                duration = descriptor.ptb_duration(candidate.workers)
            else:
                turnaround = descriptor.duration(self.spec)
                duration = turnaround
            record[1] = Measurement(turnaround, duration)

    # ------------------------------------------------------------------
    def candidates(self, descriptor: KernelDescriptor) -> list[SchedConfig]:
        """Candidate configurations for ``descriptor``, in profiling order."""
        return [config for config, _ in self._records(descriptor)]

    def lookup(self, descriptor: KernelDescriptor,
               config: SchedConfig) -> Measurement | None:
        """The stored measurement, or None if never profiled."""
        record = _find(self._profiles.get(descriptor, []), config)
        return record[1] if record is not None else None

    def record(self, descriptor: KernelDescriptor, config: SchedConfig,
               turnaround: float, duration: float) -> None:
        """Store one measurement sample of one of ``descriptor``'s
        candidates."""
        if not (turnaround >= 0 and duration >= 0):  # NaN fails too
            raise SchedulerError("measurements must be non-negative")
        record = _find(self._records(descriptor), config)
        if record is None:
            raise SchedulerError(
                f"{config.describe()} is not a candidate of {descriptor.name}")
        if record[1] is None:
            record[1] = Measurement(turnaround, duration)
        else:
            record[1].update(turnaround, duration)

    # ------------------------------------------------------------------
    def choose(self, descriptor: KernelDescriptor) -> tuple[SchedConfig, bool]:
        """Pick the launch configuration for one best-effort execution.

        Returns ``(config, is_profiling_run)``.  While unmeasured
        candidates remain, each execution profiles the next one; after
        that, the best measured configuration is used (paper Fig. 3,
        ``launch_and_profile``).  With ``prewarm_profiles`` the first
        call seeds every candidate, so no execution profiles.
        """
        records = self._records(descriptor)
        for config, measurement in records:
            if measurement is None:
                if self.config.prewarm_profiles:
                    self.prewarm(descriptor)
                    break
                self.profiling_runs += 1
                return config, True
        self.decisions += 1
        return self._select(records), False

    def best_known(self, descriptor: KernelDescriptor) -> SchedConfig:
        """The configuration :meth:`choose` would settle on (no profiling)."""
        records = self._records(descriptor)
        measured = [r for r in records if r[1] is not None]
        return self._select(measured) if measured else records[0][0]

    def _select(self, records: list[list]) -> SchedConfig:
        """The selection rule (module docstring) over measured records.

        When nothing meets the bound, chasing the absolute minimum
        turnaround can be ruinous (a sub-capacity slice releases the GPU
        marginally sooner than a PTB launch but serializes partial
        waves, multiplying the kernel's duration), hence the 2x pool.
        """
        chosen = _fastest(records, self.config.turnaround_latency_bound)
        if chosen is None:
            best = min(m.turnaround for _, m in records)
            chosen = _fastest(records, 2.0 * best)
        return chosen


def _find(records: list[list], config: SchedConfig) -> list | None:
    """The record of ``config``, or None.  choose() hands out the stored
    objects, so identity usually matches before any dataclass __eq__."""
    for record in records:
        if record[0] is config:
            return record
    for record in records:
        if record[0] == config:
            return record
    return None


def _fastest(records: list[list], limit: float) -> SchedConfig | None:
    """The first config with the least (duration, turnaround) among the
    records whose turnaround is at most ``limit``; None if there is none.
    (Measurements are never NaN, so this is the tuple order.)"""
    chosen = best = None
    for config, m in records:
        if m.turnaround > limit:
            continue
        if best is None or m.duration < best.duration or (
                m.duration == best.duration
                and m.turnaround < best.turnaround):
            chosen, best = config, m
    return chosen
