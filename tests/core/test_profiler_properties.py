"""Property test: the profiler's decisions against a brute-force reference.

The reference is built from the selection rule as the profiler's module
docstring states it, over its own copy of the measurements:

* while a candidate is unmeasured, the first such candidate (in
  candidate order) is profiled;
* otherwise the fastest candidate whose turnaround meets the bound;
* if none does, the fastest of those within 2x of the lowest turnaround;
* "fastest" orders on (duration, turnaround), the earlier candidate
  winning a tie.

Measurements are drawn from a few coarse values so that ties, the
bound's edge and the 2x edge all occur often.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import TallyConfig, generate_candidates
from repro.core.profiler import _ALPHA, TransparentProfiler
from repro.gpu import A100_SXM4_40GB, KernelDescriptor

SPEC = A100_SXM4_40GB

_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: coarse sample values (seconds): ties and exact 2x ratios abound
VALUES = (1e-5, 2e-5, 4e-5, 8e-5)


def _rule(measured: list[tuple[int, float, float]], bound: float) -> int:
    """Index chosen by the docstring rule over ``(index, turnaround,
    duration)`` triples of measured candidates."""
    feasible = [r for r in measured if r[1] <= bound]
    if not feasible:
        best = min(r[1] for r in measured)
        feasible = [r for r in measured if r[1] <= 2.0 * best]
    return min(feasible, key=lambda r: (r[2], r[1], r[0]))[0]


class Reference:
    """Brute-force model of one descriptor's profile."""

    def __init__(self, profiler: TransparentProfiler,
                 descriptor: KernelDescriptor, prewarm: bool) -> None:
        self.candidates = list(profiler.candidates(descriptor))
        self.bound = profiler.config.turnaround_latency_bound
        self.values: list[list[float] | None] = [None] * len(self.candidates)
        self.prewarm = prewarm
        self.descriptor = descriptor
        self.config = profiler.config

    def record(self, i: int, turnaround: float, duration: float) -> None:
        old = self.values[i]
        if old is None:
            self.values[i] = [turnaround, duration]
        else:
            old[0] += _ALPHA * (turnaround - old[0])
            old[1] += _ALPHA * (duration - old[1])

    def _measured(self) -> list[tuple[int, float, float]]:
        return [(i, v[0], v[1]) for i, v in enumerate(self.values)
                if v is not None]

    def choose(self):
        if self.prewarm:
            # the analytic estimates fill what runtime samples have not,
            # once; a separate profiler supplies them
            self.prewarm = False
            estimator = TransparentProfiler(SPEC, self.config)
            estimator.prewarm(self.descriptor)
            for i, c in enumerate(self.candidates):
                if self.values[i] is None:
                    m = estimator.lookup(self.descriptor, c)
                    self.values[i] = [m.turnaround, m.duration]
        for i, v in enumerate(self.values):
            if v is None:
                return self.candidates[i], True
        return self.candidates[_rule(self._measured(), self.bound)], False

    def best_known(self):
        measured = self._measured()
        if not measured:
            return self.candidates[0]
        return self.candidates[_rule(measured, self.bound)]


@st.composite
def scenario(draw):
    descriptor = KernelDescriptor(
        "k",
        num_blocks=draw(st.sampled_from((2, 40, 300, 5000, 40000))),
        threads_per_block=draw(st.sampled_from((64, 256, 1024))),
        block_duration=draw(st.sampled_from((5e-6, 5e-5, 3e-4))),
    )
    config = TallyConfig(
        prewarm_profiles=draw(st.booleans()),
        turnaround_latency_bound=draw(st.sampled_from(VALUES)),
    )
    ops = draw(st.lists(
        st.one_of(
            st.just(("choose",)),
            st.tuples(st.just("record"), st.integers(0, 31),
                      st.sampled_from(VALUES), st.sampled_from(VALUES)),
        ),
        max_size=40,
    ))
    return descriptor, config, ops


@_settings
@given(scenario())
def test_choose_matches_reference(case):
    descriptor, config, ops = case
    profiler = TransparentProfiler(SPEC, config)
    reference = Reference(profiler, descriptor, config.prewarm_profiles)
    explores = decisions = 0
    for op in ops:
        if op[0] == "record":
            _, i, turnaround, duration = op
            i %= len(reference.candidates)
            profiler.record(descriptor, reference.candidates[i],
                            turnaround, duration)
            reference.record(i, turnaround, duration)
        else:
            chosen = profiler.choose(descriptor)
            assert chosen == reference.choose()
            explores += chosen[1]
            decisions += not chosen[1]
            if not chosen[1]:
                assert profiler.best_known(descriptor) == chosen[0]
        assert profiler.best_known(descriptor) == reference.best_known()
    assert (profiler.profiling_runs, profiler.decisions) == (
        explores, decisions)


@_settings
@given(scenario())
def test_records_of_equal_configs_land_on_the_candidate(case):
    """A configuration equal to a candidate but built elsewhere (the
    scheduler's degradation ladder regenerates candidates) is the same
    profile entry."""
    descriptor, config, _ops = case
    profiler = TransparentProfiler(SPEC, config)
    for c in generate_candidates(descriptor, SPEC, config):
        profiler.record(descriptor, c, 1e-5, 1e-4)
    for c in profiler.candidates(descriptor):
        assert profiler.lookup(descriptor, c).turnaround == 1e-5
