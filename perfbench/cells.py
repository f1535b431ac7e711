"""The benchmark's workloads: seeded inputs, set-up, one simulation.

A *cell* is one simulated scenario built from the run's seed.  Its
life has three steps, which the runner times separately:

``setup()``
    generate the inputs (kernel traces and MAF traffic) and compute the
    standalone baselines through :func:`repro.harness.standalone`, so
    the measured step finds them in its cache;
``run()``
    the measured step: the co-located simulation, then the baseline
    fetch a paper harness makes to normalise it (a cache hit);
``evaluate(outcome)``
    read the paper's metrics and the output checks from the finished
    simulation.  Untimed.

Every simulated metric is a pure function of the seed, so two runs of
one seed must agree exactly; the runner checks that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import harness
from repro.check import ServiceLedger, check_request_conservation
from repro.cluster import ClusterJob, Placement
from repro.cluster.controlplane import ClusterController
from repro.errors import InvariantViolation
from repro.harness import JobSpec, RunConfig
from repro.metrics import ServingSLO
from repro.traffic import maf_trace
from repro.workloads import LLM_MODELS, get_llm_model, get_model

#: every HP service's latency limit, as a multiple of its standalone
#: p99 (the control plane's default ``ClusterJob.sla_factor``)
SLA_FACTOR = ClusterJob("bert_infer").sla_factor

#: the LLM serving SLO's slack over the isolated tails
#: (``repro.harness.experiments.llm_colocation``'s default)
LLM_SLO_SLACK = 2.0

#: fewest samples a reported percentile must have beyond it
MIN_BEYOND = 10

#: the simulated end-to-end metrics every cell reports
SIMULATED = ("hp_p99_ratio", "sys_tput_norm", "ttft_p90_ratio",
             "itl_p99_ratio", "slo_attainment")

#: MAF spike ratio: 1.0 keeps the trace's per-second body and jitter
#: but no spike seconds (see README: a spike lands in a 10 s window one
#: seed in five and makes every tail bimodal across seeds)
BURST_RATIO = 1.0


def samples_beyond(count: int, percentile: float) -> int:
    """Samples strictly above the ``percentile``-th of ``count``."""
    return int(count * (100.0 - percentile) / 100.0)


@dataclass
class CellResult:
    """What one simulated cell produced."""

    events: int
    #: the five simulated end-to-end metrics
    metrics: dict[str, float]
    #: percentile name -> (samples, percentile) behind it
    samples: dict[str, tuple[int, float]]
    #: per-layer counts read from program state after the run
    counts: dict[str, int]
    #: output-check failures; empty when the cell passed
    failures: list[str]

    def fingerprint(self) -> tuple:
        """Exact simulated outputs, for the determinism check."""
        return (self.events, sorted(self.metrics.items()),
                sorted(self.samples.items()), sorted(self.counts.items()))


def _p(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _policy_counts(policies) -> dict[str, int]:
    """Tally scheduler counters, summed over distinct policy objects."""
    counts = {"tally.preemptions": 0, "tally.ptb_launches": 0,
              "tally.slices": 0}
    seen: set[int] = set()
    for policy in policies:
        if id(policy) in seen:
            continue
        seen.add(id(policy))
        stats = getattr(policy, "stats", None)
        if stats is None:
            continue
        counts["tally.preemptions"] += stats.preemptions
        counts["tally.ptb_launches"] += stats.ptb_launches
        counts["tally.slices"] += stats.slices_launched
    return counts


def _inference_checks(driver, failures: list[str]) -> None:
    """Request conservation of one inference service."""
    ledger = ServiceLedger(
        client_id=driver.client_id, arrivals=driver.arrivals_total,
        completed=len(driver.records), pending=driver.pending_requests,
        shed=driver.shed_requests,
    )
    try:
        check_request_conservation([ledger])
    except InvariantViolation as exc:
        failures.append(str(exc))
    if driver.arrivals_total != driver.traffic.count:
        failures.append(
            f"{driver.client_id}: {driver.arrivals_total} arrivals from a "
            f"trace of {driver.traffic.count}")


def _window_attainment(driver, arrivals, limit: float, since: float,
                       until: float) -> tuple[int, int]:
    """(met, arrived): HP requests arriving in the window that finished
    within ``limit``; shed and unfinished ones count as misses."""
    arrived = int(np.count_nonzero((arrivals >= since) & (arrivals < until)))
    met = sum(1 for r in driver.records
              if since <= r.arrival < until and r.latency <= limit)
    return met, arrived


# ---------------------------------------------------------------------------
# fig4 and llm_serve: one GPU, one HP service beside one training job
# ---------------------------------------------------------------------------

class ColocationCell:
    """One HP service (inference or LLM) beside one training job."""

    def __init__(self, policy: str, service: str, training: str, *,
                 load: float, seed: int, duration: float,
                 warmup: float) -> None:
        self.policy = policy
        self.service = service
        self.training = training
        self.load = load
        self.seed = seed
        self.config = RunConfig(duration=duration, warmup=warmup,
                                burst_ratio=BURST_RATIO)
        self.llm = service in LLM_MODELS
        self.jobs: list[JobSpec] = []
        #: layers the traced pass must spend time in, and no others
        self.layers = frozenset(
            ("engine", "device", "policy", "driver", "metrics")
            + (("profiler",) if policy == "Tally" else ()))

    def setup(self) -> None:
        config = self.config
        if self.llm:
            service_time = get_llm_model(self.service).mean_request_time()
        else:
            trace = get_model(self.service).build_trace(
                config.spec, seed=config.trace_seed)
            service_time = trace.duration
        traffic = maf_trace(self.load, service_time, config.duration,
                            spike_ratio=config.burst_ratio, seed=self.seed)
        role = "llm" if self.llm else "inference"
        self.jobs = [
            JobSpec(model=self.service, role=role, load=self.load,
                    traffic_seed=self.seed, traffic=traffic),
            JobSpec.training(self.training, traffic_seed=self.seed),
        ]
        for job in self.jobs:
            harness.standalone(job, config)

    def run(self):
        result = harness.run_colocation(self.policy, self.jobs, self.config)
        baselines = [harness.standalone(job, self.config)
                     for job in self.jobs]
        return result, baselines

    def evaluate(self, outcome) -> CellResult:
        result, (base_hp, base_be) = outcome
        start, end = self.config.window
        hp_id = f"{self.service}#0"
        be_id = f"{self.training}#0"
        hp, be = result.job(hp_id), result.job(be_id)
        driver = result.drivers[hp_id]
        trainer = result.drivers[be_id]
        failures: list[str] = []
        metrics = {
            "sys_tput_norm": (hp.normalized_rate(base_hp)
                              + be.normalized_rate(base_be)),
        }
        counts = {
            "be.iterations": trainer.iterations_completed,
            "llm.requests": 0, "llm.itl_samples": 0, "kv.evictions": 0,
        }
        counts.update(_policy_counts([driver.policy, trainer.policy]))
        if self.llm:
            samples = self._evaluate_llm(driver, hp, base_hp, metrics,
                                         counts, failures, start, end)
        else:
            samples = self._evaluate_inference(driver, hp, base_hp, metrics,
                                               counts, failures, start, end)
            _inference_checks(driver, failures)
        return CellResult(events=result.events, metrics=metrics,
                          samples=samples, counts=counts, failures=failures)

    @staticmethod
    def _evaluate_inference(driver, hp, base, metrics, counts, failures,
                            start, end) -> dict:
        """Request latency p99/p90, per-request service time and SLO."""
        latency = hp.latency
        service = [r.completed - r.started for r in driver.records
                   if start <= r.completed < end]
        metrics["hp_p99_ratio"] = latency.p99 / base.latency.p99
        metrics["ttft_p90_ratio"] = latency.p90 / base.latency.p90
        # an isolated request never queues at its median, so the
        # standalone p50 latency is the isolated service time
        metrics["itl_p99_ratio"] = _p(service, 99) / base.latency.p50
        met, arrived = _window_attainment(
            driver, driver.traffic.arrivals, SLA_FACTOR * base.latency.p99,
            start, end)
        metrics["slo_attainment"] = met / arrived
        counts["hp.requests"] = driver.arrivals_total
        return {"hp_p99_ratio": (latency.count, 99.0),
                "ttft_p90_ratio": (latency.count, 90.0),
                "itl_p99_ratio": (len(service), 99.0)}

    @staticmethod
    def _evaluate_llm(driver, hp, base, metrics, counts, failures,
                      start, end) -> dict:
        """TTFT p90, inter-token p99 and SLO attainment of the endpoint."""
        serving, ideal = hp.serving, base.serving
        metrics["ttft_p90_ratio"] = serving.ttft.p90 / ideal.ttft.p90
        metrics["itl_p99_ratio"] = (serving.inter_token.p99
                                    / ideal.inter_token.p99)
        # a token is the endpoint's unit of work: its p99 latency is
        # the inter-token p99 (TTFT has too few samples for a p99)
        metrics["hp_p99_ratio"] = metrics["itl_p99_ratio"]
        slo = ServingSLO.scaled_to_ideal(ideal.ttft.p90,
                                         ideal.inter_token.p99,
                                         slack=LLM_SLO_SLACK)
        window = [r for r in driver.requests if start <= r.arrival < end]
        met = sum(1 for r in window
                  if r.completed and slo.met_by(
                      r.ttft, max(r.inter_token_latencies(), default=0.0)))
        metrics["slo_attainment"] = met / len(window)
        requests = driver.requests
        counts["hp.requests"] = len(requests)
        counts["llm.requests"] = len(requests)
        counts["llm.itl_samples"] = serving.inter_token.count
        counts["kv.evictions"] = driver.evictions
        # conservation: arrived = completed + pending + shed + evicted
        completed = sum(1 for r in requests if r.completed)
        shed = sum(1 for r in requests if r.deadline_shed)
        evicted = sum(1 for r in requests if r.evicted)
        if len(requests) != (completed + driver.pending_requests + shed
                             + evicted):
            failures.append(
                f"{driver.client_id}: {len(requests)} arrived != "
                f"{completed} completed + {driver.pending_requests} pending "
                f"+ {shed} shed + {evicted} evicted")
        if len(requests) != driver.traffic.count:
            failures.append(
                f"{driver.client_id}: {len(requests)} arrivals from a trace "
                f"of {driver.traffic.count}")
        _kv_drain_check(driver, failures)
        return {"ttft_p90_ratio": (serving.ttft.count, 90.0),
                "itl_p99_ratio": (serving.inter_token.count, 99.0),
                "hp_p99_ratio": (serving.inter_token.count, 99.0)}


def _kv_drain_check(driver, failures: list[str]) -> None:
    """Every KV block allocated is freed once in-flight requests drain."""
    kv = driver.kv
    block = driver.model.kv_block_tokens
    held = kv.block_allocs - kv.block_frees
    if kv.manager.live_bytes() != held * block:
        failures.append(
            f"{driver.client_id}: KV pool holds {kv.manager.live_bytes()} "
            f"tokens but {held} blocks of {block} are outstanding")
    kv.release_all()
    if kv.block_allocs != kv.block_frees or kv.manager.live_bytes():
        failures.append(
            f"{driver.client_id}: KV drain left {kv.block_allocs} allocs vs "
            f"{kv.block_frees} frees, {kv.manager.live_bytes()} tokens live")


# ---------------------------------------------------------------------------
# cluster_failover: the control plane fails an HP service over
# ---------------------------------------------------------------------------

class FailoverCell:
    """Two GPUs, each an HP ``bert_infer`` beside ``whisper_train``, plus
    one spare; the GPU hosting the first HP service crashes mid-window."""

    HP_MODEL = "bert_infer"
    BE_MODEL = "whisper_train"
    #: checkpoint + transfer + restore of a GPU client, simulated seconds
    MIGRATION_DOWNTIME = 0.5
    #: simulated seconds after a restore during which the backlog the
    #: migration held drains; ``hp_p99_ratio`` leaves out requests
    #: arriving from the crash to the end of this margin (the backlog
    #: drained within 0.5 s on every seed probed)
    SETTLE = 1.0
    COMPUTE_BUDGET = 1.5
    layers = frozenset(("engine", "device", "policy", "profiler", "driver",
                        "controlplane", "migrate", "metrics"))

    def __init__(self, *, load: float, seed: int, duration: float,
                 warmup: float) -> None:
        self.config = RunConfig(duration=duration, warmup=warmup,
                                burst_ratio=BURST_RATIO)
        base = 16 * seed
        self.jobs = [
            ClusterJob(self.HP_MODEL, load=load, traffic_seed=base),
            ClusterJob(self.BE_MODEL, traffic_seed=base + 1),
            ClusterJob(self.HP_MODEL, load=load, traffic_seed=base + 2),
            ClusterJob(self.BE_MODEL, traffic_seed=base + 3),
        ]
        self.placement = Placement(bins=[self.jobs[:2], self.jobs[2:]])
        self.placement.validate()
        self.crash_at = (duration + warmup) / 2

    def _spec(self, job: ClusterJob) -> JobSpec:
        if job.latency_critical:
            return JobSpec.inference(job.model, load=job.load,
                                     traffic_seed=job.traffic_seed)
        return JobSpec.training(job.model, traffic_seed=job.traffic_seed)

    def setup(self) -> None:
        for job in self.jobs:
            harness.standalone(self._spec(job), self.config)

    def run(self):
        """The control-plane run; its conservation audit raising is an
        outcome for :meth:`evaluate` to report, not a crash."""
        controller = ClusterController(
            self.jobs, self.placement.gpus_used + 1,
            placement=self.placement, config=self.config,
            fail_device=((0, self.crash_at),),
            compute_budget=self.COMPUTE_BUDGET,
            migration_downtime=self.MIGRATION_DOWNTIME,
        )
        try:
            return controller, controller.run()
        except InvariantViolation as exc:
            return controller, exc

    def evaluate(self, outcome) -> CellResult:
        controller, result = outcome
        if isinstance(result, InvariantViolation):
            return CellResult(
                events=controller.engine.events_processed,
                metrics=dict.fromkeys(SIMULATED, float("nan")),
                samples={}, counts={}, failures=[str(result)])
        start, end = self.config.window
        failures: list[str] = []
        tenants = [t for shard in controller.shards
                   for t in shard.tenants.values()]
        if len(tenants) != len(self.jobs):
            failures.append(
                f"{len(self.jobs) - len(tenants)} tenant(s) lost or evicted")
        hp_tenants = [t for t in tenants if t.latency_critical]
        if result.invariant_checks < len(hp_tenants):
            failures.append(
                f"control plane audited {result.invariant_checks} "
                f"ledgers for {len(hp_tenants)} HP services")
        p99 = service_p99 = 0.0
        met = arrived = 0
        pooled: list[float] = []
        base_p90: list[float] = []
        samples: dict[str, tuple[int, float]] = {}
        hp_requests = 0
        for tenant in hp_tenants:
            driver = tenant.driver
            base = harness.standalone(tenant.spec, self.config)
            window = [r for r in driver.records if start <= r.completed < end]
            latencies = [r.latency for r in window]
            service = [r.completed - r.started for r in window]
            settled = self._settled(tenant, window)
            p99 = max(p99, _p(settled, 99) / base.latency.p99)
            pooled.extend(latencies)
            base_p90.append(base.latency.p90)
            service_p99 = max(service_p99, _p(service, 99) / base.latency.p50)
            arrivals = driver.traffic.arrivals
            arrivals = arrivals[arrivals >= tenant.admitted_at]
            m, a = _window_attainment(
                driver, arrivals, tenant.job.sla_factor * base.latency.p99,
                start, end)
            met += m
            arrived += a
            hp_requests += driver.arrivals_total
            samples[f"hp_p99_ratio[{tenant.client_id}]"] = (len(settled), 99.0)
            samples[f"itl_p99_ratio[{tenant.client_id}]"] = (len(service),
                                                             99.0)
        samples["ttft_p90_ratio"] = (len(pooled), 90.0)
        metrics = {
            "hp_p99_ratio": p99,
            # both HP services run one model: one standalone p90
            "ttft_p90_ratio": _p(pooled, 90) / float(np.median(base_p90)),
            "itl_p99_ratio": service_p99,
            "slo_attainment": met / arrived if arrived else 0.0,
            "sys_tput_norm": result.total_normalized_throughput,
        }
        counts = {
            "hp.requests": hp_requests,
            "be.iterations": sum(t.driver.iterations_completed
                                 for t in tenants if not t.latency_critical),
            "llm.requests": 0, "llm.itl_samples": 0, "kv.evictions": 0,
            "controlplane.admissions": controller.admitted,
            "controlplane.migrations": result.recovery.migrations,
        }
        counts.update(_policy_counts(s.policy for s in controller.shards))
        return CellResult(events=result.events, metrics=metrics,
                          samples=samples, counts=counts, failures=failures)

    def _settled(self, tenant, window) -> list[float]:
        """Latencies of the requests no migration held up: a migrated
        service drops those arriving from the crash until ``SETTLE``
        after its restore.  Their cost is in ``slo_attainment``."""
        if tenant.restored_at is None:
            return [r.latency for r in window]
        until = tenant.restored_at + self.SETTLE
        return [r.latency for r in window
                if not self.crash_at <= r.arrival < until]


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

def _fig4(policy: str):
    return lambda seed: ColocationCell(
        policy, "bert_infer", "whisper_train", load=0.5, seed=seed,
        duration=12.0, warmup=1.0)


#: workload name -> seed -> cell; README.md says why each is here.
#: The two fig4 cells are not in BENCHMARK.json (README: "Workloads")
#: but stay runnable for the paper-ordering check, Tally against TGS.
WORKLOADS = {
    "fig4_tally": _fig4("Tally"),
    "fig4_tgs": _fig4("TGS"),
    "llm_serve": lambda seed: ColocationCell(
        "Tally", "llama7b_serve", "resnet50_train", load=0.5, seed=seed,
        duration=30.0, warmup=1.0),
    "cluster_failover": lambda seed: FailoverCell(
        load=0.5, seed=seed, duration=13.0, warmup=1.0),
}
