"""Golden outputs of one short LLM co-location run under Tally.

The simulator is deterministic, so hot-path rewrites must leave every
simulated number unchanged.  These values were captured from the
simulator before the profiler's one-table rewrite and the device
dispatch cuts; any change to them is a behaviour change, not noise.
"""

import pytest

from repro.harness import JobSpec, RunConfig, run_colocation

GOLDEN_EVENTS = 44720
GOLDEN_HP_P99 = 0.0018154361290321664
GOLDEN_SERVING = (
    "ServingSummary(completed=13, evicted=0, tokens=794, span=2.5, "
    "ttft=LatencySummary(count=13, mean=0.001723416911519594, "
    "p50=0.001594916009297176, p90=0.002523800000000254, "
    "p99=0.0029529762568335635, max=0.0030045184736744446), "
    "inter_token=LatencySummary(count=781, mean=0.001781808022024256, "
    "p50=0.001773290000003147, p90=0.001797640405610812, "
    "p99=0.0018154361290321664, max=0.00453982105077233), good=13)"
)
GOLDEN_TRAINING_ITERATIONS = 21


@pytest.mark.parametrize("check", [False, True])
def test_llm_tally_run_is_bit_identical(check):
    result = run_colocation(
        "Tally",
        [JobSpec.llm("llama7b_serve"), JobSpec.training("resnet50_train")],
        RunConfig(duration=3.0, warmup=0.5),
        check=check,
    )
    (llm,) = result.llm_results()
    (training,) = result.training_results()
    assert result.events == GOLDEN_EVENTS
    assert llm.serving.inter_token.p99 == GOLDEN_HP_P99
    assert repr(llm.serving) == GOLDEN_SERVING
    assert training.completed == GOLDEN_TRAINING_ITERATIONS
    assert (result.invariant_checks > 0) is check
