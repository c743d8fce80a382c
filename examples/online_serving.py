#!/usr/bin/env python
"""Online serving walkthrough: dynamic workloads, SLOs, and device churn.

The batch experiments replay fixed request sets; this example runs the
continuous-serving runtime (`repro.serving`) through three scenarios:

1. a steady Poisson stream the cluster absorbs comfortably;
2. a bursty flash-crowd stream where admission control sheds load to
   protect the tail;
3. the same bursty stream under device churn — failed devices lose their
   in-flight work, the adaptive controller re-places modules, and every
   affected request is retried elsewhere (none are lost).

Run:  python examples/online_serving.py
"""

from repro.serving import FaultPlan, ServingRuntime, SLOPolicy, WorkloadGenerator, generate_churn

MODELS = ["clip-vit-b16", "encoder-vqa-small", "image-classification-vitb16"]
DURATION_S = 60.0
SEED = 0


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    runtime = ServingRuntime(MODELS, slo=SLOPolicy(latency_multiplier=3.0))

    # --- 1. Steady Poisson stream ---------------------------------------
    banner("1. Poisson stream at 0.2 req/s (comfortable)")
    trace = WorkloadGenerator(
        MODELS, kind="poisson", rate_rps=0.2, duration_s=DURATION_S, seed=SEED
    ).generate()
    print(f"generated {len(trace)} arrivals ({trace.observed_rate_rps:.2f} req/s observed)")
    print(runtime.run(trace).render())

    # --- 2. Bursty stream: admission control earns its keep -------------
    banner("2. Bursty stream (6x bursts): admission control sheds load")
    bursty = WorkloadGenerator(
        MODELS, kind="bursty", rate_rps=0.4, duration_s=DURATION_S, seed=SEED
    ).generate()
    with_admission = runtime.run(bursty)
    without_admission = ServingRuntime(
        MODELS, slo=SLOPolicy(latency_multiplier=3.0, admission=False)
    ).run(bursty)
    print(with_admission.render())
    print(
        f"\nadmission control: p95 {with_admission.latency.p95:.2f}s vs "
        f"{without_admission.latency.p95:.2f}s without it "
        f"(rejected {with_admission.rejected}/{with_admission.arrivals})"
    )

    # --- 3. Bursty stream + device churn --------------------------------
    banner("3. Bursty stream + churn: fail/recover, re-place, retry")
    churn = generate_churn(
        runtime.device_names,
        requester=runtime.requester,
        rate_per_s=0.08,
        duration_s=DURATION_S,
        seed=SEED,
    )
    report = runtime.run(bursty, faults=FaultPlan.ordered(churn))
    print(report.render())
    assert report.completed + report.rejected == report.arrivals
    print(
        f"\nconservation: {report.completed} completed + {report.rejected} rejected "
        f"== {report.arrivals} arrivals (no request lost or double-counted)"
    )


if __name__ == "__main__":
    main()
