"""Bench: online serving throughput scaling across arrival rates.

Sweeps the Poisson arrival rate from well under to well over the cluster's
service capacity and reports completed-throughput, goodput, and tail
latency at each point.  Asserts the qualitative serving claims:

- at low rate the runtime keeps up (completed == arrivals, SLOs met);
- completed throughput grows with offered load until capacity, then the
  admission controller sheds the excess instead of letting the tail blow up;
- micro-batching beats one-at-a-time service on a bursty stream.
"""

from repro.serving import ServingRuntime, SLOPolicy, WorkloadGenerator

MODELS = ["clip-vit-b16", "encoder-vqa-small", "image-classification-vitb16"]
DURATION_S = 60.0
RATES = (0.1, 0.3, 0.6, 1.2)


def _sweep():
    rows = []
    for rate in RATES:
        trace = WorkloadGenerator(
            MODELS, kind="poisson", rate_rps=rate, duration_s=DURATION_S, seed=7
        ).generate()
        report = ServingRuntime(MODELS).run(trace)
        rows.append((rate, report))
    return rows


def test_serving_rate_sweep(benchmark, once, capsys):
    rows = once(benchmark, _sweep)
    with capsys.disabled():
        print()
        print("rate(req/s)  arrivals  completed  rejected  goodput  p95(s)  attainment")
        for rate, report in rows:
            print(
                f"{rate:11.1f}  {report.arrivals:8d}  {report.completed:9d}  "
                f"{report.rejected:8d}  {report.goodput_rps:7.3f}  "
                f"{report.latency.p95:6.2f}  {100 * report.slo_attainment:9.1f}%"
            )

    by_rate = dict(rows)
    # Conservation holds at every load point.
    for _, report in rows:
        assert report.completed + report.rejected == report.arrivals
    # The lowest rate is comfortably served: nothing rejected, SLOs met.
    low = by_rate[RATES[0]]
    assert low.rejected == 0
    assert low.slo_met == low.completed == low.arrivals
    # Completed throughput does not collapse as offered load rises.
    completed = [report.completed / report.elapsed_s for _, report in rows]
    assert max(completed[1:]) >= completed[0]
    # Overload is shed, not queued: the top rate rejects a meaningful share
    # yet keeps the admitted tail bounded near the SLO deadline.
    top = by_rate[RATES[-1]]
    assert top.rejected > 0
    admitted_slos = [r.slo_s for r in top.records if r.admitted]
    assert top.latency.p95 <= 2.0 * max(admitted_slos)


def test_micro_batching_beats_serial_service(benchmark, once, capsys):
    """A bursty stream served with max_batch=8 vs batch-of-1."""
    trace = WorkloadGenerator(
        MODELS, kind="bursty", rate_rps=0.5, duration_s=DURATION_S, seed=11
    ).generate()
    # Admission off so both runs serve the identical request set.
    slo = SLOPolicy(admission=False)

    def run_pair():
        batched = ServingRuntime(MODELS, slo=slo, max_batch_size=8).run(trace)
        serial = ServingRuntime(MODELS, slo=slo, max_batch_size=1).run(trace)
        return batched, serial

    batched, serial = once(benchmark, run_pair)
    with capsys.disabled():
        print()
        print(
            f"batched : mean={batched.latency.mean:.2f}s p95={batched.latency.p95:.2f}s"
        )
        print(
            f"serial  : mean={serial.latency.mean:.2f}s p95={serial.latency.p95:.2f}s"
        )
    assert batched.completed == serial.completed == len(trace)
    # Footnote 4 batch scaling: aggregating shared-module work must not be
    # slower on average, and should win on the tail under bursts.
    assert batched.latency.mean <= serial.latency.mean * 1.01
    assert batched.latency.p95 <= serial.latency.p95 * 1.01
