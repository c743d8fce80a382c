"""Command-line runner: ``python -m repro <experiment>`` and ``serve``.

Regenerates any paper artifact from the terminal:

    python -m repro table6      # deployment cost & latency per architecture
    python -m repro table10     # multi-task sharing ledger
    python -m repro fig3        # inference timeline
    python -m repro all         # everything (slow: includes accuracy runs)

And runs the online serving runtime (see docs/serving.md):

    python -m repro serve --workload bursty --duration 60 --churn 0.1

And the AST invariant linter (see docs/analysis.md):

    python -m repro lint --format json

And the multi-cluster WAN federation (see docs/federation.md):

    python -m repro federation --study
    python -m repro federation --outage --parallel
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Dict


def _table6() -> str:
    from repro.experiments.table6 import render_table6

    return render_table6().render()


def _table7() -> str:
    from repro.experiments.table7 import render_table7

    return render_table7().render()


def _table8() -> str:
    from repro.experiments.table8 import render_table8

    return render_table8(samples=100).render()


def _table9() -> str:
    from repro.experiments.table9 import render_table9

    return render_table9().render()


def _table10() -> str:
    from repro.experiments.table10 import render_table10

    return render_table10().render()


def _table11() -> str:
    from repro.experiments.table11 import render_table11

    return render_table11().render()


def _fig3() -> str:
    from repro.experiments.fig3 import render_fig3

    return render_fig3()


def _optimality() -> str:
    from repro.experiments.optimality import run_optimality

    return run_optimality().render()


def _batching() -> str:
    from repro.experiments.batching import render_batching

    return render_batching()


def _ablations() -> str:
    from repro.experiments.ablations import render_ablations

    return render_ablations()


def _extensions() -> str:
    from repro.experiments.extensions import render_extensions

    return render_extensions()


def _energy() -> str:
    from repro.experiments.energy import render_energy

    return render_energy()


def _replicas() -> str:
    from repro.experiments.replicas import render_replicas

    return render_replicas()


def _validation() -> str:
    from repro.experiments.validation import render_validation

    return render_validation()


def _resilience() -> str:
    from repro.experiments.resilience import render_resilience

    return render_resilience()


EXPERIMENTS: Dict[str, Callable[[], str]] = {
    "table6": _table6,
    "table7": _table7,
    "table8": _table8,
    "table9": _table9,
    "table10": _table10,
    "table11": _table11,
    "fig3": _fig3,
    "optimality": _optimality,
    "batching": _batching,
    "ablations": _ablations,
    "extensions": _extensions,
    "energy": _energy,
    "replicas": _replicas,
    "resilience": _resilience,
    "validation": _validation,
}


#: Subcommands with their own argv (not experiment artifacts).
SUBCOMMANDS = ("serve", "lint", "federation")


def cli_commands() -> frozenset:
    """Every ``python -m repro <cmd>`` the CLI accepts.

    The docs-check script cross-references markdown invocations against
    this set, so a doc naming a command that does not exist fails CI.
    """
    return frozenset(EXPERIMENTS) | {"all"} | set(SUBCOMMANDS)


def lint_main(argv=None) -> int:
    """The ``lint`` subcommand: run the AST invariant checker."""
    from repro.analysis.runner import main as run_lint_cli

    return run_lint_cli(argv)


#: Default model mix for `serve`: three tasks sharing the ViT-B/16 tower.
DEFAULT_SERVE_MODELS = "clip-vit-b16,encoder-vqa-small,image-classification-vitb16"


def serve_main(argv=None) -> int:
    """The ``serve`` subcommand: run the online serving runtime."""
    from repro.serving import (
        WORKLOAD_KINDS,
        BrownoutPolicy,
        FaultPlan,
        RetryPolicy,
        ServingRuntime,
        SLOPolicy,
        WorkloadGenerator,
        fault_scenario,
        generate_churn,
        scenario_names,
    )

    def positive(text: str) -> float:
        value = float(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
        return value

    def non_negative(text: str) -> float:
        value = float(text)
        if not 0 <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text}")
        return value

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve a dynamic request stream on the emulated edge cluster.",
    )
    parser.add_argument("--workload", choices=WORKLOAD_KINDS, default="poisson",
                        help="arrival process shape (default: poisson)")
    parser.add_argument("--rate", type=positive, default=0.4,
                        help="base arrival rate in requests/second (default: 0.4)")
    parser.add_argument("--duration", type=positive, default=60.0,
                        help="arrival window in simulated seconds (default: 60)")
    parser.add_argument("--churn", type=non_negative, default=0.0,
                        help="device fail/recover events per simulated second (default: 0)")
    parser.add_argument("--faults", choices=scenario_names(), default=None,
                        help="inject a named fault scenario (seeded by --seed): "
                        "correlated regional outage, staggered compute stragglers, "
                        "or flaky/partitioning links — see docs/serving.md")
    parser.add_argument("--timeout", type=positive, default=None, metavar="SECONDS",
                        help="per-attempt timeout: cancel and re-route a module attempt "
                        "still unfinished after this many simulated seconds (default: off)")
    parser.add_argument("--max-retries", type=int, default=None,
                        help="total retry budget per request across timeouts and device "
                        "losses; exhausted requests terminate as timed out (default: "
                        "unlimited; required with --timeout)")
    parser.add_argument("--retry-backoff", type=non_negative, default=0.0, metavar="SECONDS",
                        help="exponential backoff base before each retry (default: 0)")
    parser.add_argument("--brownout", action="store_true",
                        help="enable the brownout controller: under backlog pressure, "
                        "shed the lowest-SLO-slack model classes first, restoring them "
                        "as pressure drains (hysteresis) — see docs/serving.md")
    parser.add_argument("--seed", type=int, default=0,
                        help="determinism seed for workload and churn (default: 0)")
    parser.add_argument("--models", default=DEFAULT_SERVE_MODELS,
                        help=f"comma-separated catalog models (default: {DEFAULT_SERVE_MODELS})")
    parser.add_argument("--slo-multiplier", type=positive, default=3.0,
                        help="deadline = multiplier x isolated latency (default: 3.0)")
    parser.add_argument("--no-admission", action="store_true",
                        help="admit everything (no SLO-based load shedding)")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="micro-batcher chunk cap (default: 8)")
    parser.add_argument("--batch-window", type=non_negative, default=0.0,
                        help="micro-batch accumulation window in seconds (default: 0)")
    parser.add_argument("--energy", action="store_true",
                        help="append the per-device energy ledger (active/idle/radio "
                        "joules, joules per request) to the report")
    parser.add_argument("--autoscale", action="store_true",
                        help="enable the serving-layer replica autoscaler (backlog-driven "
                        "add/drop of module replicas, load time charged as switching "
                        "cost); starts from a single-copy deployment so the autoscaler "
                        "owns replication — see docs/serving.md")
    parser.add_argument("--autoscale-interval", type=positive, default=0.5,
                        help="autoscaler control-loop period in simulated seconds (default: 0.5)")
    parser.add_argument("--max-replicas", type=int, default=3,
                        help="per-module replica cap for the autoscaler (default: 3)")
    parser.add_argument("--congestion-aware", action="store_true",
                        help="plan the deployment with the queue-aware exact solver: "
                        "arrival rates measured from the trace price per-device "
                        "expected waits into the placement objective (docs/placement.md)")
    args = parser.parse_args(argv)

    from repro.core.catalog import MODEL_CATALOG

    models = [name.strip() for name in args.models.split(",") if name.strip()]
    if not models:
        parser.error("--models needs at least one catalog model name")
    unknown = [name for name in models if name not in MODEL_CATALOG]
    if unknown:
        parser.error(
            f"unknown model(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(MODEL_CATALOG))}"
        )
    if args.max_batch < 1:
        parser.error("--max-batch must be >= 1")
    if args.slo_multiplier < 1.0:
        parser.error("--slo-multiplier must be >= 1")
    if args.max_replicas < 1:
        parser.error("--max-replicas must be >= 1")
    if args.max_retries is not None and args.max_retries < 0:
        parser.error("--max-retries must be >= 0")
    if args.timeout is not None and args.max_retries is None:
        parser.error("--timeout needs --max-retries: an unbounded retry budget "
                     "re-routes forever when every attempt outlasts the timeout")
    trace = WorkloadGenerator(
        models,
        kind=args.workload,
        rate_rps=args.rate,
        duration_s=args.duration,
        seed=args.seed,
    ).generate()
    runtime = ServingRuntime(
        models,
        slo=SLOPolicy(latency_multiplier=args.slo_multiplier, admission=not args.no_admission),
        max_batch_size=args.max_batch,
        batch_window_s=args.batch_window,
        # With the autoscaler on, start single-copy: replication becomes the
        # autoscaler's decision instead of a one-shot deployment pass.
        replicate=not args.autoscale,
        autoscale=args.autoscale,
        autoscale_interval_s=args.autoscale_interval,
        max_replicas=args.max_replicas,
        congestion_aware=args.congestion_aware,
        retry=RetryPolicy(
            timeout_s=args.timeout,
            max_retries=args.max_retries,
            backoff_s=args.retry_backoff,
        ),
        brownout=BrownoutPolicy() if args.brownout else None,
    )
    churn = generate_churn(
        runtime.device_names,
        requester=runtime.requester,
        rate_per_s=args.churn,
        duration_s=args.duration,
        seed=args.seed,
    )
    if args.faults:
        churn += fault_scenario(args.faults, duration_s=args.duration, seed=args.seed).events
    report = runtime.run(trace, faults=FaultPlan.ordered(churn))
    print(report.render(show_energy=args.energy))
    return 0


def federation_main(argv=None) -> int:
    """The ``federation`` subcommand: multi-cluster WAN spillover runs."""
    from repro.experiments.federation import (
        FEDERATION_SCENARIOS,
        STUDY_DURATION_S,
        STUDY_SEED,
        render_federation,
        study_fault_plans,
        study_runtime,
    )

    def positive(text: str) -> float:
        value = float(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    parser = argparse.ArgumentParser(
        prog="python -m repro federation",
        description="Federate timezone-offset edge clusters over priced WAN "
        "links and compare spillover routing against isolated clusters "
        "(see docs/federation.md).",
    )
    parser.add_argument("--study", action="store_true",
                        help="run the full scenario x mode study table "
                        f"(scenarios: {', '.join(FEDERATION_SCENARIOS)}) "
                        "instead of a single run")
    parser.add_argument("--duration", type=positive, default=STUDY_DURATION_S,
                        help="simulated seconds per cluster; the diurnal period "
                        f"scales with it (default: {STUDY_DURATION_S:g})")
    parser.add_argument("--seed", type=int, default=STUDY_SEED,
                        help="determinism seed; per-cluster workload seeds are "
                        f"derived from it by cluster name (default: {STUDY_SEED})")
    parser.add_argument("--no-spillover", action="store_true",
                        help="disable WAN forwarding (the isolated-clusters baseline)")
    parser.add_argument("--outage", action="store_true",
                        help="inject the regional outage (half of one cluster's "
                        "devices fail for the middle half of the run)")
    parser.add_argument("--parallel", action="store_true",
                        help="simulate clusters in separate worker processes; "
                        "the report is bit-identical to the sequential oracle")
    args = parser.parse_args(argv)

    if args.study:
        print(render_federation(args.duration, args.seed, parallel=args.parallel))
        return 0
    scenario = "regional-outage" if args.outage else "offset-diurnal"
    runtime = study_runtime(spillover=not args.no_spillover, duration_s=args.duration)
    report = runtime.run(
        args.seed,
        fault_plans=study_fault_plans(scenario, args.duration),
        parallel=args.parallel,
    )
    print(report.render())
    print(f"  scenario {scenario}, digest {report.digest()[:16]}")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "lint":
        return lint_main(argv[1:])
    if argv and argv[0] == "federation":
        return federation_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate S2M3 paper artifacts (tables, figures, stats).",
        epilog="Also: 'python -m repro serve --help' runs the online serving "
        "runtime, 'python -m repro lint' the AST invariant checker, and "
        "'python -m repro federation' the multi-cluster WAN federation.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which artifact to regenerate ('all' runs everything); "
        "see also the 'serve' and 'lint' subcommands",
    )
    args = parser.parse_args(argv)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        print(EXPERIMENTS[name]())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
