"""Benchmark CLI for the safeguard experiments.

Subcommands: inspect-bench, detect-bench, attest-bench, use-case, run-all.
Exit codes: 0 all assertions passed, 1 detection failure, 2 near-RT budget
violation, 3 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .e2 import E2MessageKind
from .harness import (
    ConfigError,
    ConstraintViolation,
    DetectionFailure,
    detector_preset,
    inspector_preset,
    load_scenario_config,
    run_attestation_experiment,
    run_detector_experiment,
    run_inspector_experiment,
    run_use_case,
    train_detector_bundle,
    use_case_preset,
)
from .signatures import load_rulebook, synthetic_rulebook
from .timing import DEFAULT_COST_MODEL

_KIND_LABELS = {
    E2MessageKind.SETUP_REQUEST: "E2 Setup Request",
    E2MessageKind.SUBSCRIPTION_RESPONSE: "RIC Subscription Response",
    E2MessageKind.INDICATION: "RIC Indication",
    E2MessageKind.SUBSCRIPTION_DELETE_RESPONSE: "RIC Subscription Delete Response",
}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="scenario config file (flat key = value)")
    parser.add_argument("--seed", type=int, default=1, help="base RNG seed")
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="directory for CSV outputs")
    parser.add_argument("--runs", type=int, default=10, help="repetitions per experiment")
    parser.add_argument("--ues-per-cell", type=int, default=10)
    parser.add_argument("--af", type=str, default="1.2,1.3,1.4,1.5",
                        help="comma-separated amplification factors")
    parser.add_argument("--matcher", choices=("naive", "automaton"), default="naive")
    parser.add_argument("--deterministic-timing", action="store_true",
                        help="derive latencies from the cost model (byte-exact CSVs)")
    parser.add_argument("--rulebook", type=Path, default=None,
                        help="rulebook file (default: 100 synthetic patterns)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ricguard",
        description="Desk-scale benchmarks for the near-RT RIC runtime safeguards",
    )
    parser.set_defaults(trained_bundle=None)  # not a flag: one invocation's detector
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in (
        ("inspect-bench", "E2 message inspection latency and exactness"),
        ("detect-bench", "KPM poisoning detection across amplification factors"),
        ("attest-bench", "xApp attestation latency and injection detection"),
        ("use-case", "end-to-end consumer xApp with all safeguards"),
        ("run-all", "all four experiments"),
    ):
        cmd = sub.add_parser(name, help=descr)
        _add_common_flags(cmd)
        if name in ("use-case", "run-all"):
            cmd.add_argument("--ues-total", type=str, default="50,500",
                             help="comma-separated UE loads for the use case")
    return parser


def _rulebook(args):
    if args.rulebook is not None:
        return load_rulebook(args.rulebook)
    return synthetic_rulebook(count=100, seed=args.seed, action_codes="D")


def _scenario(args, preset_fn, **kwargs):
    if args.config is not None:
        return load_scenario_config(args.config)
    return preset_fn(seed=args.seed, **kwargs)


def _cost_model(args):
    return DEFAULT_COST_MODEL if args.deterministic_timing else None


def _trained_bundle(args):
    """Train on first use, so run-all's detect-bench and use-case share it."""
    if args.trained_bundle is None:
        args.trained_bundle = train_detector_bundle(_scenario(args, detector_preset))
    return args.trained_bundle


def cmd_inspect_bench(args) -> None:
    config = _scenario(args, inspector_preset, ues_per_cell=args.ues_per_cell)
    result = run_inspector_experiment(
        config, _rulebook(args), runs=args.runs, matcher_kind=args.matcher,
        cost_model=_cost_model(args), out_dir=args.out,
    )
    print(f"detection rate: {result.detection_rate_pct:.2f}% "
          f"({result.detected_injected}/{result.injected_total} injected), "
          f"false positives: {result.false_positives}/{result.benign_total}")
    print(f"{'message type':<34}{'avg (ms)':>12}{'max (ms)':>12}{'count':>8}")
    for kind in E2MessageKind:
        summary = result.summary(kind)
        if summary is None:
            continue
        note = "  (once per connection)" if kind is E2MessageKind.SETUP_REQUEST else ""
        print(f"{_KIND_LABELS[kind]:<34}{summary.average_ms:>12.4f}"
              f"{summary.maximum_ms:>12.4f}{summary.count:>8}{note}")


def cmd_detect_bench(args) -> None:
    config = _scenario(args, detector_preset)
    af_grid = tuple(float(v) for v in args.af.split(","))
    result = run_detector_experiment(
        config, af_grid=af_grid, runs=args.runs, bundle=_trained_bundle(args),
        cost_model=_cost_model(args), out_dir=args.out,
    )
    print(f"{'AF':<6}{'ADR (%)':>10}{'FPR (%)':>10}{'latency (ms)':>14}")
    for af in af_grid:
        metrics = result.per_af[af]
        print(f"{af:<6}{metrics.adr_pct:>10.2f}{metrics.fpr_pct:>10.2f}"
              f"{metrics.mean_latency_ms:>14.4f}")


def cmd_attest_bench(args) -> None:
    result = run_attestation_experiment(
        runs=args.runs, seed=args.seed, workdir=args.out,
        cost_model=_cost_model(args), out_dir=args.out,
    )
    for size in sorted(result.latencies_ms):
        print(f"{size} MB image: round 1 {result.round1_mean(size):.3f} ms, "
              f"steady {result.steady_mean(size):.3f} ms "
              f"({result.steady_per_mb(size):.4f} ms/MB)")
    print(f"injections detected: {result.injections_detected}/{result.injection_trials}, "
          f"clean-image violations: {result.clean_violations}")


def cmd_use_case(args) -> None:
    rulebook = _rulebook(args)
    loads = tuple(int(v) for v in args.ues_total.split(","))
    bundle = _trained_bundle(args)
    labels = {
        "inspector_ms": "E2 message inspection",
        "detector_ms": "KPM poisoning detection",
        "shift_ms": "data availability time shift",
    }
    for total_ues in loads:
        config = _scenario(args, use_case_preset, total_ues=total_ues)
        result = run_use_case(
            config, bundle, rulebook, runs=args.runs,
            cost_model=_cost_model(args), out_dir=args.out,
        )
        print(f"{total_ues} UEs ({args.runs} runs x {config.loops} loops, "
              f"worst loop {max(result.real_wall_ms):.2f} ms wall):")
        print(f"  {'measured time (ms)':<30}{'min':>9}{'max':>9}{'avg':>9}")
        for key, (low, high, avg) in result.summary_table().items():
            print(f"  {labels[key]:<30}{low:>9.2f}{high:>9.2f}{avg:>9.2f}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    commands = {
        "inspect-bench": (cmd_inspect_bench,),
        "detect-bench": (cmd_detect_bench,),
        "attest-bench": (cmd_attest_bench,),
        "use-case": (cmd_use_case,),
        "run-all": (cmd_inspect_bench, cmd_detect_bench, cmd_attest_bench, cmd_use_case),
    }
    try:
        for command in commands[args.command]:
            command(args)
    except DetectionFailure as exc:
        print(f"detection failure: {exc}", file=sys.stderr)
        return 1
    except ConstraintViolation as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
