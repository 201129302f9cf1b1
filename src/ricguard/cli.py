"""Benchmark CLI for the safeguard experiments.

Subcommands: inspect-bench, detect-bench, attest-bench, use-case, run-all.
Each subcommand accepts only the flags its experiment reads; run-all takes
them all. A command checks its scenarios and inputs, then returns the run of
its experiment, so every command of an invocation is checked before the
detector trains or the first experiment runs. Exit codes: 0 all assertions
passed, 1 detection failure, 2 near-RT budget violation, 3 configuration or
usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path

from .e2 import E2MessageKind
from .harness import (
    ConfigError,
    ConstraintViolation,
    DetectionFailure,
    detector_preset,
    inspector_preset,
    load_scenario_config,
    require_poisoning,
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


def _numbers(kind, minimum, many=False):
    """argparse type: a finite ``kind`` value of at least ``minimum`` or, with
    ``many``, a comma-separated tuple of them."""
    def parse(text: str):
        values = tuple(kind(v) for v in text.split(",")) if many else (kind(text),)
        if not all(minimum <= v < math.inf for v in values):  # also rejects NaN
            raise argparse.ArgumentTypeError(f"expected {kind.__name__} >= {minimum}, got {text!r}")
        return values if many else values[0]
    parse.__name__ = kind.__name__
    return parse


#: every flag; each subcommand takes only the ones its experiment reads
_FLAGS = {
    "--seed": dict(type=_numbers(int, 0), default=1, help="base RNG seed"),
    "--out": dict(type=Path, default=Path("out"), help="directory for CSV outputs"),
    "--runs": dict(type=_numbers(int, 1), default=10, help="repetitions per experiment"),
    "--deterministic-timing": dict(action="store_true",
                                   help="derive latencies from the cost model (byte-exact CSVs)"),
    "--config": dict(type=Path, default=None, help="scenario config file (flat key = value)"),
    "--rulebook": dict(type=Path, default=None,
                       help="rulebook file (default: 100 synthetic patterns)"),
    "--ues-per-cell": dict(type=_numbers(int, 1), help="UEs per cell (default 10)"),
    "--af": dict(type=_numbers(float, 1.0, many=True), default="1.2,1.3,1.4,1.5",
                 help="comma-separated amplification factors"),
    "--ues-total": dict(type=_numbers(int, 1, many=True),
                        help="comma-separated UE loads for the use case (default 50,500)"),
}
_COMMON = ("--seed", "--out", "--runs", "--deterministic-timing")
_COMMANDS = {
    "inspect-bench": ("E2 message inspection latency and exactness",
                      ("--config", "--rulebook", "--ues-per-cell")),
    "detect-bench": ("KPM poisoning detection across amplification factors",
                     ("--config", "--af")),
    "attest-bench": ("xApp attestation latency and injection detection", ()),
    "use-case": ("end-to-end consumer xApp with all safeguards",
                 ("--config", "--rulebook", "--ues-total")),
    "run-all": ("all four experiments", tuple(f for f in _FLAGS if f not in _COMMON)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ricguard",
        description="Desk-scale benchmarks for the near-RT RIC runtime safeguards",
    )
    parser.set_defaults(trained_bundle=None)  # not a flag: one invocation's detector
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (descr, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=descr)
        for flag in _COMMON + flags:
            cmd.add_argument(flag, **_FLAGS[flag])
    return parser


def _rulebook(args):
    if args.rulebook is not None:
        try:
            book = load_rulebook(args.rulebook)
        except ValueError as exc:  # a malformed line, hex pattern or action code
            raise ConfigError(str(exc)) from None
        if not len(book):
            raise ConfigError(f"{args.rulebook}: no signatures")
        return book
    return synthetic_rulebook(count=100, seed=args.seed, action_codes="D")


def _scenario(args, preset_fn, **kwargs):
    """The --config scenario, or the preset for --seed and the flags given;
    a flag that shapes the preset is a usage error next to --config."""
    if args.config is None:
        try:
            return preset_fn(seed=args.seed, **{k: v for k, v in kwargs.items() if v is not None})
        except ValueError as exc:  # a flag value the scenario cannot run
            raise ConfigError(str(exc)) from exc
    for flag in ("ues_per_cell", "ues_total"):
        if getattr(args, flag, None) is not None:
            raise ConfigError(f"--{flag.replace('_', '-')} cannot be combined with --config")
    return load_scenario_config(args.config)


def _cost_model(args):
    return DEFAULT_COST_MODEL if args.deterministic_timing else None


def _trained_bundle(args):
    """Train on first use, so run-all's detect-bench and use-case share it."""
    if args.trained_bundle is None:
        args.trained_bundle = train_detector_bundle(_scenario(args, detector_preset))
    return args.trained_bundle


def cmd_inspect_bench(args) -> Callable[[], None]:
    config = _scenario(args, inspector_preset, ues_per_cell=args.ues_per_cell)
    rulebook = _rulebook(args)

    def run() -> None:
        result = run_inspector_experiment(
            config, rulebook, runs=args.runs, cost_model=_cost_model(args), out_dir=args.out,
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
    return run


def cmd_detect_bench(args) -> Callable[[], None]:
    config = _scenario(args, detector_preset)
    require_poisoning(config)
    for af in args.af:
        try:
            replace(config, amplification_factor=af)
        except ValueError as exc:
            raise ConfigError(f"--af {af}: {exc}") from None

    def run() -> None:
        result = run_detector_experiment(
            config, af_grid=args.af, runs=args.runs, bundle=_trained_bundle(args),
            cost_model=_cost_model(args), out_dir=args.out,
        )
        print(f"{'AF':<6}{'ADR (%)':>10}{'FPR (%)':>10}{'latency (ms)':>14}")
        for af in args.af:
            metrics = result.per_af[af]
            print(f"{af:<6}{metrics.adr_pct:>10.2f}{metrics.fpr_pct:>10.2f}"
                  f"{metrics.mean_latency_ms:>14.4f}")
    return run


def cmd_attest_bench(args) -> Callable[[], None]:
    def run() -> None:
        result = run_attestation_experiment(
            runs=args.runs, seed=args.seed, cost_model=_cost_model(args), out_dir=args.out,
        )
        for size in sorted(result.latencies_ms):
            print(f"{size} MB image: round 1 {result.round1_mean(size):.3f} ms, "
                  f"steady {result.steady_mean(size):.3f} ms "
                  f"({result.steady_per_mb(size):.4f} ms/MB)")
        print(f"injections detected: {result.injections_detected}/{result.injection_trials}, "
              f"clean-image violations: {result.clean_violations}")
    return run


def cmd_use_case(args) -> Callable[[], None]:
    rulebook = _rulebook(args)
    # --config is one scenario; without it, each UE load is one
    configs = [_scenario(args, use_case_preset, total_ues=total_ues)
               for total_ues in args.ues_total or ((50, 500) if args.config is None else (None,))]
    labels = {
        "inspector_ms": "E2 message inspection",
        "detector_ms": "KPM poisoning detection",
        "shift_ms": "data availability time shift",
    }

    def run() -> None:
        bundle = _trained_bundle(args)
        for config in configs:
            result = run_use_case(
                config, bundle, rulebook, runs=args.runs,
                cost_model=_cost_model(args), out_dir=args.out,
            )
            print(f"{result.total_ues} UEs ({args.runs} runs x {config.loops} loops, "
                  f"worst loop {max(result.real_wall_ms):.2f} ms wall):")
            print(f"  {'measured time (ms)':<30}{'min':>9}{'max':>9}{'avg':>9}")
            for key, (low, high, avg) in result.summary_table().items():
                print(f"  {labels[key]:<30}{low:>9.2f}{high:>9.2f}{avg:>9.2f}")
    return run


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 3 if exc.code else 0
    commands = {
        "inspect-bench": (cmd_inspect_bench,),
        "detect-bench": (cmd_detect_bench,),
        "attest-bench": (cmd_attest_bench,),
        "use-case": (cmd_use_case,),
        "run-all": (cmd_inspect_bench, cmd_detect_bench, cmd_attest_bench, cmd_use_case),
    }
    try:
        runs = [command(args) for command in commands[args.command]]
        args.out.mkdir(parents=True, exist_ok=True)
        for run in runs:
            run()
    except DetectionFailure as exc:
        print(f"detection failure: {exc}", file=sys.stderr)
        return 1
    except ConstraintViolation as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return 2
    # also an operator file that cannot be read: a missing or unreadable
    # --config or --rulebook, a directory in their place, an --out path that is a file
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
