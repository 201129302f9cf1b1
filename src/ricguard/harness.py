"""Scenario runner: wires emulator, safeguards, store, and consumer xApp.

Reproduces the four desk-scale experiments — inspection latency, poisoning
detection across amplification factors, attestation latency/completeness,
and the end-to-end use case measuring the data-availability shift that the
safeguards impose on a consumer xApp.

Every experiment repeats over ``runs`` seeds and reports min/max/avg. The
safeguards time themselves by wall clock, which is hardware-dependent. Pass
a :class:`CostModel` and the runners here charge it for the work counts the
safeguards report instead (scan comparisons, scored records, attested
bytes, decoded and stored data), for deterministic (byte-identical) CSV
output. The near-RT loop budget is always checked against real wall time.

CSV schemas (exact headers)::

    inspector:   run,loop,msg_kind,node_id,verdict,inspect_ns,hits
    detector:    af,adr_pct,fpr_pct,latency_ms
    attestation: size_mb,round,latency_ms,outcome
    use case:    run,loop,inspector_ms,detector_ms,shift_ms,loop_wall_ms
"""

from __future__ import annotations

import gc
import random
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .attestation import (
    DEFAULT_ATTESTATION_PERIOD_S,
    AttestationEngine,
    RoundResult,
    VerificationResult,
    XappImage,
    inject_code,
)
from .detector import (
    DetectorBundle,
    DetectorMetrics,
    ScoredRecord,
    StreamingDetector,
    calibrate_threshold,
    evaluate,
)
from .e2 import E2CodecError, E2Message, E2MessageKind, decode_frame, decode_kpm_payload
from .emulator import (
    GroundTruthLabel,
    RanEmulator,
    ScenarioConfig,
    TICK_MS,
    write_ground_truth_csv,
)
from .inspector import (
    IngressInspector,
    InspectionOutcome,
    LatencySummary,
    Verdict,
    latency_summary,
)
from .kpm import KpmRecord, build_windows, fit_scaler
from .mitigation import (
    Blocklist,
    DetectionEvent,
    Magnitude,
    MitigationPolicy,
    MitigationState,
    XappTier,
    apply_actions,
    parse_action_codes,
    resolve_attestation_event,
    resolve_inspector_event,
    resolve_kpm_event,
)
from .recurrent import TrainConfig, train_model
from .signatures import AhoCorasickMatcher, MatchResult, NaiveMatcher, SignatureSet
from .timing import CostModel, SimClock, wall_ns

LOOP_BUDGET_MS = 1000.0

INSPECTOR_CSV_HEADER = "run,loop,msg_kind,node_id,verdict,inspect_ns,hits"
DETECTOR_CSV_HEADER = "af,adr_pct,fpr_pct,latency_ms"
ATTESTATION_CSV_HEADER = "size_mb,round,latency_ms,outcome"
USE_CASE_CSV_HEADER = "run,loop,inspector_ms,detector_ms,shift_ms,loop_wall_ms"


class ConfigError(ValueError):
    """Invalid scenario or experiment configuration (CLI exit code 3)."""


class DetectionFailure(AssertionError):
    """A safeguard missed an attack or flagged clean input (exit code 1)."""


class ConstraintViolation(AssertionError):
    """A control loop exceeded the one-second near-RT budget (exit code 2)."""


@contextmanager
def _gc_paused():
    """Hold cyclic GC during latency-measured loops.

    The pipeline frees its per-tick objects by reference counting; a
    generation-2 collection landing mid-loop is the one avoidable source of
    multi-hundred-millisecond pauses against the 1 s budget.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# presets


def inspector_preset(seed: int = 1, ues_per_cell: int = 10, loops: int = 100) -> ScenarioConfig:
    """Four nodes / twelve cells, half the nodes malicious, half their
    messages injected, size-calibrated indication payloads."""
    return ScenarioConfig(
        node_count=4,
        cells_per_node=3,
        ues_per_cell=ues_per_cell,
        malicious_node_fraction=0.5,
        malicious_message_fraction=0.5,
        loops=loops,
        rng_seed=seed,
        size_calibrated=True,
    )


def detector_preset(seed: int = 1, total_ues: int = 50, loops: int = 80,
                    amplification_factor: float = 1.5) -> ScenarioConfig:
    """Three nodes of three cells each, UEs placed randomly, 30% of them
    targeted by poisoning windows."""
    return ScenarioConfig(
        node_count=3,
        cells_per_node=3,
        total_ues=total_ues,
        poison_target_fraction=0.3,
        amplification_factor=amplification_factor,
        loops=loops,
        rng_seed=seed,
    )


def use_case_preset(seed: int = 1, total_ues: int = 50, loops: int = 100) -> ScenarioConfig:
    return detector_preset(seed=seed, total_ues=total_ues, loops=loops,
                           amplification_factor=1.5)


def experiment_policy(rulebook: SignatureSet | None = None) -> MitigationPolicy:
    """Drop-only mitigation used by the benchmark runs: blocking a source
    node would sever message reception within seconds and end the
    experiment, so data-level responses stay at drop + report."""
    policy = MitigationPolicy.default()
    policy.magnitude_actions[Magnitude.SIGNIFICANT] = parse_action_codes("XR")
    if rulebook is not None:
        policy.bind_rulebook(rulebook)
    return policy


# ---------------------------------------------------------------------------
# configuration file (flat key = value, mirroring ScenarioConfig fields)


def load_scenario_config(path) -> ScenarioConfig:
    text = Path(path).read_text()
    overrides: dict[str, object] = {}
    fields_by_name = ScenarioConfig.__dataclass_fields__
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in fields_by_name:
            raise ConfigError(f"{path}:{lineno}: unknown scenario field {key!r}")
        overrides[key] = _coerce_field(key, value)
    try:
        return ScenarioConfig(**overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _coerce_field(key: str, value: str):
    if key in ("size_calibrated", "poison_cov_af_squared"):
        lowered = value.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key} expects a boolean, got {value!r}")
    if key == "total_ues":
        return None if value.lower() in ("none", "") else int(value)
    if key in ("node_count", "cells_per_node", "ues_per_cell", "loops", "rng_seed"):
        return int(value)
    return float(value)


def write_csv(path, header: str, rows: Iterable[str]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


# ---------------------------------------------------------------------------
# telemetry store


class TelemetryStore:
    """Append-only verified-telemetry table keyed by (ue_id, timestamp)."""

    def __init__(self) -> None:
        self._rows: dict[tuple[int, int], KpmRecord] = {}
        self._by_tick: dict[int, list[KpmRecord]] = {}

    def append(self, record: KpmRecord) -> None:
        key = (record.ue_id, record.timestamp)
        if key in self._rows:
            raise ValueError(f"duplicate telemetry row {key}")
        self._rows[key] = record
        self._by_tick.setdefault(record.timestamp, []).append(record)

    def records_at(self, timestamp_ms: int) -> list[KpmRecord]:
        return list(self._by_tick.get(timestamp_ms, ()))

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._rows

    def __len__(self) -> int:
        return len(self._rows)


# ---------------------------------------------------------------------------
# safeguard stages, charged to the cost model in deterministic mode


def _hit_ids(match: MatchResult | None) -> str:
    return ";".join(str(sig_id) for sig_id, _ in match.hits) if match is not None else ""


def _inspect(inspector: IngressInspector, msg: E2Message, loop: int,
             policy: MitigationPolicy, mitigation: MitigationState, now_ms: int,
             cost_model: CostModel | None) -> InspectionOutcome:
    """Inspect one message and apply the policy to a signature hit."""
    outcome = inspector.inspect(msg, loop=loop)
    if cost_model is not None and outcome.match is not None:
        automaton = isinstance(inspector.matcher, AhoCorasickMatcher)
        outcome = replace(outcome, inspect_latency_ns=cost_model.scan_ns(
            outcome.match.comparisons, automaton=automaton))
    if outcome.verdict is Verdict.MALICIOUS:
        event = DetectionEvent(detector="inspector", evidence="sig:" + _hit_ids(outcome.match),
                               timestamp_ms=now_ms, node_id=msg.source_node_id)
        apply_actions(mitigation, event, resolve_inspector_event(outcome.match, policy))
    return outcome


def _observe_tick(detector: StreamingDetector, records: Sequence[KpmRecord],
                  cost_model: CostModel | None) -> list[ScoredRecord]:
    """Score one tick; a deterministic run charges each scored record an
    equal share of the cost model's scoring time for the tick."""
    scored = detector.observe_tick(records)
    verdicts = [item for item in scored if item.verdict is not None]
    if cost_model is not None and verdicts:
        share = cost_model.scoring_ns(len(verdicts)) // len(verdicts)
        for item in verdicts:
            item.latency_ns = share
    return scored


def _attestation_round(engine: AttestationEngine, image: XappImage,
                       cost_model: CostModel | None) -> RoundResult:
    result = engine.run_round(image)
    if cost_model is None:
        return result
    latency_ns = cost_model.attestation_round_ns(len(image.live_bytes),
                                                 cold_start=result.cold_start)
    return replace(result, latency_ms=latency_ns / 1e6)


# ---------------------------------------------------------------------------
# inspector experiment


@dataclass
class InspectorExperimentResult:
    detection_rate_pct: float
    false_positives: int
    injected_total: int
    detected_injected: int
    benign_total: int
    per_run_kind: dict[tuple[int, E2MessageKind], LatencySummary]
    aggregate_kind: dict[E2MessageKind, LatencySummary]
    csv_rows: list[str]

    def summary(self, kind: E2MessageKind) -> LatencySummary | None:
        return self.aggregate_kind.get(kind)


def _kind_summaries(outcomes: Sequence[InspectionOutcome]) -> dict[E2MessageKind, LatencySummary]:
    summaries = {kind: latency_summary(outcomes, kind) for kind in E2MessageKind}
    return {kind: summary for kind, summary in summaries.items() if summary is not None}


def run_inspector_experiment(
    config: ScenarioConfig,
    rulebook: SignatureSet,
    runs: int = 10,
    matcher_kind: str = "naive",
    cost_model: CostModel | None = None,
    out_dir=None,
    strict: bool = True,
) -> InspectorExperimentResult:
    """Inspect every message of ``runs`` scenarios; verify exact detection."""
    if matcher_kind not in ("naive", "automaton"):
        raise ConfigError(f"unknown matcher {matcher_kind!r}")
    if config.malicious_node_fraction <= 0:
        raise ConfigError("the inspector experiment needs malicious nodes")

    make_matcher = NaiveMatcher if matcher_kind == "naive" else AhoCorasickMatcher
    matcher = make_matcher(rulebook)
    policy = MitigationPolicy.default()
    policy.bind_rulebook(rulebook)

    injected_total = detected_injected = benign_total = false_positives = 0
    per_run_kind: dict[tuple[int, E2MessageKind], LatencySummary] = {}
    all_outcomes: list[InspectionOutcome] = []
    csv_rows: list[str] = []

    for run in range(runs):
        emulator = RanEmulator(config, rulebook, run_seed=config.rng_seed + 1 + run)
        # the inspector's blocklist stays apart from the mitigation state, so
        # every message of the run is scanned
        inspector = IngressInspector(matcher, Blocklist())
        mitigation = MitigationState()
        clock = SimClock()
        outcomes: list[InspectionOutcome] = []
        for t in range(config.loops):
            clock.advance_to_ns(t * 1_000_000_000)
            for emitted in emulator.step(t):
                clock.advance_ns(1_000)
                msg = decode_frame(emitted.frame, clock=clock.now_ns)
                outcome = _inspect(inspector, msg, t, policy, mitigation, clock.now_ms(),
                                   cost_model)
                outcomes.append(outcome)
                diverted = outcome.verdict is Verdict.MALICIOUS
                if emitted.injected is not None:
                    injected_total += 1
                    detected_injected += diverted
                else:
                    benign_total += 1
                    false_positives += diverted
        per_run_kind.update(
            ((run, kind), summary) for kind, summary in _kind_summaries(outcomes).items()
        )
        all_outcomes.extend(outcomes)
        csv_rows.extend(
            f"{run},{o.loop},{o.message.kind.name},{o.message.source_node_id},"
            f"{o.verdict.value},{o.inspect_latency_ns},{_hit_ids(o.match)}"
            for o in outcomes
        )

    detection_rate = 100.0 * detected_injected / injected_total if injected_total else 0.0
    result = InspectorExperimentResult(
        detection_rate_pct=detection_rate,
        false_positives=false_positives,
        injected_total=injected_total,
        detected_injected=detected_injected,
        benign_total=benign_total,
        per_run_kind=per_run_kind,
        aggregate_kind=_kind_summaries(all_outcomes),
        csv_rows=csv_rows,
    )
    if out_dir is not None:
        write_csv(Path(out_dir) / "inspector.csv", INSPECTOR_CSV_HEADER, csv_rows)
    if strict:
        if injected_total == 0:
            raise ConfigError("scenario produced no injected messages")
        if detected_injected != injected_total:
            raise DetectionFailure(
                f"missed {injected_total - detected_injected} of {injected_total} injections"
            )
        if false_positives:
            raise DetectionFailure(f"{false_positives} benign messages diverted")
    return result


# ---------------------------------------------------------------------------
# detector experiment


DEFAULT_TRAIN_CONFIG = TrainConfig(
    hidden_size=32, epochs=150, learning_rate=5e-3, rng_seed=7, optimizer="adam"
)


def train_detector_bundle(
    config: ScenarioConfig,
    train_config: TrainConfig = DEFAULT_TRAIN_CONFIG,
    train_loops: int = 150,
    quantile: float = 0.995,
) -> DetectorBundle:
    """Collect a benign run, train on its first 80% of ticks, and calibrate
    the threshold on the remaining validation windows."""
    benign_config = replace(
        config,
        poison_target_fraction=0.0,
        malicious_node_fraction=0.0,
        malicious_message_fraction=0.0,
        loops=train_loops,
    )
    # same scenario identity as the live runs, distinct dynamics
    emulator = RanEmulator(benign_config, run_seed=config.rng_seed + 0x5EED)
    records: list[KpmRecord] = []
    for t in range(train_loops):
        tick_records, _ = emulator.generate_tick(t)
        records.extend(tick_records)

    split_ms = int(0.8 * train_loops) * TICK_MS
    train_records = [r for r in records if r.timestamp < split_ms]
    val_records = [r for r in records if r.timestamp >= split_ms]

    scaler = fit_scaler(train_records)
    train_x, train_y = build_windows(train_records, scaler)
    val_x, val_y = build_windows(val_records, scaler)
    result = train_model(train_x, train_y, train_config)
    threshold = calibrate_threshold(result.model, scaler, val_x, val_y, quantile=quantile)
    return DetectorBundle(model=result.model, scaler=scaler, threshold=threshold)


@dataclass
class DetectorExperimentResult:
    per_af: dict[float, DetectorMetrics]
    per_af_runs: dict[float, list[DetectorMetrics]]
    csv_rows: list[str]


def run_detector_experiment(
    config: ScenarioConfig,
    bundle: DetectorBundle,
    af_grid: Sequence[float] = (1.2, 1.3, 1.4, 1.5),
    runs: int = 10,
    cost_model: CostModel | None = None,
    out_dir=None,
) -> DetectorExperimentResult:
    """Per amplification factor: stream poisoned scenarios through the
    detector and pool ADR/FPR/latency over ``runs`` seeds."""
    if config.poison_target_fraction <= 0:
        raise ConfigError("the detector experiment needs poisoning targets")

    per_af: dict[float, DetectorMetrics] = {}
    per_af_runs: dict[float, list[DetectorMetrics]] = {}
    csv_rows: list[str] = []
    for af in af_grid:
        run_metrics: list[DetectorMetrics] = []
        for run in range(runs):
            scenario = replace(config, amplification_factor=af)
            emulator = RanEmulator(scenario, run_seed=config.rng_seed + 100 + run)
            detector = StreamingDetector(bundle)
            labels: dict[tuple[int, int], bool] = {}
            all_labels: list[GroundTruthLabel] = []
            scored: list[ScoredRecord] = []
            for t in range(scenario.loops):
                records, tick_labels = emulator.generate_tick(t)
                for lab in tick_labels:
                    labels[(lab.ue_id, lab.timestamp)] = lab.poisoned
                all_labels.extend(tick_labels)
                scored.extend(_observe_tick(detector, records, cost_model))
            if run == 0 and out_dir is not None:
                Path(out_dir).mkdir(parents=True, exist_ok=True)
                write_ground_truth_csv(
                    all_labels, Path(out_dir) / f"ground_truth_af{af}.csv"
                )
            run_metrics.append(evaluate(scored, labels))
        pooled = _pool_metrics(run_metrics)
        if pooled.adr_pct is None:
            raise ConfigError(f"AF {af}: scenario produced no scored poisoned records")
        per_af[af] = pooled
        per_af_runs[af] = run_metrics
        csv_rows.append(
            f"{af},{pooled.adr_pct:.4f},{pooled.fpr_pct:.4f},{pooled.mean_latency_ms:.6f}"
        )
    if out_dir is not None:
        write_csv(Path(out_dir) / "detector.csv", DETECTOR_CSV_HEADER, csv_rows)
    return DetectorExperimentResult(per_af=per_af, per_af_runs=per_af_runs, csv_rows=csv_rows)


def _pool_metrics(metrics: Sequence[DetectorMetrics]) -> DetectorMetrics:
    poisoned = sum(m.scored_poisoned for m in metrics)
    benign = sum(m.scored_benign for m in metrics)
    flagged_p = sum(m.flagged_poisoned for m in metrics)
    flagged_b = sum(m.flagged_benign for m in metrics)
    total = poisoned + benign
    weighted_latency = (
        sum(m.mean_latency_ms * (m.scored_poisoned + m.scored_benign) for m in metrics) / total
        if total
        else 0.0
    )
    return DetectorMetrics(
        adr_pct=(100.0 * flagged_p / poisoned) if poisoned else None,
        fpr_pct=(100.0 * flagged_b / benign) if benign else 0.0,
        mean_latency_ms=weighted_latency,
        scored_poisoned=poisoned,
        scored_benign=benign,
        flagged_poisoned=flagged_p,
        flagged_benign=flagged_b,
    )


# ---------------------------------------------------------------------------
# attestation experiment


@dataclass
class AttestationExperimentResult:
    #: per size: latency series per run, rounds in order
    latencies_ms: dict[float, list[list[float]]]
    injection_trials: int
    injections_detected: int
    clean_violations: int
    xapps_blocked: int
    csv_rows: list[str]

    def round1_mean(self, size_mb: float) -> float:
        series = self.latencies_ms[size_mb]
        return sum(s[0] for s in series) / len(series)

    def steady_mean(self, size_mb: float) -> float:
        steady = series_steady(self.latencies_ms[size_mb])
        return sum(steady) / len(steady)

    def steady_per_mb(self, size_mb: float) -> float:
        return self.steady_mean(size_mb) / size_mb


def series_steady(series: list[list[float]]) -> list[float]:
    return [value for run in series for value in run[1:]]


def run_attestation_experiment(
    sizes_mb: Sequence[float] = (8.5, 16.0),
    rounds: int = 20,
    runs: int = 10,
    injection_trials: int = 100,
    seed: int = 1,
    period_s: int = DEFAULT_ATTESTATION_PERIOD_S,
    workdir=None,
    cost_model: CostModel | None = None,
    out_dir=None,
    strict: bool = True,
) -> AttestationExperimentResult:
    """Clean-image latency series at both sizes plus injection trials.

    Reference images are written to ``workdir`` once per size; every run
    uses a fresh engine so round 1 always pays the cold-start load.
    """
    workdir = Path(workdir) if workdir is not None else Path(out_dir or ".")
    workdir.mkdir(parents=True, exist_ok=True)

    reference_paths: dict[float, Path] = {}
    reference_bytes: dict[float, bytes] = {}
    for size in sizes_mb:
        blob = np.random.default_rng(seed + int(size * 1024)).bytes(int(size * 1024 * 1024))
        path = workdir / f"reference-{size}mb.bin"
        path.write_bytes(blob)
        reference_paths[size] = path
        reference_bytes[size] = blob

    latencies: dict[float, list[list[float]]] = {size: [] for size in sizes_mb}
    clean_violations = 0
    csv_rows: list[str] = []

    for run in range(runs):
        clock = SimClock()
        engine = AttestationEngine(clock=clock.now_ns, rng=random.Random(seed + run))
        for size in sizes_mb:
            xapp_id = f"xapp-{size}mb"
            engine.register(xapp_id, reference_paths[size])
            image = XappImage(
                xapp_id=xapp_id,
                live_bytes=bytearray(reference_bytes[size]),
                declared_size=len(reference_bytes[size]),
            )
            series: list[float] = []
            for round_index in range(rounds):
                clock.advance_ns(period_s * 1_000_000_000)
                result = _attestation_round(engine, image, cost_model)
                series.append(result.latency_ms)
                if result.outcome != VerificationResult.VALID:
                    clean_violations += 1
                csv_rows.append(
                    f"{size},{round_index + 1},{result.latency_ms:.6f},{result.outcome}"
                )
            latencies[size].append(series)

    # Injection trials: each mutates a fresh copy of the smaller image and
    # must raise a violation on the immediately following round; the
    # high-impact policy then blocks the xApp.
    policy = MitigationPolicy.default()
    detected = 0
    blocked = 0
    trial_rng = random.Random(seed ^ 0xA77E57)
    size = sizes_mb[0]
    clock = SimClock()
    engine = AttestationEngine(clock=clock.now_ns, rng=random.Random(seed))
    engine.register("xapp-trial", reference_paths[size])
    for trial in range(injection_trials):
        image = XappImage(
            xapp_id="xapp-trial",
            live_bytes=bytearray(reference_bytes[size]),
            declared_size=len(reference_bytes[size]),
        )
        payload = trial_rng.randbytes(trial_rng.randint(1, 64))
        offset = trial_rng.randint(0, len(image.live_bytes))
        inject_code(image, offset, payload)
        clock.advance_ns(period_s * 1_000_000_000)
        result = _attestation_round(engine, image, cost_model)
        if result.outcome == VerificationResult.DIGEST_MISMATCH:
            detected += 1
            mitigation = MitigationState()
            actions = resolve_attestation_event("xapp-trial", XappTier.HIGH_IMPACT, policy)
            apply_actions(
                mitigation,
                DetectionEvent(detector="attestation", evidence="digest-mismatch",
                               timestamp_ms=clock.now_ms(), xapp_id="xapp-trial"),
                actions,
            )
            if mitigation.blocklist.is_xapp_blocked("xapp-trial"):
                blocked += 1

    result = AttestationExperimentResult(
        latencies_ms=latencies,
        injection_trials=injection_trials,
        injections_detected=detected,
        clean_violations=clean_violations,
        xapps_blocked=blocked,
        csv_rows=csv_rows,
    )
    if out_dir is not None:
        write_csv(Path(out_dir) / "attestation.csv", ATTESTATION_CSV_HEADER, csv_rows)
    if strict:
        if clean_violations:
            raise DetectionFailure(f"{clean_violations} violations raised on clean images")
        if detected != injection_trials:
            raise DetectionFailure(
                f"only {detected} of {injection_trials} injections detected"
            )
    return result


# ---------------------------------------------------------------------------
# end-to-end use case


@dataclass
class ConsumerDecision:
    loop: int
    records_seen: int
    busy_ms: float
    decision_timestamp_ms: float


def consumer_xapp_loop(store: TelemetryStore, t: int,
                       availability_ms: float) -> ConsumerDecision:
    """Stub consumer control loop: read the tick's verified records and run
    a fixed-cost pass standing in for the out-of-scope classifier."""
    records = store.records_at(t * TICK_MS)
    started = wall_ns()
    if records:
        matrix = np.stack([r.features() for r in records])
        float(matrix.mean())  # fixed-cost decision stub
    busy_ms = (wall_ns() - started) / 1e6
    return ConsumerDecision(
        loop=t,
        records_seen=len(records),
        busy_ms=busy_ms,
        decision_timestamp_ms=t * TICK_MS + availability_ms + busy_ms,
    )


@dataclass
class UseCaseArm:
    """Per-tick series and end state of one arm of a run: its guarded or
    its baseline passes."""

    inspector_ms: list[float] = field(default_factory=list)
    detector_ms: list[float] = field(default_factory=list)
    availability_ms: list[float] = field(default_factory=list)
    loop_wall_ms: list[float] = field(default_factory=list)
    real_wall_ms: list[float] = field(default_factory=list)
    decisions: list[ConsumerDecision] = field(default_factory=list)
    store: TelemetryStore = field(default_factory=TelemetryStore)
    mitigation: MitigationState = field(default_factory=MitigationState)
    emitted_labels: list[GroundTruthLabel] = field(default_factory=list)
    flagged_keys: set[tuple[int, int]] = field(default_factory=set)
    consumer_total_ms: float = 0.0
    attestation_outcomes: list[str] = field(default_factory=list)
    #: frames and KPM payloads dropped because they failed to decode
    codec_errors: int = 0


class _UseCaseRun:
    """One use-case run: each tick, one emulator's frames feed the guarded
    pass and then the baseline pass, and attestation runs between ticks.

    The guarded pass decodes, inspects and mitigates each frame, then scores
    the benign indications' KPM records and mitigates or stores each one; the
    baseline pass decodes and stores. Both end in the consumer xApp. Frames
    and KPM payloads that fail to decode are dropped and counted.
    """

    def __init__(self, config: ScenarioConfig, run_seed: int, bundle: DetectorBundle,
                 rulebook: SignatureSet, cost_model: CostModel | None = None,
                 attest_reference: Path | None = None) -> None:
        self.emulator = RanEmulator(config, rulebook, run_seed=run_seed)
        self.guarded, self.baseline = UseCaseArm(), UseCaseArm()
        self.clock = SimClock()
        self.policy = experiment_policy(rulebook)
        # one inspector for every E2 connection, on the guarded arm's blocklist
        self.inspector = IngressInspector(NaiveMatcher(rulebook),
                                          self.guarded.mitigation.blocklist)
        self.detector = StreamingDetector(bundle)
        self.cost_model = cost_model
        self.engine = self.image = None
        if attest_reference is not None:
            self.engine = AttestationEngine(clock=self.clock.now_ns,
                                            rng=random.Random(config.rng_seed))
            self.engine.register("consumer-xapp", attest_reference)
            reference = attest_reference.read_bytes()
            self.image = XappImage("consumer-xapp", bytearray(reference), len(reference))

    def tick(self, t: int) -> None:
        self.clock.advance_to_ns(t * 1_000_000_000)
        emitted = self.emulator.step(t)
        frames = [em.frame for em in emitted]
        labels = [label for em in emitted for label in em.labels]
        self.guarded.emitted_labels.extend(labels)
        self.baseline.emitted_labels.extend(labels)
        self.guarded_pass(t, frames)
        self.baseline_pass(t, frames)
        # Attestation runs outside the control loop, between ticks.
        if self.engine is not None and t % DEFAULT_ATTESTATION_PERIOD_S == 0:
            result = _attestation_round(self.engine, self.image, self.cost_model)
            self.guarded.attestation_outcomes.append(result.outcome)

    def guarded_pass(self, t: int, frames: Sequence[bytes]) -> None:
        arm, started = self.guarded, wall_ns()
        inspect_ns = 0
        records: list[KpmRecord] = []
        sources: list[int] = []  # the sending node of each record
        for msg in self._decoded(arm, frames):
            outcome = _inspect(self.inspector, msg, t, self.policy, arm.mitigation,
                               self.clock.now_ms(), self.cost_model)
            inspect_ns += outcome.inspect_latency_ns
            if outcome.verdict is not Verdict.BENIGN:
                continue  # diverted or blocked: never reaches dispatch
            decoded = self._kpm_records(arm, msg)
            records.extend(decoded)
            sources.extend([msg.source_node_id] * len(decoded))

        scored = _observe_tick(self.detector, records, self.cost_model)
        stored = 0
        for item, node_id in zip(scored, sources):
            verdict = item.verdict
            if verdict is not None and verdict.is_anomalous:
                arm.flagged_keys.add((verdict.ue_id, verdict.timestamp))
                event = DetectionEvent(
                    detector="kpm", evidence=f"magnitude:{verdict.magnitude.value}",
                    timestamp_ms=self.clock.now_ms(), node_id=node_id, ue_id=verdict.ue_id,
                )
                apply_actions(arm.mitigation, event,
                              resolve_kpm_event(verdict, node_id, self.policy))
            else:
                arm.store.append(item.record)
                stored += 1
        self._end_tick(arm, t, frames, started, stored, inspect_ns,
                       sum(item.latency_ns for item in scored))

    def baseline_pass(self, t: int, frames: Sequence[bytes]) -> None:
        arm, started = self.baseline, wall_ns()
        stored = 0
        for msg in self._decoded(arm, frames):
            for record in self._kpm_records(arm, msg):
                arm.store.append(record)
                stored += 1
        self._end_tick(arm, t, frames, started, stored)

    def _decoded(self, arm: UseCaseArm, frames: Sequence[bytes]) -> Iterable[E2Message]:
        for frame in frames:
            try:
                yield decode_frame(frame, clock=self.clock.now_ns)
            except E2CodecError:
                arm.codec_errors += 1

    def _kpm_records(self, arm: UseCaseArm, msg: E2Message) -> Sequence[KpmRecord]:
        # size-calibrated indications carry stand-in bytes, not a KPM report
        if msg.kind is not E2MessageKind.INDICATION or self.emulator.config.size_calibrated:
            return ()
        try:
            return decode_kpm_payload(msg.payload)
        except E2CodecError:
            arm.codec_errors += 1
            return ()

    def _end_tick(self, arm: UseCaseArm, t: int, frames: Sequence[bytes], started_ns: int,
                  stored: int, inspect_ns: int = 0, detect_ns: int = 0) -> None:
        """Time the data availability, run the consumer, record the tick."""
        cost = self.cost_model
        if cost is None:
            availability_ms = (wall_ns() - started_ns) / 1e6
        else:
            decode_ns = sum(cost.decode_ns(len(frame)) for frame in frames)
            availability_ms = (decode_ns + inspect_ns + detect_ns + cost.store_ns(stored)) / 1e6
        decision = consumer_xapp_loop(arm.store, t, availability_ms)
        if cost is not None:
            busy_ms = cost.consumer_pass_ns / 1e6
            decision = replace(decision, busy_ms=busy_ms,
                               decision_timestamp_ms=t * TICK_MS + availability_ms + busy_ms)
        real_wall_ms = (wall_ns() - started_ns) / 1e6
        arm.decisions.append(decision)
        arm.consumer_total_ms += decision.busy_ms
        arm.inspector_ms.append(inspect_ns / 1e6)
        arm.detector_ms.append(detect_ns / 1e6)
        arm.availability_ms.append(availability_ms)
        arm.loop_wall_ms.append(
            real_wall_ms if cost is None else availability_ms + decision.busy_ms
        )
        arm.real_wall_ms.append(real_wall_ms)


@dataclass
class UseCaseResult:
    total_ues: int
    shift_ms: list[float]  # per (run, loop), run-major
    inspector_ms: list[float]
    detector_ms: list[float]
    loop_wall_ms: list[float]
    real_wall_ms: list[float]
    consumer_totals: list[tuple[float, float]]  # (safeguarded, baseline) per run
    arms: list[tuple[UseCaseArm, UseCaseArm]]
    csv_rows: list[str]

    @property
    def avg_shift_ms(self) -> float:
        return sum(self.shift_ms) / len(self.shift_ms)

    @property
    def max_shift_ms(self) -> float:
        return max(self.shift_ms)

    @property
    def min_shift_ms(self) -> float:
        return min(self.shift_ms)

    def summary_table(self) -> dict[str, tuple[float, float, float]]:
        """min/max/avg of the three measured times, over all runs and loops."""
        def agg(series: list[float]) -> tuple[float, float, float]:
            return min(series), max(series), sum(series) / len(series)

        return {
            "inspector_ms": agg(self.inspector_ms),
            "detector_ms": agg(self.detector_ms),
            "shift_ms": agg(self.shift_ms),
        }


def run_use_case(
    config: ScenarioConfig,
    bundle: DetectorBundle,
    rulebook: SignatureSet,
    runs: int = 10,
    cost_model: CostModel | None = None,
    attest_reference: Path | None = None,
    out_dir=None,
    strict: bool = True,
) -> UseCaseResult:
    """Paired safeguarded/baseline passes over the same frames, measuring the
    data-availability shift imposed on the consumer xApp."""
    arms: list[tuple[UseCaseArm, UseCaseArm]] = []
    for run in range(runs):
        use_case = _UseCaseRun(config, config.rng_seed + 1 + run, bundle, rulebook,
                               cost_model, attest_reference)
        with _gc_paused():
            for t in range(config.loops):
                use_case.tick(t)
        arms.append((use_case.guarded, use_case.baseline))
    guarded_arms = [guarded for guarded, _ in arms]
    shift_ms = [g - b for guarded, baseline in arms
                for g, b in zip(guarded.availability_ms, baseline.availability_ms)]
    inspector_ms = [v for arm in guarded_arms for v in arm.inspector_ms]
    detector_ms = [v for arm in guarded_arms for v in arm.detector_ms]
    loop_wall_ms = [v for arm in guarded_arms for v in arm.loop_wall_ms]
    real_wall_ms = [v for arm in guarded_arms for v in arm.real_wall_ms]
    csv_rows = [
        f"{i // config.loops},{i % config.loops},{ins:.6f},{det:.6f},{shift:.6f},{wall:.6f}"
        for i, (ins, det, shift, wall) in enumerate(
            zip(inspector_ms, detector_ms, shift_ms, loop_wall_ms))
    ]

    ue_label = config.total_ues if config.total_ues is not None else (
        config.ues_per_cell * config.node_count * config.cells_per_node
    )
    result = UseCaseResult(
        total_ues=ue_label,
        shift_ms=shift_ms,
        inspector_ms=inspector_ms,
        detector_ms=detector_ms,
        loop_wall_ms=loop_wall_ms,
        real_wall_ms=real_wall_ms,
        consumer_totals=[(g.consumer_total_ms, b.consumer_total_ms) for g, b in arms],
        arms=arms,
        csv_rows=csv_rows,
    )
    if out_dir is not None:
        write_csv(Path(out_dir) / f"use_case_{ue_label}ues.csv",
                  USE_CASE_CSV_HEADER, csv_rows)
    if strict:
        worst = max(real_wall_ms)
        if worst >= LOOP_BUDGET_MS:
            at = real_wall_ms.index(worst)
            raise ConstraintViolation(
                f"control loop {at % config.loops} of run {at // config.loops} took "
                f"{worst:.1f} ms, over the {LOOP_BUDGET_MS:.0f} ms budget"
            )
    return result
