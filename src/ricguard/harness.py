"""Scenario runner: wires emulator, safeguards, store, and consumer xApp.

Reproduces the four desk-scale experiments — inspection latency, poisoning
detection across amplification factors, attestation latency/completeness,
and the end-to-end use case measuring the data-availability shift that the
safeguards impose on a consumer xApp: each tick's frames go through a
:class:`RicPipeline` with the safeguards and one without them.

Every experiment repeats over ``runs`` seeds and reports min/max/avg. The
safeguards and :class:`RicPipeline` time themselves by wall clock, which is
hardware-dependent; the detector's time is taken once per tick around its
call, warm-up ticks included (``observe_tick`` in the detector experiment,
the array call ``score_tick`` in the pipeline). Pass the fixed cost table,
:data:`~ricguard.timing.DEFAULT_COST_MODEL`, to a runner, and only the runner
charges it for the work done (the textbook byte comparisons of each scan,
scored records, attested bytes, decoded and stored data, as a tick report
counts them), for deterministic (byte-identical) CSV output. The near-RT
loop budget is always checked against real wall time.

CSV schemas (exact headers)::

    inspector:    run,loop,msg_kind,node_id,verdict,inspect_ns,hits
    detector:     af,adr_pct,fpr_pct,latency_ms
    ground truth: ue_id,timestamp_ms,poisoned,af
    attestation:  size_mb,round,latency_ms,outcome
    use case:     run,loop,inspector_ms,detector_ms,shift_ms,loop_wall_ms
"""

from __future__ import annotations

import gc
import random
import tempfile
from contextlib import ExitStack, contextmanager
from collections import Counter
from dataclasses import dataclass, replace
from itertools import compress
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
    MIN_CALIBRATION_WINDOWS,
    DetectorBundle,
    DetectorMetrics,
    StreamingDetector,
    calibrate_threshold,
    classify_magnitude,
    evaluate,
)
from .e2 import (
    FRAME_HEADER_SIZE,
    E2CodecError,
    E2Message,
    E2MessageKind,
    decode_frame,
    decode_kpm_payload,
)
from .emulator import (
    GROUND_TRUTH_CSV_HEADER,
    ConfigError,
    GroundTruthLabel,
    RanEmulator,
    ScenarioConfig,
)
from .inspector import (
    IngressInspector,
    InspectionOutcome,
    LatencySummary,
    Verdict,
    latency_summary,
)
from .kpm import TICK_MS, KpmRecord, build_windows, fit_scaler, records_to_matrix
from .mitigation import (
    Blocklist,
    DetectionEvent,
    Magnitude,
    MitigationAction,
    MitigationPolicy,
    MitigationState,
    XappTier,
    apply_actions,
    apply_kpm_actions,
    parse_action_codes,
    resolve_attestation_event,
    resolve_inspector_event,
)
from .recurrent import TrainConfig, train_model
from .signatures import MatchResult, NaiveMatcher, SignatureSet, canonical_comparisons
from .timing import CostModel, SimClock, wall_ns

LOOP_BUDGET_MS = 1000.0

INSPECTOR_CSV_HEADER = "run,loop,msg_kind,node_id,verdict,inspect_ns,hits"
DETECTOR_CSV_HEADER = "af,adr_pct,fpr_pct,latency_ms"
ATTESTATION_CSV_HEADER = "size_mb,round,latency_ms,outcome"
USE_CASE_CSV_HEADER = "run,loop,inspector_ms,detector_ms,shift_ms,loop_wall_ms"


class DetectionFailure(AssertionError):
    """A safeguard missed an attack or flagged clean input (exit code 1)."""


class ConstraintViolation(AssertionError):
    """A control loop exceeded the one-second near-RT budget (exit code 2)."""


def _require_runs(runs: int) -> None:
    """Every experiment repeats at least once: with no runs it has nothing
    to report."""
    if runs < 1:
        raise ConfigError(f"runs must be at least 1, got {runs}")


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


def detector_preset(seed: int = 1, total_ues: int = 50, loops: int = 80) -> ScenarioConfig:
    """Three nodes of three cells each, UEs placed randomly, 30% of them
    targeted by poisoning windows at amplification factor 1.5."""
    return ScenarioConfig(
        node_count=3,
        cells_per_node=3,
        total_ues=total_ues,
        poison_target_fraction=0.3,
        amplification_factor=1.5,
        loops=loops,
        rng_seed=seed,
    )


def use_case_preset(seed: int = 1, total_ues: int = 50, loops: int = 100) -> ScenarioConfig:
    return detector_preset(seed=seed, total_ues=total_ues, loops=loops)


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
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text file ({exc})") from None
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


_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce_field(key: str, value: str):
    """Parse ``value`` as the type of the field's ``ScenarioConfig`` default;
    ``total_ues``, whose default is ``None``, is an optional int."""
    default = ScenarioConfig.__dataclass_fields__[key].default
    kind = int if default is None else type(default)
    lowered = value.lower()
    if default is None and lowered in ("none", ""):
        return None
    if kind is bool and lowered in _BOOLEANS:
        return _BOOLEANS[lowered]
    if kind is not bool:
        try:
            return kind(value)
        except ValueError:
            pass
    raise ConfigError(f"{key} expects {kind.__name__}, got {value!r}")


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
    """Verified telemetry of the newest reporting tick, unique by UE id.

    One timestamp, its rows keyed by UE id in append order, and the count of
    every row ever stored. A newer timestamp starts a new tick and frees the
    held one; an older timestamp, or a UE already held, is refused.
    """

    def __init__(self) -> None:
        self._timestamp: int | None = None
        self._rows: dict[int, KpmRecord] = {}
        self._row_count = 0

    def append(self, record: KpmRecord) -> None:
        held = self._timestamp
        if held is None or record.timestamp > held:
            self._timestamp, self._rows = record.timestamp, {}
        elif record.timestamp < held:
            raise ValueError(f"telemetry row {(record.ue_id, record.timestamp)} is older "
                             f"than the held tick {held}")
        elif record.ue_id in self._rows:
            raise ValueError(f"duplicate telemetry row {(record.ue_id, record.timestamp)}")
        self._rows[record.ue_id] = record
        self._row_count += 1

    def records_at(self, timestamp_ms: int) -> list[KpmRecord]:
        """A copy of the held tick's rows, or no rows for any other tick."""
        return list(self._rows.values()) if timestamp_ms == self._timestamp else []

    def __len__(self) -> int:
        return self._row_count


# ---------------------------------------------------------------------------
# safeguard stages


def _hit_ids(match: MatchResult | None) -> str:
    return ";".join(str(sig_id) for sig_id, _ in match.hits) if match is not None else ""


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
    cost_model: CostModel | None = None,
    out_dir=None,
) -> InspectorExperimentResult:
    """Inspect every message of ``runs`` scenarios; verify exact detection."""
    _require_runs(runs)
    if config.malicious_node_fraction <= 0:
        raise ConfigError("the inspector experiment needs malicious nodes")

    # nothing adds to this blocklist, so every message of every run is scanned
    inspector = IngressInspector(NaiveMatcher(rulebook), Blocklist())

    injected_total = detected_injected = benign_total = false_positives = 0
    per_run_kind: dict[tuple[int, E2MessageKind], LatencySummary] = {}
    all_outcomes: list[InspectionOutcome] = []
    csv_rows: list[str] = []

    for run in range(runs):
        emulator = RanEmulator(config, rulebook, run_seed=config.rng_seed + 1 + run)
        outcomes: list[InspectionOutcome] = []
        for t in range(config.loops):
            for emitted in emulator.step(t):
                msg = decode_frame(emitted.frame)
                outcome = inspector.inspect(msg, loop=t)
                if cost_model is not None:
                    outcome = outcome._replace(inspect_latency_ns=cost_model.scan_ns(
                        canonical_comparisons(msg.payload, rulebook)))
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


DEFAULT_TRAIN_CONFIG = TrainConfig(hidden_size=32, epochs=150, learning_rate=5e-3, rng_seed=7)


def train_detector_bundle(
    config: ScenarioConfig,
    train_config: TrainConfig = DEFAULT_TRAIN_CONFIG,
    train_loops: int = 150,
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
    if len(val_x) < MIN_CALIBRATION_WINDOWS:
        raise ConfigError(f"threshold calibration needs {MIN_CALIBRATION_WINDOWS} benign "
                          f"validation windows; the scenario gives {len(val_x)}")
    result = train_model(train_x, train_y, train_config)
    threshold = calibrate_threshold(result.model, scaler, val_x, val_y)
    return DetectorBundle(model=result.model, scaler=scaler, threshold=threshold)


@dataclass
class DetectorExperimentResult:
    per_af: dict[float, DetectorMetrics]
    csv_rows: list[str]


def require_poisoning(config: ScenarioConfig) -> None:
    """The detector experiment needs poisoned records to detect; callers that
    train a bundle for it check this first."""
    if config.poison_target_fraction <= 0:
        raise ConfigError("the detector experiment needs poisoning targets")


def require_kpm_telemetry(config: ScenarioConfig) -> None:
    """The use case scores and stores KPM records, which the stand-in
    indication bytes of a size-calibrated scenario do not carry."""
    if config.size_calibrated:
        raise ConfigError("the use case needs KPM telemetry; a size-calibrated scenario "
                          "sends none")


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
    _require_runs(runs)
    require_poisoning(config)
    per_af: dict[float, DetectorMetrics] = {}
    csv_rows: list[str] = []
    for af in af_grid:
        pooled, detect_ns = DetectorMetrics(), 0
        for run in range(runs):
            # the detector reads ticks only, which never inject: the malicious
            # nodes are drawn after every baseline and need no rulebook here
            scenario = replace(config, amplification_factor=af, malicious_node_fraction=0.0,
                               malicious_message_fraction=0.0)
            emulator = RanEmulator(scenario, run_seed=config.rng_seed + 100 + run)
            detector = StreamingDetector(bundle)
            all_labels: list[GroundTruthLabel] = []  # run 0's, for its ground-truth CSV
            for t in range(scenario.loops):
                records, tick_labels = emulator.generate_tick(t)
                if run == 0:
                    all_labels.extend(tick_labels)
                started = wall_ns()
                scored = detector.observe_tick(records)
                detect_ns += wall_ns() - started
                pooled += evaluate(scored, {(lab.ue_id, lab.timestamp): lab.poisoned
                                            for lab in tick_labels})
            if run == 0 and out_dir is not None:
                write_csv(Path(out_dir) / f"ground_truth_af{af}.csv", GROUND_TRUTH_CSV_HEADER,
                          (f"{lab.ue_id},{lab.timestamp},{int(lab.poisoned)},"
                           f"{float(af) if lab.poisoned else 1.0}" for lab in all_labels))
        if pooled.adr_pct is None:
            raise ConfigError(f"AF {af}: scenario produced no scored poisoned records")
        # the cost model charges each scored record alike, so its mean is that charge
        pooled.mean_latency_ms = (
            detect_ns / (pooled.scored_poisoned + pooled.scored_benign) / 1e6
            if cost_model is None else cost_model.ns_per_scored_record / 1e6)
        per_af[af] = pooled
        csv_rows.append(
            f"{af},{pooled.adr_pct:.4f},{pooled.fpr_pct:.4f},{pooled.mean_latency_ms:.6f}"
        )
    if out_dir is not None:
        write_csv(Path(out_dir) / "detector.csv", DETECTOR_CSV_HEADER, csv_rows)
    return DetectorExperimentResult(per_af=per_af, csv_rows=csv_rows)


# ---------------------------------------------------------------------------
# attestation experiment


@dataclass
class AttestationExperimentResult:
    #: per size: latency series per run, rounds in order
    latencies_ms: dict[float, list[list[float]]]
    injection_trials: int
    injections_detected: int
    clean_violations: int
    #: detected injections the default policy answers by blocking the
    #: high-impact xApp
    xapps_blocked: int
    csv_rows: list[str]

    def round1_mean(self, size_mb: float) -> float:
        series = self.latencies_ms[size_mb]
        return sum(s[0] for s in series) / len(series)

    def steady_mean(self, size_mb: float) -> float:
        steady = [value for run in self.latencies_ms[size_mb] for value in run[1:]]
        return sum(steady) / len(steady)

    def steady_per_mb(self, size_mb: float) -> float:
        return self.steady_mean(size_mb) / size_mb


def run_attestation_experiment(
    sizes_mb: Sequence[float] = (8.5, 16.0),
    rounds: int = 20,
    runs: int = 10,
    injection_trials: int = 100,
    seed: int = 1,
    workdir=None,
    cost_model: CostModel | None = None,
    out_dir=None,
) -> AttestationExperimentResult:
    """Clean-image latency series at both sizes plus injection trials.

    Reference images are written to ``workdir`` once per size, or to a
    temporary directory removed after the run when it is None; every run
    uses a fresh engine so round 1 always pays the cold-start load.
    """
    _require_runs(runs)
    with ExitStack() as stack:
        if workdir is None:
            workdir = stack.enter_context(tempfile.TemporaryDirectory(prefix="ricguard-attest-"))
        workdir = Path(workdir)
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
                    clock.advance_ns(DEFAULT_ATTESTATION_PERIOD_S * 1_000_000_000)
                    result = _attestation_round(engine, image, cost_model)
                    series.append(result.latency_ms)
                    if result.outcome != VerificationResult.VALID:
                        clean_violations += 1
                    csv_rows.append(
                        f"{size},{round_index + 1},{result.latency_ms:.6f},{result.outcome}"
                    )
                latencies[size].append(series)

        # Injection trials: each mutates a fresh copy of the smaller image and
        # must raise a violation on the immediately following round, which
        # the default policy answers by blocking the high-impact xApp.
        blocks = MitigationAction.BLOCK_XAPP in resolve_attestation_event(
            "xapp-trial", XappTier.HIGH_IMPACT, MitigationPolicy.default())
        detected = 0
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
            clock.advance_ns(DEFAULT_ATTESTATION_PERIOD_S * 1_000_000_000)
            result = _attestation_round(engine, image, cost_model)
            detected += result.outcome == VerificationResult.DIGEST_MISMATCH

    result = AttestationExperimentResult(
        latencies_ms=latencies,
        injection_trials=injection_trials,
        injections_detected=detected,
        clean_violations=clean_violations,
        xapps_blocked=detected if blocks else 0,
        csv_rows=csv_rows,
    )
    if out_dir is not None:
        write_csv(Path(out_dir) / "attestation.csv", ATTESTATION_CSV_HEADER, csv_rows)
    if clean_violations:
        raise DetectionFailure(f"{clean_violations} violations raised on clean images")
    if detected != injection_trials:
        raise DetectionFailure(f"only {detected} of {injection_trials} injections detected")
    return result


# ---------------------------------------------------------------------------
# end-to-end use case


@dataclass
class ConsumerDecision:
    """One consumer pass: the tick's verified records it read, its own time,
    and the wait for the tick's verified data before it could start."""

    records_seen: int
    busy_ms: float
    availability_ms: float


def consumer_xapp_loop(store: TelemetryStore, t: int,
                       availability_ms: float) -> ConsumerDecision:
    """Stub consumer control loop: read the tick's verified records and run
    a fixed-cost pass standing in for the out-of-scope classifier. The pass
    is a maximum, a reduction that cannot overflow: a record's features are
    only known to be finite."""
    records = store.records_at(t * TICK_MS)
    started = wall_ns()
    if records:
        matrix = records_to_matrix(records)
        float(matrix.max())  # fixed-cost decision stub
    return ConsumerDecision(records_seen=len(records),
                            busy_ms=(wall_ns() - started) / 1e6,
                            availability_ms=availability_ms)


@dataclass
class TickReport:
    """What one pipeline did in one tick, by wall clock; a runner's cost
    model replaces every time but ``real_wall_ms``. The decision holds the
    data availability.

    ``counts`` holds the tick's counts by reason, 0 where none occurred:
    frames dropped as ``codec_errors`` (so are KPM payloads that fail to
    decode), ``diverted`` (a signature matched) or ``blocked`` (unscanned:
    their node is on the blocklist); KPM records dropped as ``off_tick`` (not
    stamped with the tick's time) or ``replays`` (their UE already reported
    in the tick); records ``scored``, ``flagged`` (mitigated, not stored) and
    ``stored``; the ``incidents`` the tick logged. ``verdicts`` holds the
    inspector's verdict on each frame in frame order, None where no inspector
    saw it (it failed to decode, or the pipeline has none)."""

    inspector_ms: float
    detector_ms: float
    counts: Counter[str]
    verdicts: list[Verdict | None]
    decision: ConsumerDecision
    loop_wall_ms: float
    real_wall_ms: float


class RicPipeline:
    """The near-RT chain over one tick's E2 frames: decode, inspect, decode
    KPM and drop stale records, score, mitigate, store, consumer xApp.

    Built with a rulebook and a detector bundle it is the guarded arm of the
    use case; built without them, the baseline that decodes and stores. A
    KPM record is fresh only when it is stamped ``t * TICK_MS`` and its UE
    has not yet reported in tick ``t``. Frames that fail to decode or that
    inspection stops, KPM payloads that fail to decode, and stale KPM
    records are dropped, and the tick's report counts them; no per-record
    state outlives the tick. A size-calibrated indication carries stand-in
    bytes, not a KPM report, so it counts as a codec error. Incidents are
    stamped with the tick's time. Times are wall clock; the detector's is
    its array call, :meth:`~ricguard.detector.StreamingDetector.score_tick`,
    alone. After it, the tick's flagged records are mitigated in one
    :func:`~ricguard.mitigation.apply_kpm_actions` call and the kept ones
    are stored.
    """

    def __init__(self, *, rulebook: SignatureSet | None = None,
                 bundle: DetectorBundle | None = None) -> None:
        self.policy = experiment_policy(rulebook)
        self.store = TelemetryStore()
        self.mitigation = MitigationState()
        # one inspector for every E2 connection, on the pipeline's blocklist
        self.inspector = (None if rulebook is None else
                          IngressInspector(NaiveMatcher(rulebook), self.mitigation.blocklist))
        self.detector = None if bundle is None else StreamingDetector(bundle)

    def process_tick(self, t: int, frames: Sequence[bytes]) -> TickReport:
        started, tick_ms = wall_ns(), t * TICK_MS
        inspect_ns = detect_ns = 0
        counts: Counter[str] = Counter()
        verdicts: list[Verdict | None] = [None] * len(frames)
        logged = len(self.mitigation.log)
        records: list[KpmRecord] = []
        sources: list[int] = []  # the sending node of each record
        seen: set[int] = set()  # the UEs that reported in the tick
        for i, frame in enumerate(frames):
            try:
                msg = decode_frame(frame)
            except E2CodecError:
                counts["codec_errors"] += 1
                continue
            if self.inspector is not None:
                outcome = self.inspector.inspect(msg, loop=t)
                inspect_ns += outcome.inspect_latency_ns
                verdicts[i] = verdict = outcome.verdict
                if verdict is Verdict.MALICIOUS:
                    event = DetectionEvent(
                        detector="inspector", evidence="sig:" + _hit_ids(outcome.match),
                        timestamp_ms=tick_ms, node_id=msg.source_node_id,
                    )
                    apply_actions(self.mitigation, event,
                                  resolve_inspector_event(outcome.match, self.policy))
                    counts["diverted"] += 1
                    continue  # never reaches dispatch
                if verdict is Verdict.BLOCKED:
                    counts["blocked"] += 1
                    continue
            decoded = _fresh_kpm_records(msg, tick_ms, seen, counts)
            records.extend(decoded)
            sources.extend([msg.source_node_id] * len(decoded))

        kept: Iterable[KpmRecord] = records
        if self.detector is not None:
            detect_started = wall_ns()
            scored, scores, keep = self.detector.score_tick(records)
            detect_ns = wall_ns() - detect_started
            counts["scored"] = int(np.count_nonzero(scored))
            keep_list = keep.tolist()
            if not all(keep_list):
                flagged = np.flatnonzero(~keep)
                indices, threshold = flagged.tolist(), self.detector.bundle.threshold
                counts["flagged"] = len(indices)
                apply_kpm_actions(self.mitigation, self.policy,
                                  [classify_magnitude(score, threshold)
                                   for score in scores[flagged].tolist()],
                                  [records[i].ue_id for i in indices],
                                  [sources[i] for i in indices], tick_ms)
                kept = compress(records, keep_list)
        for record in kept:
            self.store.append(record)
        counts["stored"] = len(records) - counts["flagged"]
        counts["incidents"] = len(self.mitigation.log) - logged
        decision = consumer_xapp_loop(self.store, t, (wall_ns() - started) / 1e6)
        wall_ms = (wall_ns() - started) / 1e6
        return TickReport(inspect_ns / 1e6, detect_ns / 1e6, counts, verdicts, decision,
                          loop_wall_ms=wall_ms, real_wall_ms=wall_ms)


def _fresh_kpm_records(msg: E2Message, tick_ms: int, seen: set[int],
                       counts: Counter[str]) -> Sequence[KpmRecord]:
    """The message's fresh KPM records: stamped ``tick_ms``, of a UE not in
    ``seen``, which holds the UEs of the tick's records so far and gains the
    ones returned. ``counts`` gains the tick's drops by reason."""
    if msg.kind is not E2MessageKind.INDICATION:
        return ()
    try:
        decoded = decode_kpm_payload(msg.payload)
    except E2CodecError:
        counts["codec_errors"] += 1
        return ()
    fresh = []
    for record in decoded:
        if record.timestamp != tick_ms:
            counts["off_tick"] += 1
        elif record.ue_id in seen:
            counts["replays"] += 1
        else:
            seen.add(record.ue_id)
            fresh.append(record)
    return fresh


def _charge_tick(report: TickReport, frames: Sequence[bytes], rulebook: SignatureSet,
                 cost_model: CostModel) -> TickReport:
    """The report with its times replaced by the cost model's charge: the
    availability is its frames' decodes, its scans' textbook comparisons,
    its scored and stored records; the loop time adds one consumer pass."""
    inspect_ns = sum(cost_model.scan_ns(canonical_comparisons(frame[FRAME_HEADER_SIZE:],
                                                              rulebook))
                     for frame, verdict in zip(frames, report.verdicts)
                     if verdict is Verdict.BENIGN or verdict is Verdict.MALICIOUS)
    detect_ns = cost_model.scoring_ns(report.counts["scored"])
    decode_ns = sum(cost_model.decode_ns(len(frame)) for frame in frames)
    availability_ms = (decode_ns + inspect_ns + detect_ns
                       + cost_model.store_ns(report.counts["stored"])) / 1e6
    busy_ms = cost_model.consumer_pass_ns / 1e6
    return replace(report, inspector_ms=inspect_ns / 1e6, detector_ms=detect_ns / 1e6,
                   decision=replace(report.decision, availability_ms=availability_ms,
                                    busy_ms=busy_ms),
                   loop_wall_ms=availability_ms + busy_ms)


@dataclass
class UseCaseResult:
    """The use case's reports; each series is read off them per (run, loop),
    run-major, and the times are the guarded arm's. An arm's totals over a
    run are the sums of its reports' counts."""

    total_ues: int
    #: (guarded, baseline) reports per (run, loop), run-major
    reports: list[tuple[TickReport, TickReport]]
    csv_rows: list[str]

    @property
    def shift_ms(self) -> list[float]:
        """The data-availability shift: guarded less baseline availability."""
        return [g.decision.availability_ms - b.decision.availability_ms for g, b in self.reports]

    @property
    def inspector_ms(self) -> list[float]:
        return [g.inspector_ms for g, _ in self.reports]

    @property
    def detector_ms(self) -> list[float]:
        return [g.detector_ms for g, _ in self.reports]

    @property
    def real_wall_ms(self) -> list[float]:
        return [g.real_wall_ms for g, _ in self.reports]

    @property
    def avg_shift_ms(self) -> float:
        return sum(self.shift_ms) / len(self.shift_ms)

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
    out_dir=None,
) -> UseCaseResult:
    """Each tick, one emulator's frames go through the guarded pipeline and
    then the baseline pipeline, measuring the data-availability shift the
    safeguards impose on the consumer xApp; a cost model charges each report."""
    _require_runs(runs)
    require_kpm_telemetry(config)
    reports: list[tuple[TickReport, TickReport]] = []
    for run in range(runs):
        emulator = RanEmulator(config, rulebook, run_seed=config.rng_seed + 1 + run)
        guarded, baseline = RicPipeline(rulebook=rulebook, bundle=bundle), RicPipeline()
        with _gc_paused():
            for t in range(config.loops):
                frames = [em.frame for em in emulator.step(t)]
                pair = guarded.process_tick(t, frames), baseline.process_tick(t, frames)
                if cost_model is not None:
                    pair = tuple(_charge_tick(report, frames, rulebook, cost_model)
                                 for report in pair)
                reports.append(pair)
    result = UseCaseResult(total_ues=emulator.ue_count, reports=reports, csv_rows=[
        f"{i // config.loops},{i % config.loops},{g.inspector_ms:.6f},{g.detector_ms:.6f},"
        f"{g.decision.availability_ms - b.decision.availability_ms:.6f},{g.loop_wall_ms:.6f}"
        for i, (g, b) in enumerate(reports)])
    if out_dir is not None:
        write_csv(Path(out_dir) / f"use_case_{result.total_ues}ues.csv",
                  USE_CASE_CSV_HEADER, result.csv_rows)
    real_wall_ms = result.real_wall_ms
    worst = max(real_wall_ms)
    if worst >= LOOP_BUDGET_MS:
        at = real_wall_ms.index(worst)
        raise ConstraintViolation(
            f"control loop {at % config.loops} of run {at // config.loops} took "
            f"{worst:.1f} ms, over the {LOOP_BUDGET_MS:.0f} ms budget"
        )
    return result
