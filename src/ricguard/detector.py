"""Data-level safeguard: anomaly scoring of live KPM streams.

The anomaly score of a record is the mean squared error between the
sequence model's next-step prediction (from the ten preceding records of
the same UE) and the record's normalized features. The detection threshold
is a high quantile of benign validation scores, so the false-positive
regime is fixed by construction; anomalous scores are further classified
into small/moderate/significant deviation magnitudes for the mitigation
policy.

A trained (model, scaler, threshold) bundle persists as a flat binary
file::

    magic 'KPMD' | version u32 | hidden_size u32      (big-endian)
    scaler mean (6 f64) | scaler std (6 f64)
    w_x | w_h | b | w_out | b_out                     (f64, row-major)

The streaming detector keeps one rolling window per UE, fed only by records
it has verified: flagged records never enter the history (nor the store),
so scoring context stays clean during an attack. After an attack window the
history carries a time gap until fresh benign records roll it over; the
public :func:`score_window` contract (ten consecutive one-second records)
is unchanged.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .kpm import FEATURE_COUNT, FeatureScaler, KpmRecord, records_to_matrix
from .mitigation import Magnitude
from .recurrent import SequenceModel, predict
from .timing import wall_ns

BUNDLE_MAGIC = b"KPMD"
BUNDLE_VERSION = 1

#: Magnitude band edges as multiples of the threshold.
MODERATE_EDGE = 2.0
SIGNIFICANT_EDGE = 4.0


class CalibrationError(ValueError):
    """Raised when threshold calibration preconditions fail."""


@dataclass(frozen=True)
class AnomalyVerdict:
    ue_id: int
    timestamp: int
    score: float
    threshold: float
    is_anomalous: bool
    magnitude: Magnitude | None

    def __post_init__(self) -> None:
        if self.is_anomalous != (self.score > self.threshold):
            raise ValueError("is_anomalous must mirror score > threshold")
        if self.is_anomalous == (self.magnitude is None):
            raise ValueError("magnitude is set exactly for anomalous verdicts")


def _validate_window(window: Sequence[KpmRecord], next_record: KpmRecord,
                     sequence_length: int, tick_ms: int = 1000) -> None:
    if len(window) != sequence_length:
        raise ValueError(f"window of {len(window)} records, expected {sequence_length}")
    ue_ids = {r.ue_id for r in window} | {next_record.ue_id}
    if len(ue_ids) != 1:
        raise ValueError("window and next record must belong to one UE")
    times = [r.timestamp for r in window]
    deltas = {b - a for a, b in zip(times, times[1:])}
    if deltas != {tick_ms}:
        raise ValueError("window records must be strictly increasing at one-second spacing")
    if next_record.timestamp <= times[-1]:
        raise ValueError("next record must follow the window")


def score_window(model: SequenceModel, scaler: FeatureScaler,
                 window: Sequence[KpmRecord], next_record: KpmRecord) -> float:
    """Anomaly score for one UE's next record given its last ten records."""
    _validate_window(window, next_record, model.sequence_length)
    inputs = scaler.normalize(records_to_matrix(list(window)))[np.newaxis, :, :]
    target = scaler.normalize(next_record.features())
    prediction = predict(model, inputs)[0]
    diff = prediction - target
    return float(np.mean(diff * diff))


def score_batch(model: SequenceModel, inputs: np.ndarray,
                targets: np.ndarray) -> np.ndarray:
    """Scores for pre-normalized windows; one batched forward pass."""
    diff = predict(model, inputs) - targets
    return np.mean(diff * diff, axis=1)


def calibrate_threshold(model: SequenceModel, scaler: FeatureScaler,
                        validation_inputs: np.ndarray,
                        validation_targets: np.ndarray,
                        quantile: float = 0.995) -> float:
    """Threshold = the given quantile of benign validation scores."""
    if validation_inputs.shape[0] < 500:
        raise CalibrationError(
            f"calibration needs at least 500 benign windows, got {validation_inputs.shape[0]}"
        )
    if not 0.0 < quantile <= 1.0:
        raise CalibrationError("quantile must lie in (0, 1]")
    scores = score_batch(model, validation_inputs, validation_targets)
    return float(np.quantile(scores, quantile))


def classify_magnitude(score: float, threshold: float) -> Magnitude:
    """Deviation magnitude from the score/threshold ratio.

    (1, 2] small, (2, 4] moderate, above 4 significant.
    """
    if score <= threshold:
        raise ValueError("magnitude is only defined for anomalous scores")
    ratio = score / threshold
    if ratio <= MODERATE_EDGE:
        return Magnitude.SMALL
    if ratio <= SIGNIFICANT_EDGE:
        return Magnitude.MODERATE
    return Magnitude.SIGNIFICANT


def make_verdict(record: KpmRecord, score: float, threshold: float) -> AnomalyVerdict:
    anomalous = score > threshold
    return AnomalyVerdict(
        ue_id=record.ue_id,
        timestamp=record.timestamp,
        score=score,
        threshold=threshold,
        is_anomalous=anomalous,
        magnitude=classify_magnitude(score, threshold) if anomalous else None,
    )


@dataclass(frozen=True)
class DetectorBundle:
    """Immutable trained artefact: model + scaler + calibrated threshold."""

    model: SequenceModel
    scaler: FeatureScaler
    threshold: float


def save_bundle(bundle: DetectorBundle, path) -> None:
    model = bundle.model
    parts = [BUNDLE_MAGIC, struct.pack(">II", BUNDLE_VERSION, model.hidden_size)]
    arrays = [
        bundle.scaler.mean,
        bundle.scaler.std,
        np.array([bundle.threshold]),
        model.w_x,
        model.w_h,
        model.b,
        model.w_out,
        model.b_out,
    ]
    for arr in arrays:
        parts.append(np.ascontiguousarray(arr, dtype=">f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_bundle(path) -> DetectorBundle:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != BUNDLE_MAGIC:
        raise ValueError("not a detector bundle (bad magic)")
    version, hidden = struct.unpack(">II", blob[4:12])
    if version != BUNDLE_VERSION:
        raise ValueError(f"unsupported bundle version {version}")
    offset = 12

    def take(count: int) -> np.ndarray:
        nonlocal offset
        arr = np.frombuffer(blob, dtype=">f8", count=count, offset=offset)
        offset += 8 * count
        return arr.astype(np.float64)

    f = FEATURE_COUNT
    mean = take(f)
    std = take(f)
    threshold = float(take(1)[0])
    model = SequenceModel(
        w_x=take(4 * hidden * f).reshape(4 * hidden, f),
        w_h=take(4 * hidden * hidden).reshape(4 * hidden, hidden),
        b=take(4 * hidden),
        w_out=take(f * hidden).reshape(f, hidden),
        b_out=take(f),
        hidden_size=hidden,
    )
    if offset != len(blob):
        raise ValueError("trailing bytes after bundle payload")
    return DetectorBundle(model=model, scaler=FeatureScaler(mean=mean, std=std), threshold=threshold)


@dataclass
class ScoredRecord:
    """One streamed record with its verdict (None during per-UE warm-up)."""

    record: KpmRecord
    verdict: AnomalyVerdict | None
    latency_ns: int = 0


class StreamingDetector:
    """Tick-batched scoring over live telemetry.

    Records are scored against the UE's last ``sequence_length`` verified
    records; all UEs of one tick are scored in a single forward pass.
    Anomalous records are excluded from future history. Each scored record
    carries an equal share of the tick's wall-clock scoring time.
    """

    def __init__(self, bundle: DetectorBundle) -> None:
        self.bundle = bundle
        self._normalized: dict[int, deque[np.ndarray]] = {}

    def observe_tick(self, records: Sequence[KpmRecord]) -> list[ScoredRecord]:
        model = self.bundle.model
        scaler = self.bundle.scaler
        seq_len = model.sequence_length

        started = wall_ns()
        scorable: list[int] = []
        inputs: list[np.ndarray] = []
        targets: list[np.ndarray] = []
        normalized: list[np.ndarray] = []
        for idx, rec in enumerate(records):
            norm = scaler.normalize(rec.features())
            normalized.append(norm)
            hist = self._normalized.get(rec.ue_id)
            if hist is not None and len(hist) == seq_len:
                scorable.append(idx)
                inputs.append(np.stack(hist))
                targets.append(norm)
        scores: np.ndarray | None = None
        if scorable:
            scores = score_batch(model, np.stack(inputs), np.stack(targets))

        results: list[ScoredRecord] = []
        score_by_idx = dict(zip(scorable, scores.tolist() if scores is not None else []))
        for idx, rec in enumerate(records):
            verdict = None
            if idx in score_by_idx:
                verdict = make_verdict(rec, score_by_idx[idx], self.bundle.threshold)
            if verdict is None or not verdict.is_anomalous:
                norm_hist = self._normalized.setdefault(rec.ue_id, deque(maxlen=seq_len))
                norm_hist.append(normalized[idx])
            results.append(ScoredRecord(record=rec, verdict=verdict))

        if scorable:
            per_record = (wall_ns() - started) // len(scorable)
            for res in results:
                if res.verdict is not None:
                    res.latency_ns = per_record
        return results


@dataclass
class DetectorMetrics:
    """Aggregate detection quality over a labelled run."""

    adr_pct: float | None
    fpr_pct: float
    mean_latency_ms: float
    scored_poisoned: int = 0
    scored_benign: int = 0
    flagged_poisoned: int = 0
    flagged_benign: int = 0


def evaluate(scored: Sequence[ScoredRecord],
             labels: Mapping[tuple[int, int], bool]) -> DetectorMetrics:
    """ADR/FPR/latency over the scored records of a labelled run.

    ``labels`` maps (ue_id, timestamp_ms) to the injector's ground truth.
    Warm-up records (no verdict) are excluded; ADR is reported absent when
    the run contained no scored poisoned records.
    """
    poisoned = benign = flagged_poisoned = flagged_benign = 0
    latency_total_ns = 0
    for item in scored:
        if item.verdict is None:
            continue
        key = (item.record.ue_id, item.record.timestamp)
        if key not in labels:
            raise KeyError(f"scored record {key} has no ground-truth label")
        latency_total_ns += item.latency_ns
        if labels[key]:
            poisoned += 1
            if item.verdict.is_anomalous:
                flagged_poisoned += 1
        else:
            benign += 1
            if item.verdict.is_anomalous:
                flagged_benign += 1
    total_scored = poisoned + benign
    return DetectorMetrics(
        adr_pct=(100.0 * flagged_poisoned / poisoned) if poisoned else None,
        fpr_pct=(100.0 * flagged_benign / benign) if benign else 0.0,
        mean_latency_ms=(latency_total_ns / total_scored / 1e6) if total_scored else 0.0,
        scored_poisoned=poisoned,
        scored_benign=benign,
        flagged_poisoned=flagged_poisoned,
        flagged_benign=flagged_benign,
    )
