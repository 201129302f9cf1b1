"""Data-level safeguard: anomaly scoring of live KPM streams.

The anomaly score of a record is the mean squared error between the
sequence model's next-step prediction (from the ten preceding records of
the same UE) and the record's normalized features. The detection threshold
is the 99.5th percentile of benign validation scores, so the false-positive
regime is fixed by construction; anomalous scores are further classified
into small/moderate/significant deviation magnitudes for the mitigation
policy.

A trained (model, scaler, threshold) bundle persists as a flat binary
file::

    magic 'KPMD' | version u32 | hidden_size u32      (big-endian)
    scaler mean (6 f64) | scaler std (6 f64)
    w_x | w_h | b | w_out | b_out                     (f64, row-major)

The streaming detector keeps one rolling window per UE, a row of one context
array, fed only by records it has verified: flagged records never enter the
history (nor the store), so scoring context stays clean during an attack.
After an attack window the history carries a time gap until fresh benign
records roll it over; the public :func:`score_window` contract (ten
consecutive one-second records) is unchanged. Verdicts and scored records
are immutable named tuples, built in one pass per tick.
"""

from __future__ import annotations

import math
import struct
from dataclasses import astuple, dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .kpm import FEATURE_COUNT, SEQUENCE_LENGTH, TICK_MS, FeatureScaler, KpmRecord, records_to_matrix
from .mitigation import Magnitude
from .recurrent import SequenceModel, predict

BUNDLE_MAGIC = b"KPMD"
BUNDLE_VERSION = 1

#: Magnitude band edges as multiples of the threshold.
MODERATE_EDGE = 2.0
SIGNIFICANT_EDGE = 4.0

#: Context rows a streaming detector starts with; the array doubles as UEs join.
INITIAL_CONTEXT_ROWS = 16

#: Benign validation windows a threshold calibration needs.
MIN_CALIBRATION_WINDOWS = 500

#: Quantile of benign validation scores taken as the threshold.
CALIBRATION_QUANTILE = 0.995


class CalibrationError(ValueError):
    """Raised when threshold calibration preconditions fail."""


class AnomalyVerdict(NamedTuple):
    """A scored record; it is anomalous unless ``score <= threshold``."""

    ue_id: int
    timestamp: int
    score: float
    threshold: float

    @property
    def is_anomalous(self) -> bool:
        # fails closed: a NaN score compares false, so it is anomalous
        return not self.score <= self.threshold

    @property
    def magnitude(self) -> Magnitude | None:
        """Deviation magnitude, set exactly for anomalous verdicts."""
        return classify_magnitude(self.score, self.threshold) if self.is_anomalous else None


def _validate_window(window: Sequence[KpmRecord], next_record: KpmRecord) -> None:
    if len(window) != SEQUENCE_LENGTH:
        raise ValueError(f"window of {len(window)} records, expected {SEQUENCE_LENGTH}")
    ue_ids = {r.ue_id for r in window} | {next_record.ue_id}
    if len(ue_ids) != 1:
        raise ValueError("window and next record must belong to one UE")
    times = [r.timestamp for r in window]
    deltas = {b - a for a, b in zip(times, times[1:])}
    if deltas != {TICK_MS}:
        raise ValueError("window records must be strictly increasing at one-second spacing")
    if next_record.timestamp <= times[-1]:
        raise ValueError("next record must follow the window")


def score_window(model: SequenceModel, scaler: FeatureScaler,
                 window: Sequence[KpmRecord], next_record: KpmRecord) -> float:
    """Anomaly score for one UE's next record given its last ten records."""
    _validate_window(window, next_record)
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
                        validation_targets: np.ndarray) -> float:
    """Threshold = the :data:`CALIBRATION_QUANTILE` of benign validation
    scores, so at most 0.5% of them lie above it."""
    if validation_inputs.shape[0] < MIN_CALIBRATION_WINDOWS:
        raise CalibrationError(
            f"calibration needs at least {MIN_CALIBRATION_WINDOWS} benign windows, "
            f"got {validation_inputs.shape[0]}"
        )
    scores = score_batch(model, validation_inputs, validation_targets)
    return float(np.quantile(scores, CALIBRATION_QUANTILE))


def classify_magnitude(score: float, threshold: float) -> Magnitude:
    """Deviation magnitude from the score/threshold ratio.

    (1, 2] small, (2, 4] moderate, above 4 significant; a NaN score,
    which no band holds, is significant.
    """
    if score <= threshold:
        raise ValueError("magnitude is only defined for anomalous scores")
    ratio = score / threshold
    if ratio <= MODERATE_EDGE:
        return Magnitude.SMALL
    if ratio <= SIGNIFICANT_EDGE:
        return Magnitude.MODERATE
    return Magnitude.SIGNIFICANT


@dataclass(frozen=True)
class DetectorBundle:
    """Immutable trained artefact: model + scaler + calibrated threshold.

    The threshold must be finite and positive: an infinite one flags
    nothing, and a zero one leaves no magnitude (score / threshold) for the
    first flagged record.
    """

    model: SequenceModel
    scaler: FeatureScaler
    threshold: float

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < math.inf:  # NaN fails too
            raise ValueError(f"detector threshold {self.threshold} is not finite and positive")


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


class ScoredRecord(NamedTuple):
    """One streamed record with its verdict (None during per-UE warm-up)."""

    record: KpmRecord
    verdict: AnomalyVerdict | None


class StreamingDetector:
    """Tick-batched scoring over live telemetry.

    Records are scored against the UE's last ``SEQUENCE_LENGTH`` verified
    records; all UEs of one tick are scored in a single forward pass.
    Anomalous records are excluded from future history. The caller times
    the tick.

    The context of all UEs is one (rows, SEQUENCE_LENGTH, features) array
    of normalized records, each UE's newest record last, with a per-row
    fill count; a UE takes the next free row when first seen, and the
    array doubles when it runs out of rows.
    """

    def __init__(self, bundle: DetectorBundle) -> None:
        self.bundle = bundle
        self._rows: dict[int, int] = {}
        self._context = np.empty((INITIAL_CONTEXT_ROWS, SEQUENCE_LENGTH, FEATURE_COUNT))
        self._fill = np.zeros(INITIAL_CONTEXT_ROWS, dtype=np.intp)

    def observe_tick(self, records: Sequence[KpmRecord]) -> list[ScoredRecord]:
        model, threshold = self.bundle.model, self.bundle.threshold
        normalized = self.bundle.scaler.normalize(records_to_matrix(records))
        rows = self._rows_of(records)
        # every record is scored against the context from before this tick
        scorable = np.flatnonzero(self._fill[rows] == SEQUENCE_LENGTH)
        scored = np.zeros(len(records), dtype=bool)
        scored[scorable] = True
        scores = np.zeros(len(records))
        if scorable.size:
            scores[scorable] = score_batch(model, self._context[rows[scorable]],
                                           normalized[scorable])
        keep = ~scored | (scores <= threshold)  # a NaN score is anomalous
        self._append(rows[keep], normalized[keep])
        # both named tuples only pack their fields; tuple.__new__ packs them
        # without a Python-level constructor call per record
        new = tuple.__new__
        return [new(ScoredRecord, (rec, new(AnomalyVerdict, (rec.ue_id, rec.timestamp,
                                                              score, threshold))
                                   if is_scored else None))
                for rec, is_scored, score in zip(records, scored.tolist(), scores.tolist())]

    def _rows_of(self, records: Sequence[KpmRecord]) -> np.ndarray:
        """Context row of each record's UE; a new UE takes the next row."""
        index = self._rows
        rows = np.fromiter((index.setdefault(rec.ue_id, len(index)) for rec in records),
                           dtype=np.intp, count=len(records))
        capacity = len(self._fill)
        if len(index) > capacity:
            while capacity < len(index):
                capacity *= 2
            extra = capacity - len(self._fill)
            self._context = np.pad(self._context, ((0, extra), (0, 0), (0, 0)))
            self._fill = np.pad(self._fill, (0, extra))
        return rows

    def _append(self, rows: np.ndarray, normalized: np.ndarray) -> None:
        """Shift each row left by one and put its record last, in record
        order: a UE with several records takes one per round."""
        context, seq_len = self._context, self._context.shape[1]
        while rows.size:
            _, first = np.unique(rows, return_index=True)
            now = rows[first]
            context[now, :-1] = context[now, 1:]
            context[now, -1] = normalized[first]
            self._fill[now] = np.minimum(self._fill[now] + 1, seq_len)
            later = np.ones(rows.size, dtype=bool)
            later[first] = False
            rows, normalized = rows[later], normalized[later]


@dataclass
class DetectorMetrics:
    """Detection counts over labelled runs, and the mean detector time per
    scored record (set by the caller that timed the ticks)."""

    scored_poisoned: int = 0
    scored_benign: int = 0
    flagged_poisoned: int = 0
    flagged_benign: int = 0
    mean_latency_ms: float = 0.0

    @property
    def adr_pct(self) -> float | None:
        """Flagged share of the scored poisoned records; None without any."""
        poisoned = self.scored_poisoned
        return 100.0 * self.flagged_poisoned / poisoned if poisoned else None

    @property
    def fpr_pct(self) -> float:
        benign = self.scored_benign
        return 100.0 * self.flagged_benign / benign if benign else 0.0

    def __add__(self, other: DetectorMetrics) -> DetectorMetrics:
        """The counts of both, pooled; the latency is left to the caller."""
        counts = zip(astuple(self)[:4], astuple(other)[:4])
        return DetectorMetrics(*(mine + theirs for mine, theirs in counts))


def evaluate(scored: Sequence[ScoredRecord],
             labels: Mapping[tuple[int, int], bool]) -> DetectorMetrics:
    """Detection counts over the scored records of a labelled run.

    ``labels`` maps (ue_id, timestamp_ms) to the injector's ground truth.
    Warm-up records (no verdict) are excluded.
    """
    metrics = DetectorMetrics()
    for item in scored:
        if item.verdict is None:
            continue
        key = (item.record.ue_id, item.record.timestamp)
        if key not in labels:
            raise KeyError(f"scored record {key} has no ground-truth label")
        flagged = item.verdict.is_anomalous
        if labels[key]:
            metrics.scored_poisoned += 1
            metrics.flagged_poisoned += flagged
        else:
            metrics.scored_benign += 1
            metrics.flagged_benign += flagged
    return metrics
