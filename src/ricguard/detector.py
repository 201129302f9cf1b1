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
consecutive one-second records) is unchanged. A UE reports once per second,
so a tick holds at most one record per UE, and each kept record moves its
UE's window one step; a tick that repeats a UE is refused whole.
:meth:`StreamingDetector.score_tick` scores a tick into arrays;
:meth:`StreamingDetector.observe_tick` packs them into immutable named
tuples, verdicts and scored records, in one pass.

Precision is split as in mixed-precision training (Micikevicius et al.,
ICLR 2018): training, calibration, :func:`score_window`, :func:`score_batch`
on a trained model and the bundle file are float64, and only streaming
inference is float32. The streaming detector casts its model to float32
once and keeps its context in float32; its scores are float64, the float32
prediction less the float64 normalized record, and so is the threshold
test.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
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

#: Bound on a normalized feature before it is scored or cast to the float32
#: context: a hostile record cannot overflow the cast or the forward pass,
#: and a clipped record still scores about 1e35, far above any threshold.
NORMALIZED_BOUND = 1e18

#: Benign validation windows a threshold calibration needs.
MIN_CALIBRATION_WINDOWS = 500

#: Quantile of benign validation scores taken as the threshold.
CALIBRATION_QUANTILE = 0.995


class CalibrationError(ValueError):
    """Raised when threshold calibration preconditions fail."""


class AnomalyVerdict(NamedTuple):
    """A UE's score against the threshold; it is anomalous unless ``score <=
    threshold``. The scored record, with its timestamp, is the
    :class:`ScoredRecord` that holds the verdict."""

    ue_id: int
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
    target = scaler.normalize(next_record[2:])
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
    """Tick-batched scoring over live telemetry, in float32.

    Records are scored against the UE's last ``SEQUENCE_LENGTH`` verified
    records; all UEs of one tick are scored in a single forward pass. A
    tick holds at most one record per UE: one that repeats a UE raises
    ``ValueError`` and changes nothing.
    Anomalous records are excluded from future history. The caller times
    the tick: the pipeline times :meth:`score_tick`, the array call that
    :meth:`observe_tick` wraps, and the detector experiment times
    :meth:`observe_tick`.

    The bundle's model is cast to float32 once, here; the bundle itself is
    not changed. The context of all UEs is one float32 (rows,
    SEQUENCE_LENGTH, features) array of normalized records, each UE's
    newest record last, with a per-row fill count; a UE takes the next free
    row when first seen, and the array doubles when it runs out of rows.
    A tick's kept records shift into their rows in one array step.
    Normalized values are clipped to :data:`NORMALIZED_BOUND` before they
    are scored or stored, so the context stays finite.
    """

    def __init__(self, bundle: DetectorBundle) -> None:
        self.bundle = bundle
        model = bundle.model
        self._model = SequenceModel(
            **{name: param.astype(np.float32) for name, param in model.parameters().items()},
            hidden_size=model.hidden_size)
        self._rows: dict[int, int] = {}
        self._context = np.empty((INITIAL_CONTEXT_ROWS, SEQUENCE_LENGTH, FEATURE_COUNT),
                                 np.float32)
        self._fill = np.zeros(INITIAL_CONTEXT_ROWS, dtype=np.intp)

    def score_tick(self, records: Sequence[KpmRecord]) -> tuple[np.ndarray, np.ndarray,
                                                                 np.ndarray]:
        """Score one tick and add its kept records to the context; returns
        three arrays in record order: ``scored`` marks the records past
        their UE's warm-up, ``scores`` holds their float64 scores (zero for
        the others), and ``keep`` marks the records that enter the history,
        the unscored ones and those scored at or under the threshold."""
        rows = self._rows_of(records)
        bound = NORMALIZED_BOUND
        normalized = np.clip(self.bundle.scaler.normalize(records_to_matrix(records)),
                             -bound, bound)
        # every record is scored against the context from before this tick
        scored = self._fill[rows] == SEQUENCE_LENGTH
        scorable = np.flatnonzero(scored)
        scores = np.zeros(len(records))
        if scorable.size:
            scores[scorable] = score_batch(self._model, self._context[rows[scorable]],
                                           normalized[scorable])
        keep = ~scored | (scores <= self.bundle.threshold)  # a NaN score is anomalous
        self._append(rows[keep], normalized[keep])
        return scored, scores, keep

    def observe_tick(self, records: Sequence[KpmRecord]) -> list[ScoredRecord]:
        """:meth:`score_tick`, with each record packed with its verdict,
        ``(ue_id, score, threshold)``."""
        scored, scores, _ = self.score_tick(records)
        threshold = self.bundle.threshold
        # both named tuples only pack their fields; tuple.__new__ packs them
        # without a Python-level constructor call per record
        new = tuple.__new__
        return [new(ScoredRecord, (rec, new(AnomalyVerdict, (rec.ue_id, score, threshold))
                                   if is_scored else None))
                for rec, is_scored, score in zip(records, scored.tolist(), scores.tolist())]

    def _rows_of(self, records: Sequence[KpmRecord]) -> np.ndarray:
        """Context row of each record's UE; a new UE takes the next row. A
        UE with two records in the tick raises ``ValueError`` first."""
        ue_ids = [rec.ue_id for rec in records]
        if len(set(ue_ids)) < len(ue_ids):
            repeated = sorted(ue for ue, n in Counter(ue_ids).items() if n > 1)
            raise ValueError(f"a tick holds one record per UE; UEs {repeated} repeat")
        index = self._rows
        rows = np.fromiter((index.setdefault(ue, len(index)) for ue in ue_ids),
                           dtype=np.intp, count=len(ue_ids))
        capacity = len(self._fill)
        if len(index) > capacity:
            while capacity < len(index):
                capacity *= 2
            extra = capacity - len(self._fill)
            self._context = np.pad(self._context, ((0, extra), (0, 0), (0, 0)))
            self._fill = np.pad(self._fill, (0, extra))
        return rows

    def _append(self, rows: np.ndarray, normalized: np.ndarray) -> None:
        """Shift each row left by one and put its record last; the rows are
        distinct, one per UE."""
        context = self._context
        context[rows, :-1] = context[rows, 1:]
        context[rows, -1] = normalized
        self._fill[rows] = np.minimum(self._fill[rows] + 1, SEQUENCE_LENGTH)


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
