"""Per-UE KPM telemetry records, feature scaling, and training windows.

A record is one UE's measurements for one reporting second. The record
carries eight fields: the timestamp and UE id identify the stream, the
remaining six are the model's measurement features, always handled in this
fixed order:

    UEThpUl, PrbUsedUl, UEThpDl, PrbUsedDl, TotNbrUl_per_sec, TotNbrDl_per_sec

Records are validated, immutable named tuples. The ``KpmRecord``
constructor validates one record, and the E2 decoder builds each decoded
record through it; the emulator applies the same check to a tick's whole
feature matrix once, then packs the tuples. The features of a record are
the slice ``record[2:]``, and a batch stacks into a matrix in one
``np.fromiter`` pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

FEATURE_NAMES = (
    "UEThpUl",
    "PrbUsedUl",
    "UEThpDl",
    "PrbUsedDl",
    "TotNbrUl_per_sec",
    "TotNbrDl_per_sec",
)
FEATURE_COUNT = len(FEATURE_NAMES)
#: Reporting period: one record per UE per simulated second.
TICK_MS = 1000
#: Records of context the sequence model reads before each prediction.
SEQUENCE_LENGTH = 10


class ScalerError(ValueError):
    """Raised when scaler fitting preconditions fail."""


class _KpmFields(NamedTuple):
    timestamp: int
    ue_id: int
    ue_thp_ul: float
    prb_used_ul: float
    ue_thp_dl: float
    prb_used_dl: float
    tot_nbr_ul_per_sec: float
    tot_nbr_dl_per_sec: float


class KpmRecord(_KpmFields):
    """One UE's KPM row for one reporting second.

    ``timestamp`` is milliseconds since scenario start (simulated clock).
    Measurement features are stored as floats; all must be finite and
    non-negative. A record is an immutable named tuple in field order, so
    ``record[2:]`` is its six features. It is built by its validating
    constructor, positionally or by keyword; ``_make`` and ``_replace`` go
    through it too.
    """

    __slots__ = ()

    def __new__(cls, timestamp: int, ue_id: int, ue_thp_ul: float, prb_used_ul: float,
                ue_thp_dl: float, prb_used_dl: float, tot_nbr_ul_per_sec: float,
                tot_nbr_dl_per_sec: float) -> "KpmRecord":
        # chained comparisons: NaN fails both sides, so it is rejected too
        inf = math.inf
        if not (0.0 <= ue_thp_ul < inf and 0.0 <= prb_used_ul < inf
                and 0.0 <= ue_thp_dl < inf and 0.0 <= prb_used_dl < inf
                and 0.0 <= tot_nbr_ul_per_sec < inf and 0.0 <= tot_nbr_dl_per_sec < inf):
            raise ValueError(f"negative or non-finite KPM feature in record "
                             f"(ue={ue_id}, t={timestamp})")
        return tuple.__new__(cls, (timestamp, ue_id, ue_thp_ul, prb_used_ul, ue_thp_dl,
                                   prb_used_dl, tot_nbr_ul_per_sec, tot_nbr_dl_per_sec))

    @classmethod
    def _make(cls, iterable) -> "KpmRecord":
        # the inherited _make, which _replace calls, would skip __new__
        return cls(*iterable)

    def feature_values(self) -> tuple[float, ...]:
        return self[2:]

    def features(self) -> np.ndarray:
        return np.array(self[2:], dtype=np.float64)


def records_to_matrix(records: Sequence[KpmRecord]) -> np.ndarray:
    """Stack measurement features into an (n, 6) float64 matrix."""
    features = chain.from_iterable(rec[2:] for rec in records)
    count = FEATURE_COUNT * len(records)
    return np.fromiter(features, dtype=np.float64, count=count).reshape(-1, FEATURE_COUNT)


@dataclass(frozen=True)
class FeatureScaler:
    """Per-feature standardisation fitted on benign training records.

    Uses the population convention (ddof=0). Timestamp and UE id are stream
    identifiers, not scaled model inputs.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        if self.mean.shape != (FEATURE_COUNT,) or self.std.shape != (FEATURE_COUNT,):
            raise ScalerError("scaler statistics must have one entry per measurement feature")
        # NaN fails both comparisons, so it is rejected too
        if not (np.isfinite(self.mean).all() and ((0.0 < self.std) & (self.std < np.inf)).all()):
            raise ScalerError("scaler means must be finite and standard deviations "
                              "finite and positive")

    def normalize(self, features: np.ndarray) -> np.ndarray:
        return (features - self.mean) / self.std


def fit_scaler(records: Sequence[KpmRecord]) -> FeatureScaler:
    """Fit per-feature mean/std; rejects constant features by name."""
    if len(records) < 2:
        raise ScalerError("scaler fitting requires at least 2 records")
    matrix = records_to_matrix(records)
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)  # population convention
    for name, sd in zip(FEATURE_NAMES, std):
        if sd <= 0:
            raise ScalerError(f"feature {name} is constant in the training data")
    return FeatureScaler(mean=mean, std=std)


def build_windows(records: Sequence[KpmRecord],
                  scaler: FeatureScaler) -> tuple[np.ndarray, np.ndarray]:
    """Build normalized next-step windows from a record stream.

    Groups by UE, orders by timestamp, and slides a window over each run of
    consecutive (tick-spaced) records. Returns (inputs, targets) with shapes
    (n, SEQUENCE_LENGTH, 6) and (n, 6); the target is the record following
    the window. Windows come out by UE id, then by end timestamp.

    One array pass: a stable sort on (UE id, timestamp) orders the rows, so
    records sharing a UE id and timestamp keep their input order; a step
    between neighbouring rows counts when both belong to one UE and lie one
    tick apart (a duplicate is a step of 0, so no window spans it), and a
    window is kept when all of its SEQUENCE_LENGTH steps count. Inputs and
    targets are then one gather each from the normalized rows.
    """
    n = len(records)
    ue = np.fromiter((rec.ue_id for rec in records), dtype=np.int64, count=n)
    ts = np.fromiter((rec.timestamp for rec in records), dtype=np.int64, count=n)
    order = np.lexsort((ts, ue))
    ue, ts = ue[order], ts[order]
    feats = scaler.normalize(records_to_matrix(records)[order])
    steps = (ue[1:] == ue[:-1]) & (np.diff(ts) == TICK_MS)
    if len(steps) < SEQUENCE_LENGTH:
        return (
            np.empty((0, SEQUENCE_LENGTH, FEATURE_COUNT)),
            np.empty((0, FEATURE_COUNT)),
        )
    # window k reads rows k .. k+SEQUENCE_LENGTH-1 and targets the next row
    ends = np.flatnonzero(sliding_window_view(steps, SEQUENCE_LENGTH).all(axis=1))
    ends += SEQUENCE_LENGTH
    return feats[ends[:, None] + np.arange(-SEQUENCE_LENGTH, 0)], feats[ends]
