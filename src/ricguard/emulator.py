"""Deterministic desk-scale RAN/E2 emulation.

Simulates E2 nodes, cells, and UEs on a one-second tick. Benign telemetry
is drawn per UE from a multivariate Gaussian around a per-UE baseline with
AR(1) temporal correlation (coefficient 0.8), so the sequence model has
learnable structure; the marginal distribution of each record is
N(mu, cov). The baselines of all UEs are built as arrays, one row or
matrix per UE: one jitter draw, one broadcast product for the covariances
and one batched eigendecomposition for their factors. Attacks are
reproduced with ground-truth labels:

* KPM poisoning: targeted UEs' reports are resampled i.i.d. from
  N(af*mu, af*cov) during seeded attack windows (the underlying benign
  process keeps evolving — a man-in-the-middle rewrites reports in
  transit).
* Signature injection: messages from malicious nodes carry one uniformly
  chosen rulebook pattern spliced at a uniform payload offset.

Everything derives from one seeded generator: identical configs produce
byte-identical frame streams and labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from itertools import compress, count, repeat
from operator import attrgetter
from typing import NamedTuple, Sequence

import numpy as np

from .e2 import (
    MAX_PAYLOAD_BYTES,
    E2Message,
    E2MessageKind,
    calibrated_indication_payload,
    calibrated_indication_size,
    encode_frame,
    encode_kpm_payload,
    kpm_payload_size,
)
from .kpm import FEATURE_COUNT, SEQUENCE_LENGTH, TICK_MS, KpmRecord
from .signatures import SignatureSet

SETUP_REQUEST_BYTES = 25_000
SUBSCRIPTION_RESPONSE_BYTES = 27  # 38-byte frame
SUBSCRIPTION_DELETE_RESPONSE_BYTES = 11  # 22-byte frame

AR_COEFFICIENT = 0.8
COEFF_OF_VARIATION = 0.05
BASELINE_JITTER = 0.1  # per-UE uniform jitter around the slice baseline

#: First tick eligible for poisoning: every poisoned record must arrive
#: after the detector's per-UE warm-up so it receives a verdict.
MIN_POISON_START = SEQUENCE_LENGTH + 2


class ConfigError(ValueError):
    """Invalid scenario or experiment configuration (CLI exit code 3)."""


class SliceKind(Enum):
    EMBB = "eMBB"
    URLLC = "URLLC"


# Measurement-feature order: UEThpUl, PrbUsedUl, UEThpDl, PrbUsedDl,
# TotNbrUl_per_sec, TotNbrDl_per_sec. eMBB is throughput-heavy; URLLC
# carries many small packets at a fifth of the throughput.
EMBB_BASELINE = np.array([20_000.0, 30.0, 50_000.0, 60.0, 1_000.0, 2_000.0])
URLLC_BASELINE = np.array([4_000.0, 15.0, 10_000.0, 30.0, 2_000.0, 4_000.0])


_CORRELATION = np.eye(FEATURE_COUNT)
_CORRELATION[[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4]] = 0.3  # UL and DL pairs


def default_covariance(mu: np.ndarray) -> np.ndarray:
    """Diagonal-dominant PSD covariance with correlated UL and DL pairs.

    ``mu`` may be one mean vector or a stack of them, (..., 6) to (..., 6, 6).
    """
    sd = COEFF_OF_VARIATION * mu
    return sd[..., :, None] * sd[..., None, :] * _CORRELATION


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """A factor L with L @ L.T = cov for any PSD matrix (handles cov = 0).

    ``cov`` may be a stack of matrices; each is factored on its own.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    return eigenvectors * np.sqrt(np.clip(eigenvalues, 0.0, None))[..., None, :]


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of one emulated scenario; mirrored by the flat config file."""

    node_count: int = 4
    cells_per_node: int = 3
    ues_per_cell: int = 10
    total_ues: int | None = None  # when set, UEs land in random cells
    malicious_node_fraction: float = 0.0
    malicious_message_fraction: float = 0.0
    amplification_factor: float = 1.0
    poison_target_fraction: float = 0.0
    poison_time_fraction: float = 0.25
    loops: int = 100
    rng_seed: int = 1
    size_calibrated: bool = False

    def __post_init__(self) -> None:
        if self.node_count < 1 or self.cells_per_node < 1 or self.loops < 1:
            raise ValueError("node_count, cells_per_node, and loops must be positive")
        for name in ("malicious_node_fraction", "malicious_message_fraction",
                     "poison_target_fraction", "poison_time_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 1.0 <= self.amplification_factor < np.inf:  # also rejects NaN
            raise ValueError("amplification_factor must be finite and >= 1")
        if self.malicious_node_fraction > 0 and self.malicious_message_fraction >= 1.0:
            # full injection would poison every setup request and no malicious
            # node could ever establish its connection
            raise ValueError(
                "malicious_message_fraction must stay below 1 when any node is malicious"
            )
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        if self.total_ues is None:
            if self.ues_per_cell < 1:
                raise ValueError("ues_per_cell must be positive")
            # each cell's indication must fit in one frame
            if self.indication_bytes(self.ues_per_cell) > MAX_PAYLOAD_BYTES:
                raise ValueError(f"ues_per_cell {self.ues_per_cell} overflows the "
                                 f"{MAX_PAYLOAD_BYTES}-byte indication payload cap")
        if self.total_ues is not None and self.total_ues < 1:
            raise ValueError("total_ues must be positive when set")

    def indication_bytes(self, ue_count: int) -> int:
        """Payload bytes of the indication of a cell of ``ue_count`` UEs."""
        if self.size_calibrated:
            return calibrated_indication_size(ue_count)
        return kpm_payload_size(ue_count)


@dataclass(frozen=True)
class UeProfile:
    """Per-UE baseline: slice, placement, mean vector, covariance and its
    factor ``psd_factor(cov)``."""

    ue_id: int
    slice_kind: SliceKind
    node_id: int
    cell_id: int
    mu: np.ndarray
    cov: np.ndarray
    factor: np.ndarray


class GroundTruthLabel(NamedTuple):
    ue_id: int
    timestamp: int
    poisoned: bool
    af_used: float


#: Builds a label from one (ue_id, timestamp, poisoned, af_used) tuple in C.
_label_of = partial(tuple.__new__, GroundTruthLabel)


@dataclass(frozen=True)
class InjectedSignature:
    sig_id: int
    offset: int


@dataclass(frozen=True)
class EmittedMessage:
    """One framed message plus the emulator's ground truth about it."""

    frame: bytes
    kind: E2MessageKind
    node_id: int
    records: tuple[KpmRecord, ...] = ()
    labels: tuple[GroundTruthLabel, ...] = ()
    injected: InjectedSignature | None = None


GROUND_TRUTH_CSV_HEADER = "ue_id,timestamp_ms,poisoned,af"


def poison_records(
    records: Sequence[KpmRecord],
    targets: set[int],
    af: float,
    profiles: Sequence[UeProfile],
    rng: np.random.Generator,
) -> tuple[list[KpmRecord], list[GroundTruthLabel]]:
    """Resample targeted records from the amplified distribution.

    Targeted records are redrawn i.i.d. from N(af*mu, af*cov) and clipped
    at zero; labels mark every record, poisoned or not. af = 1 leaves the
    distribution unchanged but the window is still labelled as attacked.
    ``profiles`` is indexed by UE id. The benign labels are built in one
    ``map``; only targeted records are visited one by one, in order.
    """
    out = list(records)
    ue_ids = list(map(attrgetter("ue_id"), records))
    labels = list(map(_label_of, zip(ue_ids, map(attrgetter("timestamp"), records),
                                     repeat(False), repeat(1.0))))
    scale = np.sqrt(af)
    for idx in compress(count(), map(targets.__contains__, ue_ids)):
        rec = records[idx]
        profile = profiles[rec.ue_id]
        draw = af * profile.mu + scale * (profile.factor @ rng.standard_normal(FEATURE_COUNT))
        values = np.clip(draw, 0.0, None)
        out[idx] = KpmRecord.from_features(rec.timestamp, rec.ue_id, values)
        labels[idx] = GroundTruthLabel(rec.ue_id, rec.timestamp, True, af)
    return out, labels


def inject_signature(
    msg: E2Message, rulebook: SignatureSet, rng: np.random.Generator
) -> tuple[E2Message, InjectedSignature]:
    """Splice one uniformly chosen pattern at a uniform payload offset."""
    sig = rulebook.signatures[int(rng.integers(len(rulebook)))]
    offset = int(rng.integers(0, len(msg.payload) + 1))
    payload = msg.payload[:offset] + sig.pattern + msg.payload[offset:]
    return (
        replace(msg, payload=payload),
        InjectedSignature(sig_id=sig.sig_id, offset=offset),
    )


@dataclass
class _PoisonPlan:
    targets: tuple[int, ...] = ()
    ticks_by_ue: dict[int, frozenset[int]] = field(default_factory=dict)

    def targets_at(self, t: int) -> set[int]:
        return {ue for ue in self.targets if t in self.ticks_by_ue[ue]}


class RanEmulator:
    """Sequential scenario simulator.

    ``config.rng_seed`` pins the scenario identity — UE placement, slice
    assignment, per-UE baselines, and the choice of malicious nodes.
    ``run_seed`` (defaulting to the same value) drives the dynamics: noise,
    attack realisations, payload bytes. Repeating an experiment varies only
    the run seed, so all repetitions observe the same deployed network.

    The UE baselines are built as arrays, each UE's profile holding its rows
    of them; the poison plan is drawn target by target, as the number of
    draws depends on the coverage each reaches. A placement whose largest
    indication cannot be framed is refused with :class:`ConfigError` before
    any baseline is built.
    """

    def __init__(self, config: ScenarioConfig, rulebook: SignatureSet | None = None,
                 run_seed: int | None = None) -> None:
        if config.malicious_node_fraction > 0 and rulebook is None:
            raise ValueError("malicious nodes need a rulebook to inject from")
        self.config = config
        self.rulebook = rulebook
        static_rng = np.random.default_rng(config.rng_seed)
        self._rng = np.random.default_rng(
            config.rng_seed if run_seed is None else run_seed
        )
        self._next_tick = 0

        # cell i is cells[i]: node i // cells_per_node, cell id i
        cells = [
            (node, node * config.cells_per_node + c)
            for node in range(config.node_count)
            for c in range(config.cells_per_node)
        ]
        self.cells = cells

        if config.total_ues is not None:
            placement = static_rng.integers(0, len(cells), size=config.total_ues)
        else:
            placement = np.repeat(np.arange(len(cells)), config.ues_per_cell)
        ue_count = len(placement)

        # the first half of a random order is eMBB, the rest URLLC
        embb = np.zeros(ue_count, dtype=bool)
        embb[static_rng.permutation(ue_count)[: (ue_count + 1) // 2]] = True
        jitter = static_rng.uniform(1.0 - BASELINE_JITTER, 1.0 + BASELINE_JITTER,
                                    size=(ue_count, FEATURE_COUNT))

        malicious_count = int(round(config.malicious_node_fraction * config.node_count))
        chosen = static_rng.choice(config.node_count, size=malicious_count, replace=False)
        self.malicious_nodes = frozenset(int(n) for n in chosen)
        self._check_capacity(np.bincount(placement, minlength=len(cells)))

        self._mu = np.where(embb[:, None], EMBB_BASELINE, URLLC_BASELINE) * jitter
        covariances = default_covariance(self._mu)
        self._factor = psd_factor(covariances)
        #: indexed by UE id
        self.profiles: tuple[UeProfile, ...] = tuple(
            UeProfile(ue_id, SliceKind.EMBB if is_embb else SliceKind.URLLC,
                      cell // config.cells_per_node, cell, mu, cov, factor)
            for ue_id, (is_embb, cell, mu, cov, factor) in enumerate(zip(
                embb.tolist(), placement.tolist(), self._mu, covariances, self._factor))
        )
        # stationary start: deviations begin at the marginal distribution
        self._dev = np.einsum(
            "uij,uj->ui", self._factor, self._rng.standard_normal((ue_count, FEATURE_COUNT))
        )

        self._poison = self._build_poison_plan(ue_count)

    def _check_capacity(self, cell_sizes: np.ndarray) -> None:
        """Refuse a placement whose largest indication overflows one frame,
        or, on a node that injects, leaves no room for the rulebook's
        longest pattern; ``cell_sizes`` counts the UEs of each cell."""
        cfg = self.config
        largest = cell_sizes.reshape(cfg.node_count, cfg.cells_per_node).max(axis=1)
        for node, ue_count in enumerate(largest.tolist()):
            if not ue_count:
                continue  # empty cells send no indication
            size = cfg.indication_bytes(ue_count)
            if size > MAX_PAYLOAD_BYTES:
                raise ConfigError(
                    f"a cell of node {node} holds {ue_count} UEs, whose {size}-byte "
                    f"indication overflows the {MAX_PAYLOAD_BYTES}-byte payload cap")
            if node in self.malicious_nodes and cfg.malicious_message_fraction > 0:
                longest = max(len(sig.pattern) for sig in self.rulebook.signatures)
                if size + longest > MAX_PAYLOAD_BYTES:
                    raise ConfigError(
                        f"a cell of malicious node {node} holds {ue_count} UEs: its "
                        f"{size}-byte indication leaves no room for a {longest}-byte "
                        f"injected pattern under the {MAX_PAYLOAD_BYTES}-byte payload cap")

    def _build_poison_plan(self, ue_count: int) -> _PoisonPlan:
        cfg = self.config
        target_count = int(round(cfg.poison_target_fraction * ue_count))
        if target_count == 0:
            return _PoisonPlan()
        targets = tuple(
            int(u) for u in self._rng.choice(ue_count, size=target_count, replace=False)
        )
        span = cfg.loops - MIN_POISON_START
        budget = int(cfg.poison_time_fraction * max(span, 0))
        ticks_by_ue: dict[int, frozenset[int]] = {}
        for ue in targets:
            covered: set[int] = set()
            draws = 0
            while len(covered) < budget and draws < 100:
                start = int(self._rng.integers(MIN_POISON_START, cfg.loops))
                length = int(self._rng.integers(8, 25))
                covered.update(range(start, min(start + length, cfg.loops)))
                draws += 1
            ticks_by_ue[ue] = frozenset(covered)
        return _PoisonPlan(targets=targets, ticks_by_ue=ticks_by_ue)

    @property
    def ue_count(self) -> int:
        return len(self.profiles)

    def generate_tick(self, t: int) -> tuple[list[KpmRecord], list[GroundTruthLabel]]:
        """All UEs' records for tick ``t``; must be called in tick order."""
        if t >= self.config.loops:
            raise ValueError(f"tick {t} outside the configured {self.config.loops} loops")
        if t != self._next_tick:
            raise ValueError(f"ticks must be generated in order (expected {self._next_tick})")
        self._next_tick += 1

        noise = self._rng.standard_normal(self._dev.shape)
        innovation = np.sqrt(1.0 - AR_COEFFICIENT**2) * np.einsum(
            "uij,uj->ui", self._factor, noise
        )
        self._dev = AR_COEFFICIENT * self._dev + innovation
        values = np.clip(self._mu + self._dev, 0.0, None)

        timestamp = t * TICK_MS
        records = [KpmRecord(timestamp, ue_id, *row) for ue_id, row in enumerate(values.tolist())]
        targets_now = self._poison.targets_at(t)
        records, labels = poison_records(
            records,
            targets_now,
            self.config.amplification_factor,
            self.profiles,
            self._rng,
        )
        return records, labels

    def _emit(self, kind: E2MessageKind, node_id: int, payload: bytes,
              records: tuple[KpmRecord, ...] = (),
              labels: tuple[GroundTruthLabel, ...] = ()) -> EmittedMessage:
        msg = E2Message(kind=kind, source_node_id=node_id, payload=payload)
        injected = None
        if (
            self.rulebook is not None
            and node_id in self.malicious_nodes
            and self._rng.random() < self.config.malicious_message_fraction
        ):
            msg, injected = inject_signature(msg, self.rulebook, self._rng)
        return EmittedMessage(
            frame=encode_frame(msg),
            kind=kind,
            node_id=node_id,
            records=records,
            labels=labels,
            injected=injected,
        )

    def step(self, t: int) -> list[EmittedMessage]:
        """Emit one tick's messages: setup exchange at t=0, one indication
        per non-empty cell each tick, teardown responses on the last tick."""
        cfg = self.config
        out: list[EmittedMessage] = []
        if t == 0:
            for node in range(cfg.node_count):
                out.append(self._emit(E2MessageKind.SETUP_REQUEST, node,
                                      self._rng.bytes(SETUP_REQUEST_BYTES)))
                out.append(self._emit(E2MessageKind.SUBSCRIPTION_RESPONSE, node,
                                      self._rng.bytes(SUBSCRIPTION_RESPONSE_BYTES)))

        records, labels = self.generate_tick(t)
        by_cell: dict[int, list[int]] = {}
        for idx, rec in enumerate(records):
            by_cell.setdefault(self.profiles[rec.ue_id].cell_id, []).append(idx)

        for node_id, cell_id in self.cells:
            indices = by_cell.get(cell_id)
            if not indices:
                continue  # empty cells have nothing to report
            cell_records = tuple(records[i] for i in indices)
            cell_labels = tuple(labels[i] for i in indices)
            if cfg.size_calibrated:
                payload = calibrated_indication_payload(len(indices), self._rng)
            else:
                payload = encode_kpm_payload(cell_records)
            out.append(self._emit(E2MessageKind.INDICATION, node_id, payload,
                                  records=cell_records, labels=cell_labels))

        if t == cfg.loops - 1:
            for node in range(cfg.node_count):
                out.append(self._emit(E2MessageKind.SUBSCRIPTION_DELETE_RESPONSE, node,
                                      self._rng.bytes(SUBSCRIPTION_DELETE_RESPONSE_BYTES)))
        return out
