"""Deterministic desk-scale RAN/E2 emulation.

Simulates E2 nodes, cells, and UEs on a one-second tick. Benign telemetry
is drawn per UE from a multivariate Gaussian around a per-UE baseline with
AR(1) temporal correlation (coefficient 0.8), so the sequence model has
learnable structure; the marginal distribution of each record is
N(mu, cov). The baselines of all UEs are built as arrays, one row or
matrix per UE: one jitter draw, one broadcast product for the covariances
and one batched eigendecomposition for their factors. A tick is one
(UEs, 6) value matrix: its poisoned rows are redrawn in one batch, its
records and labels are packed into tuples without a constructor call per
record, and its indications are packed from its rows, cell by cell, by
:func:`~ricguard.e2.encode_kpm_payloads`. Attacks are reproduced with
ground-truth labels:

* KPM poisoning: targeted UEs' reports are resampled i.i.d. from
  N(af*mu, af*cov) during seeded attack windows (the underlying benign
  process keeps evolving — a man-in-the-middle rewrites reports in
  transit). Each target's windows cover :data:`POISON_TIME_FRACTION` of
  the ticks from :data:`MIN_POISON_START` on, and are held as one boolean
  tick x target matrix. The AF is bounded so that a poisoned draw stays
  finite.
* Signature injection: messages from malicious nodes carry one uniformly
  chosen rulebook pattern spliced at a uniform payload offset.

Everything derives from one seeded generator: identical configs produce
byte-identical frame streams and labels.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, replace
from functools import partial
from itertools import repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .e2 import (
    MAX_PAYLOAD_BYTES,
    E2Message,
    E2MessageKind,
    calibrated_indication_size,
    encode_frame,
    encode_kpm_payloads,
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
#: Share of the ticks from MIN_POISON_START on that each target's attack
#: windows cover.
POISON_TIME_FRACTION = 0.25
#: A target's attack windows last 8 to 24 ticks; at most this many are drawn.
_MAX_WINDOWS = 100
#: Attack windows drawn per ``integers`` call while the poison plan is built.
_WINDOW_CHUNK = 1024


class ConfigError(ValueError):
    """Invalid scenario or experiment configuration (CLI exit code 3)."""


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
    loops: int = 100
    rng_seed: int = 1
    size_calibrated: bool = False

    def __post_init__(self) -> None:
        if self.node_count < 1 or self.cells_per_node < 1 or self.loops < 1:
            raise ValueError("node_count, cells_per_node, and loops must be positive")
        for name in ("malicious_node_fraction", "malicious_message_fraction",
                     "poison_target_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        # a poisoned draw, af * mu plus noise, stays finite while af times the
        # largest jittered baseline mean stays under half the float range
        largest_mean = (1.0 + BASELINE_JITTER) * max(EMBB_BASELINE.max(), URLLC_BASELINE.max())
        max_af = np.finfo(float).max / (2.0 * largest_mean)
        if not 1.0 <= self.amplification_factor <= max_af:  # also rejects NaN
            raise ValueError(f"amplification_factor must lie in [1, {max_af:.4g}], where a "
                             f"poisoned draw stays finite")
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
            setting, fullest = "ues_per_cell", self.ues_per_cell
        else:
            if self.total_ues < 1:
                raise ValueError("total_ues must be positive when set")
            # any placement puts at least the even share of the UEs in some cell
            setting = "total_ues"
            fullest = -(-self.total_ues // (self.node_count * self.cells_per_node))
        # each cell's indication must fit in one frame
        if self.indication_bytes(fullest) > MAX_PAYLOAD_BYTES:
            raise ConfigError(f"{setting} {getattr(self, setting)} overflows the "
                              f"{MAX_PAYLOAD_BYTES}-byte indication payload cap: some cell "
                              f"holds {fullest} UEs")

    def indication_bytes(self, ue_count: int) -> int:
        """Payload bytes of the indication of a cell of ``ue_count`` UEs."""
        if self.size_calibrated:
            return calibrated_indication_size(ue_count)
        return kpm_payload_size(ue_count)


class GroundTruthLabel(NamedTuple):
    """Whether a UE's record of one tick was poisoned; a poisoned record
    was drawn with the scenario's amplification factor."""

    ue_id: int
    timestamp: int
    poisoned: bool


#: Build a label from one (ue_id, timestamp, poisoned) tuple, and a
#: record from one tuple of its eight fields, in C and without validation.
_label_of = partial(tuple.__new__, GroundTruthLabel)
_record_of = partial(tuple.__new__, KpmRecord)


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


def _poison_rows(values: np.ndarray, rows: np.ndarray, af: float, mu: np.ndarray,
                 factor: np.ndarray, rng: np.random.Generator) -> None:
    """Redraw ``values[rows]`` in place from N(af*mu, af*cov), clipped at
    zero, where ``mu`` and ``factor`` are those rows' baselines.

    One ``standard_normal`` draw covers the rows in order and one stacked
    matmul applies each row's factor: the numbers equal one draw and one
    ``factor @ z`` per row, bit for bit.
    """
    if len(rows):
        z = rng.standard_normal((len(rows), FEATURE_COUNT))
        draw = af * mu + np.sqrt(af) * np.matmul(factor, z[..., None])[..., 0]
        values[rows] = np.clip(draw, 0.0, None)


def _records_and_labels(
    timestamp: int,
    ue_ids: Sequence[int],
    values: np.ndarray,
    poisoned: np.ndarray,
) -> tuple[list[KpmRecord], list[GroundTruthLabel]]:
    """Row i's record and label, all stamped ``timestamp``. The feature
    matrix is checked once, as the record constructor checks one record;
    the tuples are then packed in C."""
    valid = ((values >= 0.0) & (values < np.inf)).all(axis=1)  # NaN fails both sides
    if not valid.all():
        i = int(np.argmin(valid))
        raise ValueError(f"negative or non-finite KPM feature in record "
                         f"(ue={ue_ids[i]}, t={timestamp})")
    records = list(map(_record_of, zip(repeat(timestamp), ue_ids, *values.T.tolist())))
    labels = list(map(_label_of, zip(ue_ids, repeat(timestamp), poisoned.tolist())))
    return records, labels


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


class _PoisonPlan(NamedTuple):
    """Which targeted UE is poisoned at which tick: ``attacked[t, j]`` holds
    for UE ``targets[j]`` at tick ``t``. ``targets`` ascends, so a tick's
    targets come out of its row in record order."""

    targets: np.ndarray
    attacked: np.ndarray  # (loops, targets) bool, tick-major

    def targets_at(self, t: int) -> np.ndarray:
        return self.targets[self.attacked[t]]


def _attack_windows(rng: np.random.Generator, loops: int) -> Iterator[tuple[int, int]]:
    """An endless stream of attack windows as (start, end) ticks: a start in
    [MIN_POISON_START, loops) and a length of 8 to 24 ticks, cut at ``loops``.

    The (start, length) pairs are drawn ``_WINDOW_CHUNK`` at a time, in one
    ``integers`` call with a bound per column. Closing the generator restores
    the generator state from before the current chunk and redraws only the
    pairs taken from it, so ``rng`` ends where one call per number, as many
    calls as windows taken, would leave it. Nothing is drawn before the first
    window is asked for.
    """
    low, high = (MIN_POISON_START, 8), (loops, 25)
    while True:
        state = rng.bit_generator.state
        starts, lengths = rng.integers(low, high, size=(_WINDOW_CHUNK, 2)).T.tolist()
        for taken, (start, length) in enumerate(zip(starts, lengths), start=1):
            try:
                yield start, min(start + length, loops)
            except GeneratorExit:
                rng.bit_generator.state = state
                rng.integers(low, high, size=(taken, 2))
                raise


class RanEmulator:
    """Sequential scenario simulator.

    ``config.rng_seed`` pins the scenario identity — UE placement, slice
    assignment, per-UE baselines, and the choice of malicious nodes.
    ``run_seed`` (defaulting to the same value) drives the dynamics: noise,
    attack realisations, payload bytes. Repeating an experiment varies only
    the run seed, so all repetitions observe the same deployed network.

    Each UE is one row of the baseline arrays: its mean vector in ``_mu``
    and its covariance factor in ``_factor``. The poison plan is one
    boolean tick x target matrix, filled target by target: a target's
    (start, length) windows are drawn in bounded chunks, walked until its
    coverage budget or the window cap is reached, and the generator is
    then rewound and advanced by exactly the windows used, so its draws
    are those of one call per number. A placement whose largest indication
    cannot be framed is refused with :class:`ConfigError` before any
    baseline is built. Each cell's UEs are listed once, at construction:
    placement never changes.
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

        cell_count = config.node_count * config.cells_per_node
        if config.total_ues is not None:
            placement = static_rng.integers(0, cell_count, size=config.total_ues)
        else:
            placement = np.repeat(np.arange(cell_count), config.ues_per_cell)
        ue_count = len(placement)

        # the first half of a random order is eMBB, the rest URLLC
        embb = np.zeros(ue_count, dtype=bool)
        embb[static_rng.permutation(ue_count)[: (ue_count + 1) // 2]] = True
        jitter = static_rng.uniform(1.0 - BASELINE_JITTER, 1.0 + BASELINE_JITTER,
                                    size=(ue_count, FEATURE_COUNT))

        malicious_count = int(round(config.malicious_node_fraction * config.node_count))
        chosen = static_rng.choice(config.node_count, size=malicious_count, replace=False)
        self.malicious_nodes = frozenset(int(n) for n in chosen)
        cell_sizes = np.bincount(placement, minlength=cell_count)
        self._check_capacity(cell_sizes)
        #: UE ids grouped by cell, in UE order within a cell
        self._cell_order = np.argsort(placement, kind="stable")
        #: (node id, UE count) of each cell that reports, in cell order;
        #: cell i belongs to node i // cells_per_node
        self._reporting = [(cell // config.cells_per_node, size)
                           for cell, size in enumerate(cell_sizes.tolist()) if size]

        self._mu = np.where(embb[:, None], EMBB_BASELINE, URLLC_BASELINE) * jitter
        self._factor = psd_factor(default_covariance(self._mu))
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
            return _PoisonPlan(np.zeros(0, dtype=np.intp), np.zeros((cfg.loops, 0), dtype=bool))
        targets = self._rng.choice(ue_count, size=target_count, replace=False)
        span = cfg.loops - MIN_POISON_START
        budget = int(POISON_TIME_FRACTION * max(span, 0))
        order = np.argsort(targets)
        column = np.empty_like(order)
        column[order] = np.arange(target_count)
        attacked = np.zeros((cfg.loops, target_count), dtype=bool)
        # each target, in draw order, takes windows until it covers the budget
        with closing(_attack_windows(self._rng, cfg.loops)) as windows:
            for j in column.tolist():
                covered = bytearray(cfg.loops)
                reached = drawn = 0
                while reached < budget and drawn < _MAX_WINDOWS:
                    start, end = next(windows)
                    reached += covered.count(0, start, end)
                    covered[start:end] = b"\x01" * (end - start)
                    drawn += 1
                attacked[:, j] = np.frombuffer(covered, dtype=bool)
        return _PoisonPlan(targets[order], attacked)

    @property
    def ue_count(self) -> int:
        return len(self._mu)

    def generate_tick(self, t: int) -> tuple[list[KpmRecord], list[GroundTruthLabel]]:
        """All UEs' records for tick ``t``, in UE order, and their labels;
        must be called in tick order."""
        values, poisoned = self._tick(t)
        return _records_and_labels(t * TICK_MS, range(len(values)), values, poisoned)

    def _tick(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Tick ``t``'s (UEs, 6) feature matrix, poisoned rows redrawn, and
        the mask of those rows."""
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

        rows = self._poison.targets_at(t)
        _poison_rows(values, rows, self.config.amplification_factor, self._mu[rows],
                     self._factor[rows], self._rng)
        poisoned = np.zeros(len(values), dtype=bool)
        poisoned[rows] = True
        return values, poisoned

    def _emit(self, kind: E2MessageKind, node_id: int, payload: bytes,
              records: tuple[KpmRecord, ...] = (),
              labels: tuple[GroundTruthLabel, ...] = ()) -> EmittedMessage:
        msg = E2Message(kind=kind, source_node_id=node_id, payload=payload)
        injected = None
        if (
            node_id in self.malicious_nodes
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

        values, poisoned = self._tick(t)
        # the tick's rows in cell order: each cell's records are one slice
        order = self._cell_order
        values = values[order]
        timestamp = t * TICK_MS
        records, labels = _records_and_labels(timestamp, order.tolist(), values, poisoned[order])
        if cfg.size_calibrated:
            payloads = None
        else:
            payloads = encode_kpm_payloads(timestamp, order, values,
                                           [size for _, size in self._reporting])
        start = 0
        for k, (node_id, size) in enumerate(self._reporting):
            end = start + size
            if payloads is None:
                payload = self._rng.bytes(calibrated_indication_size(size))
            else:
                payload = payloads[k]
            out.append(self._emit(E2MessageKind.INDICATION, node_id, payload,
                                  records=tuple(records[start:end]),
                                  labels=tuple(labels[start:end])))
            start = end

        if t == cfg.loops - 1:
            for node in range(cfg.node_count):
                out.append(self._emit(E2MessageKind.SUBSCRIPTION_DELETE_RESPONSE, node,
                                      self._rng.bytes(SUBSCRIPTION_DELETE_RESPONSE_BYTES)))
        return out
