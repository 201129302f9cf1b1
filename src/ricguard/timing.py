"""Timing support: wall-clock measurement and a fixed deterministic cost table.

The safeguards time their own work by wall clock only
(``time.perf_counter_ns``). In deterministic mode the experiment runners in
:mod:`ricguard.harness` replace those wall latencies with a charge from the
one cost table, :data:`DEFAULT_COST_MODEL`, for the work done: the textbook
byte comparisons of a scan (:func:`ricguard.signatures.canonical_comparisons`),
scored records per tick, image length and cold start per attestation round.
Cost-model runs are bit-reproducible, which is what makes CSV outputs
byte-identical across executions with the same seed.

The constants are calibration units, not measurements: they were picked so
that a cost-model run lands in the same shape as real hardware numbers
(sub-millisecond indication scans, ~0.7 ms per hashed MB, tens of
milliseconds of per-loop detector work at 500 UEs).
"""

from __future__ import annotations

import time


class CostModel:
    """Fixed work-unit costs, in nanoseconds, for deterministic timing; class
    constants with no instance slots, so the one table cannot be changed."""

    __slots__ = ()

    ns_per_naive_comparison = 2.0
    ns_per_scored_record = 140_000.0
    ns_per_hashed_byte = 0.335
    reference_load_flat_ns = 500_000.0
    reference_load_ns_per_byte = 0.2
    decode_flat_ns = 2_000.0
    ns_per_decoded_byte = 0.4
    ns_per_stored_record = 800.0
    consumer_pass_ns = 1_500_000.0

    def scan_ns(self, comparisons: int) -> int:
        return int(comparisons * self.ns_per_naive_comparison)

    def scoring_ns(self, record_count: int) -> int:
        return int(record_count * self.ns_per_scored_record)

    def attestation_round_ns(self, image_bytes: int, *, cold_start: bool) -> int:
        # Two digests per round: the attester hashes the live image, the
        # engine hashes the trusted reference. Charged one after the other,
        # though on the wall clock the engine's digest overlaps the
        # attester's: the table is fixed, so attestation.csv stays the same.
        ns = 2 * image_bytes * self.ns_per_hashed_byte
        if cold_start:
            ns += self.reference_load_flat_ns
            ns += image_bytes * self.reference_load_ns_per_byte
        return int(ns)

    def decode_ns(self, frame_bytes: int) -> int:
        return int(self.decode_flat_ns + frame_bytes * self.ns_per_decoded_byte)

    def store_ns(self, record_count: int) -> int:
        return int(record_count * self.ns_per_stored_record)


DEFAULT_COST_MODEL = CostModel()


class SimClock:
    """Monotonic simulated clock, advanced explicitly by the scenario runner.

    The experiments' attestation engines read challenge freshness from this
    clock, so that runs are independent of wall time.
    """

    def __init__(self) -> None:
        self._ns = 0

    def now_ns(self) -> int:
        return self._ns

    def now_ms(self) -> int:
        return self._ns // 1_000_000

    def advance_ns(self, delta_ns: int) -> None:
        if delta_ns < 0:
            raise ValueError("simulated clock cannot move backwards")
        self._ns += delta_ns

    def advance_to_ns(self, target_ns: int) -> None:
        if target_ns < self._ns:
            raise ValueError("simulated clock cannot move backwards")
        self._ns = target_ns


def wall_ns() -> int:
    """Monotonic wall-clock nanoseconds (measurement use only)."""
    return time.perf_counter_ns()
