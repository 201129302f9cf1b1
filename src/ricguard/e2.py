"""E2 control-plane message model and byte-exact framing codec.

Frame layout (11-byte header, big-endian throughout)::

    magic   1 B   0xE2
    version 1 B   0x01
    kind    1 B   0-3 in E2MessageKind order
    node_id 4 B   unsigned source node id
    length  4 B   payload byte count
    payload N B

Full-mode KPM payloads carry telemetry records bit-exactly::

    count   2 B   record count
    per record: ue_id 4 B, timestamp_ms 8 B, six features as IEEE-754
    big-endian doubles in the fixed measurement-feature order

Payloads are packed from arrays, a whole tick's cells in one big-endian
structured array by :func:`encode_kpm_payloads`, the one packer; it takes
integer UE ids and one timestamp per tick. A UE id or timestamp outside its
unsigned field raises :class:`EncodeError`; nothing wraps.

A KPM payload decodes in one pass to validated, immutable
:class:`~ricguard.kpm.KpmRecord` named tuples; one bad feature rejects the
whole payload.

Size-calibrated payloads are seeded pseudorandom bytes whose length tracks
observed indication sizes (~100 B at one UE per cell, ~5.3 B per extra UE);
they carry no records and exist for inspection-latency benchmarking, where
only the byte count matters; :func:`decode_kpm_payload` rejects them.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Sequence

import numpy as np

from .kpm import FEATURE_COUNT, KpmRecord

FRAME_MAGIC = 0xE2
FRAME_VERSION = 0x01
FRAME_HEADER_SIZE = 11
MAX_PAYLOAD_BYTES = 1 << 20  # 1 MiB hard cap: one frame holds at most MAX_KPM_RECORDS KPM records

_HEADER = struct.Struct(">BBBII")
_KPM_RECORD = struct.Struct(">IQ6d")
_KPM_COUNT = struct.Struct(">H")
MAX_KPM_RECORDS = (MAX_PAYLOAD_BYTES - _KPM_COUNT.size) // _KPM_RECORD.size  # 17,476
#: ``_KPM_RECORD`` as one row of a structured array
_KPM_ROW = np.dtype([("ue_id", ">u4"), ("timestamp", ">u8"),
                     ("features", ">f8", (FEATURE_COUNT,))])
_MAX_UE_ID = 0xFFFF_FFFF
_MAX_TIMESTAMP_MS = 0xFFFF_FFFF_FFFF_FFFF


class E2CodecError(Exception):
    """Base class for framing and payload codec failures."""


class EncodeError(E2CodecError):
    pass


class ProtocolError(E2CodecError):
    """Bad magic or version byte."""


class TruncationError(E2CodecError):
    """Frame shorter than its declared length."""


class UnknownKindError(E2CodecError):
    """Kind byte outside the four observed message kinds."""


class FramingError(E2CodecError):
    """Declared payload length over the cap, or bytes after the declared payload."""


class FeatureValueError(E2CodecError):
    """KPM record with a negative or non-finite measurement feature."""


class E2MessageKind(IntEnum):
    SETUP_REQUEST = 0
    SUBSCRIPTION_RESPONSE = 1
    INDICATION = 2
    SUBSCRIPTION_DELETE_RESPONSE = 3


@dataclass(frozen=True, slots=True)
class E2Message:
    """A framed control-plane message.

    ``ingress_timestamp`` (monotonic ns) is assigned exactly once, when the
    frame is received and decoded; sender-side instances carry 0 until they
    cross the wire.
    """

    kind: E2MessageKind
    source_node_id: int
    payload: bytes
    ingress_timestamp: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.source_node_id <= 0xFFFFFFFF:
            raise ValueError(f"node id {self.source_node_id} outside unsigned 32-bit range")
        if len(self.payload) > MAX_PAYLOAD_BYTES:
            raise EncodeError(
                f"payload of {len(self.payload)} bytes exceeds the {MAX_PAYLOAD_BYTES}-byte cap"
            )


def encode_frame(msg: E2Message) -> bytes:
    """Serialize a message; total frame length is 11 + len(payload)."""
    header = _HEADER.pack(
        FRAME_MAGIC, FRAME_VERSION, int(msg.kind), msg.source_node_id, len(msg.payload)
    )
    return header + msg.payload


def decode_frame(data: bytes, clock: Callable[[], int] = time.monotonic_ns) -> E2Message:
    """Inverse of :func:`encode_frame`; stamps ingress from ``clock``."""
    if len(data) < FRAME_HEADER_SIZE:
        raise TruncationError(f"frame of {len(data)} bytes is shorter than the 11-byte header")
    magic, version, kind_byte, node_id, length = _HEADER.unpack_from(data)
    if magic != FRAME_MAGIC or version != FRAME_VERSION:
        raise ProtocolError(f"bad magic/version bytes 0x{magic:02X}/0x{version:02X}")
    try:
        kind = E2MessageKind(kind_byte)
    except ValueError:
        raise UnknownKindError(f"unknown message kind byte {kind_byte}") from None
    if length > MAX_PAYLOAD_BYTES:
        raise FramingError(f"frame declares {length} payload bytes, over the "
                           f"{MAX_PAYLOAD_BYTES}-byte cap")
    carried = len(data) - FRAME_HEADER_SIZE
    if carried < length:
        raise TruncationError(f"frame declares {length} payload bytes but carries {carried}")
    if carried > length:
        raise FramingError(f"{carried - length} bytes after the declared {length}-byte payload")
    payload = data[FRAME_HEADER_SIZE:]
    return E2Message(
        kind=kind,
        source_node_id=node_id,
        payload=payload,
        ingress_timestamp=clock(),
    )


def calibrated_indication_size(ue_count: int) -> int:
    """Indication payload size fitted to observed per-UE growth.

    round(100 + 5.3 * (ue_count - 1)); anchors: 1 UE -> 100 B,
    10 UEs -> 148 B, 20 UEs -> 201 B.
    """
    if ue_count < 1:
        raise ValueError("ue_count must be >= 1")
    return round(100 + 5.3 * (ue_count - 1))


def kpm_payload_size(record_count: int) -> int:
    """Bytes of a full-fidelity KPM payload carrying ``record_count`` records."""
    return _KPM_COUNT.size + record_count * _KPM_RECORD.size


def encode_kpm_payloads(timestamp: int, ue_ids: np.ndarray, values: np.ndarray,
                        counts: Sequence[int]) -> list[bytes]:
    """The reports of one tick: row i is UE ``ue_ids[i]`` with the six
    features ``values[i]``, and report k holds the next ``counts[k]`` rows.
    All rows are packed in one structured array; each report is its count
    and its slice of that array's bytes."""
    if sum(counts) != len(ue_ids):
        raise ValueError(f"counts cover {sum(counts)} rows, not the {len(ue_ids)} given")
    for count in counts:
        if count < 1:
            raise ValueError("KPM reports carry at least one record")
        if count > MAX_KPM_RECORDS:
            raise EncodeError(f"record count {count} exceeds the {MAX_KPM_RECORDS} "
                              f"records one frame can carry")
    if not 0 <= timestamp <= _MAX_TIMESTAMP_MS:
        raise EncodeError(f"timestamp {timestamp} outside the unsigned 64-bit range")
    outside = (ue_ids < 0) | (ue_ids > _MAX_UE_ID)
    if outside.any():
        i = int(np.argmax(outside))
        raise EncodeError(f"record {i} (t={timestamp}): ue_id {ue_ids[i]} outside the "
                          f"unsigned 32-bit range")
    rows = np.empty(len(ue_ids), dtype=_KPM_ROW)
    rows["ue_id"] = ue_ids
    rows["timestamp"] = timestamp
    rows["features"] = values
    body = memoryview(rows.tobytes())
    payloads = []
    start = 0
    for count in counts:
        end = start + count * _KPM_ROW.itemsize
        payloads.append(_KPM_COUNT.pack(count) + body[start:end])
        start = end
    return payloads


def decode_kpm_payload(payload: bytes) -> tuple[KpmRecord, ...]:
    """Inverse of one report of :func:`encode_kpm_payloads`; reproduces
    records bit-exactly.

    Each record is built by the validating :class:`KpmRecord` constructor, so
    a negative or non-finite feature raises :class:`FeatureValueError`.
    """
    if len(payload) < _KPM_COUNT.size:
        raise TruncationError("KPM payload shorter than its count field")
    (count,) = _KPM_COUNT.unpack_from(payload)
    expected = kpm_payload_size(count)
    if len(payload) != expected:
        raise TruncationError(f"KPM payload of {len(payload)} bytes, expected {expected}")
    body = memoryview(payload)[_KPM_COUNT.size:]
    try:
        return tuple([KpmRecord(timestamp, ue_id, thp_ul, prb_ul, thp_dl, prb_dl, nbr_ul, nbr_dl)
                      for ue_id, timestamp, thp_ul, prb_ul, thp_dl, prb_dl, nbr_ul, nbr_dl
                      in _KPM_RECORD.iter_unpack(body)])
    except ValueError as exc:
        raise FeatureValueError(str(exc)) from None

