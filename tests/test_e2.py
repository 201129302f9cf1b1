import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ricguard.e2 import (
    E2Message,
    E2MessageKind,
    EncodeError,
    FeatureValueError,
    FramingError,
    MAX_KPM_RECORDS,
    MAX_PAYLOAD_BYTES,
    ProtocolError,
    TruncationError,
    UnknownKindError,
    calibrated_indication_size,
    decode_frame,
    decode_kpm_payload,
    encode_frame,
    encode_kpm_payloads,
)
from ricguard.kpm import KpmRecord, records_to_matrix


def fixed_clock():
    return 123_456


class TestFraming:
    def test_empty_payload_indication_is_eleven_bytes(self):
        msg = E2Message(E2MessageKind.INDICATION, 7, b"")
        frame = encode_frame(msg)
        assert len(frame) == 11
        assert frame[-4:] == b"\x00\x00\x00\x00"

    def test_header_layout(self):
        frame = encode_frame(E2Message(E2MessageKind.INDICATION, 7, b"ab"))
        assert frame[0] == 0xE2
        assert frame[1] == 0x01
        assert frame[2] == 2  # kind byte in enumeration order
        assert frame[3:7] == (7).to_bytes(4, "big")
        assert frame[7:11] == (2).to_bytes(4, "big")

    def test_delete_response_with_11_byte_payload_is_22_bytes(self):
        # matches the observed 22 B subscription delete response
        frame = encode_frame(
            E2Message(E2MessageKind.SUBSCRIPTION_DELETE_RESPONSE, 1, b"x" * 11)
        )
        assert len(frame) == 22

    def test_setup_request_25kb_round_trip(self):
        payload = bytes(range(256)) * 98  # 25,088 B, ~25 KB
        frame = encode_frame(E2Message(E2MessageKind.SETUP_REQUEST, 3, payload[:25_000]))
        decoded = decode_frame(frame, clock=fixed_clock)
        assert decoded.kind is E2MessageKind.SETUP_REQUEST
        assert len(decoded.payload) == 25_000

    def test_decode_sets_ingress_from_clock(self):
        frame = encode_frame(E2Message(E2MessageKind.INDICATION, 1, b"abcd"))
        assert decode_frame(frame, clock=fixed_clock).ingress_timestamp == 123_456

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame(E2Message(E2MessageKind.INDICATION, 1, b"abcd")))
        frame[0] = 0x00
        with pytest.raises(ProtocolError):
            decode_frame(bytes(frame), clock=fixed_clock)

    def test_bad_version_rejected(self):
        frame = bytearray(encode_frame(E2Message(E2MessageKind.INDICATION, 1, b"abcd")))
        frame[1] = 0x02
        with pytest.raises(ProtocolError):
            decode_frame(bytes(frame), clock=fixed_clock)

    def test_unknown_kind_rejected(self):
        frame = bytearray(encode_frame(E2Message(E2MessageKind.INDICATION, 1, b"abcd")))
        frame[2] = 4
        with pytest.raises(UnknownKindError):
            decode_frame(bytes(frame), clock=fixed_clock)

    def test_truncated_payload_rejected(self):
        # declares 100 payload bytes but carries 50
        frame = encode_frame(E2Message(E2MessageKind.INDICATION, 1, b"z" * 100))
        with pytest.raises(TruncationError):
            decode_frame(frame[: 11 + 50], clock=fixed_clock)

    def test_short_header_rejected(self):
        with pytest.raises(TruncationError):
            decode_frame(b"\xe2\x01\x02", clock=fixed_clock)

    def test_payload_cap_enforced(self):
        with pytest.raises(EncodeError):
            E2Message(E2MessageKind.SETUP_REQUEST, 1, b"\x00" * (MAX_PAYLOAD_BYTES + 1))

    def test_trailing_bytes_rejected(self):
        frame = encode_frame(E2Message(E2MessageKind.INDICATION, 1, b"abcd"))
        with pytest.raises(FramingError):
            decode_frame(frame + b"\x00", clock=fixed_clock)

    @pytest.mark.parametrize("carried", [0, MAX_PAYLOAD_BYTES + 1])
    def test_declared_length_over_cap_rejected_on_decode(self, carried):
        header = encode_frame(E2Message(E2MessageKind.SETUP_REQUEST, 1, b""))[:7]
        frame = header + (MAX_PAYLOAD_BYTES + 1).to_bytes(4, "big") + b"\x00" * carried
        with pytest.raises(FramingError):
            decode_frame(frame, clock=fixed_clock)

    @given(
        kind=st.sampled_from(list(E2MessageKind)),
        node=st.integers(min_value=0, max_value=0xFFFFFFFF),
        payload=st.binary(max_size=2048),
    )
    def test_round_trip_identity(self, kind, node, payload):
        msg = E2Message(kind, node, payload)
        frame = encode_frame(msg)
        assert len(frame) == 11 + len(payload)
        decoded = decode_frame(frame, clock=fixed_clock)
        assert decoded.kind is msg.kind
        assert decoded.source_node_id == msg.source_node_id
        assert decoded.payload == msg.payload


class TestCalibratedSize:
    def test_table_anchors(self):
        assert calibrated_indication_size(1) == 100
        assert calibrated_indication_size(10) == 148  # observed ~150, within 5 B
        assert calibrated_indication_size(20) == 201  # observed ~200, within 5 B

    def test_strictly_increasing(self):
        sizes = [calibrated_indication_size(n) for n in range(1, 200)]
        assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_zero_ues_rejected(self):
        with pytest.raises(ValueError):
            calibrated_indication_size(0)

    def test_legitimate_size_ordering(self):
        # setup >> indication > subscription response > delete response
        setup = 11 + 25_000
        indication = 11 + calibrated_indication_size(1)
        sub_response = 38
        delete_response = 22
        assert setup > 10 * indication
        assert indication > sub_response > delete_response


def _record(ts=1000, ue=4, values=(1.5, 2.0, 3.25, 4.0, 5.5, 6.0)):
    return KpmRecord(ts, ue, *values)


def _payload(records):
    """One report of ``records``, all of the first record's tick, packed as
    the emulator packs a cell."""
    ue_ids = np.array([r.ue_id for r in records], dtype=np.int64)
    (payload,) = encode_kpm_payloads(records[0].timestamp, ue_ids, records_to_matrix(records),
                                     [len(records)])
    return payload


class TestKpmPayload:
    def test_single_record_is_62_bytes(self):
        # 2-byte count + ue_id(4) + timestamp(8) + six 8-byte doubles
        payload = _payload((_record(),))
        assert len(payload) == 2 + 60

    def test_round_trip_bit_exact(self):
        records = tuple(
            _record(ts=5000, ue=u, values=(0.1 * u, u, 3.14159 * u, 0.0, 7.0, u * u))
            for u in range(1, 6)
        )
        payload = _payload(records)
        assert decode_kpm_payload(payload) == records

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError, match="at least one record"):
            encode_kpm_payloads(1000, np.zeros(0, dtype=np.int64), np.zeros((0, 6)), [0])

    def test_frame_capacity_in_records(self):
        """17,476 records fill one frame to within a record of the cap; one
        more is refused by the payload encoder, naming the capacity."""
        assert MAX_KPM_RECORDS == 17_476
        records = [_record(ue=u) for u in range(MAX_KPM_RECORDS + 1)]
        payload = _payload(records[:-1])
        assert MAX_PAYLOAD_BYTES - 60 < len(payload) <= MAX_PAYLOAD_BYTES
        E2Message(E2MessageKind.INDICATION, 1, payload)
        with pytest.raises(EncodeError, match="17477 exceeds the 17476 records"):
            _payload(records)

    def test_truncated_payload_rejected(self):
        payload = _payload((_record(),))
        with pytest.raises(TruncationError):
            decode_kpm_payload(payload[:-1])

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), float("-inf")])
    def test_negative_or_non_finite_feature_is_codec_error(self, bad):
        payload = bytearray(_payload((_record(),)))
        payload[-16:-8] = struct.pack(">d", bad)  # the fifth feature
        with pytest.raises(FeatureValueError):
            decode_kpm_payload(bytes(payload))

    @given(position=st.integers(0, 5),
           bad=st.one_of(st.just(float("nan")), st.just(float("inf")),
                         st.just(float("-inf")),
                         st.floats(max_value=-5e-324)))  # below -0.0
    def test_any_bad_feature_in_any_position_rejected(self, position, bad):
        """Every way of building a record fails closed: the constructor,
        keywords, _make, _replace and the payload decoder."""
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        good = KpmRecord(1000, 5, *values)
        values[position] = bad
        field = KpmRecord._fields[2 + position]
        builders = [
            lambda: KpmRecord(1000, 5, *values),
            lambda: KpmRecord(**dict(zip(KpmRecord._fields, [1000, 5, *values]))),
            lambda: KpmRecord._make([1000, 5, *values]),
            lambda: good._replace(**{field: bad}),
        ]
        for build in builders:
            with pytest.raises(ValueError, match="negative or non-finite KPM feature"):
                build()
        payload = struct.pack(">H", 1) + struct.pack(">IQ6d", 5, 1000, *values)
        with pytest.raises(FeatureValueError):
            decode_kpm_payload(payload)

    @given(position=st.integers(0, 5))
    def test_negative_zero_feature_accepted(self, position):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        values[position] = -0.0
        field = KpmRecord._fields[2 + position]
        record = KpmRecord(1000, 5, *values)
        assert record == KpmRecord(**dict(zip(KpmRecord._fields, [1000, 5, *values])))
        assert record == KpmRecord._make([1000, 5, *values])
        assert record == KpmRecord(1000, 5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)._replace(**{field: -0.0})
        payload = _payload((record,))
        (decoded,) = decode_kpm_payload(payload)
        assert decoded == record
        assert math.copysign(1.0, decoded[2 + position]) == -1.0  # sign bit kept

    def test_decode_yields_exact_python_types(self):
        records = tuple(KpmRecord(7000, ue, 0.5 * ue, 1.0, 2.0, 3.0, 4.0, float(ue))
                        for ue in (0, 3, 0xFFFFFFFF))
        decoded = decode_kpm_payload(_payload(records))
        assert decoded == records
        assert type(decoded) is tuple
        for record in decoded:
            assert type(record) is KpmRecord
            assert type(record.timestamp) is int and type(record.ue_id) is int
            assert all(type(value) is float for value in record.feature_values())

    def test_record_is_immutable_and_slotted(self):
        record = KpmRecord(1000, 5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        with pytest.raises(AttributeError):
            record.ue_thp_ul = 9.0
        assert not hasattr(record, "__dict__")
        assert record.feature_values() == record[2:] == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)


class TestKpmFieldRanges:
    """A UE id or timestamp that its unsigned wire field cannot hold is a
    codec error of the packer, naming the record of a UE id (the timestamp
    is one for all the records); the values at the bounds pack and decode
    unchanged."""

    @pytest.mark.parametrize("ue,ts,match", [
        (2**32, 1000, "record 1 .*ue_id 4294967296 outside the unsigned 32-bit range"),
        (-1, 1000, "record 1 .*ue_id -1 outside the unsigned 32-bit range"),
        (4, -1000, "^timestamp -1000 outside the unsigned 64-bit range"),
        (4, 2**64, "^timestamp 18446744073709551616 outside the unsigned 64-bit"),
    ], ids=["ue-2**32", "ue--1", "ts--1000", "ts-2**64"])
    def test_out_of_range_record_is_encode_error(self, ue, ts, match):
        records = (_record(ts=ts, ue=3), _record(ts=ts, ue=ue))
        with pytest.raises(EncodeError, match=match):
            _payload(records)

    @pytest.mark.parametrize("ue", [2**32, -1])
    def test_array_packer_rejects_ue_ids_it_cannot_hold(self, ue):
        ue_ids = np.array([0, 1, ue], dtype=np.int64)
        with pytest.raises(EncodeError, match=f"record 2 .*ue_id {ue} outside"):
            encode_kpm_payloads(1000, ue_ids, np.ones((3, 6)), [1, 2])

    @pytest.mark.parametrize("ts, rows", [(-1000, 3), (2**64, 3), (-1000, 0)],
                             ids=["-1000", str(2**64), "-1000-no-rows"])
    def test_array_packer_rejects_timestamps_it_cannot_hold(self, ts, rows):
        counts = [rows] if rows else []
        with pytest.raises(EncodeError, match=f"timestamp {ts} outside"):
            encode_kpm_payloads(ts, np.arange(rows), np.ones((rows, 6)), counts)

    def test_field_bounds_round_trip(self):
        records = (_record(ts=0, ue=0), _record(ts=0, ue=0xFFFFFFFF))
        assert decode_kpm_payload(_payload(records)) == records
        last = (_record(ts=2**64 - 1, ue=7),)
        assert decode_kpm_payload(_payload(last)) == last

    def test_packer_splits_rows_into_reports(self):
        rows = [_record(ue=u, values=(u, 1.0, 2.0, 3.0, 4.0, 5.0)) for u in range(5)]
        payloads = encode_kpm_payloads(1000, np.arange(5), np.array([r[2:] for r in rows]),
                                       [2, 1, 2])

        def packed(chunk):  # the wire layout, record by record
            return struct.pack(">H", len(chunk)) + b"".join(
                struct.pack(">IQ6d", r.ue_id, r.timestamp, *r[2:]) for r in chunk)

        assert payloads == [packed(rows[:2]), packed(rows[2:3]), packed(rows[3:])]
        with pytest.raises(ValueError, match="counts cover 4 rows, not the 5"):
            encode_kpm_payloads(1000, np.arange(5), np.ones((5, 6)), [2, 2])


_features = st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=6, max_size=6)


@settings(max_examples=40, deadline=None)
@given(count=st.integers(1, MAX_KPM_RECORDS), ts=st.integers(0, 2**64 - 1),
       first_ue=st.integers(0, 0xFFFFFFFF), rows=st.lists(_features, min_size=1, max_size=4))
@example(count=1, ts=0, first_ue=0, rows=[[0.0] * 6])
@example(count=MAX_KPM_RECORDS, ts=2**64 - 1, first_ue=0xFFFFFFFF,
         rows=[[5e-324, 1.0, 2.5, 1e308, 0.0, 7.0], [3.0, 0.0, 1.0, 2.0, 3.0, 4.0]])
def test_kpm_payload_round_trip(count, ts, first_ue, rows):
    """Any report of 1 to MAX_KPM_RECORDS records decodes to itself; the
    records cycle through a few feature rows and UE ids wrap at 2**32."""
    records = tuple(KpmRecord(ts, (first_ue + i) % 2**32, *rows[i % len(rows)])
                    for i in range(count))
    assert decode_kpm_payload(_payload(records)) == records
