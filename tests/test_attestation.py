import hashlib
import math
import struct
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ricguard import attestation
from ricguard.attestation import (
    AttestationChallenge,
    AttestationEngine,
    AttestationResponse,
    RegistryError,
    VerificationResult,
    XappImage,
    attest,
    inject_code,
    seeded_digest,
)
from ricguard.harness import run_attestation_experiment
from ricguard.timing import DEFAULT_COST_MODEL, SimClock


# --- independent SHA-256 oracle -------------------------------------------
# Constants derived arithmetically (fractional parts of square/cube roots of
# the first primes) rather than transcribed, then cross-checked against the
# published "abc" test vector below.

def _primes(count):
    out, n = [], 2
    while len(out) < count:
        if all(n % p for p in out if p * p <= n):
            out.append(n)
        n += 1
    return out


def _icbrt(n):
    x = 1 << ((n.bit_length() + 2) // 3 + 1)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


_PRIMES = _primes(64)
_H0 = [math.isqrt(p << 64) & 0xFFFFFFFF for p in _PRIMES[:8]]
_K = [_icbrt(p << 96) & 0xFFFFFFFF for p in _PRIMES]


def _rotr(x, n):
    return ((x >> n) | (x << (32 - n))) & 0xFFFFFFFF


def sha256_reference(data: bytes) -> bytes:
    state = list(_H0)
    bit_length = len(data) * 8
    data = data + b"\x80" + b"\x00" * ((55 - len(data)) % 64) + struct.pack(">Q", bit_length)
    for start in range(0, len(data), 64):
        w = list(struct.unpack(">16I", data[start : start + 64]))
        for i in range(16, 64):
            s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
            s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & 0xFFFFFFFF)
        a, b, c, d, e, f, g, h = state
        for i in range(64):
            s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g)
            t1 = (h + s1 + ch + _K[i] + w[i]) & 0xFFFFFFFF
            s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            t2 = (s0 + maj) & 0xFFFFFFFF
            h, g, f, e, d, c, b, a = (
                g, f, e, (d + t1) & 0xFFFFFFFF, c, b, a, (t1 + t2) & 0xFFFFFFFF,
            )
        state = [(x + y) & 0xFFFFFFFF for x, y in zip(state, (a, b, c, d, e, f, g, h))]
    return b"".join(struct.pack(">I", word) for word in state)


def test_reference_hash_matches_published_vector():
    assert sha256_reference(b"abc").hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
    assert sha256_reference(b"") == hashlib.sha256(b"").digest()


def image(xapp_id="xapp-a", content=b"machine code bytes" * 8):
    return XappImage(xapp_id=xapp_id, live_bytes=bytearray(content),
                     declared_size=len(content))


def challenge(xapp_id="xapp-a", nonce=None, issued_at=0):
    return AttestationChallenge(xapp_id=xapp_id,
                                nonce=nonce or bytes(32), issued_at=issued_at)


class TestAttest:
    def test_empty_image_digests_nonce_alone(self):
        empty = XappImage(xapp_id="xapp-a", live_bytes=bytearray(), declared_size=0)
        nonce = bytes(range(32))
        response = attest(empty, challenge(nonce=nonce))
        assert response.digest == hashlib.sha256(nonce).digest()

    def test_digest_matches_independent_implementation(self):
        # fixed all-zero nonce over "abc": 35-byte input
        img = XappImage(xapp_id="xapp-a", live_bytes=bytearray(b"abc"), declared_size=3)
        response = attest(img, challenge(nonce=bytes(32)))
        assert response.digest == sha256_reference(bytes(32) + b"abc")

    def test_distinct_nonces_give_distinct_digests(self):
        img = image()
        first = attest(img, challenge(nonce=b"\x01" * 32))
        second = attest(img, challenge(nonce=b"\x02" * 32))
        assert first.digest != second.digest

    def test_id_mismatch_rejected(self):
        with pytest.raises(ValueError):
            attest(image("xapp-a"), challenge(xapp_id="xapp-b"))

    def test_digest_length_enforced(self):
        with pytest.raises(ValueError):
            AttestationResponse(xapp_id="a", digest=b"short", responded_at=0)


class TestInjectCode:
    def test_growth_and_splice(self):
        img = image(content=b"AABB")
        record = inject_code(img, 2, b"XY")
        assert bytes(img.live_bytes) == b"AAXYBB"
        assert record.offset == 2 and record.payload_length == 2

    def test_zero_byte_injection_is_noop(self):
        img = image(content=b"AABB")
        inject_code(img, 1, b"")
        assert bytes(img.live_bytes) == b"AABB"

    def test_end_of_image_offset_allowed(self):
        img = image(content=b"AABB")
        inject_code(img, 4, b"ZZ")
        assert bytes(img.live_bytes) == b"AABBZZ"

    def test_offset_beyond_image_rejected(self):
        with pytest.raises(ValueError):
            inject_code(image(content=b"AABB"), 5, b"Z")


def engine_with(tmp_path, content=b"trusted image bytes" * 16, xapp_id="xapp-a",
                clock=None, **kwargs):
    path = tmp_path / f"{xapp_id}.bin"
    path.write_bytes(content)
    engine = AttestationEngine(clock=clock or SimClock().now_ns, **kwargs)
    engine.register(xapp_id, path)
    return engine, content


class TestVerify:
    def test_unmodified_image_valid(self, tmp_path):
        engine, content = engine_with(tmp_path)
        ch = engine.issue_challenge("xapp-a")
        response = attest(image(content=content), ch)
        assert engine.verify(ch, response) == VerificationResult.VALID

    def test_single_flipped_byte_violates(self, tmp_path):
        engine, content = engine_with(tmp_path)
        tampered = bytearray(content)
        tampered[7] ^= 0x01
        ch = engine.issue_challenge("xapp-a")
        response = attest(XappImage("xapp-a", tampered, len(tampered)), ch)
        assert engine.verify(ch, response) == VerificationResult.DIGEST_MISMATCH
        # independent recomputation of both digests confirms the mismatch
        assert seeded_digest(ch.nonce, tampered) != seeded_digest(ch.nonce, content)

    def test_replayed_previous_nonce_rejected(self, tmp_path):
        engine, content = engine_with(tmp_path)
        img = image(content=content)
        old = engine.issue_challenge("xapp-a")
        old_response = attest(img, old)
        assert engine.verify(old, old_response) == VerificationResult.VALID
        engine.issue_challenge("xapp-a")  # new outstanding round
        assert engine.verify(old, old_response) == VerificationResult.REPLAY

    def test_never_issued_nonce_rejected(self, tmp_path):
        engine, content = engine_with(tmp_path)
        forged = challenge(nonce=b"\x42" * 32)
        response = attest(image(content=content), forged)
        assert engine.verify(forged, response) == VerificationResult.REPLAY

    def test_expired_challenge_rejected(self, tmp_path):
        clock = SimClock()
        engine, content = engine_with(tmp_path, clock=clock.now_ns)
        ch = engine.issue_challenge("xapp-a")
        response = attest(image(content=content), ch)
        clock.advance_ns(2_000_000_000)  # past the 1 s freshness window
        assert engine.verify(ch, response) == VerificationResult.REPLAY

    def test_rewritten_issue_time_does_not_extend_freshness(self, tmp_path):
        # freshness runs from the engine's own issue time, not the caller's copy
        clock = SimClock()
        engine, content = engine_with(tmp_path, clock=clock.now_ns)
        ch = engine.issue_challenge("xapp-a")
        response = attest(image(content=content), ch)
        clock.advance_ns(5_000_000_000)
        restamped = replace(ch, issued_at=clock.now_ns())
        assert engine.verify(restamped, response) == VerificationResult.REPLAY

    def test_response_naming_another_xapp_consumes_the_challenge(self, tmp_path):
        engine, content = engine_with(tmp_path)
        ch = engine.issue_challenge("xapp-a")
        honest = attest(image(content=content), ch)
        assert engine.verify(ch, replace(honest, xapp_id="xapp-b")) == VerificationResult.REPLAY
        # the challenge is spent: not even the correct response verifies now
        assert engine.verify(ch, honest) == VerificationResult.REPLAY

    def test_unknown_xapp_rejected(self, tmp_path):
        engine, _ = engine_with(tmp_path)
        with pytest.raises(RegistryError):
            engine.issue_challenge("xapp-unknown")
        with pytest.raises(RegistryError):
            engine.verify(challenge(xapp_id="xapp-unknown"), AttestationResponse(
                xapp_id="xapp-unknown", digest=bytes(32), responded_at=0))

    def test_nonces_never_repeat(self, tmp_path):
        engine, content = engine_with(tmp_path)
        img = image(content=content)
        nonces = set()
        for _ in range(50):
            ch = engine.issue_challenge("xapp-a")
            engine.verify(ch, attest(img, ch))
            assert ch.nonce not in nonces
            nonces.add(ch.nonce)


class TestRounds:
    def test_round_flow_and_cold_start_flag(self, tmp_path):
        engine, content = engine_with(tmp_path)
        img = image(content=content)
        first = engine.run_round(img)
        later = engine.run_round(img)
        assert first.cold_start and not later.cold_start
        assert first.outcome == later.outcome == VerificationResult.VALID

    def test_sink_rows(self, tmp_path):
        # the per-round row fields come from the returned RoundResult
        path = tmp_path / "ref.bin"
        path.write_bytes(b"x" * 1024)
        engine = AttestationEngine(clock=SimClock().now_ns)
        engine.register("xapp-a", path)
        result = engine.run_round(XappImage("xapp-a", bytearray(b"x" * 1024), 1024))
        assert result.outcome == VerificationResult.VALID

    def test_injection_detected_on_next_round(self, tmp_path):
        engine, content = engine_with(tmp_path)
        img = image(content=content)
        assert engine.run_round(img).outcome == VerificationResult.VALID
        inject_code(img, 0, b"\x90" * 64)
        assert engine.run_round(img).outcome == VerificationResult.DIGEST_MISMATCH

    def test_cost_model_latency_deterministic(self, tmp_path):
        # rounds time themselves by wall clock; a deterministic run charges
        # the cost model for the attested bytes, plus the reference load
        # on the cold first round
        run_attestation_experiment(sizes_mb=(0.5,), rounds=2, runs=1, injection_trials=1,
                                   seed=3, workdir=tmp_path, out_dir=tmp_path,
                                   cost_model=DEFAULT_COST_MODEL)
        cold_row, warm_row = (tmp_path / "attestation.csv").read_text().splitlines()[1:]
        for row, cold in ((cold_row, True), (warm_row, False)):
            expected_ns = DEFAULT_COST_MODEL.attestation_round_ns(512 * 1024, cold_start=cold)
            assert float(row.split(",")[2]) == pytest.approx(expected_ns / 1e6, abs=1e-6)


class TestRegistration:
    def test_reregistering_verifies_against_the_new_reference(self, tmp_path):
        first, second = b"image A" * 64, b"image B" * 64
        engine, _ = engine_with(tmp_path, content=first, xapp_id="x")
        assert engine.run_round(image("x", first)).outcome == VerificationResult.VALID
        path = tmp_path / "x-new.bin"
        path.write_bytes(second)
        engine.register("x", path)
        assert not engine.reference_loaded("x")
        assert engine.run_round(image("x", second)).outcome == VerificationResult.VALID
        assert engine.run_round(image("x", first)).outcome == VerificationResult.DIGEST_MISMATCH

    def test_reregistering_drops_the_outstanding_challenge(self, tmp_path):
        first, second = b"image A" * 64, b"image B" * 64
        engine, _ = engine_with(tmp_path, content=first, xapp_id="x")
        ch = engine.issue_challenge("x")
        path = tmp_path / "x-new.bin"
        path.write_bytes(second)
        engine.register("x", path)
        assert engine.verify(ch, attest(image("x", first), ch)) == VerificationResult.REPLAY


class TestOverlap:
    """The engine digests its reference while the attester digests the
    live image, on one worker thread shared by every engine."""

    def test_the_two_digests_run_at_once(self, tmp_path, monkeypatch):
        # each digest waits for the other to start: run one after the
        # other, the first wait times out and breaks the barrier
        barrier = threading.Barrier(2, timeout=5)
        real = attestation.seeded_digest

        def meeting_digest(nonce, image_bytes):
            barrier.wait()
            return real(nonce, image_bytes)

        monkeypatch.setattr(attestation, "seeded_digest", meeting_digest)
        engine, content = engine_with(tmp_path)
        assert engine.run_round(image(content=content)).outcome == VerificationResult.VALID

    def test_engines_share_one_worker_thread(self, tmp_path):
        content = b"trusted image bytes" * 16
        path = tmp_path / "ref.bin"
        path.write_bytes(content)
        before = threading.active_count()
        for _ in range(50):
            engine = AttestationEngine(clock=SimClock().now_ns)
            engine.register("xapp-a", path)
            assert engine.run_round(image(content=content)).outcome == VerificationResult.VALID
        assert threading.active_count() <= before + 1


class TestWhereOutcomesSurface:
    def test_missing_reference_raises_from_verify_not_issue(self, tmp_path):
        engine = AttestationEngine(clock=SimClock().now_ns)
        engine.register("xapp-a", tmp_path / "absent.bin")
        ch = engine.issue_challenge("xapp-a")
        response = attest(image(), ch)
        with pytest.raises(FileNotFoundError):
            engine.verify(ch, response)
        with pytest.raises(FileNotFoundError):
            engine.run_round(image())
        assert not engine.reference_loaded("xapp-a")

    def test_replay_verdicts_do_not_wait_on_the_digest(self, tmp_path, monkeypatch):
        # the verifier's digest is held until released, so a verdict that
        # waited on it would fail with the worker's timed-out wait
        release = threading.Event()
        real = attestation.seeded_digest

        def held_digest(nonce, image_bytes):
            if threading.current_thread() is not threading.main_thread():
                assert release.wait(timeout=5)
            return real(nonce, image_bytes)

        monkeypatch.setattr(attestation, "seeded_digest", held_digest)
        clock = SimClock()
        engine, content = engine_with(tmp_path, clock=clock.now_ns)
        honest = image(content=content)
        try:
            ch = engine.issue_challenge("xapp-a")
            response = attest(honest, ch)
            verdicts = [engine.verify(ch, replace(response, xapp_id="xapp-b")),
                        engine.verify(ch, response)]
            ch = engine.issue_challenge("xapp-a")
            clock.advance_ns(2_000_000_000)
            verdicts.append(engine.verify(ch, attest(honest, ch)))
            forged = challenge(nonce=b"\x42" * 32)
            verdicts.append(engine.verify(forged, attest(honest, forged)))
            assert not release.is_set()
        finally:
            release.set()
        assert verdicts == [VerificationResult.REPLAY] * 4
        assert engine.run_round(honest).outcome == VerificationResult.VALID

    def test_a_second_challenge_supersedes_the_first(self, tmp_path):
        engine, content = engine_with(tmp_path)
        img = image(content=content)
        first = engine.issue_challenge("xapp-a")
        second = engine.issue_challenge("xapp-a")
        assert list(engine._outstanding) == ["xapp-a"]
        assert engine.verify(second, attest(img, second)) == VerificationResult.VALID
        assert engine.verify(first, attest(img, first)) == VerificationResult.REPLAY


@settings(max_examples=60, deadline=None)
@given(
    offset_frac=st.floats(min_value=0.0, max_value=1.0),
    payload=st.binary(min_size=1, max_size=128),
)
def test_any_nonempty_injection_is_detected(tmp_path_factory, offset_frac, payload):
    content = np.random.default_rng(0).bytes(4096)
    tmp_path = tmp_path_factory.mktemp("attest")
    path = tmp_path / "ref.bin"
    path.write_bytes(content)
    engine = AttestationEngine(clock=SimClock().now_ns)
    engine.register("xapp-a", path)
    img = XappImage("xapp-a", bytearray(content), len(content))
    inject_code(img, int(offset_frac * len(content)), payload)
    assert engine.run_round(img).outcome == VerificationResult.DIGEST_MISMATCH
