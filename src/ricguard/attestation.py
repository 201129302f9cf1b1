"""Runtime xApp attestation: seeded-hash challenge/response.

The platform-side engine issues challenges carrying a fresh 32-byte nonce;
the attester bound to an xApp answers with SHA-256(nonce || live image
bytes). The engine recomputes the digest over its trusted reference image
and flags any mismatch as an integrity violation. Nonces are single-use and
expire, so replayed responses are rejected regardless of digest content.

The engine knows the nonce as soon as it issues the challenge, so it
computes its expected digest (loading the reference first on a cold round)
on a worker thread while the attester digests the live image. ``hashlib``
releases the interpreter lock over large buffers, so the two digests run
side by side and a round takes about as long as the longer of them.

The nonce prefixes the image in the digest input, which rules out
precomputing the image's hash state ahead of the challenge.

Images here are simulated in-memory buffers; a code-injection helper splices
attacker bytes at arbitrary offsets (growing the image), so detection
experiments know which images were tampered with.
"""

from __future__ import annotations

import hashlib
import secrets
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .timing import wall_ns

NONCE_BYTES = 32
CHALLENGE_TTL_NS = 1_000_000_000  # one simulated second
NONCE_HISTORY = 32
#: Operator default between attestation rounds (seconds, simulated).
DEFAULT_ATTESTATION_PERIOD_S = 5


#: The one verifier worker of the process, shared by every engine: the
#: harness builds a fresh engine per run, and per-engine pools would pile up
#: idle threads. Its thread starts at the first submit, not at import.
_VERIFIER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ricguard-verifier")


class RegistryError(KeyError):
    """Raised for xApp ids with no registered reference image."""


@dataclass
class XappImage:
    """Simulated live memory image of one xApp; mutable, may grow."""

    xapp_id: str
    live_bytes: bytearray
    declared_size: int

    def __post_init__(self) -> None:
        if len(self.live_bytes) < self.declared_size:
            raise ValueError("live image shorter than its declared size")


@dataclass(frozen=True)
class AttestationChallenge:
    xapp_id: str
    nonce: bytes
    issued_at: int  # monotonic ns

    def __post_init__(self) -> None:
        if len(self.nonce) != NONCE_BYTES:
            raise ValueError("nonce must be exactly 32 bytes")


@dataclass(frozen=True)
class AttestationResponse:
    xapp_id: str
    digest: bytes
    responded_at: int

    def __post_init__(self) -> None:
        if len(self.digest) != NONCE_BYTES:
            raise ValueError("digest must be exactly 32 bytes (SHA-256)")


class VerificationResult:
    VALID = "valid"
    DIGEST_MISMATCH = "violation"
    REPLAY = "replay-violation"


def seeded_digest(nonce: bytes, image_bytes: bytes | bytearray) -> bytes:
    # streamed in two updates: copying a multi-MB image into a fresh
    # concatenation would dominate (and distort) round latency
    digest = hashlib.sha256(nonce)
    digest.update(image_bytes)
    return digest.digest()


def _expected_digest(nonce: bytes, reference: bytes | None, path: str) -> tuple[bytes, bytes]:
    """Verifier side, run on the worker: the reference image (read from
    ``path`` when not yet cached) and its digest under ``nonce``."""
    if reference is None:
        reference = Path(path).read_bytes()
    return reference, seeded_digest(nonce, reference)


def attest(image: XappImage, challenge: AttestationChallenge,
           clock: Callable[[], int] = time.monotonic_ns) -> AttestationResponse:
    """Attester side: digest the live image under the challenge nonce."""
    if challenge.xapp_id != image.xapp_id:
        raise ValueError(
            f"challenge for {challenge.xapp_id!r} answered by {image.xapp_id!r}"
        )
    return AttestationResponse(
        xapp_id=image.xapp_id,
        digest=seeded_digest(challenge.nonce, image.live_bytes),
        responded_at=clock(),
    )


def inject_code(image: XappImage, offset: int, payload: bytes) -> None:
    """Splice attacker bytes into the live image at ``offset``, growing it."""
    if not 0 <= offset <= len(image.live_bytes):
        raise ValueError(f"offset {offset} outside image of {len(image.live_bytes)} bytes")
    image.live_bytes[offset:offset] = payload


@dataclass
class RoundResult:
    """One round's verification outcome, its wall-clock latency, and whether
    it paid the reference-image load."""

    outcome: str  # VerificationResult value
    latency_ms: float
    cold_start: bool


class AttestationEngine:
    """Platform-side registry, challenge issuance, and verification.

    Each xApp has at most one outstanding challenge; issuing a new one
    supersedes the last. Every engine hands its expected-digest work to one
    process-wide worker, which serialises the verifier digests of all
    engines. ``clock`` provides monotonic time for challenge freshness (the
    harness passes the simulated clock); ``rng`` must expose ``randbytes``
    and defaults to the system CSPRNG.
    """

    def __init__(self, clock: Callable[[], int] = time.monotonic_ns, rng=None) -> None:
        self._clock = clock
        self._randbytes = rng.randbytes if rng is not None else secrets.token_bytes
        self._paths: dict[str, str] = {}
        #: trusted deployment-time image bytes, loaded on first use
        self._references: dict[str, bytes] = {}
        #: per xApp, the live challenge and its pending (reference, digest)
        self._outstanding: dict[
            str, tuple[AttestationChallenge, Future[tuple[bytes, bytes]]]] = {}
        self._recent_nonces: dict[str, deque[bytes]] = {}

    def register(self, xapp_id: str, reference_path: str | Path) -> None:
        """Bind an xApp id to its on-disk reference image (loaded lazily, so
        the first round pays the cold-start read).

        Re-registering drops the cached reference and the outstanding
        challenge, whose pending digest reads the superseded image.
        """
        self._paths[xapp_id] = str(reference_path)
        self._references.pop(xapp_id, None)
        self._drop_outstanding(xapp_id)

    def reference_loaded(self, xapp_id: str) -> bool:
        return xapp_id in self._references

    def _drop_outstanding(self, xapp_id: str) -> None:
        pending = self._outstanding.pop(xapp_id, None)
        if pending is not None:
            pending[1].cancel()

    def issue_challenge(self, xapp_id: str) -> AttestationChallenge:
        """Issue a fresh challenge and start the expected digest on the
        verifier worker; a failure to read the reference surfaces in
        ``verify``."""
        path = self._paths.get(xapp_id)
        if path is None:
            raise RegistryError(f"no reference image registered for {xapp_id!r}")
        recent = self._recent_nonces.setdefault(xapp_id, deque(maxlen=NONCE_HISTORY))
        nonce = self._randbytes(NONCE_BYTES)
        while nonce in recent:  # astronomically unlikely; contract nonetheless
            nonce = self._randbytes(NONCE_BYTES)
        recent.append(nonce)
        challenge = AttestationChallenge(xapp_id=xapp_id, nonce=nonce, issued_at=self._clock())
        self._drop_outstanding(xapp_id)
        expected = _VERIFIER.submit(_expected_digest, nonce, self._references.get(xapp_id), path)
        self._outstanding[xapp_id] = (challenge, expected)
        return challenge

    def verify(self, challenge: AttestationChallenge, response: AttestationResponse) -> str:
        """Check a response against the outstanding challenge.

        Responses bound to consumed, expired, or never-issued nonces, and
        responses naming another xApp, are replay violations, returned
        without waiting on the expected digest; a live nonce with a digest
        mismatch is an integrity violation. Either way the challenge is
        consumed. Freshness is measured from the engine's own record of the
        issue time, never from the caller's copy of the challenge.
        """
        if challenge.xapp_id not in self._paths:
            raise RegistryError(f"no reference image registered for {challenge.xapp_id!r}")
        pending = self._outstanding.get(challenge.xapp_id)
        if pending is None or pending[0].nonce != challenge.nonce:
            return VerificationResult.REPLAY
        del self._outstanding[challenge.xapp_id]
        outstanding, expected = pending
        if (response.xapp_id != challenge.xapp_id
                or self._clock() - outstanding.issued_at > CHALLENGE_TTL_NS):
            expected.cancel()
            return VerificationResult.REPLAY
        reference, digest = expected.result()
        self._references[challenge.xapp_id] = reference
        if digest == response.digest:
            return VerificationResult.VALID
        return VerificationResult.DIGEST_MISMATCH

    def run_round(self, image: XappImage) -> RoundResult:
        """One full attestation round: challenge, response, verification.

        Wall-clock latency spans the whole exchange. The verifier's digest
        runs while the attester's does, so a round takes about the longer of
        the two; the first round for an xApp also pays the reference-image
        load from storage, on the verifier's side of that overlap.
        """
        cold = not self.reference_loaded(image.xapp_id)
        started = wall_ns()
        challenge = self.issue_challenge(image.xapp_id)
        response = attest(image, challenge, clock=self._clock)
        outcome = self.verify(challenge, response)
        return RoundResult(
            outcome=outcome,
            latency_ms=(wall_ns() - started) / 1e6,
            cold_start=cold,
        )
