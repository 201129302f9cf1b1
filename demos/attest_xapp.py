#!/usr/bin/env python3
"""Walk through control-logic attestation: rounds, injection, mitigation.

Registers a trusted reference image, runs periodic challenge/response
rounds over a clean in-memory image, then injects code and watches the next
round flag the violation and the tiered policy respond.
"""

import random
import tempfile
from pathlib import Path

import numpy as np

from ricguard import AttestationEngine, SimClock, XappImage, inject_code
from ricguard.attestation import VerificationResult
from ricguard.mitigation import (
    DetectionEvent,
    MitigationPolicy,
    MitigationState,
    XappTier,
    apply_actions,
    format_action_codes,
    resolve_attestation_event,
)

workdir = Path(tempfile.mkdtemp(prefix="attest-demo-"))
image_bytes = np.random.default_rng(3).bytes(4 * 1024 * 1024)  # 4 MB xApp
reference_path = workdir / "traffic-steering-xapp.bin"
reference_path.write_bytes(image_bytes)

clock = SimClock()
engine = AttestationEngine(clock=clock.now_ns, rng=random.Random(1))
engine.register("traffic-steering", reference_path)
image = XappImage("traffic-steering", bytearray(image_bytes), len(image_bytes))

# Five clean rounds, one per five simulated seconds. Round 1 pays the
# cold-start read of the reference image from disk.
print("clean rounds:")
for round_number in range(1, 6):
    clock.advance_ns(5_000_000_000)
    outcome = engine.run_round(image)
    tag = " (cold start)" if outcome.cold_start else ""
    print(f"  round {round_number}: {outcome.outcome:<9} "
          f"{outcome.latency_ms:7.2f} ms over {outcome.image_mb:.1f} MB{tag}")

# A replayed response is refused even though its digest was once valid.
challenge = engine.issue_challenge("traffic-steering")
from ricguard import attest  # noqa: E402  (narrative order)

response = attest(image, challenge, clock=clock.now_ns)
assert engine.verify(challenge, response) == VerificationResult.VALID
print(f"\nreplaying the same response: {engine.verify(challenge, response)}")

# Inject 64 bytes mid-image; the very next round raises a violation.
record = inject_code(image, offset=2_000_000, payload=b"\x90" * 64)
print(f"\ninjected {record.payload_length} bytes at offset {record.offset}")
clock.advance_ns(5_000_000_000)
outcome = engine.run_round(image)
print(f"round {round_number + 1}: {outcome.outcome}")
assert outcome.outcome == VerificationResult.DIGEST_MISMATCH

# The response is tiered: high-impact xApps are blocked outright, read-only
# ones keep running in restricted mode; reporting always happens.
policy = MitigationPolicy.default()
state = MitigationState()
print("\ntiered mitigation on the violation:")
for tier in XappTier:
    actions = resolve_attestation_event("traffic-steering", tier, policy)
    print(f"  {tier.value:<12} -> {format_action_codes(actions)}")

actions = resolve_attestation_event("traffic-steering", XappTier.HIGH_IMPACT, policy)
event = DetectionEvent(detector="attestation", evidence="digest-mismatch",
                       timestamp_ms=clock.now_ms(), xapp_id="traffic-steering")
apply_actions(state, event, actions)
row = state.log.reports[-1]
print(f"  incident {row.event_id}: {row.subject} {row.evidence} "
      f"{format_action_codes(row.actions)}")
print(f"  {state.blocklist}")
assert "traffic-steering" in state.blocklist.blocked_xapps
