#!/usr/bin/env python3
"""Walk through message-level inspection: rulebook, scanning, mitigation.

Builds a small rulebook, crafts clean and compromised control-plane frames,
and shows how the ingress inspector separates them, what the two matchers
report, what the deterministic timing mode charges for a scan, and what the
policy engine does with a hit.
"""

import numpy as np

from ricguard import (
    AhoCorasickMatcher,
    Blocklist,
    E2Message,
    E2MessageKind,
    IngressInspector,
    MitigationPolicy,
    NaiveMatcher,
    Verdict,
    decode_frame,
    encode_frame,
    scan_naive,
    synthetic_rulebook,
)
from ricguard.mitigation import (
    DetectionEvent,
    MitigationState,
    apply_actions,
    format_action_codes,
    resolve_inspector_event,
)
from ricguard.signatures import canonical_comparisons

# A hundred seeded stand-in patterns, every one bound to drop + report.
rulebook = synthetic_rulebook(count=100, seed=7, action_codes="DR")
print(f"rulebook {rulebook.version!r} with {len(rulebook)} patterns, "
      f"lengths {min(len(s.pattern) for s in rulebook.signatures)}-"
      f"{max(len(s.pattern) for s in rulebook.signatures)} bytes")

# A benign indication and a copy with one known pattern spliced in.
rng = np.random.default_rng(0)
clean_payload = rng.bytes(150)
pattern = rulebook.signatures[42].pattern
infected_payload = clean_payload[:80] + pattern + clean_payload[80:]

clean = E2Message(E2MessageKind.INDICATION, source_node_id=3, payload=clean_payload)
infected = E2Message(E2MessageKind.INDICATION, source_node_id=5, payload=infected_payload)

# Frames cross the wire: 11-byte header + payload, decoded at the terminal.
frame = encode_frame(infected)
print(f"\ninfected frame: {len(frame)} bytes "
      f"(header 11 + payload {len(infected_payload)})")
received = decode_frame(frame, clock=lambda: 1_000)

# Scan ahead of any payload decoding. Both matchers agree, always.
naive = scan_naive(received.payload, rulebook)
automaton = AhoCorasickMatcher(rulebook).scan(received.payload)
print(f"naive scan:     hits {naive.hits}")
print(f"automaton scan: hits {automaton.hits}")
assert naive.hits == automaton.hits
# Deterministic timing charges a scan for the textbook search's comparisons.
print(f"textbook search: {canonical_comparisons(received.payload, rulebook)} byte comparisons")

# The inspector wires scanning to verdicts and the blocklist short-circuit.
blocklist = Blocklist()
inspector = IngressInspector(NaiveMatcher(rulebook), blocklist)
for msg in (clean, infected):
    outcome = inspector.inspect(msg)
    print(f"node {msg.source_node_id}: {outcome.verdict.value:<10} "
          f"scan {outcome.inspect_latency_ns / 1e6:.3f} ms")

# A hit resolves to the union of the matched signatures' action sets.
policy = MitigationPolicy.default()
policy.bind_rulebook(rulebook)
outcome = inspector.inspect(infected)
actions = resolve_inspector_event(outcome.match, policy)
print(f"\nresolved actions: {format_action_codes(actions)} "
      f"(D=drop message, R=report)")

state = MitigationState()
event = DetectionEvent(detector="inspector", evidence="sig:42",
                       timestamp_ms=1, node_id=infected.source_node_id)
apply_actions(state, event, actions)
row = state.log.reports[-1]
print(f"  incident {row.event_id}: {row.subject} {row.evidence} "
      f"{format_action_codes(row.actions)}")
print(f"  {state.blocklist}")

# Once an operator policy blocks a node, its traffic never reaches a scan.
blocklist.blocked_nodes.add(5)
blocked = inspector.inspect(infected)
print(f"\nafter blocklisting node 5: verdict {blocked.verdict.value} "
      f"(scanned: {blocked.match is not None})")
assert blocked.verdict is Verdict.BLOCKED
