"""Ingress-side E2 message inspection.

The inspector sits at the E2 terminal ahead of payload decoding: it scans
each inbound frame's raw payload against the rulebook, forwards benign
messages to the dispatch path, and diverts malicious ones to mitigation.
Sources already on the blocklist are short-circuited before any scan.

Latency is the matcher's wall-clock scan time; mitigation and reporting
happen after the measurement window.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from .e2 import E2Message, E2MessageKind
from .mitigation import Blocklist
from .signatures import MatchResult


class Verdict(Enum):
    BENIGN = "benign"
    MALICIOUS = "malicious"
    BLOCKED = "blocked"


class InspectionOutcome(NamedTuple):
    """Result of inspecting one inbound message, an immutable named tuple.

    ``match`` is present whenever a scan ran (benign outcomes keep their
    zero-hit result for latency accounting); None means no scan was
    performed at all, because the source is blocked. The verdict follows
    from the match. ``loop`` is the control-loop tick the message arrived
    in.
    """

    message: E2Message
    inspect_latency_ns: int
    match: MatchResult | None = None
    loop: int = 0

    @property
    def verdict(self) -> Verdict:
        """BLOCKED without a scan, else MALICIOUS when a signature hit."""
        match = self.match
        if match is None:
            return Verdict.BLOCKED
        return Verdict.MALICIOUS if match.hits else Verdict.BENIGN


class IngressInspector:
    """Inspection stage bound to a shared matcher and blocklist; one
    instance serves every E2 connection."""

    def __init__(self, matcher, blocklist: Blocklist) -> None:
        self.matcher = matcher
        self.blocklist = blocklist

    def inspect(self, msg: E2Message, loop: int = 0) -> InspectionOutcome:
        if msg.source_node_id in self.blocklist.blocked_nodes:
            return InspectionOutcome(msg, 0, None, loop)
        match = self.matcher.scan(msg.payload)
        return InspectionOutcome(msg, match.scan_latency_ns, match, loop)


@dataclass(frozen=True)
class LatencySummary:
    """Average/maximum scan latency for one message kind, in milliseconds."""

    kind: E2MessageKind
    average_ms: float
    maximum_ms: float
    count: int


def latency_summary(
    outcomes: Iterable[InspectionOutcome], kind: E2MessageKind
) -> LatencySummary | None:
    """Summarise scan latencies for one kind; blocked (unscanned) outcomes
    are excluded. Returns None when there is nothing to summarise."""
    latencies = [
        o.inspect_latency_ns
        for o in outcomes
        if o.message.kind is kind and o.verdict is not Verdict.BLOCKED
    ]
    if not latencies:
        return None
    return LatencySummary(
        kind=kind,
        average_ms=sum(latencies) / len(latencies) / 1e6,
        maximum_ms=max(latencies) / 1e6,
        count=len(latencies),
    )
