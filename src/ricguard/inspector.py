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
from typing import Iterable

from .e2 import E2Message, E2MessageKind
from .mitigation import Blocklist
from .signatures import MatchResult


class Verdict(Enum):
    BENIGN = "benign"
    MALICIOUS = "malicious"
    BLOCKED = "blocked"


@dataclass(frozen=True)
class InspectionOutcome:
    """Result of inspecting one inbound message.

    ``match`` is present whenever a scan ran (benign outcomes keep their
    zero-hit result for latency accounting); a blocked outcome means no scan
    was performed at all. ``loop`` is the control-loop tick the message
    arrived in.
    """

    message: E2Message
    verdict: Verdict
    inspect_latency_ns: int
    match: MatchResult | None = None
    loop: int = 0

    def __post_init__(self) -> None:
        if self.verdict is Verdict.BLOCKED:
            if self.match is not None:
                raise ValueError("blocked messages are never scanned")
        else:
            if self.match is None:
                raise ValueError("scanned outcomes carry their match result")
            if (self.verdict is Verdict.MALICIOUS) != self.match.matched:
                raise ValueError("verdict must agree with the match result")

    @property
    def blocked_at_ingress(self) -> bool:
        return self.verdict is Verdict.BLOCKED


class IngressInspector:
    """Inspection stage bound to a shared matcher and blocklist; one
    instance serves every E2 connection."""

    def __init__(self, matcher, blocklist: Blocklist) -> None:
        self.matcher = matcher
        self.blocklist = blocklist

    def inspect(self, msg: E2Message, loop: int = 0) -> InspectionOutcome:
        if self.blocklist.is_node_blocked(msg.source_node_id):
            return InspectionOutcome(
                message=msg, verdict=Verdict.BLOCKED, inspect_latency_ns=0, loop=loop
            )
        match = self.matcher.scan(msg.payload)
        return InspectionOutcome(
            message=msg,
            verdict=Verdict.MALICIOUS if match.matched else Verdict.BENIGN,
            inspect_latency_ns=match.scan_latency_ns,
            match=match,
            loop=loop,
        )


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
        if o.message.kind is kind and not o.blocked_at_ingress
    ]
    if not latencies:
        return None
    return LatencySummary(
        kind=kind,
        average_ms=sum(latencies) / len(latencies) / 1e6,
        maximum_ms=max(latencies) / 1e6,
        count=len(latencies),
    )
