"""Policy-driven mitigation shared by all three detection layers.

Detection events are resolved against an operator-editable
:class:`MitigationPolicy` into sets of :class:`MitigationAction`, then
applied to runtime state (blocklists, revocation marks, the incident log).
Resolution is pure; each application acts once, so every reported
detection event gets its own incident row.

Policy file format (stdlib configparser syntax), read by
:func:`load_policy`; ricguard reads policies and writes none::

    [inspector]
    17 = DBR          # per-signature overrides; unmapped ids fall back to DR

    [kpm]
    small = X
    moderate = XR
    significant = XBR

    [attestation]
    high_impact = KVR
    standard = VR
    read_only = R

Action codes: D drop message, X drop data, B block node, R report,
V revoke privileges, K block xApp. A line binding a set that its event
cannot carry is refused: inspector and KPM events name a node and no xApp,
attestation events an xApp and no node.
"""

from __future__ import annotations

import configparser
import logging
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

logger = logging.getLogger(__name__)


class MitigationAction(Enum):
    """The six runtime responses supported by this framework."""

    DROP_MESSAGE = "D"
    DROP_DATA = "X"
    BLOCK_NODE = "B"
    REPORT = "R"
    REVOKE_PRIVILEGES = "V"
    BLOCK_XAPP = "K"


# Canonical code order used when formatting action sets.
_ACTION_ORDER = "DXBRVK"
_CODE_TO_ACTION = {a.value: a for a in MitigationAction}

#: Applied to inspector hits whose signature id is missing from the policy.
FALLBACK_SIGNATURE_ACTIONS = frozenset(
    {MitigationAction.DROP_MESSAGE, MitigationAction.REPORT}
)


class Magnitude(Enum):
    """Deviation magnitude classes for data-level anomalies."""

    SMALL = "small"
    MODERATE = "moderate"
    SIGNIFICANT = "significant"


class XappTier(Enum):
    """Operator-assigned xApp privilege tiers for attestation responses."""

    HIGH_IMPACT = "high_impact"
    STANDARD = "standard"
    READ_ONLY = "read_only"


def parse_action_codes(codes: str) -> frozenset[MitigationAction]:
    """Parse a compact action-code string such as ``"XBR"`` or ``"X,B,R"``."""
    actions = set()
    for ch in codes:
        if ch in ", \t":
            continue
        action = _CODE_TO_ACTION.get(ch.upper())
        if action is None:
            raise ValueError(f"unknown mitigation action code {ch!r}")
        actions.add(action)
    return frozenset(actions)


def format_action_codes(actions: Iterable[MitigationAction]) -> str:
    """Format an action set as codes in canonical D,X,B,R,V,K order."""
    present = {a.value for a in actions}
    return "".join(c for c in _ACTION_ORDER if c in present)


@dataclass
class MitigationPolicy:
    """Operator-defined mapping from detection events to action sets."""

    signature_actions: dict[int, frozenset[MitigationAction]] = field(default_factory=dict)
    magnitude_actions: dict[Magnitude, frozenset[MitigationAction]] = field(default_factory=dict)
    xapp_tier_actions: dict[XappTier, frozenset[MitigationAction]] = field(default_factory=dict)

    @classmethod
    def default(cls) -> "MitigationPolicy":
        """Data-level defaults (drop everywhere, escalate reporting/blocking
        with magnitude) and tiered attestation responses; the inspector map
        is filled from the rulebook via :meth:`bind_rulebook`."""
        return cls(
            signature_actions={},
            magnitude_actions={
                Magnitude.SMALL: parse_action_codes("X"),
                Magnitude.MODERATE: parse_action_codes("XR"),
                Magnitude.SIGNIFICANT: parse_action_codes("XBR"),
            },
            xapp_tier_actions={
                XappTier.HIGH_IMPACT: parse_action_codes("KVR"),
                XappTier.STANDARD: parse_action_codes("VR"),
                XappTier.READ_ONLY: parse_action_codes("R"),
            },
        )

    def bind_rulebook(self, signatures) -> None:
        """Populate per-signature actions from a SignatureSet's bindings."""
        for sig in signatures.signatures:
            self.signature_actions[sig.sig_id] = frozenset(sig.actions)


def _checked_actions(section: str, key: str, codes: str) -> frozenset[MitigationAction]:
    """The action set of one policy line, refused with ValueError unless its
    event can carry it: an inspector or KPM event names a node and no xApp,
    an attestation event names an xApp and gains Report, as
    :func:`resolve_attestation_event` adds it."""
    actions = parse_action_codes(codes)
    xapp = section == "attestation"
    try:
        _check_actions(actions | {MitigationAction.REPORT} if xapp else actions,
                       node_id=None if xapp else 0, xapp_id="" if xapp else None)
    except ValueError as exc:
        raise ValueError(f"[{section}] {key}: {exc}") from None
    return actions


def load_policy(path) -> MitigationPolicy:
    """Load a policy file; sections/keys absent from the file keep defaults,
    and a set its event cannot carry is refused (see :func:`_checked_actions`)."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case (tier names, numeric ids)
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(path)
    policy = MitigationPolicy.default()
    if parser.has_section("inspector"):
        for key, value in parser.items("inspector"):
            try:
                sig_id = int(key)
            except ValueError as exc:
                raise ValueError(f"[inspector] keys must be signature ids, got {key!r}") from exc
            policy.signature_actions[sig_id] = _checked_actions("inspector", key, value)
    if parser.has_section("kpm"):
        for key, value in parser.items("kpm"):
            policy.magnitude_actions[Magnitude(key.lower())] = _checked_actions("kpm", key, value)
    if parser.has_section("attestation"):
        for key, value in parser.items("attestation"):
            policy.xapp_tier_actions[XappTier(key.lower())] = _checked_actions("attestation",
                                                                                key, value)
    return policy


def resolve_inspector_event(match, policy: MitigationPolicy) -> frozenset[MitigationAction]:
    """Union of the action sets bound to every signature hit in ``match``.

    Signature ids missing from the policy contribute the fail-safe
    {DropMessage, Report} set and log a policy-gap warning.
    """
    if not match.hits:
        raise ValueError("inspector events require at least one signature hit")
    actions: set[MitigationAction] = set()
    for sig_id, _offset in match.hits:
        bound = policy.signature_actions.get(sig_id)
        if bound is None:
            logger.warning("no mitigation policy for signature %d; using fallback", sig_id)
            bound = FALLBACK_SIGNATURE_ACTIONS
        actions |= bound
    return frozenset(actions)


def resolve_kpm_event(verdict, source_node_id: int, policy: MitigationPolicy) -> frozenset[MitigationAction]:
    """Action set for an anomalous telemetry verdict, by deviation magnitude;
    a verdict has a magnitude exactly when it is anomalous."""
    magnitude = verdict.magnitude
    if magnitude is None:
        raise ValueError("only anomalous verdicts reach mitigation")
    return policy.magnitude_actions[magnitude]


def resolve_attestation_event(xapp_id: str, tier, policy: MitigationPolicy) -> frozenset[MitigationAction]:
    """Tiered response to an integrity violation; Report is always included."""
    bound = policy.xapp_tier_actions.get(tier)
    if bound is None:
        logger.warning("no mitigation policy for xApp tier %r; reporting only", tier)
        bound = frozenset()
    return frozenset(bound | {MitigationAction.REPORT})


class IncidentReport(NamedTuple):
    """One audit row; event ids increase monotonically within a log."""

    event_id: int
    detector: str
    subject: str
    evidence: str
    actions: frozenset[MitigationAction]
    timestamp_ms: int


INCIDENT_CSV_HEADER = "event_id,detector,subject,magnitude_or_sigids,actions,timestamp_ms"


class IncidentLog:
    """Append-only incident record; the administration-body interface."""

    def __init__(self) -> None:
        self._reports: list[IncidentReport] = []

    def append(self, detector: str, subject: str, evidence: str,
               actions: frozenset[MitigationAction], timestamp_ms: int) -> IncidentReport:
        report = IncidentReport(len(self._reports), detector, subject, evidence, actions,
                                timestamp_ms)
        self._reports.append(report)
        return report

    @property
    def reports(self) -> tuple[IncidentReport, ...]:
        return tuple(self._reports)

    def __len__(self) -> int:
        return len(self._reports)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(INCIDENT_CSV_HEADER + "\n")
            for r in self._reports:
                fh.write(
                    f"{r.event_id},{r.detector},{r.subject},{r.evidence},"
                    f"{format_action_codes(r.actions)},{r.timestamp_ms}\n"
                )


@dataclass
class Blocklist:
    """Blocked nodes and xApps, and the xApps whose privileges are revoked."""

    blocked_nodes: set[int] = field(default_factory=set)
    blocked_xapps: set[str] = field(default_factory=set)
    revoked_xapps: set[str] = field(default_factory=set)


class DetectionEvent(NamedTuple):
    """Context handed to mitigation alongside the resolved action set."""

    detector: str  # "inspector" | "kpm" | "attestation"
    evidence: str  # e.g. "sig:3;7", "magnitude:significant", "digest-mismatch"
    timestamp_ms: int
    node_id: int | None = None
    ue_id: int | None = None
    xapp_id: str | None = None

    @property
    def subject(self) -> str:
        if self.xapp_id is not None:
            return f"xapp:{self.xapp_id}"
        if self.ue_id is not None:
            return f"ue:{self.ue_id}"
        if self.node_id is not None:
            return f"node:{self.node_id}"
        return "unknown"


_XAPP_ACTIONS = frozenset({MitigationAction.BLOCK_XAPP, MitigationAction.REVOKE_PRIVILEGES})


class MitigationState:
    """The runtime state that mitigation acts on: blocklist and incident log."""

    def __init__(self) -> None:
        self.blocklist = Blocklist()
        self.log = IncidentLog()


def _check_actions(actions: frozenset[MitigationAction], node_id: int | None,
                   xapp_id: str | None) -> None:
    if not actions:
        raise ValueError("mitigation requires a non-empty action set")
    if MitigationAction.BLOCK_NODE in actions and node_id is None:
        raise ValueError("BlockNode requires a node_id on the event")
    if xapp_id is None and not actions.isdisjoint(_XAPP_ACTIONS):
        raise ValueError("BlockXapp and RevokePrivileges require an xapp_id on the event")


def apply_actions(state: MitigationState, event: DetectionEvent,
                  actions: frozenset[MitigationAction]) -> None:
    """Apply a resolved action set for one detection event.

    Every call applies its actions: with Report in the set it logs exactly
    one incident row, so two detections log two rows even when they read
    alike. The event is checked before anything changes, and the row is
    logged before any block or revocation, so every block is covered by a
    logged incident. Dropping the message or data is left to the calling
    pipeline, which does not forward a diverted message or a flagged record.
    """
    _check_actions(actions, event.node_id, event.xapp_id)
    if MitigationAction.REPORT in actions:
        state.log.append(event.detector, event.subject, event.evidence,
                         actions, event.timestamp_ms)
    if MitigationAction.BLOCK_NODE in actions:
        state.blocklist.blocked_nodes.add(event.node_id)
    if MitigationAction.BLOCK_XAPP in actions:
        state.blocklist.blocked_xapps.add(event.xapp_id)
    if MitigationAction.REVOKE_PRIVILEGES in actions:
        state.blocklist.revoked_xapps.add(event.xapp_id)


def apply_kpm_actions(state: MitigationState, policy: MitigationPolicy,
                      magnitudes: Sequence[Magnitude], ue_ids: Sequence[int],
                      node_ids: Sequence[int], timestamp_ms: int) -> None:
    """Mitigate one tick's flagged telemetry records in one pass.

    The records come in record order as parallel sequences: magnitudes,
    UE ids and sending nodes. It leaves the same incident rows, in the same
    order, and the same blocklist as one :func:`apply_actions` call per
    record with its magnitude's action set, but resolves and checks each
    magnitude's action set once, before anything changes.
    """
    reported, blocking = {}, set()
    for magnitude in set(magnitudes):
        actions = policy.magnitude_actions[magnitude]
        _check_actions(actions, node_id=0, xapp_id=None)  # each record has its node
        if MitigationAction.REPORT in actions:
            reported[magnitude] = (f"magnitude:{magnitude.value}", actions)
        if MitigationAction.BLOCK_NODE in actions:
            blocking.add(magnitude)
    for magnitude, ue_id in zip(magnitudes, ue_ids):
        if magnitude in reported:
            state.log.append("kpm", f"ue:{ue_id}", *reported[magnitude], timestamp_ms)
    state.blocklist.blocked_nodes.update(
        node_id for magnitude, node_id in zip(magnitudes, node_ids) if magnitude in blocking)
