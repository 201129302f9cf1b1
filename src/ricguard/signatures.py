"""Known-attack pattern rulebook and multi-pattern payload scanning.

Patterns are opaque byte strings matched against raw payloads ahead of any
decoding. Two interchangeable matchers are provided:

* :func:`scan_naive` — the reference matcher: per signature, the first
  occurrence, found by ``bytes.find``. A 2-byte prefilter runs first: only
  the signatures whose first two bytes occur in the payload are searched,
  each once.
* :class:`AhoCorasickMatcher` — goto/failure-link automaton built once per
  rulebook version, scanning all patterns in a single pass.

Both report each matched signature once, at its smallest occurrence offset,
with hits sorted by signature id, and the scan's wall time.
:func:`canonical_comparisons` counts the byte comparisons of the textbook
per-signature search, the work the deterministic cost model charges a scan.

Rulebook file format: one rule per line, ``id,hex(pattern),action_codes,label``;
``#`` begins a comment, blank lines are ignored, and a ``# version: <name>``
comment names the rulebook's version. Action codes as in the mitigation
module (D drop, B block node, R report); a signature whose set is empty or
holds an xApp action, which an inspector event cannot carry, is refused.
Rulebooks are written by their authors; :func:`load_rulebook` reads them,
and nothing here writes one.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .mitigation import MitigationAction, _check_actions, parse_action_codes
from .timing import wall_ns

logger = logging.getLogger(__name__)

MIN_PATTERN_LENGTH = 4  # guards against degenerate universal matches


@dataclass(frozen=True)
class Signature:
    """One known-attack byte pattern bound to its mitigation actions."""

    sig_id: int
    pattern: bytes
    actions: frozenset[MitigationAction]
    label: str

    def __post_init__(self) -> None:
        if not 0 <= self.sig_id <= 0xFFFFFFFF:
            raise ValueError(f"signature id {self.sig_id} outside unsigned 32-bit range")
        if len(self.pattern) < MIN_PATTERN_LENGTH:
            raise ValueError(
                f"signature {self.sig_id}: pattern of {len(self.pattern)} bytes "
                f"(minimum {MIN_PATTERN_LENGTH})"
            )
        try:  # a hit is an inspector event: it names a node and no xApp
            _check_actions(self.actions, node_id=0, xapp_id=None)
        except ValueError as exc:
            raise ValueError(f"signature {self.sig_id}: {exc}") from None


@dataclass(frozen=True)
class SignatureSet:
    """An immutable, versioned rulebook."""

    signatures: tuple[Signature, ...]
    version: str = "unversioned"

    def __post_init__(self) -> None:
        ids = [s.sig_id for s in self.signatures]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate signature ids in rulebook")

    def __len__(self) -> int:
        return len(self.signatures)

    @cached_property
    def _two_grams(self) -> tuple[np.ndarray, dict[int, tuple[Signature, ...]]]:
        """The prefilter: a table over all 65,536 2-byte values, read
        little-endian, true where a signature begins with the value, and the
        signatures under each such 2-gram."""
        index: dict[int, list[Signature]] = {}
        for sig in self.signatures:
            index.setdefault(int.from_bytes(sig.pattern[:2], "little"), []).append(sig)
        table = np.zeros(1 << 16, dtype=bool)
        table[list(index)] = True
        return table, {gram: tuple(sigs) for gram, sigs in index.items()}


class MatchResult:
    """Scan outcome: ``hits`` holds (signature_id, first_offset) pairs sorted
    by signature id; ``scan_latency_ns`` is the scan's wall time."""

    __slots__ = ("hits", "scan_latency_ns")

    def __init__(self, hits: tuple[tuple[int, int], ...], scan_latency_ns: int) -> None:
        self.hits = hits
        self.scan_latency_ns = scan_latency_ns


def canonical_comparisons(payload: bytes, signatures: SignatureSet) -> int:
    """Byte comparisons of the textbook per-signature double loop.

    That loop tries each window left to right, compares bytes until the
    first mismatch, and stops a signature at its first hit. So a window
    before the hit costs one comparison plus its matched prefix, which is
    nonzero only where the window starts with the pattern's first byte, and
    the hit costs the pattern length.
    """
    count = 0
    for sig in signatures.signatures:
        pattern, m = sig.pattern, len(sig.pattern)
        hit = payload.find(pattern)
        examined = hit if hit >= 0 else max(len(payload) - m + 1, 0)
        count += examined + (m if hit >= 0 else 0)
        first = pattern[0]
        j = payload.find(first, 0, examined)
        while j >= 0:
            k = 1  # no window before the hit matches, so k stops below m
            while payload[j + k] == pattern[k]:
                k += 1
            count += k
            j = payload.find(first, j + 1, examined)
    return count


def scan_naive(payload: bytes, signatures: SignatureSet) -> MatchResult:
    """Scan with the naive per-signature search; empty payloads allowed.

    Every signature's first occurrence comes from ``bytes.find``, run only
    for the signatures whose first two bytes occur in the payload: the
    others cannot occur. The payload's overlapping 2-grams are read as one
    zero-copy view and looked up in the rulebook's 65,536-entry table, and
    each signature under a 2-gram present is searched once. A payload in
    which no position starts a signature's 2-gram, the common benign case,
    costs that lookup alone.
    """
    started = wall_ns()
    n = len(payload)
    hits = []
    if n >= MIN_PATTERN_LENGTH:
        table, index = signatures._two_grams
        grams = np.ndarray((n - 1,), "<u2", payload, 0, (1,))
        candidates = grams[table.take(grams)]
        # np.unique, not a set: a payload made of signature 2-grams would
        # cost one Python int per byte; a payload with no candidate skips it
        if len(candidates):
            for gram in np.unique(candidates).tolist():
                for sig in index[gram]:
                    offset = payload.find(sig.pattern)
                    if offset >= 0:
                        hits.append((sig.sig_id, offset))
    hits.sort()
    return MatchResult(tuple(hits), wall_ns() - started)


class NaiveMatcher:
    """Binds a rulebook to :func:`scan_naive` behind the common scan API."""

    def __init__(self, signatures: SignatureSet) -> None:
        if not len(signatures):
            raise ValueError("inspection requires a non-empty rulebook")
        self.signatures = signatures

    def scan(self, payload: bytes) -> MatchResult:
        return scan_naive(payload, self.signatures)


@dataclass
class _AcNode:
    children: dict[int, "_AcNode"] = field(default_factory=dict)
    fail: "_AcNode | None" = None
    outputs: list[tuple[int, int]] = field(default_factory=list)  # (sig_id, pattern_len)


class AhoCorasickMatcher:
    """Multi-pattern automaton; immutable once built, shareable across scans."""

    def __init__(self, signatures: SignatureSet) -> None:
        if not len(signatures):
            raise ValueError("automaton construction requires a non-empty rulebook")
        self.signatures = signatures
        self._root = _AcNode()
        seen_patterns: dict[bytes, int] = {}
        for sig in signatures.signatures:
            if sig.pattern in seen_patterns:
                logger.warning(
                    "signatures %d and %d share identical pattern bytes; both retained",
                    seen_patterns[sig.pattern], sig.sig_id,
                )
            else:
                seen_patterns[sig.pattern] = sig.sig_id
            node = self._root
            for byte in sig.pattern:
                node = node.children.setdefault(byte, _AcNode())
            node.outputs.append((sig.sig_id, len(sig.pattern)))
        self._link_failures()

    def _link_failures(self) -> None:
        root = self._root
        root.fail = root
        queue: deque[_AcNode] = deque()
        for child in root.children.values():
            child.fail = root
            queue.append(child)
        while queue:
            node = queue.popleft()
            for byte, child in node.children.items():
                fallback = node.fail
                while fallback is not root and byte not in fallback.children:
                    fallback = fallback.fail
                target = fallback.children.get(byte, root)
                child.fail = target if target is not child else root
                # shorter patterns ending here surface via the failure chain
                child.outputs = child.outputs + child.fail.outputs
                queue.append(child)

    def scan(self, payload: bytes) -> MatchResult:
        started = wall_ns()
        root = self._root
        state = root
        first_offset: dict[int, int] = {}
        for i, byte in enumerate(payload):
            while state is not root and byte not in state.children:
                state = state.fail
            state = state.children.get(byte, root)
            if state.outputs:
                for sig_id, length in state.outputs:
                    if sig_id not in first_offset:
                        first_offset[sig_id] = i - length + 1
        hits = tuple(sorted(first_offset.items()))
        return MatchResult(hits, wall_ns() - started)


def load_rulebook(path) -> SignatureSet:
    """Parse the text rulebook format (id,hex,codes,label per line)."""
    signatures: list[Signature] = []
    version = "unversioned"
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# version:"):
                    version = line.split(":", 1)[1].strip()
                continue
            parts = line.split(",", 3)
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected id,hex,codes,label")
            sig_id, hex_pattern, codes, label = (p.strip() for p in parts)
            signatures.append(
                Signature(
                    sig_id=int(sig_id),
                    pattern=bytes.fromhex(hex_pattern),
                    actions=parse_action_codes(codes),
                    label=label,
                )
            )
    return SignatureSet(signatures=tuple(signatures), version=version)


def synthetic_rulebook(count: int = 100, seed: int = 0xC0DE,
                       action_codes: str = "DR") -> SignatureSet:
    """Seeded stand-in rulebook of CVE-labelled random byte patterns.

    Real rulebooks are CVE-derived and unpublished; detection mechanics are
    pattern-agnostic, so random patterns of realistic lengths (8 to 32
    bytes) suffice.
    """
    rng = np.random.default_rng(seed)
    actions = parse_action_codes(action_codes)
    signatures = []
    for i in range(count):
        length = int(rng.integers(8, 32 + 1))
        signatures.append(
            Signature(
                sig_id=i,
                pattern=rng.bytes(length),
                actions=actions,
                label=f"CVE-SYN-{1000 + i}",
            )
        )
    return SignatureSet(signatures=tuple(signatures), version=f"synthetic-{seed}")
