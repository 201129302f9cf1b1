"""Known-attack pattern rulebook and multi-pattern payload scanning.

Patterns are opaque byte strings matched against raw payloads ahead of any
decoding. Two interchangeable matchers are provided:

* :func:`scan_naive` — the reference matcher: per signature, the classic
  left-to-right window search stopping at the first occurrence. Its hit set
  and its byte-comparison count are exactly those of the canonical per-byte
  double loop; the implementation only accelerates the common
  first-byte-mismatch case with a position index so that large payloads
  stay inside the latency budget.
* :class:`AhoCorasickMatcher` — goto/failure-link automaton built once per
  rulebook version, scanning all patterns in a single pass.

Both report each matched signature once, at its smallest occurrence offset,
with hits sorted by signature id.

Rulebook file format: one rule per line, ``id,hex(pattern),action_codes,label``;
``#`` begins a comment, blank lines are ignored. Action codes as in the
mitigation module (D drop, B block node, R report).
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .mitigation import MitigationAction, format_action_codes, parse_action_codes
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

    def by_id(self, sig_id: int) -> Signature:
        for s in self.signatures:
            if s.sig_id == sig_id:
                return s
        raise KeyError(sig_id)


@dataclass(frozen=True)
class MatchResult:
    """Scan outcome: first-occurrence hits plus measured scan cost.

    ``hits`` holds (signature_id, first_offset) pairs sorted by signature
    id. ``comparisons`` counts byte comparisons for the naive matcher and
    state transitions for the automaton; the harness charges its
    deterministic cost model from it.
    """

    hits: tuple[tuple[int, int], ...]
    scan_latency_ns: int
    comparisons: int = 0

    @property
    def matched(self) -> bool:
        return bool(self.hits)


def _first_byte_positions(payload: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Stable-sorted payload positions grouped by byte value.

    Returns (order, boundaries): positions with byte value b are
    order[boundaries[b]:boundaries[b+1]], ascending.
    """
    arr = np.frombuffer(payload, dtype=np.uint8)
    order = np.argsort(arr, kind="stable")
    boundaries = np.searchsorted(arr[order], np.arange(257), side="left")
    return order, boundaries


def _naive_single(payload: bytes, pattern: bytes,
                  candidates: Sequence[int]) -> tuple[int | None, int]:
    """First occurrence + exact comparison count of the canonical search.

    ``candidates`` are the window positions whose first byte matches the
    pattern, ascending. Every other window costs exactly one comparison;
    candidate windows cost the matched prefix length plus the mismatching
    comparison (or the full pattern length on a hit, which ends the search).
    """
    n, m = len(payload), len(pattern)
    windows = n - m + 1
    if windows <= 0:
        return None, 0
    comparisons = 0
    next_window = 0
    for j in candidates:
        comparisons += j - next_window  # first-byte mismatches in between
        k = 1
        while k < m and payload[j + k] == pattern[k]:
            k += 1
        if k == m:
            comparisons += m
            return j, comparisons
        comparisons += k + 1
        next_window = j + 1
    comparisons += windows - next_window
    return None, comparisons


def scan_naive(payload: bytes, signatures: SignatureSet) -> MatchResult:
    """Scan with the naive per-signature search; empty payloads allowed."""
    started = wall_ns()
    order, boundaries = (None, None)
    if payload:
        order, boundaries = _first_byte_positions(payload)

    hits: list[tuple[int, int]] = []
    comparisons = 0
    n = len(payload)
    for sig in signatures.signatures:
        m = len(sig.pattern)
        windows = n - m + 1
        if windows <= 0:
            continue
        first = sig.pattern[0]
        lo, hi = boundaries[first], boundaries[first + 1]
        positions = order[lo:hi]
        # only positions that start a full window qualify as candidates
        cut = int(np.searchsorted(positions, windows, side="left"))
        offset, cmp = _naive_single(payload, sig.pattern, positions[:cut].tolist())
        comparisons += cmp
        if offset is not None:
            hits.append((sig.sig_id, offset))

    hits.sort()
    return MatchResult(hits=tuple(hits), scan_latency_ns=wall_ns() - started,
                       comparisons=comparisons)


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
        steps = 0
        first_offset: dict[int, int] = {}
        for i, byte in enumerate(payload):
            while state is not root and byte not in state.children:
                state = state.fail
                steps += 1
            state = state.children.get(byte, root)
            steps += 1
            if state.outputs:
                for sig_id, length in state.outputs:
                    if sig_id not in first_offset:
                        first_offset[sig_id] = i - length + 1
        hits = tuple(sorted(first_offset.items()))
        return MatchResult(hits=hits, scan_latency_ns=wall_ns() - started, comparisons=steps)


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


def save_rulebook(signatures: SignatureSet, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"# version: {signatures.version}\n")
        for sig in signatures.signatures:
            if "," in sig.label or "\n" in sig.label:
                raise ValueError(f"signature {sig.sig_id}: label may not contain commas")
            fh.write(
                f"{sig.sig_id},{sig.pattern.hex()},{format_action_codes(sig.actions)},{sig.label}\n"
            )


def synthetic_rulebook(
    count: int = 100,
    seed: int = 0xC0DE,
    min_length: int = 8,
    max_length: int = 32,
    action_codes: str = "DR",
) -> SignatureSet:
    """Seeded stand-in rulebook of CVE-labelled random byte patterns.

    Real rulebooks are CVE-derived and unpublished; detection mechanics are
    pattern-agnostic, so random patterns of realistic lengths suffice.
    """
    rng = np.random.default_rng(seed)
    actions = parse_action_codes(action_codes)
    signatures = []
    for i in range(count):
        length = int(rng.integers(min_length, max_length + 1))
        signatures.append(
            Signature(
                sig_id=i,
                pattern=rng.bytes(length),
                actions=actions,
                label=f"CVE-SYN-{1000 + i}",
            )
        )
    return SignatureSet(signatures=tuple(signatures), version=f"synthetic-{seed}")
