import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ricguard.mitigation import parse_action_codes
from ricguard.signatures import (
    AhoCorasickMatcher,
    NaiveMatcher,
    Signature,
    SignatureSet,
    load_rulebook,
    save_rulebook,
    scan_naive,
    synthetic_rulebook,
)


def sig(sig_id, pattern, codes="D", label=None):
    return Signature(sig_id, pattern, parse_action_codes(codes),
                     label or f"sig-{sig_id}")


def sigset(*signatures):
    return SignatureSet(signatures=tuple(signatures), version="test")


def brute_force_hits(payload, signatures):
    """Independent oracle: first occurrence via exhaustive offset check."""
    hits = []
    for s in signatures.signatures:
        for j in range(len(payload) - len(s.pattern) + 1):
            if payload[j : j + len(s.pattern)] == s.pattern:
                hits.append((s.sig_id, j))
                break
    return tuple(sorted(hits))


def canonical_comparisons(payload, pattern):
    """Byte comparisons performed by the textbook naive first-match search."""
    n, m = len(payload), len(pattern)
    count = 0
    for j in range(n - m + 1):
        k = 0
        while k < m:
            count += 1
            if payload[j + k] != pattern[k]:
                break
            k += 1
        if k == m:
            break
    return count


class TestNaiveScan:
    def test_pattern_at_known_offset(self):
        pattern = b"EXPLOIT-CVE-0042"
        payload = b"A" * 17 + pattern + b"B" * 30
        result = scan_naive(payload, sigset(sig(9, pattern)))
        assert result.hits == ((9, 17),)

    def test_no_match_on_clean_payload(self):
        result = scan_naive(b"Z" * 100, sigset(sig(1, b"ABCD"), sig(2, b"WXYZQ")))
        assert result.hits == ()

    def test_payload_equal_to_pattern(self):
        result = scan_naive(b"ABCD", sigset(sig(1, b"ABCD")))
        assert result.hits == ((1, 0),)

    def test_empty_payload(self):
        assert scan_naive(b"", sigset(sig(1, b"ABCD"))).hits == ()

    def test_first_occurrence_only(self):
        payload = b"..ABCD..ABCD.."
        result = scan_naive(payload, sigset(sig(1, b"ABCD")))
        assert result.hits == ((1, 2),)

    def test_offsets_inside_payload(self):
        rng = np.random.default_rng(0)
        book = synthetic_rulebook(count=20, seed=3)
        payload = rng.bytes(64) + book.signatures[5].pattern
        result = scan_naive(payload, book)
        assert all(offset < len(payload) for _, offset in result.hits)

    def test_comparison_count_matches_canonical_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            patterns = [
                sig(i, bytes(rng.integers(0, 4, size=int(rng.integers(4, 9))).tolist()))
                for i in range(4)
            ]
            payload = bytes(rng.integers(0, 4, size=120).tolist())
            result = scan_naive(payload, sigset(*patterns))
            expected = sum(canonical_comparisons(payload, s.pattern) for s in patterns)
            assert result.comparisons == expected
            assert result.hits == brute_force_hits(payload, sigset(*patterns))

    def test_later_match_costs_more_comparisons(self):
        pattern = b"NEEDLE42"
        early = scan_naive(b"." * 5 + pattern + b"." * 400, sigset(sig(1, pattern)))
        late = scan_naive(b"." * 400 + pattern + b"." * 5, sigset(sig(1, pattern)))
        assert late.comparisons > early.comparisons

    def test_comparisons_monotone_in_payload_size(self):
        book = synthetic_rulebook(count=30, seed=5)
        rng = np.random.default_rng(6)
        small = scan_naive(rng.bytes(100), book)
        large = scan_naive(rng.bytes(1000), book)
        assert large.comparisons > small.comparisons


class TestAutomaton:
    def test_equivalent_to_naive_on_random_cases(self):
        rng = np.random.default_rng(2)
        book = synthetic_rulebook(count=100, seed=9)
        matcher = AhoCorasickMatcher(book)
        for _ in range(200):
            payload = bytearray(rng.bytes(int(rng.integers(0, 300))))
            if rng.random() < 0.6 and payload:
                chosen = book.signatures[int(rng.integers(len(book)))]
                at = int(rng.integers(0, len(payload) + 1))
                payload[at:at] = chosen.pattern
            naive = scan_naive(bytes(payload), book)
            auto = matcher.scan(bytes(payload))
            assert naive.hits == auto.hits

    def test_single_pattern_set(self):
        matcher = AhoCorasickMatcher(sigset(sig(4, b"HELLO")))
        assert matcher.scan(b"..HELLO..").hits == ((4, 2),)

    def test_nested_suffix_pattern_reported_with_container(self):
        # BCDE is a suffix of ABCDE; both must surface on "ABCDE"
        book = sigset(sig(1, b"ABCDE"), sig(2, b"BCDE"))
        payload = b"xxABCDExx"
        expected = brute_force_hits(payload, book)
        assert AhoCorasickMatcher(book).scan(payload).hits == expected
        assert scan_naive(payload, book).hits == expected
        assert expected == ((1, 2), (2, 3))

    def test_overlapping_occurrences(self):
        book = sigset(sig(1, b"AAAA"))
        assert AhoCorasickMatcher(book).scan(b"AAAAAA").hits == ((1, 0),)

    def test_duplicate_patterns_warn_and_both_report(self, caplog):
        with caplog.at_level(logging.WARNING):
            matcher = AhoCorasickMatcher(sigset(sig(1, b"SAME"), sig(2, b"SAME")))
        assert any("identical pattern" in r.message for r in caplog.records)
        assert matcher.scan(b"..SAME..").hits == ((1, 2), (2, 2))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            AhoCorasickMatcher(SignatureSet(signatures=(), version="empty"))


@settings(max_examples=300, deadline=None)
@given(
    prefix=st.binary(max_size=40),
    suffix=st.binary(max_size=40),
    pattern=st.binary(min_size=4, max_size=12),
)
def test_completeness_prefix_pattern_suffix(prefix, suffix, pattern):
    book = sigset(sig(7, pattern))
    payload = prefix + pattern + suffix
    naive = scan_naive(payload, book)
    auto = AhoCorasickMatcher(book).scan(payload)
    assert naive.hits, "constructed occurrence must always be found"
    assert naive.hits[0][0] == 7
    assert naive.hits == auto.hits
    # reported offset is the smallest occurrence
    assert payload[naive.hits[0][1] : naive.hits[0][1] + len(pattern)] == pattern
    assert payload.find(pattern) == naive.hits[0][1]


@settings(max_examples=200, deadline=None)
@given(payload=st.binary(max_size=200), data=st.data())
def test_soundness_and_equivalence_property(payload, data):
    patterns = data.draw(
        st.lists(st.binary(min_size=4, max_size=10), min_size=1, max_size=6)
    )
    book = sigset(*(sig(i, p) for i, p in enumerate(dict.fromkeys(patterns))))
    naive = scan_naive(payload, book)
    auto = AhoCorasickMatcher(book).scan(payload)
    expected = brute_force_hits(payload, book)
    assert naive.hits == expected
    assert auto.hits == expected


class TestValidation:
    def test_short_pattern_rejected(self):
        with pytest.raises(ValueError):
            sig(1, b"abc")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            sigset(sig(1, b"AAAA"), sig(1, b"BBBB"))


class TestRulebookFile:
    def test_round_trip(self, tmp_path):
        book = synthetic_rulebook(count=10, seed=4, action_codes="DBR")
        path = tmp_path / "rules.txt"
        save_rulebook(book, path)
        loaded = load_rulebook(path)
        assert loaded.version == book.version
        assert loaded.signatures == book.signatures

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text(
            "# a comment\n"
            "\n"
            "5,41424344,DR,demo-rule\n"
            "   \n"
            "# another\n"
        )
        book = load_rulebook(path)
        assert len(book) == 1
        assert book.signatures[0].pattern == b"ABCD"
        assert book.signatures[0].actions == parse_action_codes("DR")

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("5,41424344\n")
        with pytest.raises(ValueError):
            load_rulebook(path)

    def test_synthetic_rulebook_shape(self):
        book = synthetic_rulebook(count=100, seed=1)
        assert len(book) == 100
        assert all(8 <= len(s.pattern) <= 32 for s in book.signatures)
        assert len({s.sig_id for s in book.signatures}) == 100


class TestMatcherWrappers:
    def test_naive_matcher_binds_rulebook(self):
        book = sigset(sig(1, b"ABCD"))
        assert NaiveMatcher(book).scan(b"..ABCD").hits == ((1, 2),)

    def test_naive_matcher_rejects_empty_rulebook(self):
        with pytest.raises(ValueError):
            NaiveMatcher(SignatureSet(signatures=(), version="empty"))

    def test_automaton_reusable_across_scans(self):
        book = sigset(sig(1, b"ABCD"), sig(2, b"CDEF"))
        matcher = AhoCorasickMatcher(book)
        assert matcher.scan(b"ABCDEF").hits == ((1, 0), (2, 2))
        assert matcher.scan(b"no match here").hits == ()
        assert matcher.scan(b"ABCDEF").hits == ((1, 0), (2, 2))
