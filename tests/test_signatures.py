import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ricguard import signatures
from ricguard.e2 import MAX_PAYLOAD_BYTES
from ricguard.mitigation import parse_action_codes
from ricguard.signatures import (
    AhoCorasickMatcher,
    NaiveMatcher,
    Signature,
    SignatureSet,
    load_rulebook,
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

    def test_no_candidate_2_gram_skips_the_sort(self, monkeypatch):
        """A payload starting no signature's 2-gram never reaches np.unique;
        one that does still reports every signature's first occurrence."""
        def no_sort(*args, **kwargs):
            raise AssertionError("np.unique called")

        book = synthetic_rulebook(count=1000, seed=3)
        clean = bytes(62)  # no synthetic pattern starts with two zero bytes
        assert not any(s.pattern.startswith(b"\0\0") for s in book.signatures)
        with monkeypatch.context() as patched:
            patched.setattr(signatures.np, "unique", no_sort)
            assert scan_naive(clean, book).hits == ()
        payload = clean + book.signatures[7].pattern + clean + book.signatures[3].pattern
        expected = tuple(sorted((s.sig_id, payload.find(s.pattern)) for s in book.signatures
                                if payload.find(s.pattern) >= 0))
        assert (3, 62 + len(book.signatures[7].pattern) + 62) in expected
        assert scan_naive(payload, book).hits == expected

    def test_payload_equal_to_pattern(self):
        result = scan_naive(b"ABCD", sigset(sig(1, b"ABCD")))
        assert result.hits == ((1, 0),)

    def test_empty_payload(self):
        assert scan_naive(b"", sigset(sig(1, b"ABCD"))).hits == ()

    @pytest.mark.parametrize("size", range(4))
    def test_payload_shorter_than_any_pattern(self, size):
        book = sigset(sig(1, b"ABCD"), sig(2, b"ABCE"))
        assert scan_naive(b"ABCD"[:size], book).hits == ()
        assert signatures.canonical_comparisons(b"ABCD"[:size], book) == 0

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
            book = sigset(*patterns)
            expected = sum(canonical_comparisons(payload, s.pattern) for s in patterns)
            assert signatures.canonical_comparisons(payload, book) == expected
            assert scan_naive(payload, book).hits == brute_force_hits(payload, book)

    @pytest.mark.parametrize("payload, pattern", [
        (b"ABCDxxxx", b"ABCD"),  # hit at offset 0
        (b"xAxxABCD", b"ABCD"),  # hit in the last window
        (b"ABC", b"ABCD"),  # one byte shorter than the pattern
        (b"aaaaaab", b"aaab"),  # self-overlapping prefix
    ])
    def test_comparison_count_edge_cases(self, payload, pattern):
        expected = canonical_comparisons(payload, pattern)
        assert signatures.canonical_comparisons(payload, sigset(sig(1, pattern))) == expected

    def test_later_match_costs_more_comparisons(self):
        pattern = b"NEEDLE42"
        book = sigset(sig(1, pattern))
        early = signatures.canonical_comparisons(b"." * 5 + pattern + b"." * 400, book)
        late = signatures.canonical_comparisons(b"." * 400 + pattern + b"." * 5, book)
        assert late > early

    def test_comparisons_monotone_in_payload_size(self):
        book = synthetic_rulebook(count=30, seed=5)
        rng = np.random.default_rng(6)
        small = signatures.canonical_comparisons(rng.bytes(100), book)
        large = signatures.canonical_comparisons(rng.bytes(1000), book)
        assert large > small


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


# Every 5- and 6-byte string over "ab": 96 signatures under the four 2-grams
# "aa", "ab", "ba" and "bb", so most 2-grams of an "ab" payload pass the
# prefilter and select many signatures.
_AB_PATTERNS = [bytes(word) for m in (5, 6) for word in itertools.product(b"ab", repeat=m)]


@settings(max_examples=200, deadline=None)
@given(
    payload=st.one_of(st.binary(max_size=64),
                      st.lists(st.sampled_from(b"ab\x00"), max_size=64).map(bytes)),
    data=st.data(),
)
def test_shared_prefix_scan_matches_oracles(payload, data):
    """Patterns cut from the payload (a match at its end included), patterns
    sharing its first 2 or 4 bytes, and many "ab" patterns sharing 2-byte
    prefixes: hits are brute force's and the automaton's."""
    cuts = data.draw(st.lists(st.tuples(st.integers(0, 64), st.integers(4, 12)), max_size=5))
    patterns = [payload[at:at + m] for at, m in cuts if at + m <= len(payload)]
    tails = data.draw(st.lists(st.binary(max_size=4), max_size=3))
    patterns += [payload[:4].ljust(4, b"a") + tail for tail in tails]
    patterns += [payload[:2].ljust(2, b"a") + tail.ljust(2, b"b") for tail in tails]
    if len(payload) >= 4:
        patterns.append(payload[-data.draw(st.integers(4, len(payload))):])
    book = sigset(*(sig(i, p) for i, p in enumerate(dict.fromkeys(patterns + _AB_PATTERNS))))

    naive = scan_naive(payload, book)
    expected = brute_force_hits(payload, book)
    assert naive.hits == expected
    assert AhoCorasickMatcher(book).scan(payload).hits == expected
    assert signatures.canonical_comparisons(payload, book) == sum(
        canonical_comparisons(payload, s.pattern) for s in book.signatures)


def test_hostile_megabyte_payload_matches_find():
    """A 1 MiB payload that begins with the first 4 bytes of each of 1000
    signatures, so every signature passes the prefilter, and carries a few
    whole ones later on: hits are those of ``bytes.find`` per signature."""
    book = synthetic_rulebook(1000)
    payload = bytearray(b"".join(s.pattern[:4] for s in book.signatures))
    payload += np.random.default_rng(21).bytes(MAX_PAYLOAD_BYTES - len(payload))
    for sig_id, at in ((7, 10_000), (500, 600_000), (999, MAX_PAYLOAD_BYTES - 40), (7, 900_000)):
        pattern = book.signatures[sig_id].pattern
        payload[at:at + len(pattern)] = pattern
    payload = bytes(payload)
    assert len(payload) == MAX_PAYLOAD_BYTES
    expected = tuple((s.sig_id, payload.find(s.pattern)) for s in book.signatures
                     if s.pattern in payload)
    assert {sig_id for sig_id, _ in expected} >= {7, 500, 999}
    assert scan_naive(payload, book).hits == expected


class TestValidation:
    def test_short_pattern_rejected(self):
        with pytest.raises(ValueError):
            sig(1, b"abc")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            sigset(sig(1, b"AAAA"), sig(1, b"BBBB"))


class TestRulebookFile:
    def test_round_trip(self, tmp_path):
        """A rulebook written in the file format, one ``id,hex,codes,label``
        line per rule under a version comment, loads as the same rulebook."""
        book = synthetic_rulebook(count=10, seed=4, action_codes="DBR")
        path = tmp_path / "rules.txt"
        path.write_text(f"# version: {book.version}\n" + "".join(
            f"{s.sig_id},{s.pattern.hex()},DBR,{s.label}\n" for s in book.signatures))
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
