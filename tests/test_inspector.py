import pytest

from ricguard.e2 import E2Message, E2MessageKind, decode_frame
from ricguard.emulator import RanEmulator
from ricguard.harness import inspector_preset, run_inspector_experiment
from ricguard.inspector import IngressInspector, InspectionOutcome, Verdict, latency_summary
from ricguard.mitigation import Blocklist, parse_action_codes
from ricguard.signatures import (
    AhoCorasickMatcher,
    MatchResult,
    NaiveMatcher,
    Signature,
    SignatureSet,
)
from ricguard.timing import DEFAULT_COST_MODEL


def make_matcher(*patterns):
    sigs = tuple(
        Signature(i, p, parse_action_codes("DR"), f"sig-{i}")
        for i, p in enumerate(patterns)
    )
    return NaiveMatcher(SignatureSet(signatures=sigs, version="t"))


def msg(payload=b"clean payload bytes", node=1, kind=E2MessageKind.INDICATION):
    return E2Message(kind, node, payload, ingress_timestamp=1)


class TestInspect:
    def test_benign_message_forwarded_with_latency(self):
        inspector = IngressInspector(make_matcher(b"EVIL44"), Blocklist())
        outcome = inspector.inspect(msg())
        assert outcome.verdict is Verdict.BENIGN
        assert outcome.match is not None and not outcome.match.matched
        assert outcome.inspect_latency_ns >= 0

    def test_injected_signature_diverted_with_one_hit(self):
        inspector = IngressInspector(make_matcher(b"EVIL44"), Blocklist())
        outcome = inspector.inspect(msg(b"head EVIL44 tail"))
        assert outcome.verdict is Verdict.MALICIOUS
        assert len(outcome.match.hits) == 1
        assert outcome.match.hits[0] == (0, 5)

    def test_blocklisted_node_short_circuited_without_scan(self):
        blocklist = Blocklist()
        blocklist.block_node(9)
        inspector = IngressInspector(make_matcher(b"EVIL44"), blocklist)
        outcome = inspector.inspect(msg(b"EVIL44", node=9))
        assert outcome.verdict is Verdict.BLOCKED
        assert outcome.blocked_at_ingress
        assert outcome.match is None
        assert outcome.inspect_latency_ns == 0

    def test_sink_rows_emitted(self):
        # the per-message row fields come from the kept outcome
        inspector = IngressInspector(make_matcher(b"EVIL44"), Blocklist())
        benign = inspector.inspect(msg(), loop=3)
        malicious = inspector.inspect(msg(b"xx EVIL44", node=2), loop=4)
        assert (benign.loop, benign.message.kind.name, benign.message.source_node_id,
                benign.verdict.value, benign.match.hits) == (3, "INDICATION", 1, "benign", ())
        assert (malicious.loop, malicious.message.source_node_id,
                malicious.verdict.value) == (4, 2, "malicious")
        assert [sig_id for sig_id, _ in malicious.match.hits] == [0]

    def test_outcome_tagged_with_loop(self):
        inspector = IngressInspector(make_matcher(b"EVIL44"), Blocklist())
        assert inspector.inspect(msg(), loop=3).loop == 3
        assert inspector.inspect(msg()).loop == 0

    def test_deterministic_latency_from_cost_model(self, rulebook, tmp_path):
        # the inspector times scans by wall clock; a deterministic run charges
        # the cost model for the comparisons each scan reports
        config = inspector_preset(seed=3, loops=3)
        for kind, matcher in (("naive", NaiveMatcher(rulebook)),
                              ("automaton", AhoCorasickMatcher(rulebook))):
            run_inspector_experiment(config, rulebook, runs=1, matcher_kind=kind,
                                     cost_model=DEFAULT_COST_MODEL, out_dir=tmp_path)
            rows = (tmp_path / "inspector.csv").read_text().splitlines()[1:]
            emulator = RanEmulator(config, rulebook, run_seed=config.rng_seed + 1)
            payloads = [decode_frame(em.frame).payload
                        for t in range(config.loops) for em in emulator.step(t)]
            assert len(rows) == len(payloads)
            for row, payload in zip(rows, payloads):
                comparisons = matcher.scan(payload).comparisons
                expected = DEFAULT_COST_MODEL.scan_ns(comparisons, automaton=kind == "automaton")
                assert int(row.split(",")[5]) == expected

    def test_outcome_invariants_enforced(self):
        clean = MatchResult(hits=(), scan_latency_ns=5)
        with pytest.raises(ValueError):
            InspectionOutcome(message=msg(), verdict=Verdict.MALICIOUS,
                              inspect_latency_ns=5, match=clean)
        with pytest.raises(ValueError):
            InspectionOutcome(message=msg(), verdict=Verdict.BLOCKED,
                              inspect_latency_ns=0, match=clean)


class TestLatencySummary:
    def outcomes(self, *latencies_ns, kind=E2MessageKind.INDICATION):
        clean = MatchResult(hits=(), scan_latency_ns=0)
        return [
            InspectionOutcome(message=msg(kind=kind), verdict=Verdict.BENIGN,
                              inspect_latency_ns=ns, match=clean)
            for ns in latencies_ns
        ]

    def test_mean_and_max(self):
        summary = latency_summary(
            self.outcomes(100_000, 300_000), E2MessageKind.INDICATION
        )
        assert summary.average_ms == pytest.approx(0.2)
        assert summary.maximum_ms == pytest.approx(0.3)
        assert summary.count == 2

    def test_absent_for_missing_kind(self):
        assert latency_summary(self.outcomes(100), E2MessageKind.SETUP_REQUEST) is None

    def test_blocked_outcomes_excluded(self):
        blocked = InspectionOutcome(message=msg(node=5), verdict=Verdict.BLOCKED,
                                    inspect_latency_ns=0)
        summary = latency_summary(
            self.outcomes(200_000) + [blocked], E2MessageKind.INDICATION
        )
        assert summary.count == 1
