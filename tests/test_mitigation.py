import math

import pytest
from hypothesis import example, given, settings, strategies as st

from ricguard.detector import AnomalyVerdict, classify_magnitude
from ricguard.mitigation import (
    FALLBACK_SIGNATURE_ACTIONS,
    Blocklist,
    DetectionEvent,
    IncidentLog,
    Magnitude,
    MitigationAction,
    MitigationPolicy,
    MitigationState,
    XappTier,
    apply_actions,
    apply_kpm_actions,
    format_action_codes,
    load_policy,
    parse_action_codes,
    resolve_attestation_event,
    resolve_inspector_event,
    resolve_kpm_event,
)
from ricguard.signatures import MatchResult

D = MitigationAction.DROP_MESSAGE
X = MitigationAction.DROP_DATA
B = MitigationAction.BLOCK_NODE
R = MitigationAction.REPORT
V = MitigationAction.REVOKE_PRIVILEGES
K = MitigationAction.BLOCK_XAPP


class TestActionCodes:
    def test_parse_compact_and_separated(self):
        assert parse_action_codes("XBR") == frozenset({X, B, R})
        assert parse_action_codes("x, b, r") == frozenset({X, B, R})

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            parse_action_codes("Q")

    def test_format_canonical_order(self):
        assert format_action_codes({R, K, D, V, B, X}) == "DXBRVK"

    def test_round_trip(self):
        # formatting canonicalises to D,X,B,R,V,K order
        for codes in ("D", "XR", "XBR", "RVK", "DXBRVK"):
            assert format_action_codes(parse_action_codes(codes)) == codes
        assert format_action_codes(parse_action_codes("KVR")) == "RVK"


def match(*sig_ids):
    return MatchResult(hits=tuple((s, 0) for s in sig_ids), scan_latency_ns=0)


class TestInspectorResolution:
    def policy(self):
        policy = MitigationPolicy.default()
        policy.signature_actions = {
            1: frozenset({D}),
            2: frozenset({B, R}),
            3: frozenset({D, R}),
        }
        return policy

    def test_singleton(self):
        assert resolve_inspector_event(match(1), self.policy()) == {D}

    def test_union_rule(self):
        assert resolve_inspector_event(match(1, 2), self.policy()) == {D, B, R}

    def test_duplicate_action_appears_once(self):
        actions = resolve_inspector_event(match(1, 3), self.policy())
        assert actions == {D, R}

    def test_unmapped_signature_falls_back(self, caplog):
        actions = resolve_inspector_event(match(99), self.policy())
        assert actions == FALLBACK_SIGNATURE_ACTIONS

    def test_empty_hits_rejected(self):
        with pytest.raises(ValueError):
            resolve_inspector_event(match(), self.policy())

    @given(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=3, unique=True))
    def test_union_is_order_independent(self, ids):
        policy = self.policy()
        forward = resolve_inspector_event(match(*ids), policy)
        backward = resolve_inspector_event(match(*reversed(ids)), policy)
        folded = frozenset().union(*(policy.signature_actions[i] for i in ids))
        assert forward == backward == folded


class _Verdict:
    def __init__(self, magnitude):
        self.is_anomalous = True
        self.magnitude = magnitude


class TestKpmResolution:
    def test_default_bands(self):
        policy = MitigationPolicy.default()
        assert resolve_kpm_event(_Verdict(Magnitude.SMALL), 1, policy) == {X}
        assert resolve_kpm_event(_Verdict(Magnitude.MODERATE), 1, policy) == {X, R}
        assert resolve_kpm_event(_Verdict(Magnitude.SIGNIFICANT), 1, policy) == {X, B, R}

    def test_default_bands_monotone(self):
        policy = MitigationPolicy.default()
        small = policy.magnitude_actions[Magnitude.SMALL]
        moderate = policy.magnitude_actions[Magnitude.MODERATE]
        significant = policy.magnitude_actions[Magnitude.SIGNIFICANT]
        assert small <= moderate <= significant

    def test_non_anomalous_rejected(self):
        verdict = _Verdict(None)
        verdict.is_anomalous = False
        with pytest.raises(ValueError):
            resolve_kpm_event(verdict, 1, MitigationPolicy.default())

    def test_detector_verdicts(self):
        # a NaN score fails closed: it resolves as a significant deviation
        policy = MitigationPolicy.default()
        nan = AnomalyVerdict(ue_id=1, score=math.nan, threshold=1.0)
        assert resolve_kpm_event(nan, 1, policy) == {X, B, R}
        benign = AnomalyVerdict(ue_id=1, score=1.0, threshold=1.0)
        with pytest.raises(ValueError):
            resolve_kpm_event(benign, 1, policy)


class TestAttestationResolution:
    def test_tier_defaults(self):
        policy = MitigationPolicy.default()
        assert resolve_attestation_event("a", XappTier.HIGH_IMPACT, policy) == {K, V, R}
        assert resolve_attestation_event("a", XappTier.STANDARD, policy) == {V, R}
        assert resolve_attestation_event("a", XappTier.READ_ONLY, policy) == {R}

    def test_report_always_present(self):
        policy = MitigationPolicy.default()
        policy.xapp_tier_actions[XappTier.READ_ONLY] = frozenset()
        for tier in XappTier:
            assert R in resolve_attestation_event("a", tier, policy)

    def test_unknown_tier_reports_only(self):
        assert resolve_attestation_event("a", "bogus", MitigationPolicy.default()) == {R}


def event(detector="kpm", ts=1000, **kwargs):
    return DetectionEvent(detector=detector, evidence="magnitude:small",
                          timestamp_ms=ts, **kwargs)


class TestApply:
    def test_report_appends_exactly_one(self):
        state = MitigationState()
        apply_actions(state, event(ue_id=4), frozenset({X, R}))
        assert len(state.log) == 1

    def test_each_call_applies_its_actions(self):
        state = MitigationState()
        ev = event(node_id=3)
        assert apply_actions(state, ev, frozenset({B, R})) is None
        apply_actions(state, ev, frozenset({B, R}))
        assert [r.event_id for r in state.log.reports] == [0, 1]
        assert state.blocklist.blocked_nodes == {3}

    def test_distinct_events_both_logged(self):
        state = MitigationState()
        apply_actions(state, event(ts=1000, ue_id=1), frozenset({R}))
        apply_actions(state, event(ts=2000, ue_id=1), frozenset({R}))
        assert len(state.log) == 2
        assert [r.event_id for r in state.log.reports] == [0, 1]

    def test_state_holds_only_the_blocklist_and_log(self):
        state = MitigationState()
        for tick in range(20):
            apply_actions(state, event(ts=1000 * tick, ue_id=1, node_id=2),
                          frozenset({X, B, R}))
        assert set(vars(state)) == {"blocklist", "log"}
        assert len(state.log) == 20

    def test_event_older_than_the_newest_is_still_applied(self):
        state = MitigationState()
        apply_actions(state, event(ts=2000, ue_id=1), frozenset({R}))
        apply_actions(state, event(ts=1000, node_id=7), frozenset({B, R}))
        apply_actions(state, event(ts=2000, ue_id=1), frozenset({R}))
        assert state.blocklist.blocked_nodes == {7}
        assert [r.timestamp_ms for r in state.log.reports] == [2000, 1000, 2000]

    def test_block_requires_subject(self):
        state = MitigationState()
        for actions in ({B, R}, {K, R}, {V, R}):
            with pytest.raises(ValueError):
                apply_actions(state, event(ue_id=1), frozenset(actions))
        assert len(state.log) == 0  # checked before anything is applied

    def test_report_precedes_block_effects(self):
        state = MitigationState()
        apply_actions(state, event(node_id=5), frozenset({B, R}))
        [row] = state.log.reports
        assert (row.subject, row.actions) == ("node:5", frozenset({B, R}))
        assert state.blocklist.blocked_nodes == {5}

    def test_xapp_actions(self):
        state = MitigationState()
        apply_actions(state, event(detector="attestation", xapp_id="x1"),
                      frozenset({K, V, R}))
        assert state.blocklist.blocked_xapps == {"x1"}
        assert state.blocklist.revoked_xapps == {"x1"}

    def test_empty_action_set_rejected(self):
        with pytest.raises(ValueError):
            apply_actions(MitigationState(), event(ue_id=1), frozenset())


KPM_ACTION_SETS = st.sets(st.sampled_from([X, B, R]), min_size=1).map(frozenset)


@st.composite
def flagged_ticks(draw):
    """A threshold, a policy, and a tick's flagged records from several
    nodes: scores above the threshold, exactly 2x and 4x it, and NaN."""
    threshold = draw(st.sampled_from([0.10580365349605672, 1e-3, 1.0, 7.25]))
    policy = MitigationPolicy(magnitude_actions={
        magnitude: draw(KPM_ACTION_SETS) for magnitude in Magnitude})
    score = st.one_of(st.sampled_from([2.0 * threshold, 4.0 * threshold, math.nan]),
                      st.floats(min_value=threshold, exclude_min=True, allow_infinity=False))
    records = draw(st.lists(st.tuples(score, st.integers(0, 40), st.integers(0, 4)),
                            max_size=30))
    return threshold, policy, records


class TestKpmOnePass:
    @given(flagged_ticks())
    @example((1.0, MitigationPolicy.default(),
              [(2.0, 1, 0), (4.0, 2, 1), (math.nan, 3, 0), (1.5, 4, 2), (4.5, 5, 1)]))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_record_apply_actions(self, tick):
        threshold, policy, records = tick
        one_pass, per_record = MitigationState(), MitigationState()
        for state in (one_pass, per_record):
            # an earlier row, so the tick's event ids continue from it
            apply_actions(state, event(detector="inspector", node_id=9), frozenset({D, R}))
        apply_kpm_actions(one_pass, policy,
                          [classify_magnitude(score, threshold) for score, _, _ in records],
                          [ue_id for _, ue_id, _ in records],
                          [node_id for _, _, node_id in records], 5000)
        for score, ue_id, node_id in records:
            verdict = AnomalyVerdict(ue_id, score, threshold)
            apply_actions(per_record, DetectionEvent(
                detector="kpm", evidence=f"magnitude:{verdict.magnitude.value}",
                timestamp_ms=5000, node_id=node_id, ue_id=ue_id),
                resolve_kpm_event(verdict, node_id, policy))
        assert one_pass.log.reports == per_record.log.reports
        assert one_pass.blocklist == per_record.blocklist

    @pytest.mark.parametrize("codes", ["", "XK", "VR"])
    def test_unusable_action_set_rejected_before_anything_changes(self, codes):
        policy = MitigationPolicy.default()
        policy.magnitude_actions[Magnitude.SIGNIFICANT] = parse_action_codes(codes)
        state = MitigationState()
        with pytest.raises(ValueError):
            apply_kpm_actions(state, policy, [Magnitude.MODERATE, Magnitude.SIGNIFICANT],
                              [1, 2], [1, 2], 0)
        assert len(state.log) == 0 and not state.blocklist.blocked_nodes


class TestBlocklist:
    def test_idempotent_insertion(self):
        blocklist = Blocklist()
        blocklist.blocked_nodes.add(4)
        blocklist.blocked_nodes.add(4)
        assert blocklist.blocked_nodes == {4}
        assert not blocklist.blocked_xapps and not blocklist.revoked_xapps
        # three public sets and no methods of its own
        assert not [name for name, value in vars(Blocklist).items()
                    if callable(value) and not name.startswith("__")]


class TestIncidentLog:
    def test_monotonic_ids_and_csv(self, tmp_path):
        log = IncidentLog()
        log.append("inspector", "node:1", "sig:3;7", frozenset({D, R}), 1500)
        log.append("kpm", "ue:9", "magnitude:significant", frozenset({X, B, R}), 2500)
        path = tmp_path / "incidents.csv"
        log.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "event_id,detector,subject,magnitude_or_sigids,actions,timestamp_ms"
        assert lines[1] == "0,inspector,node:1,sig:3;7,DR,1500"
        assert lines[2] == "1,kpm,ue:9,magnitude:significant,XBR,2500"


class TestPolicyFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "policy.ini"
        path.write_text(
            "[inspector]\n7 = DBR\n8 = D\n"
            "[kpm]\nsmall = XR\nmoderate = XBR\nsignificant = X,B,R\n"
            "[attestation]\nhigh_impact = K\nstandard = VR\nread_only = \n"
        )
        loaded = load_policy(path)
        assert loaded.signature_actions == {7: {D, B, R}, 8: {D}}
        assert loaded.magnitude_actions == {
            Magnitude.SMALL: {X, R},
            Magnitude.MODERATE: {X, B, R},
            Magnitude.SIGNIFICANT: {X, B, R},
        }
        assert loaded.xapp_tier_actions == {
            XappTier.HIGH_IMPACT: {K},
            XappTier.STANDARD: {V, R},
            XappTier.READ_ONLY: frozenset(),
        }

    def test_partial_file_keeps_defaults(self, tmp_path):
        path = tmp_path / "policy.ini"
        path.write_text("[kpm]\nsmall = XR\n")
        loaded = load_policy(path)
        assert loaded.magnitude_actions[Magnitude.SMALL] == {X, R}
        assert loaded.magnitude_actions[Magnitude.SIGNIFICANT] == {X, B, R}

    def test_bad_inspector_key_rejected(self, tmp_path):
        path = tmp_path / "policy.ini"
        path.write_text("[inspector]\nnotanid = D\n")
        with pytest.raises(ValueError):
            load_policy(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_policy(tmp_path / "absent.ini")
