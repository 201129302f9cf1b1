from dataclasses import replace

import numpy as np
import pytest

from ricguard.e2 import (
    MAX_KPM_RECORDS,
    MAX_PAYLOAD_BYTES,
    E2MessageKind,
    decode_frame,
    decode_kpm_payload,
)
from ricguard.emulator import (
    AR_COEFFICIENT,
    EMBB_BASELINE,
    MIN_POISON_START,
    ConfigError,
    GroundTruthLabel,
    RanEmulator,
    ScenarioConfig,
    SliceKind,
    URLLC_BASELINE,
    UeProfile,
    default_covariance,
    inject_signature,
    poison_records,
    psd_factor,
)
from ricguard.harness import use_case_preset
from ricguard.kpm import KpmRecord
from ricguard.mitigation import parse_action_codes
from ricguard.signatures import Signature, SignatureSet, synthetic_rulebook


def single_ue_config(loops=100, seed=5, **kwargs):
    return ScenarioConfig(node_count=1, cells_per_node=1, ues_per_cell=1,
                          loops=loops, rng_seed=seed, **kwargs)


class TestConfigValidation:
    def test_full_injection_with_malicious_nodes_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(malicious_node_fraction=0.5, malicious_message_fraction=1.0)

    def test_fraction_ranges(self):
        with pytest.raises(ValueError):
            ScenarioConfig(poison_target_fraction=1.5)

    def test_af_below_one_rejected(self):
        for af in (0.9, float("nan"), float("inf")):  # NaN compares false both ways
            with pytest.raises(ValueError):
                ScenarioConfig(amplification_factor=af)

    def test_negative_seed_rejected(self):
        ScenarioConfig(rng_seed=0)
        with pytest.raises(ValueError, match="rng_seed"):
            ScenarioConfig(rng_seed=-1)

    @pytest.mark.parametrize("size_calibrated,capacity", [
        (False, MAX_KPM_RECORDS),
        (True, 197_826),  # round(100 + 5.3 * 197_825) = 1,048,572 bytes
    ], ids=["kpm", "size-calibrated"])
    def test_cell_indication_must_fit_one_frame(self, size_calibrated, capacity):
        ScenarioConfig(ues_per_cell=capacity, size_calibrated=size_calibrated)
        with pytest.raises(ValueError, match=f"ues_per_cell {capacity + 1} overflows"):
            ScenarioConfig(ues_per_cell=capacity + 1, size_calibrated=size_calibrated)


class TestBenignDynamics:
    def test_determinism_same_seed_same_tick(self):
        config = single_ue_config()
        a, _ = RanEmulator(config).generate_tick(0)
        b, _ = RanEmulator(config).generate_tick(0)
        assert a == b

    def test_zero_covariance_pins_records_to_mu(self):
        config = single_ue_config(loops=10)
        emulator = RanEmulator(config)
        profile = emulator.profiles[0]
        emulator._factor[0] = psd_factor(np.zeros((6, 6)))
        emulator._dev[0] = 0.0
        for t in range(10):
            records, _ = emulator.generate_tick(t)
            assert np.allclose(records[0].features(), profile.mu)

    def test_sample_mean_tracks_mu(self):
        # AR(1)-adjusted standard error: sigma * sqrt((1+a)/(1-a)) / sqrt(n)
        config = single_ue_config(loops=10_000, seed=11)
        emulator = RanEmulator(config)
        profile = emulator.profiles[0]
        values = np.stack([
            emulator.generate_tick(t)[0][0].features() for t in range(10_000)
        ])
        sigma = np.sqrt(np.diag(profile.cov))
        se = sigma * np.sqrt((1 + AR_COEFFICIENT) / (1 - AR_COEFFICIENT)) / 100.0
        assert np.all(np.abs(values.mean(axis=0) - profile.mu) < 3 * se)

    def test_features_never_negative(self):
        config = single_ue_config(loops=500, seed=2)
        emulator = RanEmulator(config)
        for t in range(500):
            records, _ = emulator.generate_tick(t)
            assert min(records[0].feature_values()) >= 0

    def test_out_of_order_ticks_rejected(self):
        emulator = RanEmulator(single_ue_config())
        emulator.generate_tick(0)
        with pytest.raises(ValueError):
            emulator.generate_tick(5)

    def test_run_seed_varies_dynamics_not_identity(self):
        config = single_ue_config()
        first = RanEmulator(config, run_seed=100)
        second = RanEmulator(config, run_seed=200)
        assert np.array_equal(first.profiles[0].mu, second.profiles[0].mu)
        a, _ = first.generate_tick(0)
        b, _ = second.generate_tick(0)
        assert a != b


class TestProfiles:
    def test_slice_split_even(self):
        config = ScenarioConfig(node_count=3, cells_per_node=3, total_ues=50,
                                loops=10, rng_seed=1)
        emulator = RanEmulator(config)
        embb = sum(1 for p in emulator.profiles if p.slice_kind is SliceKind.EMBB)
        assert embb == 25

    def test_slice_separation_by_construction(self):
        # throughput: eMBB above URLLC; packet rate: URLLC above eMBB
        assert EMBB_BASELINE[0] > URLLC_BASELINE[0]
        assert EMBB_BASELINE[2] > URLLC_BASELINE[2]
        assert URLLC_BASELINE[4] > EMBB_BASELINE[4]
        assert URLLC_BASELINE[5] > EMBB_BASELINE[5]

    def test_covariance_psd(self):
        cov = default_covariance(EMBB_BASELINE)
        eigenvalues = np.linalg.eigvalsh(cov)
        assert np.all(eigenvalues > -1e-9)
        factor = psd_factor(cov)
        assert np.allclose(factor @ factor.T, cov)

    def test_profile_factor_computed_once(self):
        profile = RanEmulator(single_ue_config()).profiles[0]
        assert profile.factor is profile.factor
        assert np.array_equal(profile.factor, psd_factor(profile.cov))

    def test_batched_baselines_equal_per_ue_helpers(self):
        """The emulator builds every UE's covariance and factor in one
        batch; each equals the one-UE helpers bit for bit."""
        profiles = RanEmulator(use_case_preset(seed=1, total_ues=300)).profiles
        assert len(profiles) == 300
        for profile in profiles:
            assert np.array_equal(profile.cov, default_covariance(profile.mu))
            assert np.array_equal(profile.factor, psd_factor(profile.cov))

    def test_tick_records_equal_from_features(self):
        config = ScenarioConfig(node_count=2, cells_per_node=2, total_ues=40, loops=3,
                                rng_seed=2)
        emulator = RanEmulator(config)
        for t in range(3):
            records, _ = emulator.generate_tick(t)
            values = np.clip(emulator._mu + emulator._dev, 0.0, None)
            assert records == [KpmRecord.from_features(t * 1000, ue, row)
                               for ue, row in enumerate(values)]
            assert all(type(v) is float for rec in records for v in rec[2:])


class TestFrameCapacity:
    """A placement whose largest indication cannot be framed is refused
    before any baseline is built; one exactly at the limit runs."""

    @staticmethod
    def one_cell(**kwargs):
        return ScenarioConfig(node_count=1, cells_per_node=1, loops=1, **kwargs)

    def test_placed_cell_over_one_frame_refused(self):
        with pytest.raises(ConfigError, match=f"holds {MAX_KPM_RECORDS + 1} UEs"):
            RanEmulator(self.one_cell(total_ues=MAX_KPM_RECORDS + 1))

    def test_placed_cell_of_one_full_frame_runs(self):
        emulator = RanEmulator(self.one_cell(total_ues=MAX_KPM_RECORDS))
        indications = [m for m in emulator.step(0) if m.kind is E2MessageKind.INDICATION]
        assert [len(m.records) for m in indications] == [MAX_KPM_RECORDS]

    def full_injecting_cell(self, longest):
        """A full cell's indication leaves 14 bytes under the cap; its node
        injects from a rulebook whose longest pattern is ``longest`` bytes."""
        rulebook = SignatureSet((
            Signature(0, b"\xab" * 8, parse_action_codes("D"), "short"),
            Signature(1, b"\xcd" * longest, parse_action_codes("D"), "longest"),
        ))
        config = self.one_cell(ues_per_cell=MAX_KPM_RECORDS, malicious_node_fraction=1.0,
                               malicious_message_fraction=0.99)
        return config, rulebook

    def test_injected_pattern_that_fills_the_frame_runs(self):
        emulator = RanEmulator(*self.full_injecting_cell(longest=14))
        sizes = [len(m.frame) for m in emulator.step(0)
                 if m.kind is E2MessageKind.INDICATION and m.injected is not None]
        assert sizes == [11 + MAX_PAYLOAD_BYTES]

    def test_injected_pattern_without_room_refused(self):
        with pytest.raises(ConfigError, match="no room for a 15-byte"):
            RanEmulator(*self.full_injecting_cell(longest=15))


class TestPoisoning:
    def make_profile(self, af_mu=EMBB_BASELINE):
        cov = default_covariance(af_mu)
        return UeProfile(0, SliceKind.EMBB, 0, 0, af_mu, cov, psd_factor(cov))

    def records(self, n):
        return [KpmRecord.from_features(t * 1000, 0, EMBB_BASELINE) for t in range(n)]

    def test_af_identity_labels_but_leaves_distribution(self):
        profile = self.make_profile()
        rng = np.random.default_rng(0)
        poisoned, labels = poison_records(self.records(5), {0}, 1.0,
                                          [profile], rng)
        assert all(lab.poisoned for lab in labels)
        assert all(lab.af_used == 1.0 for lab in labels)

    def test_af_15_sample_mean_near_scaled_mu(self):
        profile = self.make_profile()
        rng = np.random.default_rng(3)
        n = 2000
        poisoned, _ = poison_records(self.records(n), {0}, 1.5, [profile], rng)
        values = np.stack([r.features() for r in poisoned])
        sigma = np.sqrt(1.5 * np.diag(profile.cov))
        se = sigma / np.sqrt(n)
        assert np.all(np.abs(values.mean(axis=0) - 1.5 * profile.mu) < 3 * se)

    def test_untargeted_records_untouched(self):
        profile = self.make_profile()
        rng = np.random.default_rng(0)
        records = self.records(5)
        poisoned, labels = poison_records(records, set(), 1.5, [profile], rng)
        assert poisoned == records
        assert not any(lab.poisoned for lab in labels)

    def test_matches_per_record_loop(self):
        """Benign labels are built in one map; targeted records still draw
        from the generator one by one, in record order."""
        profiles = [replace(self.make_profile(), ue_id=ue) for ue in range(3)]
        records = [KpmRecord.from_features(t * 1000, ue, EMBB_BASELINE)
                   for t in range(4) for ue in (2, 0, 1)]
        expected_records, expected_labels = [], []
        rng = np.random.default_rng(6)
        for rec in records:
            if rec.ue_id in {0, 2}:
                draw = 1.5 * EMBB_BASELINE + np.sqrt(1.5) * (profiles[rec.ue_id].factor
                                                            @ rng.standard_normal(6))
                expected_records.append(KpmRecord.from_features(rec.timestamp, rec.ue_id,
                                                                np.clip(draw, 0.0, None)))
                expected_labels.append(GroundTruthLabel(rec.ue_id, rec.timestamp, True, 1.5))
            else:
                expected_records.append(rec)
                expected_labels.append(GroundTruthLabel(rec.ue_id, rec.timestamp, False, 1.0))
        got_records, got_labels = poison_records(records, {0, 2}, 1.5, profiles,
                                                 np.random.default_rng(6))
        assert got_records == expected_records
        assert got_labels == expected_labels
        assert all(type(lab) is GroundTruthLabel for lab in got_labels)

    def test_label_completeness_in_scenario(self):
        config = ScenarioConfig(node_count=3, cells_per_node=3, total_ues=30,
                                poison_target_fraction=0.3, amplification_factor=1.5,
                                loops=40, rng_seed=9)
        emulator = RanEmulator(config)
        total_records = total_labels = poisoned = 0
        for t in range(40):
            records, labels = emulator.generate_tick(t)
            total_records += len(records)
            total_labels += len(labels)
            poisoned += sum(lab.poisoned for lab in labels)
            keys = {(r.ue_id, r.timestamp) for r in records}
            label_keys = {(lab.ue_id, lab.timestamp) for lab in labels}
            assert keys == label_keys
        assert total_records == total_labels == 30 * 40
        assert poisoned > 0

    def test_poisoning_starts_after_warmup(self):
        config = ScenarioConfig(node_count=1, cells_per_node=1, ues_per_cell=5,
                                poison_target_fraction=1.0, amplification_factor=1.5,
                                loops=60, rng_seed=4)
        emulator = RanEmulator(config)
        for t in range(60):
            _, labels = emulator.generate_tick(t)
            if t < MIN_POISON_START:
                assert not any(lab.poisoned for lab in labels)


class TestSignatureInjection:
    def test_offset_zero_hits_at_zero(self):
        from ricguard.e2 import E2Message
        from ricguard.signatures import scan_naive

        book = synthetic_rulebook(count=5, seed=2)
        msg = E2Message(E2MessageKind.INDICATION, 1, b"\xff" * 50)

        class _ZeroOffsetRng:
            def integers(self, *args):
                return 0

        mutated, record = inject_signature(msg, book, _ZeroOffsetRng())
        assert record.offset == 0
        assert record.sig_id == book.signatures[0].sig_id
        assert scan_naive(mutated.payload, book).hits[0] == (record.sig_id, 0)

    def test_payload_grows_by_pattern_length(self):
        from ricguard.e2 import E2Message

        book = synthetic_rulebook(count=5, seed=2)
        msg = E2Message(E2MessageKind.INDICATION, 1, b"\xff" * 50)
        mutated, record = inject_signature(msg, book, np.random.default_rng(0))
        (pattern,) = [s.pattern for s in book.signatures if s.sig_id == record.sig_id]
        assert len(mutated.payload) == 50 + len(pattern)
        assert mutated.payload[record.offset : record.offset + len(pattern)] == pattern

    def test_late_injection_costs_more_comparisons(self):
        from ricguard.signatures import canonical_comparisons

        book = synthetic_rulebook(count=1, seed=3)
        pattern = book.signatures[0].pattern
        early = b"" + pattern + b"\x00" * 400
        late = b"\x00" * 400 + pattern
        assert canonical_comparisons(late, book) > canonical_comparisons(early, book)


class TestStep:
    def inspector_config(self, loops=4, seed=7):
        return ScenarioConfig(node_count=4, cells_per_node=3, ues_per_cell=10,
                              malicious_node_fraction=0.5,
                              malicious_message_fraction=0.5,
                              loops=loops, rng_seed=seed, size_calibrated=True)

    def test_setup_exchange_once_per_node(self, rulebook):
        emulator = RanEmulator(self.inspector_config(), rulebook)
        msgs = emulator.step(0)
        setups = [m for m in msgs if m.kind is E2MessageKind.SETUP_REQUEST]
        responses = [m for m in msgs if m.kind is E2MessageKind.SUBSCRIPTION_RESPONSE]
        assert len(setups) == len(responses) == 4
        later = emulator.step(1)
        assert all(m.kind is E2MessageKind.INDICATION for m in later)

    def test_twelve_indications_per_tick(self, rulebook):
        emulator = RanEmulator(self.inspector_config(), rulebook)
        emulator.step(0)
        msgs = emulator.step(1)
        assert sum(1 for m in msgs if m.kind is E2MessageKind.INDICATION) == 12

    def test_teardown_on_last_tick(self, rulebook):
        emulator = RanEmulator(self.inspector_config(loops=3), rulebook)
        for t in range(2):
            emulator.step(t)
        last = emulator.step(2)
        deletes = [m for m in last
                   if m.kind is E2MessageKind.SUBSCRIPTION_DELETE_RESPONSE]
        assert len(deletes) == 4

    def test_benign_nodes_never_injected(self, rulebook):
        emulator = RanEmulator(self.inspector_config(loops=20), rulebook)
        for t in range(20):
            for m in emulator.step(t):
                if m.node_id not in emulator.malicious_nodes:
                    assert m.injected is None

    def test_injected_fraction_near_quarter(self, rulebook):
        # 50% malicious nodes x 50% injection -> ~25% of indications
        emulator = RanEmulator(self.inspector_config(loops=100), rulebook)
        indications = injected = 0
        for t in range(100):
            for m in emulator.step(t):
                if m.kind is E2MessageKind.INDICATION:
                    indications += 1
                    injected += m.injected is not None
        assert indications == 1200
        assert abs(injected / indications - 0.25) < 0.05

    def test_frames_decode_and_carry_records_in_full_mode(self):
        config = ScenarioConfig(node_count=2, cells_per_node=2, ues_per_cell=3,
                                loops=3, rng_seed=1)
        emulator = RanEmulator(config)
        emulator.step(0)
        for emitted in emulator.step(1):
            msg = decode_frame(emitted.frame, clock=lambda: 0)
            if msg.kind is E2MessageKind.INDICATION:
                assert decode_kpm_payload(msg.payload) == emitted.records

    def test_byte_identical_streams_for_identical_configs(self, rulebook):
        config = self.inspector_config(loops=5)
        first = RanEmulator(config, rulebook)
        second = RanEmulator(config, rulebook)
        for t in range(5):
            frames_a = [m.frame for m in first.step(t)]
            frames_b = [m.frame for m in second.step(t)]
            assert frames_a == frames_b

    def test_calibrated_indication_payload_sizes(self, rulebook):
        emulator = RanEmulator(self.inspector_config(), rulebook)
        emulator.step(0)
        for m in emulator.step(1):
            if m.kind is E2MessageKind.INDICATION and m.injected is None:
                assert len(m.frame) == 11 + 148  # 10 UEs/cell calibrated size
