import math
import struct
import tracemalloc
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
    POISON_TIME_FRACTION,
    ConfigError,
    GroundTruthLabel,
    RanEmulator,
    ScenarioConfig,
    URLLC_BASELINE,
    _poison_rows,
    _records_and_labels,
    default_covariance,
    inject_signature,
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

    def test_af_whose_poisoned_draw_overflows_rejected(self):
        with pytest.raises(ValueError, match="amplification_factor"):
            ScenarioConfig(amplification_factor=1e308)
        # the largest AFs accepted keep every poisoned record finite
        emulator = RanEmulator(single_ue_config(loops=40, poison_target_fraction=1.0,
                                                amplification_factor=1.6e303))
        labels = []
        for t in range(40):
            records, tick_labels = emulator.generate_tick(t)
            labels += tick_labels
            assert all(math.isfinite(value) for value in records[0].features())
        assert any(lab.poisoned for lab in labels)

    def test_total_ues_beyond_frame_capacity_refused(self):
        """Some cell holds at least the even share of the UEs: a share over
        one frame is refused by the config, before any per-UE array."""
        ScenarioConfig(node_count=1, cells_per_node=2, total_ues=2 * MAX_KPM_RECORDS)
        with pytest.raises(ConfigError, match=f"holds {MAX_KPM_RECORDS + 1} UEs"):
            ScenarioConfig(node_count=1, cells_per_node=2, total_ues=2 * MAX_KPM_RECORDS + 1)
        with pytest.raises(ConfigError, match="total_ues 3000000 overflows"):
            use_case_preset(seed=1, total_ues=3_000_000)

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
        emulator._factor[0] = psd_factor(np.zeros((6, 6)))
        emulator._dev[0] = 0.0
        for t in range(10):
            records, _ = emulator.generate_tick(t)
            assert np.allclose(records[0].features(), emulator._mu[0])

    def test_sample_mean_tracks_mu(self):
        # AR(1)-adjusted standard error: sigma * sqrt((1+a)/(1-a)) / sqrt(n)
        config = single_ue_config(loops=10_000, seed=11)
        emulator = RanEmulator(config)
        mu = emulator._mu[0]
        values = np.stack([
            emulator.generate_tick(t)[0][0].features() for t in range(10_000)
        ])
        sigma = np.sqrt(np.diag(default_covariance(mu)))
        se = sigma * np.sqrt((1 + AR_COEFFICIENT) / (1 - AR_COEFFICIENT)) / 100.0
        assert np.all(np.abs(values.mean(axis=0) - mu) < 3 * se)

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
        assert np.array_equal(first._mu, second._mu)
        a, _ = first.generate_tick(0)
        b, _ = second.generate_tick(0)
        assert a != b


class TestProfiles:
    """Each UE is one row of the emulator's baseline arrays."""

    def test_slice_split_even(self):
        # eMBB throughput is 20k +- 10%, URLLC 4k +- 10%
        config = ScenarioConfig(node_count=3, cells_per_node=3, total_ues=50,
                                loops=10, rng_seed=1)
        emulator = RanEmulator(config)
        assert (emulator._mu[:, 0] > 10_000).sum() == 25

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

    def test_batched_baselines_equal_per_ue_helpers(self):
        """The emulator builds every UE's covariance factor in one batch;
        each equals the one-UE helpers bit for bit."""
        emulator = RanEmulator(use_case_preset(seed=1, total_ues=300))
        assert emulator.ue_count == 300
        assert emulator._mu.shape == (300, 6) and emulator._factor.shape == (300, 6, 6)
        for mu, factor in zip(emulator._mu, emulator._factor):
            assert np.array_equal(factor, psd_factor(default_covariance(mu)))

    def test_tick_records_equal_from_features(self):
        config = ScenarioConfig(node_count=2, cells_per_node=2, total_ues=40, loops=3,
                                rng_seed=2)
        emulator = RanEmulator(config)
        for t in range(3):
            records, _ = emulator.generate_tick(t)
            values = np.clip(emulator._mu + emulator._dev, 0.0, None)
            assert records == [KpmRecord(t * 1000, ue, *row)
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
    """``_poison_rows`` is the redraw every tick runs on its targeted rows."""

    FACTOR = psd_factor(default_covariance(EMBB_BASELINE))

    def redraw(self, n, af, rng):
        """n benign rows of one eMBB baseline, every row redrawn."""
        values = np.tile(EMBB_BASELINE, (n, 1))
        _poison_rows(values, np.arange(n), af, np.tile(EMBB_BASELINE, (n, 1)),
                     np.broadcast_to(self.FACTOR, (n, 6, 6)), rng)
        return values

    def test_af_identity_labels_but_leaves_distribution(self):
        emulator = RanEmulator(single_ue_config(loops=60, poison_target_fraction=1.0))
        labels = [lab for t in range(60) for lab in emulator.generate_tick(t)[1]]
        assert any(lab.poisoned for lab in labels)
        n = 2000
        values = self.redraw(n, 1.0, np.random.default_rng(0))
        se = np.sqrt(np.diag(default_covariance(EMBB_BASELINE))) / np.sqrt(n)
        assert np.all(np.abs(values.mean(axis=0) - EMBB_BASELINE) < 3 * se)

    def test_af_15_sample_mean_near_scaled_mu(self):
        n = 2000
        values = self.redraw(n, 1.5, np.random.default_rng(3))
        sigma = np.sqrt(1.5 * np.diag(default_covariance(EMBB_BASELINE)))
        se = sigma / np.sqrt(n)
        assert np.all(np.abs(values.mean(axis=0) - 1.5 * EMBB_BASELINE) < 3 * se)

    def test_untargeted_records_untouched(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        values = np.tile(EMBB_BASELINE, (5, 1))
        _poison_rows(values, np.zeros(0, dtype=np.intp), 1.5, np.zeros((0, 6)),
                     np.zeros((0, 6, 6)), rng)
        assert np.array_equal(values, np.tile(EMBB_BASELINE, (5, 1)))
        assert rng.bit_generator.state == state

    def test_matches_per_record_loop(self):
        """The targeted rows' draws come from one batched draw and one
        stacked matmul; they equal one draw and one ``factor @ z`` per
        targeted row, in row order, bit for bit."""
        mu = EMBB_BASELINE * np.array([[1.0], [1.05], [0.95], [1.02], [0.98], [1.08]])
        factor = psd_factor(default_covariance(mu))
        ue_ids = [2, 0, 1, 5, 4, 3]
        ts = 3000
        values = mu[ue_ids]
        poisoned = np.isin(ue_ids, [0, 2, 4])
        expected_records, expected_labels = [], []
        rng = np.random.default_rng(6)
        for ue, row in zip(ue_ids, values):
            if ue in {0, 2, 4}:
                draw = 1.5 * mu[ue] + np.sqrt(1.5) * (factor[ue] @ rng.standard_normal(6))
                expected_records.append(KpmRecord(ts, ue, *np.clip(draw, 0.0, None)))
            else:
                expected_records.append(KpmRecord(ts, ue, *row))
            expected_labels.append(GroundTruthLabel(ue, ts, ue in {0, 2, 4}))
        rows = np.flatnonzero(poisoned)
        hit = [ue_ids[i] for i in rows]
        _poison_rows(values, rows, 1.5, mu[hit], factor[hit], np.random.default_rng(6))
        got_records, got_labels = _records_and_labels(ts, ue_ids, values, poisoned)
        assert got_records == expected_records
        assert got_labels == expected_labels
        assert all(type(lab) is GroundTruthLabel for lab in got_labels)

    def test_batched_draw_equals_per_record_draw_for_any_factor(self):
        """The stacked matmul equals ``factor @ z`` per row for general
        factors too, where ``einsum`` would not."""
        mu = EMBB_BASELINE * (1 + np.arange(200)[:, None] / 100)
        factor = np.random.default_rng(8).standard_normal((200, 6, 6)) * 100
        rng = np.random.default_rng(2)
        expected = [np.clip(1.5 * m + np.sqrt(1.5) * (f @ rng.standard_normal(6)),
                            0.0, None).tolist() for m, f in zip(mu, factor)]
        values = np.tile(EMBB_BASELINE, (200, 1))
        _poison_rows(values, np.arange(200), 1.5, mu, factor, np.random.default_rng(2))
        assert values.tolist() == expected

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


def sequential_poison_plan(config, ue_count, rng):
    """The poison plan as one set of ticks per target, each window drawn by
    its own pair of ``integers`` calls: the reference the array plan must
    reproduce, draws and generator state included."""
    target_count = int(round(config.poison_target_fraction * ue_count))
    if target_count == 0:
        return {}
    targets = [int(u) for u in rng.choice(ue_count, size=target_count, replace=False)]
    budget = int(POISON_TIME_FRACTION * max(config.loops - MIN_POISON_START, 0))
    ticks_by_ue = {}
    for ue in targets:
        covered = set()
        draws = 0
        while len(covered) < budget and draws < 100:
            start = int(rng.integers(MIN_POISON_START, config.loops))
            length = int(rng.integers(8, 25))
            covered.update(range(start, min(start + length, config.loops)))
            draws += 1
        ticks_by_ue[ue] = covered
    return ticks_by_ue


class TestPoisonPlan:
    """The tick x target matrix holds exactly the windows, and leaves the
    generator exactly where, the sequential set-based builder would."""

    @pytest.mark.parametrize("config", [
        *(ScenarioConfig(node_count=3, cells_per_node=3, total_ues=ues,
                         poison_target_fraction=0.3, amplification_factor=1.5,
                         loops=loops, rng_seed=seed)
          for ues, loops, seed in [(50, 100, 1), (200, 300, 2), (2000, 1000, 3), (7, 40, 4)]),
        ScenarioConfig(node_count=2, cells_per_node=2, total_ues=60,
                       poison_target_fraction=1.0, loops=200, rng_seed=5),
        # a budget of 0: no window is drawn
        *(ScenarioConfig(node_count=1, cells_per_node=2, total_ues=20,
                         poison_target_fraction=0.5, loops=loops, rng_seed=6)
          for loops in (12, 13, 14, 15)),
        # a budget of 2497 ticks is beyond 100 windows of at most 24 ticks
        ScenarioConfig(node_count=1, cells_per_node=1, total_ues=30,
                       poison_target_fraction=1.0, loops=10_000, rng_seed=7),
    ], ids=["random-50", "random-200", "random-2000", "random-7", "all-targeted",
            "loops-12", "loops-13", "loops-14", "loops-15", "window-cap"])
    def test_plan_equals_sequential_builder(self, config):
        emulator = RanEmulator(config, run_seed=config.rng_seed + 10)
        rng = np.random.default_rng(config.rng_seed + 10)
        rng.standard_normal((emulator.ue_count, 6))  # the stationary start comes first
        expected = sequential_poison_plan(config, emulator.ue_count, rng)

        plan = emulator._poison
        assert plan.attacked.shape == (config.loops, len(expected))
        assert plan.targets.tolist() == sorted(expected)
        for j, ue in enumerate(plan.targets.tolist()):
            assert set(np.flatnonzero(plan.attacked[:, j]).tolist()) == expected[ue]
        for t in range(config.loops):
            now = plan.targets_at(t).tolist()
            assert now == sorted(ue for ue, ticks in expected.items() if t in ticks)
        assert emulator._rng.bit_generator.state == rng.bit_generator.state

    def test_plan_memory_bounded(self):
        """Building a 10k-UE emulator over 1000 ticks peaks under 25 MB: the
        plan is a 3 MB boolean matrix and windows are drawn in bounded
        chunks."""
        config = use_case_preset(seed=1, total_ues=10_000, loops=1000)
        tracemalloc.start()
        try:
            emulator = RanEmulator(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert emulator._poison.attacked.nbytes == 1000 * 3000
        assert peak < 25 * 2**20


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

    def test_indications_match_struct_layout(self, rulebook):
        """Each uninjected indication of a poisoned, injecting, multi-cell
        scenario is the count and one ``>IQ6d`` record per UE of its cell,
        in UE order; the tick's indications carry every UE once."""
        config = ScenarioConfig(node_count=3, cells_per_node=3, total_ues=120,
                                poison_target_fraction=0.4, amplification_factor=1.5,
                                malicious_node_fraction=0.34,
                                malicious_message_fraction=0.5, loops=40, rng_seed=3)
        emulator = RanEmulator(config, rulebook)
        # the seed's first draw places the UEs
        cell_of = np.random.default_rng(config.rng_seed).integers(0, 9, size=120).tolist()
        cells = sorted(set(cell_of))
        checked = poisoned = 0
        for t in range(config.loops):
            indications = [m for m in emulator.step(t) if m.kind is E2MessageKind.INDICATION]
            records = sorted((r for m in indications for r in m.records), key=lambda r: r.ue_id)
            assert [r.ue_id for r in records] == list(range(120))
            assert len(indications) == len(cells)
            for cell, message in zip(cells, indications):
                expected = [r for r in records if cell_of[r.ue_id] == cell]
                assert list(message.records) == expected
                assert [lab.ue_id for lab in message.labels] == [r.ue_id for r in expected]
                poisoned += sum(lab.poisoned for lab in message.labels)
                if message.injected is not None:
                    continue
                payload = struct.pack(">H", len(expected)) + b"".join(
                    struct.pack(">IQ6d", r.ue_id, r.timestamp, *r[2:]) for r in expected)
                assert message.frame[11:] == payload
                checked += 1
        assert poisoned > 0
        assert checked > len(cells) * config.loops // 2

    @pytest.mark.parametrize("config", [
        use_case_preset(seed=1, total_ues=2000),
        ScenarioConfig(node_count=8, cells_per_node=8, ues_per_cell=1,
                       malicious_node_fraction=0.25, malicious_message_fraction=0.2,
                       loops=40, rng_seed=1),
        ScenarioConfig(node_count=2, cells_per_node=3, ues_per_cell=4, loops=15, rng_seed=4),
    ], ids=["2000-ues-random-placement", "8x8x1-injecting", "fixed-placement"])
    def test_each_ue_reports_once_per_tick(self, config, rulebook):
        """The streaming detector takes at most one record per UE in a tick:
        on every tick, setup and teardown ticks included, the indications'
        records name each UE exactly once."""
        emulator = RanEmulator(config, rulebook)
        assert emulator.malicious_nodes or config.malicious_node_fraction == 0
        for t in range(config.loops):
            ue_ids = [record.ue_id for message in emulator.step(t)
                      if message.kind is E2MessageKind.INDICATION
                      for record in message.records]
            assert len(set(ue_ids)) == len(ue_ids), t
            assert sorted(ue_ids) == list(range(emulator.ue_count)), t

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
