import numpy as np
import pytest

from ricguard.detector import (
    AnomalyVerdict,
    CalibrationError,
    DetectorBundle,
    ScoredRecord,
    StreamingDetector,
    calibrate_threshold,
    classify_magnitude,
    evaluate,
    load_bundle,
    make_verdict,
    save_bundle,
    score_batch,
    score_window,
)
from ricguard.harness import detector_preset, run_detector_experiment
from ricguard.kpm import FeatureScaler, KpmRecord
from ricguard.mitigation import Magnitude
from ricguard.recurrent import TrainConfig, train_model
from ricguard.timing import DEFAULT_COST_MODEL


def constant_bundle(value=5.0, threshold=1e-4, hidden=6):
    """Bundle trained to convergence on constant data; scores ~0 there."""
    inputs = np.zeros((30, 10, 6))
    targets = np.zeros((30, 6))
    model = train_model(inputs, targets,
                        TrainConfig(hidden_size=hidden, epochs=300,
                                    learning_rate=0.2, rng_seed=1)).model
    scaler = FeatureScaler(mean=np.full(6, value), std=np.full(6, 1.0))
    return DetectorBundle(model=model, scaler=scaler, threshold=threshold)


def stream(ue=1, start_tick=0, count=11, value=5.0):
    return [
        KpmRecord.from_features((start_tick + i) * 1000, ue, np.full(6, value))
        for i in range(count)
    ]


class TestScoreWindow:
    def test_constant_model_scores_near_zero(self):
        bundle = constant_bundle()
        records = stream()
        score = score_window(bundle.model, bundle.scaler, records[:10], records[10])
        assert score < 1e-4

    def test_deterministic(self):
        bundle = constant_bundle()
        records = stream()
        a = score_window(bundle.model, bundle.scaler, records[:10], records[10])
        b = score_window(bundle.model, bundle.scaler, records[:10], records[10])
        assert a == b

    def test_wrong_length_rejected(self):
        bundle = constant_bundle()
        records = stream()
        with pytest.raises(ValueError):
            score_window(bundle.model, bundle.scaler, records[:9], records[10])

    def test_mixed_ue_rejected(self):
        bundle = constant_bundle()
        records = stream()
        alien = KpmRecord.from_features(3000, 2, np.full(6, 5.0))
        bad = records[:3] + [alien] + records[4:10]
        with pytest.raises(ValueError):
            score_window(bundle.model, bundle.scaler, bad, records[10])

    def test_gapped_window_rejected(self):
        bundle = constant_bundle()
        records = stream(count=12)
        gapped = records[:5] + records[6:11]
        with pytest.raises(ValueError):
            score_window(bundle.model, bundle.scaler, gapped, records[11])


class TestCalibration:
    def make(self, n=600, seed=0):
        bundle = constant_bundle()
        rng = np.random.default_rng(seed)
        inputs = rng.standard_normal((n, 10, 6)) * 0.1
        targets = rng.standard_normal((n, 6)) * 0.1
        return bundle, inputs, targets

    def test_quantile_one_gives_max_and_zero_fpr(self):
        bundle, inputs, targets = self.make()
        threshold = calibrate_threshold(bundle.model, bundle.scaler,
                                        inputs, targets, quantile=1.0)
        scores = score_batch(bundle.model, inputs, targets)
        assert threshold == pytest.approx(scores.max())
        assert np.sum(scores > threshold) == 0

    def test_default_quantile_fpr_by_construction(self):
        bundle, inputs, targets = self.make()
        threshold = calibrate_threshold(bundle.model, bundle.scaler, inputs, targets)
        scores = score_batch(bundle.model, inputs, targets)
        assert np.mean(scores > threshold) <= 0.005

    def test_threshold_monotone_in_quantile(self):
        bundle, inputs, targets = self.make()
        thresholds = [
            calibrate_threshold(bundle.model, bundle.scaler, inputs, targets, quantile=q)
            for q in (0.9, 0.95, 0.99, 0.995, 1.0)
        ]
        assert all(b >= a for a, b in zip(thresholds, thresholds[1:]))

    def test_too_few_windows_rejected(self):
        bundle, inputs, targets = self.make(n=499)
        with pytest.raises(CalibrationError):
            calibrate_threshold(bundle.model, bundle.scaler, inputs, targets)


class TestMagnitude:
    def test_bands(self):
        assert classify_magnitude(1.5, 1.0) is Magnitude.SMALL
        assert classify_magnitude(4.0, 1.0) is Magnitude.MODERATE  # closed upper edge
        assert classify_magnitude(10.0, 1.0) is Magnitude.SIGNIFICANT

    def test_band_edges(self):
        assert classify_magnitude(2.0, 1.0) is Magnitude.SMALL
        assert classify_magnitude(2.0000001, 1.0) is Magnitude.MODERATE

    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            classify_magnitude(0.5, 1.0)

    def test_verdict_invariants(self):
        record = KpmRecord.from_features(1000, 1, np.full(6, 5.0))
        verdict = make_verdict(record, 0.5, 1.0)
        assert not verdict.is_anomalous and verdict.magnitude is None
        verdict = make_verdict(record, 3.0, 1.0)
        assert verdict.is_anomalous and verdict.magnitude is Magnitude.MODERATE
        with pytest.raises(ValueError):
            AnomalyVerdict(ue_id=1, timestamp=0, score=0.2, threshold=1.0,
                           is_anomalous=True, magnitude=Magnitude.SMALL)


class TestBundlePersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        bundle = constant_bundle(threshold=0.125)
        path = tmp_path / "model.kpmd"
        save_bundle(bundle, path)
        assert path.read_bytes()[:4] == b"KPMD"
        loaded = load_bundle(path)
        assert loaded.threshold == bundle.threshold
        assert np.array_equal(loaded.scaler.mean, bundle.scaler.mean)
        assert np.array_equal(loaded.scaler.std, bundle.scaler.std)
        for name, param in bundle.model.parameters().items():
            assert np.array_equal(param, loaded.model.parameters()[name])

    def test_loaded_bundle_scores_identically(self, tmp_path):
        bundle = constant_bundle()
        path = tmp_path / "model.kpmd"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        records = stream()
        a = score_window(bundle.model, bundle.scaler, records[:10], records[10])
        b = score_window(loaded.model, loaded.scaler, records[:10], records[10])
        assert a == b

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.kpmd"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_bundle(path)


class TestStreamingDetector:
    def test_warmup_then_scoring(self):
        detector = StreamingDetector(constant_bundle())
        for t in range(10):
            (scored,) = detector.observe_tick(stream(count=1, start_tick=t))
            assert scored.verdict is None
        (scored,) = detector.observe_tick(stream(count=1, start_tick=10))
        assert scored.verdict is not None
        assert not scored.verdict.is_anomalous

    def test_anomalous_record_not_added_to_history(self):
        detector = StreamingDetector(constant_bundle(threshold=1e-3))
        for t in range(10):
            detector.observe_tick(stream(count=1, start_tick=t))
        spike = KpmRecord.from_features(10_000, 1, np.full(6, 50.0))
        (scored,) = detector.observe_tick([spike])
        assert scored.verdict.is_anomalous
        # scoring continues against the clean (stale) pre-spike window
        (after,) = detector.observe_tick(stream(count=1, start_tick=11))
        clean = stream(count=10)
        expected = score_window(detector.bundle.model, detector.bundle.scaler, clean, after.record)
        assert after.verdict.score == pytest.approx(expected, rel=1e-12)
        assert not after.verdict.is_anomalous

    def test_batch_scoring_matches_score_window(self):
        bundle = constant_bundle()
        records = stream(count=11)
        detector = StreamingDetector(bundle)
        results = []
        for r in records:
            results.extend(detector.observe_tick([r]))
        direct = score_window(bundle.model, bundle.scaler, records[:10], records[10])
        assert results[-1].verdict.score == pytest.approx(direct, rel=1e-12)

    def test_cost_model_latency(self, tmp_path):
        # the detector times scoring by wall clock; a deterministic run
        # charges each scored record the cost model's per-record time
        run_detector_experiment(detector_preset(seed=1, loops=50), af_grid=(1.5,), runs=1,
                                bundle=constant_bundle(), cost_model=DEFAULT_COST_MODEL,
                                out_dir=tmp_path)
        (row,) = (tmp_path / "detector.csv").read_text().splitlines()[1:]
        expected_ms = DEFAULT_COST_MODEL.ns_per_scored_record / 1e6
        assert float(row.split(",")[3]) == pytest.approx(expected_ms)


class TestStatisticalSeparation:
    def test_poisoned_scores_separate_from_benign(self, quick_bundle):
        """Mean poisoned score at AF 1.5 sits >= 3 benign standard deviations
        above the benign mean, over well past 1,000 windows."""
        from dataclasses import replace

        from ricguard.emulator import RanEmulator
        from ricguard.harness import detector_preset

        config = replace(detector_preset(seed=1, loops=60), amplification_factor=1.5)
        emulator = RanEmulator(config, run_seed=404)
        detector = StreamingDetector(quick_bundle)
        benign_scores, poisoned_scores = [], []
        for t in range(config.loops):
            records, labels = emulator.generate_tick(t)
            poisoned_keys = {(l.ue_id, l.timestamp) for l in labels if l.poisoned}
            for item in detector.observe_tick(records):
                if item.verdict is None:
                    continue
                key = (item.record.ue_id, item.record.timestamp)
                (poisoned_scores if key in poisoned_keys else benign_scores).append(
                    item.verdict.score
                )
        assert len(benign_scores) + len(poisoned_scores) >= 1000
        assert poisoned_scores
        benign = np.array(benign_scores)
        assert np.mean(poisoned_scores) >= benign.mean() + 3 * benign.std()
        # AF 1.5 records clear the threshold in >= 95% of cases
        threshold = quick_bundle.threshold
        assert np.mean(np.array(poisoned_scores) > threshold) >= 0.95

    def test_thousand_records_score_under_loop_budget(self, quick_bundle):
        rng = np.random.default_rng(0)
        inputs = rng.standard_normal((1000, 10, 6))
        targets = rng.standard_normal((1000, 6))
        import time

        started = time.perf_counter()
        score_batch(quick_bundle.model, inputs, targets)
        assert time.perf_counter() - started < 1.0


class TestEvaluate:
    def scored(self, flags, poisons, latency_ns=100_000):
        items, labels = [], {}
        for i, (flagged, poisoned) in enumerate(zip(flags, poisons)):
            record = KpmRecord.from_features(i * 1000, 1, np.full(6, 1.0))
            verdict = make_verdict(record, 2.0 if flagged else 0.5, 1.0)
            items.append(ScoredRecord(record=record, verdict=verdict,
                                      latency_ns=latency_ns))
            labels[(1, i * 1000)] = poisoned
        return items, labels

    def test_definitional_arithmetic(self):
        # 100 poisoned, 98 flagged -> ADR 98%
        flags = [True] * 98 + [False] * 2 + [False] * 50
        poisons = [True] * 100 + [False] * 50
        items, labels = self.scored(flags, poisons)
        metrics = evaluate(items, labels)
        assert metrics.adr_pct == pytest.approx(98.0)
        assert metrics.fpr_pct == pytest.approx(0.0)
        assert metrics.mean_latency_ms == pytest.approx(0.1)

    def test_fpr_counts_flagged_benign(self):
        items, labels = self.scored([False, True, True, False],
                                    [False, False, True, False])
        metrics = evaluate(items, labels)
        assert metrics.fpr_pct == pytest.approx(100.0 / 3)

    def test_adr_absent_without_poisoned_records(self):
        items, labels = self.scored([False, False], [False, False])
        assert evaluate(items, labels).adr_pct is None

    def test_unscored_records_excluded(self):
        record = KpmRecord.from_features(0, 1, np.full(6, 1.0))
        items = [ScoredRecord(record=record, verdict=None)]
        metrics = evaluate(items, {(1, 0): True})
        assert metrics.adr_pct is None and metrics.scored_poisoned == 0

    def test_missing_label_rejected(self):
        items, _ = self.scored([True], [True])
        with pytest.raises(KeyError):
            evaluate(items, {})
