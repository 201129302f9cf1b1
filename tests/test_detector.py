import functools
import math
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ricguard.detector as detector_module
from ricguard.detector import (
    INITIAL_CONTEXT_ROWS,
    NORMALIZED_BOUND,
    AnomalyVerdict,
    CalibrationError,
    DetectorBundle,
    ScoredRecord,
    StreamingDetector,
    calibrate_threshold,
    classify_magnitude,
    evaluate,
    load_bundle,
    save_bundle,
    score_batch,
    score_window,
)
from ricguard.emulator import RanEmulator
from ricguard.harness import detector_preset, run_detector_experiment
from ricguard.kpm import SEQUENCE_LENGTH, FeatureScaler, KpmRecord
from ricguard.mitigation import Magnitude
from ricguard.recurrent import TrainConfig, _block_rows, init_model, predict, train_model
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
        KpmRecord((start_tick + i) * 1000, ue, *np.full(6, value))
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
        alien = KpmRecord(3000, 2, *np.full(6, 5.0))
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

    def test_default_quantile_fpr_by_construction(self):
        bundle, inputs, targets = self.make()
        threshold = calibrate_threshold(bundle.model, bundle.scaler, inputs, targets)
        scores = score_batch(bundle.model, inputs, targets)
        assert np.mean(scores > threshold) <= 0.005

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
        verdict = AnomalyVerdict(ue_id=1, score=0.5, threshold=1.0)
        assert not verdict.is_anomalous and verdict.magnitude is None
        verdict = AnomalyVerdict(ue_id=1, score=3.0, threshold=1.0)
        assert verdict.is_anomalous and verdict.magnitude is Magnitude.MODERATE
        # the threshold itself is benign: anomalous means strictly above it
        assert not AnomalyVerdict(ue_id=1, score=1.0, threshold=1.0).is_anomalous

    def test_nan_score_fails_closed(self):
        verdict = AnomalyVerdict(ue_id=1, score=math.nan, threshold=1.0)
        assert verdict.is_anomalous
        assert verdict.magnitude is Magnitude.SIGNIFICANT


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

    @pytest.mark.parametrize("inputs_shape, targets_shape", [
        ((40, 5, 6), (40, 6)), ((40, 10, 6), (39, 6)), ((40, 10, 6), (40, 5)),
    ], ids=["five-step-windows", "target-count", "target-width"])
    def test_windows_of_another_shape_never_train(self, monkeypatch, inputs_shape,
                                                  targets_shape):
        """A bundle stores no window length: a model trained on 5-step windows
        would load as a 10-step model that cannot score them. Training refuses
        such windows, and mismatched targets, before its first epoch."""
        import ricguard.recurrent as recurrent

        monkeypatch.setattr(recurrent, "loss_and_grads", lambda *args: pytest.fail("trained"))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=r"of shape .* expected \("):
            train_model(rng.random(inputs_shape), rng.random(targets_shape),
                        TrainConfig(hidden_size=4, epochs=2))

    @staticmethod
    def bundle_blob(hidden=4, threshold=0.125, mean=5.0, std=1.0):
        """A bundle file's bytes written field by field, so that they can
        hold values no ``DetectorBundle`` accepts."""
        weight_count = 4 * hidden * 6 + 4 * hidden * hidden + 4 * hidden + 6 * hidden + 6
        weights = np.random.default_rng(0).uniform(-0.5, 0.5, weight_count)
        values = np.concatenate([np.full(6, mean), np.full(6, std), [threshold], weights])
        return b"KPMD" + struct.pack(">II", 1, hidden) + values.astype(">f8").tobytes()

    @pytest.mark.parametrize("fields, match", [
        ({"threshold": math.inf}, "threshold inf"),
        ({"threshold": 0.0}, "threshold 0.0"),
        ({"threshold": math.nan}, "threshold nan"),
        ({"hidden": 0}, "hidden unit"),
        ({"mean": math.nan}, "scaler means"),
        ({"std": math.nan}, "scaler means"),
        ({"std": math.inf}, "scaler means"),
    ], ids=["inf-threshold", "zero-threshold", "nan-threshold", "no-hidden-unit",
            "nan-mean", "nan-std", "inf-std"])
    def test_bundle_that_cannot_guard_is_rejected_at_load(self, tmp_path, fields, match):
        """An infinite threshold would flag nothing, a zero one would divide
        by zero at the first flagged record, a model without hidden units
        would fail at the first tick and NaN or infinite scaler statistics
        would poison every score: each fails at load instead."""
        path = tmp_path / "model.kpmd"
        path.write_bytes(self.bundle_blob(**fields))
        with pytest.raises(ValueError, match=match):
            load_bundle(path)

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
        spike = KpmRecord(10_000, 1, *np.full(6, 50.0))
        (scored,) = detector.observe_tick([spike])
        assert scored.verdict.is_anomalous
        # scoring continues against the clean (stale) pre-spike window
        (after,) = detector.observe_tick(stream(count=1, start_tick=11))
        clean = stream(count=10)
        expected = score_window(detector.bundle.model, detector.bundle.scaler, clean, after.record)
        assert after.verdict.score == pytest.approx(expected, rel=1e-5)
        assert not after.verdict.is_anomalous

    def test_nan_scored_record_never_enters_context(self, monkeypatch):
        detector = StreamingDetector(constant_bundle(threshold=1e-3))
        for t in range(10):
            detector.observe_tick(stream(count=1, start_tick=t))
        with monkeypatch.context() as patch:
            patch.setattr(detector_module, "score_batch",
                          lambda model, inputs, targets: np.full(len(inputs), math.nan))
            (scored,) = detector.observe_tick(
                [KpmRecord(10_000, 1, *np.full(6, 9.0))])
        assert scored.verdict.is_anomalous
        assert scored.verdict.magnitude is Magnitude.SIGNIFICANT
        (after,) = detector.observe_tick(stream(count=1, start_tick=11))
        expected = score_window(detector.bundle.model, detector.bundle.scaler,
                                stream(count=10), after.record)
        assert after.verdict.score == pytest.approx(expected, rel=1e-5)

    def test_batch_scoring_matches_score_window(self):
        bundle = constant_bundle()
        records = stream(count=11)
        detector = StreamingDetector(bundle)
        results = []
        for r in records:
            results.extend(detector.observe_tick([r]))
        direct = score_window(bundle.model, bundle.scaler, records[:10], records[10])
        assert results[-1].verdict.score == pytest.approx(direct, rel=1e-5)

    def test_tick_of_several_blocks_matches_score_window(self):
        """A tick whose UEs fill more than two blocks of the batched pass
        scores each UE as its window alone does."""
        rng = np.random.default_rng(23)
        model = init_model(32, rng)
        model.b[:] = rng.uniform(-1.0, 1.0, size=model.b.shape)
        scaler = FeatureScaler(mean=np.full(6, 5.0), std=np.full(6, 2.0))
        bundle = DetectorBundle(model=model, scaler=scaler, threshold=1.0)
        detector = StreamingDetector(bundle)
        ue_count = 2 * _block_rows(detector._model) + 37  # blocks of the float32 pass
        streams = [[KpmRecord(t * 1000, ue, *rng.uniform(0.0, 10.0, size=6))
                    for t in range(SEQUENCE_LENGTH + 1)] for ue in range(ue_count)]
        for t in range(SEQUENCE_LENGTH):
            detector.observe_tick([records[t] for records in streams])
        results = detector.observe_tick([records[-1] for records in streams])
        assert [item.record for item in results] == [records[-1] for records in streams]
        for item, records in zip(results, streams):
            expected = score_window(model, scaler, records[:-1], records[-1])
            assert item.verdict.score == pytest.approx(expected, rel=1e-5), item.record.ue_id

    def test_cost_model_latency(self, tmp_path):
        # the detector times scoring by wall clock; a deterministic run
        # charges each scored record the cost model's per-record time
        run_detector_experiment(detector_preset(seed=1, loops=50), af_grid=(1.5,), runs=1,
                                bundle=constant_bundle(), cost_model=DEFAULT_COST_MODEL,
                                out_dir=tmp_path)
        (row,) = (tmp_path / "detector.csv").read_text().splitlines()[1:]
        expected_ms = DEFAULT_COST_MODEL.ns_per_scored_record / 1e6
        assert float(row.split(",")[3]) == pytest.approx(expected_ms)


def reference_observe(bundle, history, records):
    """Plain per-UE lists: score every record against its UE's last
    ``SEQUENCE_LENGTH`` kept records from before the tick, then keep the
    records that are not anomalous, in record order."""
    seq_len = SEQUENCE_LENGTH
    normalized = [bundle.scaler.normalize(rec.features()) for rec in records]
    scorable = [i for i, rec in enumerate(records)
                if len(history.get(rec.ue_id, ())) >= seq_len]
    scores = {}
    if scorable:
        inputs = np.stack([np.stack(history[records[i].ue_id][-seq_len:]) for i in scorable])
        targets = np.stack([normalized[i] for i in scorable])
        scores = dict(zip(scorable, score_batch(bundle.model, inputs, targets).tolist()))
    for i, rec in enumerate(records):
        if i not in scores or scores[i] <= bundle.threshold:
            history.setdefault(rec.ue_id, []).append(normalized[i])
    return [scores.get(i) for i in range(len(records))]


#: Kept (at most 0.02 from the constant the bundle was trained on) or flagged.
TICK_VALUES = (5.0, 5.01, 4.98, 50.0)
UE_POOL = 2 * INITIAL_CONTEXT_ROWS
# the first rows' UEs fill their context, the rest join past the initial rows
# (growing the array under them) for eleven ticks; then an empty tick, a tick
# in which UE 0 is flagged and UE 1 kept while most UEs are absent, and both
# again against the context that produced
FIRST_ROWS = [(ue, 5.01) for ue in range(INITIAL_CONTEXT_ROWS)]
EVERY_UE = [(ue, 5.0) for ue in range(UE_POOL)]
FLAGGED_AND_KEPT = [(0, 50.0), (1, 4.98)]
COVERING_TICKS = ([FIRST_ROWS] * 10 + [EVERY_UE] * 11
                  + [[], FLAGGED_AND_KEPT, [(0, 4.98), (1, 5.0)]])


@functools.cache
def flagging_bundle():
    return constant_bundle(threshold=1e-3)


def tick_records(t, tick):
    """Tick ``t``'s records of (UE id, value) pairs, all six features at the value."""
    return [KpmRecord(t * 1000, ue, *np.full(6, value)) for ue, value in tick]


class TestColumnarContext:
    @given(st.lists(st.lists(st.tuples(st.integers(0, UE_POOL - 1), st.sampled_from(TICK_VALUES)),
                             max_size=UE_POOL, unique_by=lambda pair: pair[0]),
                    min_size=1, max_size=24))
    @example(COVERING_TICKS)
    @settings(max_examples=60, deadline=None)
    def test_matches_per_ue_reference(self, ticks):
        bundle = flagging_bundle()
        detector = StreamingDetector(bundle)
        history = {}
        for t, tick in enumerate(ticks):
            records = tick_records(t, tick)
            expected = reference_observe(bundle, history, records)
            results = detector.observe_tick(records)
            assert [item.record for item in results] == records
            assert [item.verdict is None for item in results] == [s is None for s in expected]
            for item, score in zip(results, expected):
                if score is not None:
                    assert item.verdict.score == pytest.approx(score, rel=1e-5)

    def test_covering_ticks_exercise_each_case(self):
        detector = StreamingDetector(flagging_bundle())
        results = [detector.observe_tick(tick_records(t, tick))
                   for t, tick in enumerate(COVERING_TICKS)]
        assert UE_POOL > INITIAL_CONTEXT_ROWS
        assert [item.verdict is not None for item in results[10]] == (
            [True] * INITIAL_CONTEXT_ROWS + [False] * (UE_POOL - INITIAL_CONTEXT_ROWS))
        assert [item.verdict.is_anomalous for item in results[-2]] == [True, False]
        assert all(not item.verdict.is_anomalous for item in results[-1])


class TestOneRecordPerUe:
    def test_repeated_ue_refused_and_changes_nothing(self):
        """A tick that carries a UE twice raises ``ValueError``; the detector
        then scores the next ticks bit for bit as one that never saw it."""
        refusing, fresh = StreamingDetector(flagging_bundle()), StreamingDetector(flagging_bundle())
        warm_up = [(ue, 5.01) for ue in range(3)]
        for t in range(SEQUENCE_LENGTH):
            for detector in (refusing, fresh):
                detector.score_tick(tick_records(t, warm_up))
        # a new UE, a flagged one, a kept one and UE 1 twice
        refused = tick_records(SEQUENCE_LENGTH, [(7, 5.0), (0, 50.0), (1, 4.98), (2, 5.0),
                                                 (1, 5.0)])
        with pytest.raises(ValueError, match=r"UEs \[1\] repeat"):
            refusing.score_tick(refused)
        ticks = [[(0, 5.0), (1, 4.98), (7, 5.0), (2, 50.0)], [(0, 4.98), (1, 5.0), (2, 5.0)]]
        for t, tick in enumerate(ticks, start=SEQUENCE_LENGTH):
            got, want = (d.score_tick(tick_records(t, tick)) for d in (refusing, fresh))
            for got_array, want_array in zip(got, want):
                assert got_array.dtype == want_array.dtype
                assert got_array.tobytes() == want_array.tobytes()
            if t == SEQUENCE_LENGTH:  # scored: UEs 0-2; kept: all but UE 2's spike
                assert want[0].tolist() == [True, True, False, True]
                assert want[2].tolist() == [True, True, True, False]


class TestSinglePrecision:
    def test_context_is_float32_and_predict_keeps_the_model_dtype(self):
        bundle = constant_bundle()
        detector = StreamingDetector(bundle)
        for t in range(SEQUENCE_LENGTH + 1):
            detector.observe_tick(stream(count=1, start_tick=t))
        assert detector._context.dtype == np.float32
        assert bundle.model.w_x.dtype == np.float64  # the bundle is not cast
        inputs = np.random.default_rng(0).standard_normal((5, SEQUENCE_LENGTH, 6))
        assert predict(bundle.model, inputs).dtype == np.float64
        single = predict(detector._model, inputs.astype(np.float32))
        assert single.dtype == np.float32
        assert np.allclose(single, predict(bundle.model, inputs), rtol=0, atol=1e-5)

    @pytest.mark.parametrize("af", [1.2, 1.5])
    def test_flags_exactly_what_float64_score_batch_flags(self, trained_bundle, af):
        """Float32 streaming flags the very records that the float64 per-UE
        reference flags, on the detector preset's poisoned streams."""
        bundle = trained_bundle.bundle
        config = replace(detector_preset(seed=1), amplification_factor=af)
        flagged = 0
        for run in range(2):
            emulator = RanEmulator(config, run_seed=config.rng_seed + 100 + run)
            detector, history = StreamingDetector(bundle), {}
            for t in range(config.loops):
                records, _ = emulator.generate_tick(t)
                expected = [score is not None and not score <= bundle.threshold
                            for score in reference_observe(bundle, history, records)]
                got = [item.verdict is not None and item.verdict.is_anomalous
                       for item in detector.observe_tick(records)]
                assert got == expected, (run, t)
                flagged += sum(got)
        assert flagged > 100

    @pytest.mark.parametrize("value", [1e30, 1e39, 1e300])
    def test_huge_features_keep_the_context_finite_and_score_anomalous(self, value):
        """A warm-up record with a huge finite feature overflowed the float32
        cast of the context; it is clipped to ``NORMALIZED_BOUND`` first.
        The same feature on a scored record is flagged, never kept."""
        detector = StreamingDetector(constant_bundle(threshold=1e-3))
        hostile = np.array([value, 5.0, 5.0, 5.0, 5.0, 5.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            detector.observe_tick([KpmRecord(0, 1, *hostile)])
            for t in range(SEQUENCE_LENGTH):
                detector.observe_tick(stream(ue=2, count=1, start_tick=t))
            (scored,) = detector.observe_tick(
                [KpmRecord(SEQUENCE_LENGTH * 1000, 2, *hostile)])
        warmed_up = detector._context[detector._rows[1], -1]  # UE 1's only record
        assert warmed_up.tolist() == [np.float32(NORMALIZED_BOUND), 0, 0, 0, 0, 0]
        assert scored.verdict.is_anomalous
        assert scored.verdict.magnitude is Magnitude.SIGNIFICANT
        assert np.isfinite(detector._context[detector._rows[2]]).all()


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
    def scored(self, flags, poisons):
        items, labels = [], {}
        for i, (flagged, poisoned) in enumerate(zip(flags, poisons)):
            record = KpmRecord(i * 1000, 1, *np.full(6, 1.0))
            verdict = AnomalyVerdict(1, 2.0 if flagged else 0.5, 1.0)
            items.append(ScoredRecord(record=record, verdict=verdict))
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
        # pooling runs sums their counts
        pooled = metrics + evaluate(*self.scored([True, True], [False, True]))
        assert (pooled.scored_poisoned, pooled.flagged_poisoned) == (101, 99)
        assert (pooled.scored_benign, pooled.flagged_benign) == (51, 1)

    def test_fpr_counts_flagged_benign(self):
        items, labels = self.scored([False, True, True, False],
                                    [False, False, True, False])
        metrics = evaluate(items, labels)
        assert metrics.fpr_pct == pytest.approx(100.0 / 3)

    def test_adr_absent_without_poisoned_records(self):
        items, labels = self.scored([False, False], [False, False])
        assert evaluate(items, labels).adr_pct is None

    def test_unscored_records_excluded(self):
        record = KpmRecord(0, 1, *np.full(6, 1.0))
        items = [ScoredRecord(record=record, verdict=None)]
        metrics = evaluate(items, {(1, 0): True})
        assert metrics.adr_pct is None and metrics.scored_poisoned == 0

    def test_missing_label_rejected(self):
        items, _ = self.scored([True], [True])
        with pytest.raises(KeyError):
            evaluate(items, {})
