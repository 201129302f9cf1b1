import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ricguard.kpm import (
    FeatureScaler,
    KpmRecord,
    ScalerError,
    build_windows,
    fit_scaler,
    records_to_matrix,
)


def rec(ts, ue=0, values=None):
    if values is None:
        base = ts / 1000
        values = (1.0 + base, 2.0 + 2 * base, 3.0 + base, 4.0 + base,
                  5.0 + 3 * base, 6.0 + base)
    return KpmRecord(ts, ue, *values)


class TestKpmRecord:
    def test_feature_order_is_fixed(self):
        r = KpmRecord(0, 1, 10, 20, 30, 40, 50, 60)
        assert r.ue_thp_ul == 10
        assert r.prb_used_ul == 20
        assert r.ue_thp_dl == 30
        assert r.prb_used_dl == 40
        assert r.tot_nbr_ul_per_sec == 50
        assert r.tot_nbr_dl_per_sec == 60

    def test_negative_feature_rejected(self):
        with pytest.raises(ValueError):
            KpmRecord(0, 1, 1, 2, -3, 4, 5, 6)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_feature_rejected(self, bad):
        # not first: min() skips a NaN anywhere but at the front
        with pytest.raises(ValueError):
            KpmRecord(0, 1, 1, 2, bad, 4, 5, 6)


class TestRecordsToMatrix:
    def test_empty_is_zero_by_six_float64(self):
        matrix = records_to_matrix([])
        assert matrix.shape == (0, 6) and matrix.dtype == np.float64

    def test_equals_row_by_row_stack(self):
        rng = np.random.default_rng(4)
        records = [KpmRecord(t * 1000, ue, *rng.exponential(10.0, 6))
                   for t in range(5) for ue in range(40)]
        reference = np.array([rec.feature_values() for rec in records], dtype=np.float64)
        matrix = records_to_matrix(records)
        assert matrix.dtype == np.float64
        assert np.array_equal(matrix, reference)
        assert np.array_equal(records_to_matrix(tuple(records[:1])), reference[:1])


class TestScaler:
    def test_population_convention(self):
        records = [rec(0, values=(0, 1, 1, 1, 1, 1)), rec(1000, values=(2, 1.5, 1, 1, 1, 1))]
        # avoid constant features
        records = [
            KpmRecord(0, 1, 0, 1, 2, 3, 4, 5),
            KpmRecord(1000, 1, 2, 3, 4, 5, 6, 7),
        ]
        scaler = fit_scaler(records)
        assert scaler.mean[0] == pytest.approx(1.0)
        assert scaler.std[0] == pytest.approx(1.0)  # population std of {0, 2}

    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        records = [
            KpmRecord(t * 1000, 1, *(np.abs(rng.standard_normal(6)) + 0.1))
            for t in range(20)
        ]
        scaler = fit_scaler(records)
        matrix = records_to_matrix(records)
        back = scaler.normalize(matrix) * scaler.std + scaler.mean
        assert np.max(np.abs(back - matrix)) < 1e-12

    def test_constant_feature_named_in_error(self):
        records = [
            KpmRecord(0, 1, 1, 5, 2, 3, 4, 5),
            KpmRecord(1000, 1, 2, 5, 4, 5, 6, 7),
        ]
        with pytest.raises(ScalerError, match="PrbUsedUl"):
            fit_scaler(records)

    def test_too_few_records_rejected(self):
        with pytest.raises(ScalerError):
            fit_scaler([rec(0)])

    def test_benign_validation_roughly_zero_mean(self):
        # independent oracle: refit statistics on a held-out split
        rng = np.random.default_rng(7)
        base = np.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        all_records = [
            KpmRecord(t * 1000, 1, *(base + rng.standard_normal(6)))
            for t in range(400)
        ]
        train, held_out = all_records[:320], all_records[320:]
        scaler = fit_scaler(train)
        normalized = scaler.normalize(records_to_matrix(held_out))
        assert np.max(np.abs(normalized.mean(axis=0))) < 0.5

    def test_invalid_stats_rejected(self):
        with pytest.raises(ScalerError):
            FeatureScaler(mean=np.zeros(6), std=np.zeros(6))


class TestBuildWindows:
    def test_shapes_and_target_alignment(self):
        records = [rec(t * 1000) for t in range(15)]
        scaler = fit_scaler(records)
        inputs, targets = build_windows(records, scaler)
        assert inputs.shape == (5, 10, 6)
        assert targets.shape == (5, 6)
        expected_target = scaler.normalize(records[10].features())
        assert np.allclose(targets[0], expected_target)

    def test_gap_breaks_windows(self):
        records = [rec(t * 1000) for t in range(12) if t != 5]
        scaler = fit_scaler(records)
        inputs, _ = build_windows(records, scaler)
        assert inputs.shape[0] == 0  # no run of 11 consecutive ticks survives

    def test_streams_grouped_per_ue(self):
        records = [rec(t * 1000, ue=0) for t in range(12)]
        records += [rec(t * 1000, ue=1) for t in range(12)]
        scaler = fit_scaler(records)
        inputs, _ = build_windows(records, scaler)
        assert inputs.shape[0] == 4  # two windows per UE, never mixed


def per_ue_build_windows(records, scaler):
    """Reference: the per-UE, per-window loop that ``build_windows``
    replaced. Groups by UE, sorts each stream by timestamp (stable, so
    duplicates keep input order) and tests each window's steps on its own."""
    by_ue = {}
    for r in records:
        by_ue.setdefault(r.ue_id, []).append(r)
    inputs, targets = [], []
    for ue_id in sorted(by_ue):
        stream = sorted(by_ue[ue_id], key=lambda r: r.timestamp)
        feats = scaler.normalize(records_to_matrix(stream))
        times = np.array([r.timestamp for r in stream], dtype=np.int64)
        for end in range(10, len(stream)):
            if np.any(np.diff(times[end - 10 : end + 1]) != 1000):
                continue
            inputs.append(feats[end - 10 : end])
            targets.append(feats[end])
    if not inputs:
        return np.empty((0, 10, 6)), np.empty((0, 6))
    return np.stack(inputs), np.stack(targets)


SCALER = FeatureScaler(mean=np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
                       std=np.array([0.5, 1.5, 2.0, 3.0, 0.25, 7.0]))


def assert_same_windows(records):
    expected = per_ue_build_windows(records, SCALER)
    got = build_windows(records, SCALER)
    for want, have in zip(expected, got):
        assert have.shape == want.shape and have.dtype == want.dtype
        assert np.array_equal(have, want)


# (ue, tick, off-tick) keys: few UEs and ticks, so streams interleave and
# repeat (ue, t); an off-tick record breaks its UE's run as a gap does
stream_keys = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 24), st.booleans()),
                       max_size=80)


class TestBuildWindowsMatchesPerUeLoop:
    @given(keys=stream_keys, seed=st.integers(0, 2**32 - 1))
    @example(keys=[(0, t, False) for t in range(11)] + [(0, 10, False)], seed=0)
    @settings(max_examples=200, deadline=None)
    def test_shuffled_gapped_streams_with_duplicates(self, keys, seed):
        rng = np.random.default_rng(seed)
        records = [rec(tick * 1000 + 500 * off, ue=ue, values=rng.exponential(5.0, 6))
                   for ue, tick, off in keys]
        assert_same_windows(records)

    @pytest.mark.parametrize("count", range(12))
    def test_short_streams(self, count):
        records = [rec(t * 1000, ue=3) for t in range(count)]
        assert_same_windows(records)
        assert len(build_windows(records, SCALER)[0]) == max(count - 10, 0)

    def test_duplicate_keeps_input_order(self):
        """Of two records at one (ue, t), the one given first is the target
        of the window before it, and no window spans the pair."""
        first, second = rec(10_000, values=(9.0,) * 6), rec(10_000, values=(7.0,) * 6)
        stream = [rec(t * 1000) for t in range(10)]
        for a, b in ((first, second), (second, first)):
            _, targets = build_windows(stream[5:] + [a] + stream[:5] + [b], SCALER)
            assert np.array_equal(targets, SCALER.normalize(records_to_matrix([a])))
