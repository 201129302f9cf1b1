import dataclasses
import math
import struct
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ricguard import harness
from ricguard.cli import main as cli_main
from ricguard.e2 import (
    FRAME_HEADER_SIZE,
    E2CodecError,
    E2Message,
    E2MessageKind,
    decode_frame,
    decode_kpm_payload,
    encode_frame,
    encode_kpm_payloads,
)
from ricguard.emulator import RanEmulator, ScenarioConfig
from ricguard.harness import (
    ATTESTATION_CSV_HEADER,
    ConfigError,
    ConstraintViolation,
    DetectionFailure,
    INSPECTOR_CSV_HEADER,
    TelemetryStore,
    USE_CASE_CSV_HEADER,
    RicPipeline,
    detector_preset,
    experiment_policy,
    inspector_preset,
    load_scenario_config,
    run_attestation_experiment,
    run_detector_experiment,
    run_inspector_experiment,
    run_use_case,
    train_detector_bundle,
    use_case_preset,
)
from ricguard.detector import StreamingDetector, load_bundle
from ricguard.inspector import Verdict
from ricguard.kpm import KpmRecord
from ricguard.mitigation import Magnitude, MitigationAction, MitigationPolicy
from ricguard.recurrent import TrainConfig
from ricguard.signatures import synthetic_rulebook
from ricguard.timing import DEFAULT_COST_MODEL, CostModel


BENCH_BUNDLE = Path(__file__).resolve().parent.parent / "bench" / "detector-h32.kpmd"


def record(ts=1000, ue=1):
    return KpmRecord(ts, ue, 1, 2, 3, 4, 5, 6)


def _indication_records(frames):
    """The KPM records of every indication among ``frames``."""
    for frame in frames:
        msg = decode_frame(frame)
        if msg.kind is E2MessageKind.INDICATION:
            yield from decode_kpm_payload(msg.payload)


class TestTelemetryStore:
    def test_append_and_read_by_tick(self):
        store = TelemetryStore()
        store.append(record(1000, 1))
        store.append(record(1000, 2))
        assert [r.ue_id for r in store.records_at(1000)] == [1, 2]
        store.append(record(2000, 1))
        assert len(store) == 3
        assert [r.ue_id for r in store.records_at(2000)] == [1]
        assert store.records_at(1000) == []  # the newer tick freed it
        assert store.records_at(3000) == []

    def test_duplicate_key_rejected(self):
        store = TelemetryStore()
        store.append(record())
        with pytest.raises(ValueError, match=r"^duplicate telemetry row \(1, 1000\)$"):
            store.append(record())
        assert len(store) == 1

    def test_rows_read_in_append_order_per_tick(self):
        store = TelemetryStore()
        ues = [7, 3, 11, 0, 5]
        for t in (1000, 2000):
            for ue in (ues if t == 1000 else ues[::-1]):
                store.append(record(t, ue))
            assert [r.ue_id for r in store.records_at(t)] == (ues if t == 1000 else ues[::-1])
        # the list is a copy: changing it leaves the store as it was
        store.records_at(2000).clear()
        assert len(store.records_at(2000)) == 5

    def test_holds_only_the_newest_tick(self):
        store = TelemetryStore()
        for t in range(4):
            for ue in range(t + 1):
                store.append(record(t * 1000, ue))
            assert [r.ue_id for r in store.records_at(t * 1000)] == list(range(t + 1))
            assert all(store.records_at(past * 1000) == [] for past in range(t))
        assert len(store) == 1 + 2 + 3 + 4  # every row stored, not only the held ones
        assert store.records_at(4000) == []
        with pytest.raises(ValueError, match=r"older than the held tick 3000"):
            store.append(record(2000, 9))
        assert len(store) == 10 and len(store.records_at(3000)) == 4
        assert not hasattr(store, "__contains__")


class TestScenarioConfigFile:
    def test_load_round_trip_fields(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(
            "# detector-style scenario\n"
            "node_count = 3\n"
            "cells_per_node = 3\n"
            "total_ues = 50\n"
            "poison_target_fraction = 0.3\n"
            "amplification_factor = 1.4\n"
            "loops = 60\n"
            "rng_seed = 9\n"
            "size_calibrated = false\n"
        )
        config = load_scenario_config(path)
        assert config == ScenarioConfig(
            node_count=3, cells_per_node=3, total_ues=50,
            poison_target_fraction=0.3, amplification_factor=1.4,
            loops=60, rng_seed=9,
        )

    #: per field: the text in the file and the value it must load as
    SETTINGS = {
        "node_count": ("3", 3),
        "cells_per_node": ("2", 2),
        "ues_per_cell": ("4", 4),
        "total_ues": ("50", 50),
        "malicious_node_fraction": ("0.5", 0.5),
        "malicious_message_fraction": ("0.25", 0.25),
        "amplification_factor": ("1.4", 1.4),
        "poison_target_fraction": ("0.3", 0.3),
        "loops": ("60", 60),
        "rng_seed": ("9", 9),
        "size_calibrated": ("true", True),
    }

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ScenarioConfig)])
    def test_every_field_set_from_file(self, tmp_path, name):
        text, expected = self.SETTINGS[name]
        path = tmp_path / "scenario.cfg"
        path.write_text(f"{name} = {text}\n")
        value = getattr(load_scenario_config(path), name)
        assert value == expected and type(value) is type(expected)
        assert getattr(ScenarioConfig(), name) != expected

    def test_total_ues_none_restores_default(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("total_ues = none\n")
        assert load_scenario_config(path).total_ues is None

    @pytest.mark.parametrize("line", ["loops = abc", "loops = 2.5", "rng_seed = ",
                                      "amplification_factor = x", "size_calibrated = maybe"])
    def test_malformed_value_is_config_error(self, tmp_path, line):
        path = tmp_path / "scenario.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError):
            load_scenario_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        # the poison time fraction is a constant, no longer a field
        for line in ("bogus_field = 3\n", "poison_time_fraction = 0.5\n"):
            path.write_text(line)
            with pytest.raises(ConfigError):
                load_scenario_config(path)

    def test_invalid_value_rejected(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("malicious_node_fraction = 0.5\nmalicious_message_fraction = 1.0\n")
        with pytest.raises(ConfigError):
            load_scenario_config(path)


class TestExperimentPolicy:
    def test_drop_only_data_level(self):
        policy = experiment_policy()
        assert MitigationAction.BLOCK_NODE not in policy.magnitude_actions[Magnitude.SIGNIFICANT]
        assert MitigationAction.DROP_DATA in policy.magnitude_actions[Magnitude.SIGNIFICANT]


class TestInspectorExperiment:
    def test_small_scale_exact_detection(self, rulebook):
        config = inspector_preset(seed=3, loops=20)
        result = run_inspector_experiment(config, rulebook, runs=2)
        assert result.detection_rate_pct == 100.0
        assert result.false_positives == 0
        assert result.injected_total > 0
        # all four kinds summarised
        assert set(result.aggregate_kind) == set(E2MessageKind)

    def test_csv_rows_schema(self, rulebook, tmp_path):
        config = inspector_preset(seed=3, loops=5)
        run_inspector_experiment(config, rulebook, runs=1, out_dir=tmp_path,
                                 cost_model=DEFAULT_COST_MODEL)
        lines = (tmp_path / "inspector.csv").read_text().splitlines()
        assert lines[0] == INSPECTOR_CSV_HEADER
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] in {k.name for k in E2MessageKind}

    def test_malicious_csv_row_carries_hit_ids(self, rulebook, tmp_path):
        config = inspector_preset(seed=3, loops=5)
        run_inspector_experiment(config, rulebook, runs=1, out_dir=tmp_path)
        rows = [line.split(",")
                for line in (tmp_path / "inspector.csv").read_text().splitlines()[1:]]
        emulator = RanEmulator(config, rulebook, run_seed=config.rng_seed + 1)
        emitted = [(t, em) for t in range(config.loops) for em in emulator.step(t)]
        assert len(rows) == len(emitted)
        assert any(em.injected is not None for _, em in emitted)
        for (run, loop, kind, node, verdict, _, hits), (t, em) in zip(rows, emitted):
            assert (run, int(loop), kind, int(node)) == ("0", t, em.kind.name, em.node_id)
            if em.injected is None:
                assert (verdict, hits) == ("benign", "")
            else:
                assert verdict == "malicious"
                assert str(em.injected.sig_id) in hits.split(";")

    def test_no_malicious_nodes_is_config_error(self, rulebook):
        config = ScenarioConfig(node_count=2, cells_per_node=1, ues_per_cell=2,
                                loops=5, rng_seed=1, size_calibrated=True)
        with pytest.raises(ConfigError):
            run_inspector_experiment(config, rulebook, runs=1)

    def test_comparison_count_only_in_deterministic_mode(self, quick_bundle, rulebook,
                                                         monkeypatch):
        """Wall-mode runs never count the textbook search's comparisons; a
        deterministic run does, to charge the cost model."""
        class Counted(Exception):
            pass

        def count(payload, signatures):
            raise Counted

        monkeypatch.setattr(harness, "canonical_comparisons", count)
        config = inspector_preset(seed=3, loops=3)
        run_inspector_experiment(config, rulebook, runs=1)
        emulator = RanEmulator(config, rulebook, run_seed=config.rng_seed + 1)
        guarded = RicPipeline(rulebook=rulebook, bundle=quick_bundle)
        report = guarded.process_tick(0, [em.frame for em in emulator.step(0)])
        assert report.counts["diverted"] > 0
        with pytest.raises(Counted):
            run_inspector_experiment(config, rulebook, runs=1, cost_model=DEFAULT_COST_MODEL)

    def test_deterministic_csv_bytes(self, rulebook, tmp_path):
        config = inspector_preset(seed=3, loops=10)
        first = run_inspector_experiment(config, rulebook, runs=2,
                                         cost_model=DEFAULT_COST_MODEL)
        second = run_inspector_experiment(config, rulebook, runs=2,
                                          cost_model=DEFAULT_COST_MODEL)
        assert first.csv_rows == second.csv_rows


class TestDetectorExperiment:
    def test_metrics_and_csv(self, quick_bundle, tmp_path):
        config = detector_preset(seed=1, loops=50)
        result = run_detector_experiment(config, af_grid=(1.5,), runs=2,
                                         bundle=quick_bundle, out_dir=tmp_path)
        metrics = result.per_af[1.5]
        assert metrics.scored_poisoned > 0
        assert metrics.adr_pct is not None
        lines = (tmp_path / "detector.csv").read_text().splitlines()
        assert lines[0] == "af,adr_pct,fpr_pct,latency_ms"
        assert lines[1].startswith("1.5,")

    def test_ground_truth_csv(self, quick_bundle, tmp_path):
        """One row per label of the first run, in emission order: tick 0's
        first UE is benign, a poisoned row carries the AF of its file."""
        config = detector_preset(seed=1, loops=30)
        run_detector_experiment(config, af_grid=(1.5,), runs=1, bundle=quick_bundle,
                                out_dir=tmp_path)
        lines = (tmp_path / "ground_truth_af1.5.csv").read_text().splitlines()
        emulator = RanEmulator(config, run_seed=config.rng_seed + 100)
        labels = [lab for t in range(config.loops) for lab in emulator.generate_tick(t)[1]]
        assert lines[:2] == ["ue_id,timestamp_ms,poisoned,af", "0,0,0,1.0"]
        assert lines[1:] == [f"{lab.ue_id},{lab.timestamp},1,1.5" if lab.poisoned
                             else f"{lab.ue_id},{lab.timestamp},0,1.0" for lab in labels]
        assert any(line.endswith(",1,1.5") for line in lines)

    def test_malicious_nodes_change_nothing(self, quick_bundle, tmp_path):
        """The detector reads ticks, which never inject: a scenario with
        malicious nodes runs without a rulebook and gives the metrics and
        ground truth of the same scenario without them."""
        benign = detector_preset(seed=1, loops=30)
        malicious = dataclasses.replace(benign, malicious_node_fraction=0.34,
                                        malicious_message_fraction=0.5)
        results = []
        for name, config in (("benign", benign), ("malicious", malicious)):
            (tmp_path / name).mkdir()
            results.append(run_detector_experiment(
                config, af_grid=(1.5,), runs=2, bundle=quick_bundle,
                cost_model=DEFAULT_COST_MODEL, out_dir=tmp_path / name))
        assert results[0].per_af == results[1].per_af
        assert results[0].per_af[1.5].scored_poisoned > 0
        for csv in ("ground_truth_af1.5.csv", "detector.csv"):
            assert ((tmp_path / "benign" / csv).read_bytes()
                    == (tmp_path / "malicious" / csv).read_bytes())

    def test_no_poisoning_is_config_error(self, quick_bundle):
        from dataclasses import replace

        config = replace(detector_preset(seed=1, loops=50), poison_target_fraction=0.0)
        with pytest.raises(ConfigError):
            run_detector_experiment(config, af_grid=(1.5,), runs=1, bundle=quick_bundle)

    def test_too_few_validation_windows_is_config_error(self, monkeypatch):
        """20 UEs give 400 validation windows: the run stops before training,
        naming the count it got and the count calibration needs."""
        import ricguard.harness as harness

        monkeypatch.setattr(harness, "train_model", lambda *args: pytest.fail("trained"))
        config = ScenarioConfig(node_count=3, cells_per_node=3, total_ues=20,
                                poison_target_fraction=0.3)
        with pytest.raises(ConfigError, match=r"needs 500 .* gives 400"):
            train_detector_bundle(config, TrainConfig(hidden_size=4, epochs=1))

    def test_deterministic_rows(self, quick_bundle):
        config = detector_preset(seed=1, loops=50)
        first = run_detector_experiment(config, af_grid=(1.2, 1.5), runs=2,
                                        bundle=quick_bundle,
                                        cost_model=DEFAULT_COST_MODEL)
        second = run_detector_experiment(config, af_grid=(1.2, 1.5), runs=2,
                                         bundle=quick_bundle,
                                         cost_model=DEFAULT_COST_MODEL)
        assert first.csv_rows == second.csv_rows


def test_cost_table_is_fixed():
    """The cost model takes no arguments and its one table cannot change."""
    with pytest.raises(TypeError):
        CostModel(ns_per_scored_record=1.0)
    with pytest.raises(AttributeError):
        DEFAULT_COST_MODEL.ns_per_scored_record = 1.0
    assert DEFAULT_COST_MODEL.scoring_ns(3) == 420_000


class TestAttestationExperiment:
    def test_small_scale(self, tmp_path):
        result = run_attestation_experiment(
            sizes_mb=(0.5, 1.0), rounds=4, runs=2, injection_trials=10,
            seed=3, workdir=tmp_path, out_dir=tmp_path,
            cost_model=DEFAULT_COST_MODEL,
        )
        assert result.injections_detected == 10
        assert result.clean_violations == 0
        assert result.xapps_blocked == 10
        for size in (0.5, 1.0):
            assert result.round1_mean(size) > result.steady_mean(size)
        lines = (tmp_path / "attestation.csv").read_text().splitlines()
        assert lines[0] == ATTESTATION_CSV_HEADER

    def test_deterministic_csv(self, tmp_path):
        kwargs = dict(sizes_mb=(0.5,), rounds=3, runs=2, injection_trials=4,
                      seed=3, cost_model=DEFAULT_COST_MODEL)
        first = run_attestation_experiment(workdir=tmp_path / "a", **kwargs)
        second = run_attestation_experiment(workdir=tmp_path / "b", **kwargs)
        assert first.csv_rows == second.csv_rows


@pytest.mark.parametrize("runs", [0, -1])
@pytest.mark.parametrize("runner", ["inspector", "detector", "attestation", "use-case"])
def test_fewer_than_one_run_is_config_error(runner, runs, quick_bundle, rulebook, tmp_path):
    experiments = {
        "inspector": lambda: run_inspector_experiment(inspector_preset(seed=1), rulebook,
                                                      runs=runs),
        "detector": lambda: run_detector_experiment(detector_preset(seed=1), quick_bundle,
                                                    runs=runs),
        "attestation": lambda: run_attestation_experiment(runs=runs, workdir=tmp_path),
        "use-case": lambda: run_use_case(use_case_preset(seed=1), quick_bundle, rulebook,
                                         runs=runs),
    }
    with pytest.raises(ConfigError, match="runs must be at least 1"):
        experiments[runner]()
    assert not any(tmp_path.iterdir())


def test_size_calibrated_use_case_is_config_error(quick_bundle, rulebook, tmp_path):
    config = dataclasses.replace(use_case_preset(seed=1, total_ues=20, loops=5),
                                 size_calibrated=True)
    with pytest.raises(ConfigError, match="size-calibrated"):
        run_use_case(config, quick_bundle, rulebook, runs=1, out_dir=tmp_path)
    assert not any(tmp_path.iterdir())


class TestUseCase:
    def test_pipeline_purity(self, quick_bundle, rulebook, monkeypatch):
        """Per tick, the baseline stores every emitted record and the guarded
        arm the same records less exactly the ones the detector flagged."""
        flagged_per_tick = []
        score_tick = StreamingDetector.score_tick

        def recording_score_tick(detector, records):
            scored, scores, keep = score_tick(detector, records)
            flagged_per_tick.append({(r.ue_id, r.timestamp)
                                     for r, is_scored, score in zip(records, scored, scores)
                                     if is_scored and not score <= detector.bundle.threshold})
            return scored, scores, keep

        monkeypatch.setattr(StreamingDetector, "score_tick", recording_score_tick)
        config = use_case_preset(seed=2, total_ues=20, loops=40)
        emulator = RanEmulator(config, rulebook, run_seed=config.rng_seed + 1)
        safeguarded = RicPipeline(rulebook=rulebook, bundle=quick_bundle)
        baseline = RicPipeline()
        totals = {safeguarded: Counter(), baseline: Counter()}
        for t in range(config.loops):
            frames = [em.frame for em in emulator.step(t)]
            for pipeline, total in totals.items():
                total.update(pipeline.process_tick(t, frames).counts)
            emitted = {(r.ue_id, r.timestamp) for r in baseline.store.records_at(t * 1000)}
            kept = {(r.ue_id, r.timestamp) for r in safeguarded.store.records_at(t * 1000)}
            assert len(emitted) == 20
            assert kept == emitted - flagged_per_tick[t]
        flagged = sum(len(keys) for keys in flagged_per_tick)
        assert totals[safeguarded]["flagged"] == flagged, "scenario must contain detected attacks"
        assert flagged
        assert len(baseline.store) == totals[baseline]["stored"] == 20 * 40
        assert len(safeguarded.store) == totals[safeguarded]["stored"] == 20 * 40 - flagged
        for total in totals.values():
            assert total["off_tick"] == total["replays"] == total["codec_errors"] == 0

    def test_consumer_decisions_causal(self, quick_bundle, rulebook):
        config = use_case_preset(seed=2, total_ues=20, loops=30)
        result = run_use_case(config, quick_bundle, rulebook, runs=1,
                              cost_model=DEFAULT_COST_MODEL)
        for guarded, baseline in result.reports:
            # each decision reads exactly the records its own tick verified
            assert guarded.decision.records_seen == guarded.counts["stored"]
            assert baseline.decision.records_seen == baseline.counts["stored"]

    def test_csv_schema_and_determinism(self, quick_bundle, rulebook, tmp_path):
        config = use_case_preset(seed=2, total_ues=20, loops=20)
        first = run_use_case(config, quick_bundle, rulebook, runs=1,
                             cost_model=DEFAULT_COST_MODEL, out_dir=tmp_path)
        lines = (tmp_path / "use_case_20ues.csv").read_text().splitlines()
        assert lines[0] == USE_CASE_CSV_HEADER
        second = run_use_case(config, quick_bundle, rulebook, runs=1,
                              cost_model=DEFAULT_COST_MODEL)
        assert first.csv_rows == second.csv_rows

    def test_deterministic_consumer_busy_is_cost_model_pass(self, quick_bundle, rulebook):
        config = use_case_preset(seed=2, total_ues=20, loops=10)
        result = run_use_case(config, quick_bundle, rulebook, runs=1,
                              cost_model=DEFAULT_COST_MODEL)
        busy_ms = DEFAULT_COST_MODEL.consumer_pass_ns / 1e6
        assert len(result.reports) == config.loops
        for report in (report for pair in result.reports for report in pair):
            assert report.decision.busy_ms == busy_ms
            assert report.loop_wall_ms == report.decision.availability_ms + busy_ms

    def test_aggregate_runtime_unchanged_by_safeguards(self, quick_bundle, rulebook):
        # idle time absorbs the shifts: consumer busy totals match across arms
        config = use_case_preset(seed=2, total_ues=20, loops=30)
        result = run_use_case(config, quick_bundle, rulebook, runs=1,
                              cost_model=DEFAULT_COST_MODEL)
        safeguarded_total = sum(g.decision.busy_ms for g, _ in result.reports)
        baseline_total = sum(b.decision.busy_ms for _, b in result.reports)
        assert safeguarded_total == pytest.approx(baseline_total, rel=0.05)

    def test_shift_composition_deterministic(self, quick_bundle, rulebook, monkeypatch):
        """Per tick, the detector charge is the cost of its scored records, and
        the shift is inspector plus detector time less the store work of the
        records the baseline stored and the guarded arm dropped. The shift is
        compared in whole nanoseconds, the cost model's unit: the millisecond
        floats of its terms round differently from their difference."""
        scored_per_tick = []
        score_tick = StreamingDetector.score_tick

        def counting_score_tick(detector, records):
            arrays = score_tick(detector, records)
            scored_per_tick.append(int(arrays[0].sum()))
            return arrays

        monkeypatch.setattr(StreamingDetector, "score_tick", counting_score_tick)
        cost = DEFAULT_COST_MODEL
        config = use_case_preset(seed=2, total_ues=20, loops=40)
        result = run_use_case(config, quick_bundle, rulebook, runs=1, cost_model=cost)
        assert len(scored_per_tick) == len(result.reports) == config.loops
        dropped = [b.counts["stored"] - g.counts["stored"] for g, b in result.reports]
        assert 0 in scored_per_tick and any(dropped), "warm-up and flagged ticks"

        def ns(ms):
            return round(ms * 1e6)

        for (guarded, _), scored, lost, shift in zip(result.reports, scored_per_tick,
                                                      dropped, result.shift_ms):
            assert guarded.detector_ms == scored * cost.ns_per_scored_record / 1e6
            assert ns(shift) == (ns(guarded.inspector_ms) + ns(guarded.detector_ms)
                                 - cost.store_ns(lost))

    def test_ues_per_cell_scenario_labelled_by_its_ue_count(self, quick_bundle, rulebook,
                                                            tmp_path):
        config = ScenarioConfig(node_count=2, cells_per_node=2, ues_per_cell=3, loops=12)
        assert config.total_ues is None
        result = run_use_case(config, quick_bundle, rulebook, runs=1,
                              cost_model=DEFAULT_COST_MODEL, out_dir=tmp_path)
        assert result.total_ues == 12
        lines = (tmp_path / "use_case_12ues.csv").read_text().splitlines()
        assert lines[0] == USE_CASE_CSV_HEADER
        assert len(lines) == 1 + config.loops

    def test_wall_detector_time_counts_every_tick(self, quick_bundle, rulebook):
        # warm-up ticks score nothing, but the detector still runs on them
        config = use_case_preset(seed=2, total_ues=20, loops=12)
        result = run_use_case(config, quick_bundle, rulebook, runs=1)
        assert all(ms > 0 for ms in result.detector_ms)


class TestConsumerLoop:
    def test_empty_tick_yields_zero_record_decision(self):
        from ricguard.harness import consumer_xapp_loop

        store = TelemetryStore()
        decision = consumer_xapp_loop(store, 7, availability_ms=2.0)
        assert decision.records_seen == 0


class TestGuardedPass:
    @staticmethod
    def _pipelines(bundle, rulebook):
        """A guarded and a baseline pipeline."""
        return RicPipeline(rulebook=rulebook, bundle=bundle), RicPipeline()

    def test_forged_frames_fail_closed(self, quick_bundle, rulebook):
        """Forged frames from node 7: a UE the emulator never created warms
        up and then spikes, next to a truncated frame and a truncated KPM
        payload. None of them ends the run."""
        guarded, _ = self._pipelines(quick_bundle, rulebook)
        guarded.policy = MitigationPolicy.default()  # a significant spike blocks its node
        scaler = quick_bundle.scaler

        def frame(t, values, node=7, ue=999_999):
            (payload,) = encode_kpm_payloads(t * 1000, np.array([ue]), np.array([values]), [1])
            return encode_frame(E2Message(E2MessageKind.INDICATION, node, payload))

        for t in range(10):
            assert guarded.process_tick(t, [frame(t, scaler.mean)]).counts["stored"] == 1
        spike = frame(10, scaler.mean + 1000 * scaler.std)
        cut_kpm = encode_frame(E2Message(E2MessageKind.INDICATION, 7,
                                         spike[FRAME_HEADER_SIZE:-5]))
        report = guarded.process_tick(10, [spike, spike[:-5], cut_kpm])

        assert report.counts == Counter(codec_errors=2, scored=1, flagged=1, incidents=1)
        assert report.verdicts == [Verdict.BENIGN, None, Verdict.BENIGN]
        assert guarded.store.records_at(10_000) == []
        (incident,) = guarded.mitigation.log.reports
        assert (incident.detector, incident.subject) == ("kpm", "ue:999999")
        assert incident.timestamp_ms == 10_000  # the tick's time
        # the block lands on the node that sent the spike
        assert 7 in guarded.mitigation.blocklist.blocked_nodes
        assert guarded.mitigation.blocklist.blocked_nodes.isdisjoint(range(3))
        assert len(guarded.store) == 10

    def test_stand_in_indications_are_codec_errors(self, rulebook):
        """Size-calibrated indications carry seeded bytes, not a KPM report:
        the baseline counts each one as a codec error and stores nothing."""
        config = inspector_preset(seed=3, loops=4)
        emulator = RanEmulator(config, rulebook, run_seed=config.rng_seed + 1)
        baseline, indications, total = RicPipeline(), 0, Counter()
        for t in range(config.loops):
            emitted = emulator.step(t)
            indications += sum(em.kind is E2MessageKind.INDICATION for em in emitted)
            total.update(baseline.process_tick(t, [em.frame for em in emitted]).counts)
        assert indications == 4 * 12
        assert total == Counter(codec_errors=indications)
        assert len(baseline.store) == 0

    @pytest.mark.parametrize("codes, rows, blocked", [("DR", 2, set()), ("DBR", 1, {2})])
    def test_each_inspector_hit_is_its_own_incident(self, codes, rows, blocked):
        """Node 2 sends two frames carrying signature 3 in one tick. Each is
        a detection with its own incident row; when the policy also blocks
        the node, the first hit blocks it and the second frame goes
        unscanned, so it logs no row. Each frame is counted as diverted or
        blocked."""
        rulebook = synthetic_rulebook(10, seed=1, action_codes=codes)
        payload = b"\x00" * 8 + rulebook.signatures[3].pattern
        frame = encode_frame(E2Message(E2MessageKind.INDICATION, 2, payload))
        guarded = RicPipeline(rulebook=rulebook)
        report = guarded.process_tick(0, [frame, frame])
        log = guarded.mitigation.log.reports
        assert [(r.subject, r.evidence) for r in log] == [("node:2", "sig:3")] * rows
        assert guarded.mitigation.blocklist.blocked_nodes == blocked
        assert report.counts == Counter(diverted=rows, blocked=2 - rows, incidents=rows)
        second = Verdict.BLOCKED if blocked else Verdict.MALICIOUS
        assert report.verdicts == [Verdict.MALICIOUS, second]
        assert len(guarded.store) == 0

    @staticmethod
    def _raw_kpm_frame(t, values, node=7, ue=999_999):
        """An indication encoded field by field, so any float can be sent."""
        payload = struct.pack(">H", 1) + struct.pack(">IQ6d", ue, t * 1000, *values)
        return encode_frame(E2Message(E2MessageKind.INDICATION, node, payload))

    def test_negative_and_non_finite_features_are_dropped(self, quick_bundle, rulebook):
        forged = [self._raw_kpm_frame(0, (1, 2, bad, 4, 5, 6), ue=ue)
                  for ue, bad in enumerate((-1.0, math.nan, math.inf, -math.inf))]
        good = self._raw_kpm_frame(0, (1, 2, 3, 4, 5, 6), ue=10)
        for pipeline in self._pipelines(quick_bundle, rulebook):
            report = pipeline.process_tick(0, [*forged, good])
            assert (report.counts["codec_errors"], report.counts["stored"]) == (4, 1)
            (row,) = pipeline.store.records_at(0)
            assert row.ue_id == 10 and np.isfinite(row[2:]).all()

    def test_replayed_records_are_dropped(self, quick_bundle, rulebook):
        """The same report twice in one tick, a past tick's report sent again,
        and a flagged spike sent again in its tick and the next: a UE's second
        report in a tick is a replay, a report stamped for another tick is
        off-tick, and neither reaches the store."""
        guarded, baseline = self._pipelines(quick_bundle, rulebook)
        scaler = quick_bundle.scaler
        first = self._raw_kpm_frame(0, scaler.mean)
        for pipeline in (guarded, baseline):
            counts = pipeline.process_tick(0, [first, first]).counts
            assert (counts["replays"], counts["off_tick"], counts["stored"]) == (1, 0, 1)
            counts = pipeline.process_tick(1, [first, self._raw_kpm_frame(1, scaler.mean)]).counts
            assert (counts["replays"], counts["off_tick"], counts["stored"]) == (0, 1, 1)
            assert len(pipeline.store) == 2
            (row,) = pipeline.store.records_at(1000)
            assert row.timestamp == 1000

        for t in range(2, 10):
            guarded.process_tick(t, [self._raw_kpm_frame(t, scaler.mean)])
        spike = self._raw_kpm_frame(10, scaler.mean + 1000 * scaler.std)
        counts = guarded.process_tick(10, [spike, spike]).counts
        assert (counts["flagged"], counts["replays"], counts["off_tick"]) == (1, 1, 0)
        counts = guarded.process_tick(11, [spike]).counts
        assert (counts["flagged"], counts["replays"], counts["off_tick"]) == (0, 0, 1)
        assert guarded.store.records_at(10_000) == guarded.store.records_at(11_000) == []
        assert len(guarded.store) == 10

    def test_next_tick_record_cannot_pre_empt_a_ue(self):
        """A node that never set up sends, one tick early, UE 5's record
        stamped for the next tick. It is dropped as off-tick, and the genuine
        record of the next tick is scored and stored."""
        config = use_case_preset(seed=1, total_ues=50)
        rulebook = synthetic_rulebook(100)
        emulator = RanEmulator(config, rulebook, run_seed=config.rng_seed + 1)
        guarded = RicPipeline(rulebook=rulebook, bundle=load_bundle(BENCH_BUNDLE))
        total = Counter()
        for t in range(16):
            frames = [em.frame for em in emulator.step(t)]
            if t == 14:
                (genuine,) = (r for r in _indication_records(frames) if r.ue_id == 5)
                (forged,) = encode_kpm_payloads(15_000, np.array([5]), np.array([genuine[2:]]),
                                                [1])
                frames.append(encode_frame(E2Message(E2MessageKind.INDICATION, 99, forged)))
            total.update(guarded.process_tick(t, frames).counts)
        (genuine,) = (r for r in _indication_records(frames) if r.ue_id == 5)
        (stored,) = (r for r in guarded.store.records_at(15_000) if r.ue_id == 5)
        assert stored == genuine
        assert (total["off_tick"], total["replays"]) == (1, 0)


#: (ue_id, ms from the tick's timestamp, features, bad feature): UEs 0-5 are
#: warmed up, 6 and 7 are new; timestamps reach two ticks back and ahead, or
#: miss by milliseconds; one feature may be replaced by a negative or
#: non-finite value.
_RECORD = st.tuples(st.integers(0, 7),
                    st.one_of(st.just(0), st.integers(-2, 2).map(lambda k: k * 1000),
                              st.integers(-999, 999)),
                    st.lists(st.floats(0.0, sys.float_info.max), min_size=6, max_size=6),
                    st.one_of(st.none(), st.tuples(st.integers(0, 5), st.sampled_from(
                        [-1.0, math.nan, math.inf, -math.inf]))))
#: Change a frame: replace one byte, or cut it at a position.
_MUTATION = st.one_of(st.none(),
                      st.tuples(st.just("byte"), st.integers(0, 1 << 16), st.integers(0, 255)),
                      st.tuples(st.just("cut"), st.integers(0, 1 << 16)))
#: An indication from any node id, possibly mutated, or random bytes.
_FRAME = st.one_of(st.tuples(st.integers(0, 0xFFFFFFFF), st.lists(_RECORD, min_size=1,
                                                                    max_size=5), _MUTATION),
                   st.binary(max_size=64))


def _hostile_frame(spec, t):
    if isinstance(spec, bytes):
        return spec
    node, records, mutation = spec
    body = []
    for ue, offset_ms, values, bad in records:
        if bad is not None:
            values = [bad[1] if i == bad[0] else v for i, v in enumerate(values)]
        body.append(struct.pack(">IQ6d", ue, t * 1000 + offset_ms, *values))
    payload = struct.pack(">H", len(records)) + b"".join(body)
    frame = encode_frame(E2Message(E2MessageKind.INDICATION, node, payload))
    if mutation is None:
        return frame
    at = mutation[1] % len(frame)
    if mutation[0] == "cut":
        return frame[:at]
    return frame[:at] + bytes([mutation[2]]) + frame[at + 1:]


def _frame_contents(frame):
    """None for a frame that fails to decode; else whether it is an
    indication, and the record count of its KPM payload (None where the
    frame is no indication or its payload fails to decode)."""
    try:
        msg = decode_frame(frame)
    except E2CodecError:
        return None
    if msg.kind is not E2MessageKind.INDICATION:
        return False, None
    try:
        return True, len(decode_kpm_payload(msg.payload))
    except E2CodecError:
        return True, None


#: the nine reasons a tick report counts, as ``TickReport`` documents them
TICK_REASONS = {"codec_errors", "diverted", "blocked", "off_tick", "replays", "scored",
                "flagged", "stored", "incidents"}


class TestHostileTicks:
    WARM_TICKS = 10

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(ticks=st.lists(st.lists(_FRAME, max_size=6), min_size=1, max_size=4))
    def test_store_holds_one_finite_row_per_ue_of_the_tick(self, quick_bundle, rulebook,
                                                             ticks):
        """After UEs 0-5 warm up, hostile ticks never escape ``process_tick``;
        each tick leaves only finite rows of its own, one per UE. In both
        arms each tick's report accounts for every frame as undecodable,
        diverted, blocked or forwarded; for every record of a forwarded
        indication as off-tick, a replay, flagged or stored; and for every
        incident row the tick logged. It counts no reason but the nine
        documented ones."""
        guarded = RicPipeline(rulebook=rulebook, bundle=quick_bundle)
        baseline = RicPipeline()
        stored = Counter()
        mean = tuple(quick_bundle.scaler.mean)
        warm = [[(0, [(ue, 0, mean, None) for ue in range(6)], None)]] * self.WARM_TICKS
        for t, specs in enumerate(warm + ticks):
            frames = [_hostile_frame(spec, t) for spec in specs]
            contents = [_frame_contents(frame) for frame in frames]
            undecodable = [content is None for content in contents]
            for pipeline in (guarded, baseline):
                held, logged = len(pipeline.store), len(pipeline.mitigation.log)
                report = pipeline.process_tick(t, frames)
                counts, verdicts = report.counts, report.verdicts
                assert set(counts) <= TICK_REASONS
                rows = pipeline.store.records_at(t * 1000)
                # every row the tick stored is stamped with the tick's time
                assert len(pipeline.store) - held == counts["stored"] == len(rows)
                assert len({row.ue_id for row in rows}) == len(rows)
                assert all(math.isfinite(value) for row in rows for value in row[2:])
                # a tick that stores a row frees the one before it
                assert not rows or pipeline.store.records_at((t - 1) * 1000) == []
                stored[pipeline] += counts["stored"]

                # each frame is undecodable, diverted, blocked or forwarded
                assert [v is None for v in verdicts] == (
                    undecodable if pipeline is guarded else [True] * len(frames))
                assert verdicts.count(Verdict.MALICIOUS) == counts["diverted"]
                assert verdicts.count(Verdict.BLOCKED) == counts["blocked"]
                forwarded = [content for content, verdict in zip(contents, verdicts)
                             if content is not None and verdict in (None, Verdict.BENIGN)]
                assert (sum(undecodable) + counts["diverted"] + counts["blocked"]
                        + len(forwarded) == len(frames))
                # each record of a forwarded indication is off-tick, a
                # replay, flagged or stored; its payload may fail to decode
                payloads = [records for indication, records in forwarded if indication]
                assert counts["codec_errors"] == sum(undecodable) + payloads.count(None)
                assert (sum(records for records in payloads if records is not None)
                        == counts["off_tick"] + counts["replays"] + counts["flagged"]
                        + counts["stored"])
                assert counts["flagged"] <= counts["scored"] <= counts["flagged"] + counts["stored"]
                assert counts["incidents"] == len(pipeline.mitigation.log) - logged
        for pipeline in (guarded, baseline):
            assert stored[pipeline] == len(pipeline.store)

    def test_features_at_the_float_limit_reach_the_consumer(self, quick_bundle, rulebook):
        """Finite features at the float limit pass warm-up unscored in the
        guarded arm and are stored by the baseline; both consumer passes read
        them without overflow."""
        spec = (0, [(ue, 0, [sys.float_info.max] * 6, None) for ue in range(2)], None)
        frames = [_hostile_frame(spec, 0)]
        for pipeline in (RicPipeline(rulebook=rulebook, bundle=quick_bundle), RicPipeline()):
            report = pipeline.process_tick(0, frames)
            assert report.counts["stored"] == report.decision.records_seen == 2


class TestCli:
    def test_exit_code_zero_on_success(self, tmp_path, capsys):
        code = cli_main([
            "inspect-bench", "--runs", "1", "--seed", "3", "--out", str(tmp_path),
            "--deterministic-timing",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "detection rate: 100.00%" in out

    def test_exit_code_three_on_bad_config(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("unknown_key = 1\n")
        code = cli_main([
            "inspect-bench", "--config", str(bad), "--out", str(tmp_path),
        ])
        assert code == 3

    def test_malformed_config_value_exits_three(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("loops = abc\n")
        assert cli_main(["inspect-bench", "--config", str(bad), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("flag", ["--config", "--rulebook"])
    def test_directory_in_place_of_a_file_exits_three(self, tmp_path, flag):
        assert cli_main(["inspect-bench", flag, str(tmp_path), "--out", str(tmp_path)]) == 3

    def test_config_that_is_not_text_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"loops = 5\n\xff\n")
        assert cli_main(["inspect-bench", "--config", str(bad), "--out", str(tmp_path)]) == 3
        assert "not a text file" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", [
        "rng_seed = -1\n",
        # two cells of 18,000 UEs: a 1,080,002-byte indication, over the cap
        "node_count = 2\ncells_per_node = 1\nues_per_cell = 18000\nloops = 2\n",
        # two cells cannot hold 36,000 UEs: some cell holds at least 18,000
        "node_count = 2\ncells_per_node = 1\ntotal_ues = 36000\nloops = 2\n",
        # an even spread of 34,900 UEs fits, but the seeded placement puts
        # 17,597 of them in one cell
        "node_count = 2\ncells_per_node = 1\ntotal_ues = 34900\nloops = 2\n",
        # a full cell leaves 14 bytes, too few for a malicious node's 8-32 B pattern
        "node_count = 2\ncells_per_node = 1\nues_per_cell = 17476\nloops = 2\nrng_seed = 4\n",
    ], ids=["negative-seed", "indication-over-cap", "placed-cell-over-cap",
            "seeded-placement-over-cap", "no-room-to-inject"])
    def test_scenario_the_emulator_cannot_run_exits_three(self, tmp_path, lines):
        config = tmp_path / "scenario.cfg"
        config.write_text("malicious_node_fraction = 0.5\nmalicious_message_fraction = 0.5\n"
                          + lines)
        assert cli_main(["inspect-bench", "--config", str(config), "--runs", "1",
                         "--out", str(tmp_path)]) == 3

    def test_preset_value_error_exits_three(self, tmp_path, monkeypatch):
        import ricguard.cli as cli

        def preset(**kwargs):
            raise ValueError("ues_per_cell overflows")

        monkeypatch.setattr(cli, "inspector_preset", preset)
        assert cli_main(["inspect-bench", "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("text", ["garbage line\n", "# comments only\n"],
                             ids=["malformed", "empty"])
    def test_bad_rulebook_exits_three(self, tmp_path, text):
        rules = tmp_path / "rules.txt"
        rules.write_text(text)
        assert cli_main(["inspect-bench", "--rulebook", str(rules), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("argv", [
        ["use-case", "--ues-total", "5x"],
        ["detect-bench", "--af", "1.2,x"],
        ["detect-bench", "--af", "0.5"],
        ["inspect-bench", "--runs", "0"],
        ["inspect-bench", "--no-such-flag"],
    ], ids=["ues-total", "af", "af-below-one", "runs-zero", "unknown-flag"])
    def test_bad_argument_exits_three(self, tmp_path, argv):
        assert cli_main([*argv, "--out", str(tmp_path)]) == 3

    def test_attest_bench_leaves_only_csvs(self, tmp_path):
        assert cli_main(["attest-bench", "--runs", "1", "--deterministic-timing",
                         "--out", str(tmp_path)]) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == ["attestation.csv"]

    def test_out_path_that_is_a_file_exits_three(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli_main(["attest-bench", "--runs", "1", "--out", str(taken)]) == 3
        assert cli_main(["attest-bench", "--runs", "1", "--out", str(taken / "sub")]) == 3

    @pytest.mark.parametrize("argv", [
        ["use-case", "--matcher", "automaton"],
        ["use-case", "--af", "1.5"],
        ["detect-bench", "--rulebook", "rules.txt"],
        ["attest-bench", "--config", "scenario.cfg"],
        ["inspect-bench", "--ues-total", "20"],
    ], ids=["use-case-matcher", "use-case-af", "detect-rulebook", "attest-config",
            "inspect-ues-total"])
    def test_flag_the_subcommand_ignores_exits_three(self, tmp_path, argv):
        assert cli_main([*argv, "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("argv", [
        ["use-case", "--ues-total", "30"],
        ["inspect-bench", "--ues-per-cell", "3"],
        ["run-all", "--ues-total", "30"],
    ], ids=["use-case-ues-total", "inspect-ues-per-cell", "run-all-ues-total"])
    def test_preset_flag_with_config_exits_three(self, tmp_path, monkeypatch, argv):
        import ricguard.cli as cli

        monkeypatch.setattr(cli, "train_detector_bundle", lambda config: pytest.fail("trained"))
        # inspect-bench runs this scenario as it is, so exit 3 comes from the flag
        config = tmp_path / "scenario.cfg"
        config.write_text("malicious_node_fraction = 0.5\nmalicious_message_fraction = 0.5\n"
                          "size_calibrated = true\nloops = 5\ntotal_ues = 30\n")
        assert cli_main([*argv, "--config", str(config), "--runs", "1",
                         "--out", str(tmp_path)]) == 3

    def test_poison_free_detect_bench_exits_three_before_training(self, tmp_path,
                                                                   monkeypatch):
        import ricguard.cli as cli

        monkeypatch.setattr(cli, "train_detector_bundle", lambda config: pytest.fail("trained"))
        config = tmp_path / "scenario.cfg"
        config.write_text("total_ues = 50\nloops = 5\npoison_target_fraction = 0.0\n")
        assert cli_main(["detect-bench", "--config", str(config), "--runs", "1",
                         "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("command", ["use-case", "run-all"])
    def test_refused_ue_load_exits_three_before_anything_runs(self, tmp_path, monkeypatch,
                                                              command):
        """3,000,000 UEs overflow a frame per cell; the config refuses them
        before the detector trains or run-all's first experiment writes."""
        import ricguard.cli as cli

        monkeypatch.setattr(cli, "train_detector_bundle", lambda config: pytest.fail("trained"))
        out = tmp_path / "out"
        assert cli_main([command, "--ues-total", "50,3000000", "--runs", "1",
                         "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", ["use-case", "run-all"])
    def test_size_calibrated_use_case_exits_three_before_anything_runs(
            self, tmp_path, monkeypatch, command):
        """A size-calibrated scenario's indications carry no KPM records, so
        its use case would score and store nothing; the command refuses it
        before the detector trains or run-all's first experiment writes."""
        import ricguard.cli as cli

        monkeypatch.setattr(cli, "train_detector_bundle", lambda config: pytest.fail("trained"))
        config = tmp_path / "scenario.cfg"
        config.write_text("size_calibrated = true\ntotal_ues = 30\nloops = 20\n"
                          "malicious_node_fraction = 0.5\nmalicious_message_fraction = 0.5\n"
                          "poison_target_fraction = 0.3\n")
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(config), "--runs", "1",
                         "--out", str(out)]) == 3
        assert not out.exists()

    def test_rulebook_with_xapp_action_exits_three_before_training(self, tmp_path,
                                                                  monkeypatch):
        """A signature bound to K (block xApp), which an inspector event
        cannot carry, is refused as the rulebook loads: the run neither
        trains nor stops at the first injected frame."""
        import ricguard.cli as cli

        monkeypatch.setattr(cli, "train_detector_bundle", lambda config: pytest.fail("trained"))
        config = tmp_path / "scenario.cfg"
        config.write_text("total_ues = 50\nmalicious_node_fraction = 0.34\n"
                          "malicious_message_fraction = 0.2\nloops = 40\n")
        rules = tmp_path / "rules.txt"
        rules.write_text("".join(f"{s.sig_id},{s.pattern.hex()},K,{s.label}\n"
                                 for s in synthetic_rulebook(10, seed=2).signatures))
        assert cli_main(["use-case", "--config", str(config), "--rulebook", str(rules),
                         "--runs", "1", "--out", str(tmp_path)]) == 3

    def test_run_all_on_malicious_poisoned_config_exits_zero(self, tmp_path, monkeypatch,
                                                             quick_bundle):
        """One scenario file with malicious nodes and poisoning targets
        serves every experiment that reads --config."""
        import ricguard.cli as cli

        monkeypatch.setattr(cli, "train_detector_bundle", lambda config: quick_bundle)
        config = tmp_path / "scenario.cfg"
        config.write_text("total_ues = 50\nloops = 30\nmalicious_node_fraction = 0.34\n"
                          "malicious_message_fraction = 0.5\npoison_target_fraction = 0.3\n")
        assert cli_main(["run-all", "--config", str(config), "--runs", "1", "--af", "1.5",
                         "--deterministic-timing", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "detector.csv").exists()
        assert (tmp_path / "use_case_50ues.csv").exists()

    def test_use_case_config_runs_once_with_its_ue_count(self, tmp_path, monkeypatch,
                                                          capsys):
        import ricguard.cli as cli

        config = tmp_path / "scenario.cfg"
        config.write_text("total_ues = 30\nloops = 2\n")
        ran = []

        def run_use_case(config, *args, **kwargs):
            ran.append(config)
            return SimpleNamespace(total_ues=config.total_ues, real_wall_ms=[0.0],
                                   summary_table=dict)

        monkeypatch.setattr(cli, "train_detector_bundle", lambda config: object())
        monkeypatch.setattr(cli, "run_use_case", run_use_case)
        assert cli_main(["use-case", "--config", str(config), "--runs", "1",
                         "--out", str(tmp_path)]) == 0
        assert ran == [load_scenario_config(config)]
        assert capsys.readouterr().out.startswith("30 UEs (1 runs x 2 loops")

    def test_run_all_accepts_every_flag(self):
        from ricguard.cli import build_parser

        args = build_parser().parse_args([
            "run-all", "--config", "c.cfg", "--rulebook", "r.txt",
            "--af", "1.2,1.5", "--ues-per-cell", "3", "--ues-total", "20,50",
        ])
        assert (args.af, args.ues_total, args.ues_per_cell) == ((1.2, 1.5), (20, 50), 3)

    def test_help_exits_zero(self, capsys):
        assert cli_main(["attest-bench", "--help"]) == 0
        assert "--matcher" not in capsys.readouterr().out

    def test_matcher_flag_rejected(self, tmp_path):
        code = cli_main([
            "inspect-bench", "--runs", "1", "--seed", "3", "--out", str(tmp_path),
            "--matcher", "automaton", "--deterministic-timing",
        ])
        assert code == 3

    def test_detector_bundle_trained_once_per_invocation(self, monkeypatch):
        import ricguard.cli as cli

        trained = []
        monkeypatch.setattr(cli, "train_detector_bundle",
                            lambda config: trained.append(config) or object())
        args = cli.build_parser().parse_args(["run-all", "--seed", "4"])
        assert cli._trained_bundle(args) is cli._trained_bundle(args)
        assert trained == [detector_preset(seed=4)]

    def test_af_whose_poisoned_draw_overflows_exits_three_before_training(
            self, tmp_path, monkeypatch, capsys):
        import ricguard.cli as cli

        trained = []
        monkeypatch.setattr(cli, "train_detector_bundle",
                            lambda config: trained.append(config) or object())
        code = cli_main(["detect-bench", "--af", "1.2,1e308", "--out", str(tmp_path)])
        assert code == 3 and trained == []
        assert "configuration error: --af 1e+308: amplification_factor" in capsys.readouterr().err

    def test_exit_codes_for_failures(self, tmp_path, monkeypatch):
        import ricguard.cli as cli

        def boom_detection(args):
            raise DetectionFailure("missed one")

        def boom_budget(args):
            raise ConstraintViolation("loop over budget")

        monkeypatch.setattr(cli, "cmd_inspect_bench", boom_detection)
        assert cli_main(["inspect-bench", "--out", str(tmp_path)]) == 1
        monkeypatch.setattr(cli, "cmd_use_case", boom_budget)
        assert cli_main(["use-case", "--out", str(tmp_path)]) == 2
