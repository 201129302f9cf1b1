import numpy as np
import pytest

from ricguard.cli import main as cli_main
from ricguard.e2 import (
    FRAME_HEADER_SIZE,
    E2Message,
    E2MessageKind,
    KpmReportPayload,
    encode_frame,
    encode_kpm_payload,
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
    _UseCaseRun,
    detector_preset,
    experiment_policy,
    inspector_preset,
    load_scenario_config,
    run_attestation_experiment,
    run_detector_experiment,
    run_inspector_experiment,
    run_use_case,
    use_case_preset,
)
from ricguard.kpm import KpmRecord
from ricguard.mitigation import Magnitude, MitigationAction, MitigationPolicy
from ricguard.timing import DEFAULT_COST_MODEL


def record(ts=1000, ue=1):
    return KpmRecord.from_features(ts, ue, (1, 2, 3, 4, 5, 6))


class TestTelemetryStore:
    def test_append_and_read_by_tick(self):
        store = TelemetryStore()
        store.append(record(1000, 1))
        store.append(record(1000, 2))
        store.append(record(2000, 1))
        assert len(store) == 3
        assert len(store.records_at(1000)) == 2
        assert store.records_at(3000) == []
        assert (1, 1000) in store

    def test_duplicate_key_rejected(self):
        store = TelemetryStore()
        store.append(record())
        with pytest.raises(ValueError):
            store.append(record())


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

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("bogus_field = 3\n")
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

    def test_automaton_matcher_equivalent_detection(self, rulebook):
        config = inspector_preset(seed=3, loops=10)
        naive = run_inspector_experiment(config, rulebook, runs=1)
        auto = run_inspector_experiment(config, rulebook, runs=1,
                                        matcher_kind="automaton")
        assert naive.detected_injected == auto.detected_injected
        assert naive.injected_total == auto.injected_total

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

    def test_no_poisoning_is_config_error(self, quick_bundle):
        from dataclasses import replace

        config = replace(detector_preset(seed=1, loops=50), poison_target_fraction=0.0)
        with pytest.raises(ConfigError):
            run_detector_experiment(config, af_grid=(1.5,), runs=1, bundle=quick_bundle)

    def test_deterministic_rows(self, quick_bundle):
        config = detector_preset(seed=1, loops=50)
        first = run_detector_experiment(config, af_grid=(1.2, 1.5), runs=2,
                                        bundle=quick_bundle,
                                        cost_model=DEFAULT_COST_MODEL)
        second = run_detector_experiment(config, af_grid=(1.2, 1.5), runs=2,
                                         bundle=quick_bundle,
                                         cost_model=DEFAULT_COST_MODEL)
        assert first.csv_rows == second.csv_rows


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


class TestUseCase:
    def test_pipeline_purity(self, quick_bundle, rulebook):
        config = use_case_preset(seed=2, total_ues=20, loops=40)
        result = run_use_case(config, quick_bundle, rulebook, runs=1)
        safeguarded, baseline = result.arms[0]
        # baseline stores every emitted record
        assert len(baseline.store) == 20 * 40
        # safeguarded store = emitted minus exactly the flagged records
        assert len(safeguarded.store) == len(baseline.store) - len(safeguarded.flagged_keys)
        for key in safeguarded.flagged_keys:
            assert key not in safeguarded.store
        # no flagged record is benign-stored twice etc.
        poisoned_keys = {(lab.ue_id, lab.timestamp)
                         for lab in safeguarded.emitted_labels if lab.poisoned}
        assert poisoned_keys, "scenario must contain attacks"

    def test_consumer_decisions_causal(self, quick_bundle, rulebook):
        config = use_case_preset(seed=2, total_ues=20, loops=30)
        result = run_use_case(config, quick_bundle, rulebook, runs=1,
                              cost_model=DEFAULT_COST_MODEL)
        safeguarded, _ = result.arms[0]
        for t, decision in enumerate(safeguarded.decisions):
            availability = safeguarded.availability_ms[t]
            assert decision.decision_timestamp_ms >= t * 1000 + availability

    def test_attestation_rounds_run_clean(self, quick_bundle, rulebook, tmp_path):
        reference = tmp_path / "consumer.bin"
        reference.write_bytes(np.random.default_rng(0).bytes(256 * 1024))
        config = use_case_preset(seed=2, total_ues=20, loops=30)
        result = run_use_case(config, quick_bundle, rulebook, runs=1,
                              cost_model=DEFAULT_COST_MODEL,
                              attest_reference=reference)
        safeguarded, _ = result.arms[0]
        assert len(safeguarded.attestation_outcomes) == 6  # every 5 ticks
        assert all(o == "valid" for o in safeguarded.attestation_outcomes)

    def test_attestation_does_not_touch_loop_costs(self, quick_bundle, rulebook, tmp_path):
        reference = tmp_path / "consumer.bin"
        reference.write_bytes(np.random.default_rng(0).bytes(256 * 1024))
        config = use_case_preset(seed=2, total_ues=20, loops=30)
        with_attest = run_use_case(config, quick_bundle, rulebook, runs=1,
                                   cost_model=DEFAULT_COST_MODEL,
                                   attest_reference=reference)
        without = run_use_case(config, quick_bundle, rulebook, runs=1,
                               cost_model=DEFAULT_COST_MODEL)
        assert with_attest.loop_wall_ms == without.loop_wall_ms

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
        for arm in result.arms[0]:
            assert [d.busy_ms for d in arm.decisions] == [busy_ms] * config.loops
            assert arm.loop_wall_ms == [a + busy_ms for a in arm.availability_ms]

    def test_aggregate_runtime_unchanged_by_safeguards(self, quick_bundle, rulebook):
        # idle time absorbs the shifts: consumer busy totals match across arms
        config = use_case_preset(seed=2, total_ues=20, loops=30)
        result = run_use_case(config, quick_bundle, rulebook, runs=1,
                              cost_model=DEFAULT_COST_MODEL)
        safeguarded_total, baseline_total = result.consumer_totals[0]
        assert safeguarded_total == pytest.approx(baseline_total, rel=0.05)


class TestConsumerLoop:
    def test_empty_tick_yields_zero_record_decision(self):
        from ricguard.harness import consumer_xapp_loop

        store = TelemetryStore()
        decision = consumer_xapp_loop(store, 7, availability_ms=2.0)
        assert decision.records_seen == 0
        assert decision.decision_timestamp_ms >= 7 * 1000 + 2.0


class TestGuardedPass:
    def test_forged_frames_fail_closed(self, quick_bundle, rulebook):
        """Forged frames from node 7: a UE the emulator never created warms
        up and then spikes, next to a truncated frame and a truncated KPM
        payload. None of them ends the run."""
        run = _UseCaseRun(use_case_preset(seed=2, total_ues=20, loops=20), 3,
                          quick_bundle, rulebook)
        run.policy = MitigationPolicy.default()  # a significant spike blocks its node
        scaler = quick_bundle.scaler

        def frame(t, values, node=7, ue=999_999):
            record = KpmRecord.from_features(t * 1000, ue, values)
            payload = encode_kpm_payload(KpmReportPayload(node, 0, (record,)))
            return encode_frame(E2Message(E2MessageKind.INDICATION, node, payload))

        for t in range(10):
            run.guarded_pass(t, [frame(t, scaler.mean)])
        spike = frame(10, scaler.mean + 1000 * scaler.std)
        cut_kpm = encode_frame(E2Message(E2MessageKind.INDICATION, 7,
                                         spike[FRAME_HEADER_SIZE:-5]))
        run.guarded_pass(10, [spike, spike[:-5], cut_kpm])

        guarded = run.guarded
        assert guarded.codec_errors == 2
        assert guarded.flagged_keys == {(999_999, 10_000)}
        (incident,) = guarded.mitigation.log.reports
        assert (incident.detector, incident.subject) == ("kpm", "ue:999999")
        # the block lands on the node that sent the spike
        assert guarded.mitigation.blocklist.is_node_blocked(7)
        assert not any(guarded.mitigation.blocklist.is_node_blocked(n) for n in range(3))
        assert len(guarded.store) == 10


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

    def test_matcher_flag_accepted(self, tmp_path):
        code = cli_main([
            "inspect-bench", "--runs", "1", "--seed", "3", "--out", str(tmp_path),
            "--matcher", "automaton", "--deterministic-timing",
        ])
        assert code == 0

    def test_detector_bundle_trained_once_per_invocation(self, monkeypatch):
        import ricguard.cli as cli

        trained = []
        monkeypatch.setattr(cli, "train_detector_bundle",
                            lambda config: trained.append(config) or object())
        args = cli.build_parser().parse_args(["run-all", "--seed", "4"])
        assert cli._trained_bundle(args) is cli._trained_bundle(args)
        assert trained == [detector_preset(seed=4)]

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
