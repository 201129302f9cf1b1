"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Latency-bound criteria run against real wall time; ordering criteria are
additionally pinned on deterministic cost-model latencies, which expose the
scan-work ordering without Python call-overhead noise on sub-200-byte
payloads. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import filecmp
import time

import numpy as np
import pytest

from ricguard.attestation import AttestationEngine, VerificationResult, XappImage, attest
from ricguard.e2 import E2MessageKind
from ricguard.harness import (
    detector_preset,
    inspector_preset,
    run_attestation_experiment,
    run_detector_experiment,
    run_inspector_experiment,
    run_use_case,
    use_case_preset,
)
from ricguard.mitigation import (
    Magnitude,
    MitigationAction,
    MitigationPolicy,
    XappTier,
    resolve_attestation_event,
    resolve_inspector_event,
    resolve_kpm_event,
)
from ricguard.recurrent import (
    gradient_relative_error,
    init_model,
    loss_and_grads,
    numerical_gradients,
)
from ricguard.signatures import (
    AhoCorasickMatcher,
    MatchResult,
    Signature,
    SignatureSet,
    scan_naive,
)
from ricguard.timing import DEFAULT_COST_MODEL, SimClock


def report(number: int, message: str) -> None:
    print(f"PASS [criterion {number:2d}] {message}")


@pytest.fixture(scope="module")
def inspector_runs(rulebook):
    """The full inspector preset, once in wall mode and once deterministic."""
    config = inspector_preset(seed=1)
    started = time.perf_counter()
    wall = run_inspector_experiment(config, rulebook, runs=10)
    wall_seconds = time.perf_counter() - started
    deterministic = run_inspector_experiment(config, rulebook, runs=10,
                                             cost_model=DEFAULT_COST_MODEL)
    return wall, deterministic, wall_seconds


@pytest.fixture(scope="module")
def attestation_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("attest-acceptance")
    started = time.perf_counter()
    result = run_attestation_experiment(
        sizes_mb=(8.5, 16.0), rounds=20, runs=10, injection_trials=100,
        seed=1, workdir=workdir,
    )
    return result, time.perf_counter() - started


def test_criterion_1_inspector_exactness(inspector_runs):
    wall, _, wall_seconds = inspector_runs
    assert wall.injected_total > 0
    assert wall.detected_injected == wall.injected_total
    assert wall.detection_rate_pct == 100.0
    assert wall.false_positives == 0
    assert wall_seconds < 60.0
    report(1, f"detection 100% ({wall.detected_injected}/{wall.injected_total} injected), "
              f"0 false positives of {wall.benign_total} benign, {wall_seconds:.1f}s")


def test_criterion_2_inspector_latency_shape(inspector_runs):
    wall, deterministic, _ = inspector_runs
    indication = wall.summary(E2MessageKind.INDICATION)
    setup = wall.summary(E2MessageKind.SETUP_REQUEST)
    assert indication.average_ms < 1.0
    # >=10x payload-size ratios are robust against wall-clock noise
    for run in range(10):
        assert (wall.per_run_kind[(run, E2MessageKind.SETUP_REQUEST)].average_ms
                > wall.per_run_kind[(run, E2MessageKind.INDICATION)].average_ms)
    # full ordering pinned on scan work (deterministic latencies)
    det_avg = {kind: deterministic.summary(kind).average_ms for kind in E2MessageKind}
    assert (det_avg[E2MessageKind.SETUP_REQUEST]
            > det_avg[E2MessageKind.INDICATION]
            > det_avg[E2MessageKind.SUBSCRIPTION_RESPONSE]
            > det_avg[E2MessageKind.SUBSCRIPTION_DELETE_RESPONSE])
    for run in range(10):
        assert (deterministic.per_run_kind[(run, E2MessageKind.SETUP_REQUEST)].average_ms
                > deterministic.per_run_kind[(run, E2MessageKind.INDICATION)].average_ms)
    report(2, f"indication avg {indication.average_ms:.3f} ms < 1 ms; "
              f"setup {setup.average_ms:.2f} ms above it in all 10 runs; "
              f"subscription responses fastest")


def test_criterion_3_matcher_oracle_equivalence():
    rng = np.random.default_rng(0xE2)
    started = time.perf_counter()
    cases = 10_000
    for case in range(cases):
        patterns: list[bytes] = []
        for _ in range(int(rng.integers(2, 7))):
            patterns.append(rng.bytes(int(rng.integers(4, 13))))
        base = patterns[int(rng.integers(len(patterns)))]
        if rng.random() < 0.4 and len(base) > 4:
            # nested: a proper substring of an existing pattern
            cut = int(rng.integers(4, len(base)))
            patterns.append(base[:cut])
        if rng.random() < 0.4:
            # overlapping: an existing pattern extended
            patterns.append(base + rng.bytes(int(rng.integers(1, 5))))
        unique = list(dict.fromkeys(patterns))
        book = SignatureSet(
            signatures=tuple(
                Signature(i, p, frozenset({MitigationAction.DROP_MESSAGE}), f"s{i}")
                for i, p in enumerate(unique)
            ),
            version="fuzz",
        )
        payload = bytearray(rng.bytes(int(rng.integers(0, 200))))
        for _ in range(int(rng.integers(0, 3))):
            chosen = unique[int(rng.integers(len(unique)))]
            at = int(rng.integers(0, len(payload) + 1))
            payload[at:at] = chosen
        payload = bytes(payload)

        naive = scan_naive(payload, book)
        automaton = AhoCorasickMatcher(book).scan(payload)
        brute = tuple(sorted(
            (sig.sig_id, payload.find(sig.pattern))
            for sig in book.signatures
            if payload.find(sig.pattern) >= 0
        ))
        assert naive.hits == automaton.hits == brute, f"divergence in case {case}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(3, f"naive and automaton matchers identical on {cases} randomized "
              f"cases (nested + overlapping patterns), {elapsed:.1f}s")


def test_criterion_4_detector_performance_band(trained_bundle):
    assert trained_bundle.train_seconds <= 300.0
    config = detector_preset(seed=1)
    started = time.perf_counter()
    result = run_detector_experiment(config, af_grid=(1.2, 1.3, 1.4, 1.5),
                                     runs=10, bundle=trained_bundle.bundle)
    eval_seconds = time.perf_counter() - started
    assert eval_seconds <= 60.0
    for af, metrics in result.per_af.items():
        floor = 85.0 if af == 1.2 else 90.0
        assert metrics.adr_pct >= floor, f"AF {af}: ADR {metrics.adr_pct:.2f}%"
        assert metrics.fpr_pct <= 2.0, f"AF {af}: FPR {metrics.fpr_pct:.2f}%"
        assert metrics.mean_latency_ms <= 1.0
    # soft monotonicity: stronger attacks are at least as visible
    assert result.per_af[1.5].adr_pct >= result.per_af[1.2].adr_pct - 2.0
    summary = ", ".join(
        f"AF {af}: {m.adr_pct:.2f}%/{m.fpr_pct:.2f}%" for af, m in result.per_af.items()
    )
    assert trained_bundle.train_seconds <= 300.0
    report(4, f"ADR/FPR bands met ({summary}); train {trained_bundle.train_seconds:.0f}s, "
              f"eval {eval_seconds:.0f}s")


def test_criterion_5_gradient_check():
    rng = np.random.default_rng(42)
    model = init_model(4, rng)
    inputs = rng.standard_normal((3, 10, 6))
    targets = rng.standard_normal((3, 6))
    _, analytic = loss_and_grads(model, inputs, targets)
    numeric = numerical_gradients(model, inputs, targets)
    error = gradient_relative_error(analytic, numeric)
    assert error < 1e-4
    report(5, f"analytic vs central-difference gradients: relative error {error:.2e}")


def test_criterion_6_attestation_completeness(attestation_run):
    result, seconds = attestation_run
    assert result.injections_detected == result.injection_trials == 100
    assert result.clean_violations == 0
    assert result.xapps_blocked == 100
    assert seconds < 60.0
    report(6, f"100/100 injections detected, 0 violations over "
              f"20 rounds x 2 sizes x 10 runs, {seconds:.0f}s")


def test_criterion_7_attestation_linearity(attestation_run):
    result, _ = attestation_run
    per_mb = {size: result.steady_per_mb(size) for size in (8.5, 16.0)}
    spread = abs(per_mb[8.5] - per_mb[16.0]) / max(per_mb.values())
    assert spread <= 0.30
    for size in (8.5, 16.0):
        assert result.round1_mean(size) > result.steady_mean(size)
    report(7, f"steady per-MB latency {per_mb[8.5]:.3f} vs {per_mb[16.0]:.3f} ms/MB "
              f"({spread * 100:.1f}% apart); cold round 1 above steady state at both sizes")


def test_criterion_8_replay_rejection(tmp_path):
    content = np.random.default_rng(1).bytes(64 * 1024)
    path = tmp_path / "ref.bin"
    path.write_bytes(content)
    clock = SimClock()
    engine = AttestationEngine(clock=clock.now_ns)
    engine.register("xapp-a", path)
    image = XappImage("xapp-a", bytearray(content), len(content))
    rejected = 0
    trials = 120
    for trial in range(trials):
        challenge = engine.issue_challenge("xapp-a")
        response = attest(image, challenge, clock=clock.now_ns)
        assert engine.verify(challenge, response) == VerificationResult.VALID
        # the nonce is consumed: any response bound to it is now a replay
        replay = engine.verify(challenge, response)
        if replay == VerificationResult.REPLAY:
            rejected += 1
    assert rejected == trials
    report(8, f"{rejected}/{trials} replayed responses rejected")


def test_criterion_9_mitigation_policy_semantics():
    policy = MitigationPolicy.default()
    policy.signature_actions = {
        1: frozenset({MitigationAction.DROP_MESSAGE}),
        2: frozenset({MitigationAction.BLOCK_NODE, MitigationAction.REPORT}),
    }
    union = resolve_inspector_event(
        MatchResult(hits=((1, 0), (2, 4)), scan_latency_ns=0), policy
    )
    assert union == {MitigationAction.DROP_MESSAGE, MitigationAction.BLOCK_NODE,
                     MitigationAction.REPORT}

    class _V:
        is_anomalous = True

        def __init__(self, magnitude):
            self.magnitude = magnitude

    assert resolve_kpm_event(_V(Magnitude.SMALL), 0, policy) == {MitigationAction.DROP_DATA}
    assert resolve_kpm_event(_V(Magnitude.MODERATE), 0, policy) == {
        MitigationAction.DROP_DATA, MitigationAction.REPORT}
    assert resolve_kpm_event(_V(Magnitude.SIGNIFICANT), 0, policy) == {
        MitigationAction.DROP_DATA, MitigationAction.BLOCK_NODE, MitigationAction.REPORT}
    for tier in XappTier:
        assert MitigationAction.REPORT in resolve_attestation_event("x", tier, policy)
    report(9, "union rule, data-level defaults, and report-always verified "
              "(property tests in tests/test_mitigation.py)")


def test_criterion_10_end_to_end_overhead(trained_bundle, rulebook):
    started = time.perf_counter()
    bounds = {50: 10.0, 500: 100.0}
    summaries = []
    for total_ues, bound in bounds.items():
        config = use_case_preset(seed=1, total_ues=total_ues)
        result = run_use_case(config, trained_bundle.bundle, rulebook, runs=10)
        assert len(result.shift_ms) == 10 * 100
        assert max(result.real_wall_ms) < 1000.0
        assert result.avg_shift_ms < bound
        composed = [i + d for i, d in zip(result.inspector_ms, result.detector_ms)]
        avg_composed = sum(composed) / len(composed)
        ratio = result.avg_shift_ms / avg_composed
        assert 0.8 <= ratio <= 1.2
        summaries.append(
            f"{total_ues} UEs: shift {result.avg_shift_ms:.2f} ms (< {bound:.0f}), "
            f"insp+det ratio {ratio:.2f}"
        )
    elapsed = time.perf_counter() - started
    assert elapsed <= 600.0
    report(10, "; ".join(summaries) + f"; every loop under 1 s wall; {elapsed:.0f}s")


def test_criterion_11_determinism(quick_bundle, rulebook, tmp_path):
    outputs = []
    for attempt in ("a", "b"):
        out = tmp_path / attempt
        run_inspector_experiment(inspector_preset(seed=5, loops=30), rulebook,
                                 runs=2, cost_model=DEFAULT_COST_MODEL, out_dir=out)
        run_detector_experiment(detector_preset(seed=5, loops=50), af_grid=(1.2, 1.5),
                                runs=2, bundle=quick_bundle,
                                cost_model=DEFAULT_COST_MODEL, out_dir=out)
        run_attestation_experiment(sizes_mb=(0.5, 1.0), rounds=5, runs=2,
                                   injection_trials=5, seed=5, workdir=out,
                                   cost_model=DEFAULT_COST_MODEL, out_dir=out)
        run_use_case(use_case_preset(seed=5, total_ues=20, loops=30), quick_bundle,
                     rulebook, runs=2, cost_model=DEFAULT_COST_MODEL, out_dir=out)
        outputs.append(out)
    names = ["inspector.csv", "detector.csv", "attestation.csv", "use_case_20ues.csv"]
    for name in names:
        assert filecmp.cmp(outputs[0] / name, outputs[1] / name, shallow=False), name
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
    report(11, f"byte-identical CSVs across repeated executions: {', '.join(names)}")
