"""The benchmark's workloads and the measured session they all run.

Every workload runs the same session, on inputs of its own shape:

1. **Set-up**: rulebook and matcher, emulator, the fixed detector bundle,
   the attestation reference image, training windows, and the warm-up ticks
   (the tick-0 setup exchange plus the detector's ``SEQUENCE_LENGTH``-tick
   history fill). Each step is timed on its own. Set-up is repeated in fresh
   processes spread over the measured phase; see :func:`setup_seconds`.
2. **The guarded control loop**, closed with one caller: tick t+1's frames go
   to ingress only after tick t's consumer decision returns. Each tick is
   wired as ``harness._run_use_case_arm`` wires it: decode frame -> inspect
   -> divert, or decode KPM -> ``observe_tick`` -> mitigate or store ->
   consumer. An unguarded pass (decode plus store into a second store) over
   the same frames gives the data-availability shift; the two passes swap
   order by tick parity. An attestation round runs between ticks every
   ``DEFAULT_ATTESTATION_PERIOD_S`` ticks.
3. **Detector training**: ``train_model`` on the benign windows, then
   ``calibrate_threshold``, repeated; training runs are interleaved with
   the loop ticks (see :func:`measure`).

The program only sees generated frames and windows; the emulator's ground
truth (injected signatures, poisoning labels) stays here and drives the
correctness gates.
"""

from __future__ import annotations

import gc
import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np
import ricguard
from ricguard.attestation import (
    DEFAULT_ATTESTATION_PERIOD_S,
    AttestationEngine,
    VerificationResult,
    XappImage,
)
from ricguard.detector import StreamingDetector, calibrate_threshold, evaluate, load_bundle
from ricguard.e2 import E2CodecError, E2MessageKind, decode_frame, decode_kpm_payload
from ricguard.emulator import TICK_MS, RanEmulator, ScenarioConfig
from ricguard.harness import (
    DEFAULT_TRAIN_CONFIG,
    LOOP_BUDGET_MS,
    TelemetryStore,
    consumer_xapp_loop,
    detector_preset,
    experiment_policy,
    use_case_preset,
)
from ricguard.inspector import IngressInspector, Verdict
from ricguard.kpm import FeatureScaler, build_windows, fit_scaler
from ricguard.mitigation import (
    DetectionEvent,
    MitigationPolicy,
    MitigationState,
    apply_actions,
    resolve_inspector_event,
    resolve_kpm_event,
)
from ricguard.recurrent import SEQUENCE_LENGTH, TrainingError, loss_and_grads, predict, train_model
from ricguard.signatures import NaiveMatcher, synthetic_rulebook
from ricguard.timing import SimClock

from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
BUNDLE_PATH = BENCH_DIR / "detector-h32.kpmd"

#: Set-ups per untraced run: the measured copy, then one less in fresh
#: processes during the measured phase.
SETUP_REPEATS = 4
#: Tick 0 carries the setup exchange; the next SEQUENCE_LENGTH ticks fill the
#: detector's per-UE history. Measured ticks start after both.
WARMUP_TICKS = 1 + SEQUENCE_LENGTH
#: The highest percentile every workload's measured ticks support with at
#: least ten ticks beyond it (each workload measures 110 or more ticks).
TAIL_PERCENTILE = 90
#: Scenario length; the poisoning plan spreads its windows over it.
TICK_CAP = 1000

TRAIN_TICKS = 150  # benign collection: 5500 training and 1000 validation windows
TRAIN_CONFIG = replace(DEFAULT_TRAIN_CONFIG, epochs=3)
#: Least share of the measured time that training takes. The loop workloads
#: need more than their ``--seconds`` for their ticks, so this is their
#: training; ``train`` paces few, short ticks and trains in between anyway.
TRAIN_SHARE = 0.15

MB = 1024 * 1024

_now = time.perf_counter_ns


@dataclass(frozen=True)
class Shape:
    """What one workload feeds the session."""

    scenario: Callable[[int], ScenarioConfig]
    rulebook_size: int
    image_mb: float
    #: Measured loop ticks. A fixed count, not a time share, so the inputs,
    #: the detection figures and the store's final size are the same on
    #: every run of a seed.
    loop_ticks: int


def _dense(seed: int) -> ScenarioConfig:
    # the use-case attack (30% of UEs poisoned at AF 1.5) scaled to 2000 UEs
    return use_case_preset(seed=seed, total_ues=2000, loops=TICK_CAP)


def _sparse(seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        node_count=8,
        cells_per_node=8,
        ues_per_cell=1,
        malicious_node_fraction=0.25,
        malicious_message_fraction=0.2,
        loops=TICK_CAP,
        rng_seed=seed,
    )


def _train(seed: int) -> ScenarioConfig:
    return use_case_preset(seed=seed, total_ues=50, loops=TICK_CAP)


WORKLOADS: dict[str, Shape] = {
    "loop-dense": Shape(_dense, rulebook_size=100, image_mb=8.5, loop_ticks=120),
    "loop-sparse": Shape(_sparse, rulebook_size=1000, image_mb=1.0, loop_ticks=110),
    "train": Shape(_train, rulebook_size=100, image_mb=1.0, loop_ticks=400),
}


@contextmanager
def gc_paused():
    """Collect, then hold cyclic GC, as ``harness.run_use_case`` does: the
    ever-growing telemetry store otherwise drops gen-2 pauses into ticks."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class Tally:
    """What the session measured and what its gates found."""

    # per measured tick
    loop_ns: list[int] = field(default_factory=list)
    shift_ns: list[int] = field(default_factory=list)
    measured_ticks: list[int] = field(default_factory=list)
    records_offered: int = 0
    # correctness, over every tick of the measured pipeline (warm-up included)
    ticks: int = 0
    failed_ticks: int = 0
    injected: int = 0
    missed: int = 0
    false_diversions: int = 0
    failures: list[str] = field(default_factory=list)
    # detection quality against the emulator's labels, measured ticks only
    scored_poisoned: int = 0
    flagged_poisoned: int = 0
    scored_benign: int = 0
    flagged_benign: int = 0
    # layer counters, measured ticks only
    frames: int = 0
    frame_bytes: int = 0
    codec_errors: int = 0
    detector_records: int = 0
    scored: int = 0
    flagged: int = 0
    kept: int = 0
    diverted: int = 0
    incidents_before: int = 0
    # attestation rounds (the cold first one falls in the warm-up)
    attest_ns: list[int] = field(default_factory=list)
    cold_attest_ns: int = 0
    rounds: int = 0
    failed_rounds: int = 0
    # training
    train_ns: list[int] = field(default_factory=list)
    epochs: int = 0
    failed_epochs: int = 0
    val_mse: float = math.nan

    def fail(self, reason: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(reason)

    @property
    def attempted(self) -> int:
        return self.ticks + self.rounds + self.epochs

    @property
    def failed(self) -> int:
        return self.failed_ticks + self.failed_rounds + self.failed_epochs


@dataclass
class Windows:
    scaler: FeatureScaler
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray


@dataclass
class Session:
    """The program state of one run, built by :func:`set_up`."""

    emulator: RanEmulator
    clock: SimClock
    policy: MitigationPolicy
    mitigation: MitigationState
    inspectors: dict
    detector: StreamingDetector
    store: TelemetryStore
    baseline_store: TelemetryStore
    engine: AttestationEngine
    image: XappImage
    windows: Windows
    tracer: Tracer
    tally: Tally = field(default_factory=Tally)
    #: Set-up step times: building everything, then each warm-up tick.
    setup_steps_ns: list[int] = field(default_factory=list)


def training_windows(seed: int, tracer: Tracer) -> Windows:
    """Benign ``detector_preset`` collection split 80/20 by tick, as
    ``harness.train_detector_bundle`` splits it."""
    config = replace(detector_preset(seed=seed), poison_target_fraction=0.0, loops=TRAIN_TICKS)
    emulator = RanEmulator(config, run_seed=seed + 0x5EED)
    records = []
    for t in range(TRAIN_TICKS):
        records.extend(emulator.generate_tick(t)[0])
    split_ms = int(0.8 * TRAIN_TICKS) * TICK_MS
    train = [r for r in records if r.timestamp < split_ms]
    val = [r for r in records if r.timestamp >= split_ms]
    scaler = fit_scaler(train)
    with tracer.span("kpm.build_windows"):
        train_x, train_y = build_windows(train, scaler)
    with tracer.span("kpm.build_windows"):
        val_x, val_y = build_windows(val, scaler)
    return Windows(scaler, train_x, train_y, val_x, val_y)


def set_up(shape: Shape, seed: int, workdir: Path, tracer: Tracer) -> Session:
    """Build everything the measured ticks need and run the warm-up ticks."""
    start = _now()
    rulebook = synthetic_rulebook(shape.rulebook_size)
    matcher = NaiveMatcher(rulebook)
    emulator = RanEmulator(shape.scenario(seed), rulebook, run_seed=seed + 1)
    mitigation = MitigationState()
    inspectors = {
        node: IngressInspector(matcher, mitigation.blocklist)
        for node in range(emulator.config.node_count)
    }
    clock = SimClock()

    reference = workdir / f"reference-{shape.image_mb}mb-seed{seed}.bin"
    blob = np.random.default_rng(seed).bytes(int(shape.image_mb * MB))
    workdir.mkdir(parents=True, exist_ok=True)
    reference.write_bytes(blob)
    engine = AttestationEngine(clock=clock.now_ns, rng=random.Random(seed))
    engine.register("consumer-xapp", reference)
    image = XappImage("consumer-xapp", bytearray(reference.read_bytes()), len(blob))

    session = Session(
        emulator=emulator,
        clock=clock,
        policy=experiment_policy(rulebook),
        mitigation=mitigation,
        inspectors=inspectors,
        detector=StreamingDetector(load_bundle(BUNDLE_PATH)),
        store=TelemetryStore(),
        baseline_store=TelemetryStore(),
        engine=engine,
        image=image,
        windows=training_windows(seed, tracer),
        tracer=tracer,
    )
    session.setup_steps_ns.append(_now() - start)
    was_enabled, tracer.enabled = tracer.enabled, False
    for t in range(WARMUP_TICKS):
        start = _now()
        run_tick(session, t, measured=False)
        session.setup_steps_ns.append(_now() - start)
    tracer.enabled = was_enabled
    session.tally.incidents_before = len(mitigation.log)
    return session


def setup_seconds(steps_ns: list[list[int]]) -> float:
    """Set-up time from the step times of every repeat (importing the
    program, building everything, each warm-up tick): each step's
    second-slowest time, summed. The host runs this code at speeds up to
    twice apart, in stretches of a fraction of a second to a whole run, and
    the share of slow time changes from minute to minute. A median or a mean
    follows that share; the fastest time depends on whether a fast stretch
    came at all. The repeats are spread over the whole run, so a step
    mostly meets the slow speed in two of them, and the sum is the set-up's
    cost at that speed, as ``loop_p90_ms`` is the loop's. Taking the
    second-slowest, not the slowest, drops a single stall.
    """
    return sum(sorted(step)[-2] for step in zip(*steps_ns)) / 1e9


_SETUP_CHILD = (
    "import time; started = time.perf_counter_ns(); import sys; sys.path[:0] = sys.argv[1:3]; "
    "import report, session; print(session.child_set_up(started, *sys.argv[3:]))"
)


def set_up_in_child(name: str, seed: int, workdir: Path) -> list[int]:
    """One more set-up of workload ``name``, in a fresh interpreter: its step
    times, process start to the program imported first. The child's memory
    stays out of this process's peak resident set."""
    src = Path(ricguard.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(BENCH_DIR), str(src), name, str(seed),
         str(workdir)],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout)


def child_set_up(started_ns: int, name: str, seed: str, workdir: str) -> str:
    import_ns = _now() - started_ns
    with gc_paused():
        s = set_up(WORKLOADS[name], int(seed), Path(workdir), Tracer(enabled=False))
    return json.dumps([import_ns, *s.setup_steps_ns])


# ---------------------------------------------------------------------------
# one tick


@dataclass
class _Guarded:
    loop_ns: int
    availability_ns: int
    diverted: list[bool]
    scored: list
    kept: int
    flagged: int
    records_in: int
    consumer_seen: int
    store_error: str | None
    codec_errors: int


def _guarded_pass(s: Session, t: int, frames: list[bytes]) -> _Guarded:
    tr = s.tracer
    now_ms = s.clock.now_ms()
    diverted = [False] * len(frames)
    records = []
    sources: list[int] = []
    codec_errors = 0
    store_error = None
    start = _now()
    with tr.span("loop.tick"):
        for i, frame in enumerate(frames):
            try:
                with tr.span("e2.decode_frame"):
                    msg = decode_frame(frame, clock=s.clock.now_ns)
            except E2CodecError:
                codec_errors += 1
                continue
            with tr.span("inspector.inspect"):
                outcome = s.inspectors[msg.source_node_id].inspect(msg, loop=t)
            if outcome.verdict is not Verdict.BENIGN:
                diverted[i] = True
                if outcome.verdict is Verdict.MALICIOUS:
                    with tr.span("mitigation.apply"):
                        actions = resolve_inspector_event(outcome.match, s.policy)
                        evidence = "sig:" + ";".join(str(sig) for sig, _ in outcome.match.hits)
                        apply_actions(s.mitigation, DetectionEvent(
                            detector="inspector", evidence=evidence, timestamp_ms=now_ms,
                            node_id=msg.source_node_id), actions)
                continue  # diverted or blocked: never reaches dispatch
            if msg.kind is E2MessageKind.INDICATION:
                try:
                    with tr.span("e2.decode_kpm_payload"):
                        decoded = decode_kpm_payload(msg.payload)
                except E2CodecError:
                    codec_errors += 1
                    continue
                records.extend(decoded)
                sources.extend([msg.source_node_id] * len(decoded))

        with tr.span("detector.observe_tick", count=len(records)):
            scored = s.detector.observe_tick(records)
        flagged = [i for i, item in enumerate(scored)
                   if item.verdict is not None and item.verdict.is_anomalous]
        with tr.span("mitigation.apply", count=len(flagged)):
            for i in flagged:
                verdict = scored[i].verdict
                apply_actions(s.mitigation, DetectionEvent(
                    detector="kpm", evidence=f"magnitude:{verdict.magnitude.value}",
                    timestamp_ms=now_ms, node_id=sources[i], ue_id=verdict.ue_id),
                    resolve_kpm_event(verdict, sources[i], s.policy))
        kept = 0
        with tr.span("store.append") as sp:
            try:
                for item in scored:
                    if item.verdict is None or not item.verdict.is_anomalous:
                        s.store.append(item.record)
                        kept += 1
            except ValueError as exc:  # duplicate (ue_id, timestamp)
                store_error = str(exc)
            sp.count = kept
        availability_ns = _now() - start
        with tr.span("consumer.pass"):
            decision = consumer_xapp_loop(s.store, t, availability_ns / 1e6)
    loop_ns = _now() - start
    return _Guarded(loop_ns, availability_ns, diverted, scored, kept, len(flagged),
                    len(records), decision.records_seen, store_error, codec_errors)


def _baseline_pass(s: Session, frames: list[bytes]) -> int:
    """Unguarded availability: decode and store, dropping undecodable frames."""
    with s.tracer.span("baseline.pass"):
        start = _now()
        for frame in frames:
            try:
                msg = decode_frame(frame, clock=s.clock.now_ns)
                if msg.kind is not E2MessageKind.INDICATION:
                    continue
                decoded = decode_kpm_payload(msg.payload)
            except E2CodecError:
                continue
            for record in decoded:
                s.baseline_store.append(record)
        return _now() - start


def run_tick(s: Session, t: int, measured: bool) -> None:
    tr, tally = s.tracer, s.tally
    tr.tick = t
    s.clock.advance_to_ns(t * 1_000_000_000)
    with tr.span("emulator.step"):
        emitted = s.emulator.step(t)
    frames = [em.frame for em in emitted]
    if t % 2:
        baseline_ns = _baseline_pass(s, frames)
        g = _guarded_pass(s, t, frames)
    else:
        g = _guarded_pass(s, t, frames)
        baseline_ns = _baseline_pass(s, frames)

    # -- gates (outside the timed passes) --
    problems = []
    for em, diverted in zip(emitted, g.diverted):
        injected = em.injected is not None
        tally.injected += injected
        if injected and not diverted:
            tally.missed += 1
            problems.append(f"injected {em.kind.name} from node {em.node_id} not diverted")
        elif diverted and not injected:
            tally.false_diversions += 1
            problems.append(f"benign {em.kind.name} from node {em.node_id} diverted")
    if g.codec_errors:
        problems.append(f"{g.codec_errors} emulator frames failed to decode")
    if g.store_error is not None:
        problems.append(f"store rejected a row: {g.store_error}")
    stored = s.store.records_at(t * TICK_MS)
    if len(stored) != g.kept or g.consumer_seen != g.kept:
        problems.append(f"store holds {len(stored)} rows for the tick, consumer saw "
                        f"{g.consumer_seen}, detector kept {g.kept}")
    if stored and not np.all(np.isfinite([r.feature_values() for r in stored])):
        problems.append("non-finite feature in the verified store")
    if g.loop_ns / 1e6 >= LOOP_BUDGET_MS:
        problems.append(f"loop took {g.loop_ns / 1e6:.1f} ms, over the budget")
    tally.ticks += 1
    if problems:
        tally.failed_ticks += 1
        tally.fail(f"tick {t}: " + "; ".join(problems[:3]))

    if measured:
        labels = {(lab.ue_id, lab.timestamp): lab.poisoned for em in emitted for lab in em.labels}
        quality = evaluate(g.scored, labels)
        tally.scored_poisoned += quality.scored_poisoned
        tally.flagged_poisoned += quality.flagged_poisoned
        tally.scored_benign += quality.scored_benign
        tally.flagged_benign += quality.flagged_benign
        tally.loop_ns.append(g.loop_ns)
        tally.shift_ns.append(g.availability_ns - baseline_ns)
        tally.measured_ticks.append(t)
        tally.records_offered += sum(
            len(em.records) for em in emitted if em.kind is E2MessageKind.INDICATION)
        tally.frames += len(frames)
        tally.frame_bytes += sum(len(f) for f in frames)
        tally.codec_errors += g.codec_errors
        tally.detector_records += g.records_in
        tally.scored += sum(item.verdict is not None for item in g.scored)
        tally.flagged += g.flagged
        tally.kept += g.kept
        tally.diverted += sum(g.diverted)

    # Attestation runs outside the control loop, between ticks.
    if t % DEFAULT_ATTESTATION_PERIOD_S == 0:
        cold = not s.engine.reference_loaded(s.image.xapp_id)
        with tr.span("attestation.run_round"):
            start = _now()
            result = s.engine.run_round(s.image)
            elapsed = _now() - start
        tally.rounds += 1
        if result.outcome != VerificationResult.VALID:
            tally.failed_rounds += 1
            tally.fail(f"tick {t}: attestation of the clean image gave {result.outcome}")
        if cold:
            tally.cold_attest_ns = elapsed
        elif measured:
            tally.attest_ns.append(elapsed)


# ---------------------------------------------------------------------------
# measured phases


def is_traced(t: int) -> bool:
    """Ticks 2-3, 6-7, ... of a traced run record spans. Pairs, not odd
    ticks, so both pass orders (which alternate by parity) are traced."""
    return t // 2 % 2 == 1


def measure(s: Session, shape: Shape, seconds: float, traced: bool,
            set_up_again: Callable[[], None] | None = None):
    """The measured phase: ``shape.loop_ticks`` loop ticks and repeated
    training runs, interleaved all through the run. Ticks are paced evenly
    over ``seconds``; a training run goes in whenever the ticks are ahead of
    that pace, or training's total time falls behind ``TRAIN_SHARE`` of the
    time elapsed. Machine speed drifts over seconds on a shared host;
    spreading both kinds of sample across the whole run keeps one slow
    stretch from landing on one metric.

    Ends once every tick has run, ``seconds`` have passed and a training run
    has followed the last tick. Training's working set then always meets the
    store at its largest, so the peak resident set does not depend on where
    the schedule happened to put the training runs. Returns the last trained
    model (None if training failed).

    ``set_up_again``, when given, is called ``SETUP_REPEATS - 1`` times at
    evenly spaced ticks; its time does not count toward the pacing.

    A traced run traces every other pair of ticks (see :func:`is_traced`),
    so traced and untraced ticks interleave and their p50 difference is the
    tracing overhead.
    """
    tally = s.tally
    budget_ns = int(seconds * 1e9)
    start = _now()
    t, last_tick = WARMUP_TICKS, WARMUP_TICKS + shape.loop_ticks
    set_up_at = set() if set_up_again is None else {
        WARMUP_TICKS + k * shape.loop_ticks // SETUP_REPEATS for k in range(1, SETUP_REPEATS)}
    model = None
    trained_since_tick = False
    while True:
        if t in set_up_at:
            set_up_at.discard(t)
            paused = _now()
            set_up_again()
            start += _now() - paused
        elapsed = _now() - start
        if t >= last_tick and elapsed >= budget_ns and trained_since_tick:
            break
        ticks_on_pace = (t - WARMUP_TICKS) * budget_ns > shape.loop_ticks * elapsed
        training_behind = sum(tally.train_ns) < TRAIN_SHARE * elapsed
        if t < last_tick and not ticks_on_pace and not training_behind:
            s.tracer.enabled = traced and is_traced(t)
            run_tick(s, t, measured=True)
            t += 1
            trained_since_tick = False
        else:
            s.tracer.enabled = traced
            s.tracer.tick = -1
            model = train_once(s) or model
            trained_since_tick = True
    s.tracer.enabled = traced
    s.tracer.tick = -1
    if model is not None:
        w = s.windows
        tally.val_mse = float(np.mean((predict(model, w.val_x) - w.val_y) ** 2))
    return model


def train_once(s: Session):
    """``train_model`` then ``calibrate_threshold``; the trained model, or
    None when training failed."""
    w, tr, tally = s.windows, s.tracer, s.tally
    tally.epochs += TRAIN_CONFIG.epochs
    start = _now()
    try:
        with tr.span("recurrent.train_model"):
            result = train_model(w.train_x, w.train_y, TRAIN_CONFIG)
    except TrainingError as exc:
        tally.train_ns.append(_now() - start)
        tally.failed_epochs += TRAIN_CONFIG.epochs
        tally.fail(f"training: {exc}")
        return None
    tally.train_ns.append(_now() - start)
    bad = sum(not math.isfinite(loss) for loss in result.epoch_losses)
    if bad or len(result.epoch_losses) != TRAIN_CONFIG.epochs:
        tally.failed_epochs += max(bad, 1)
        tally.fail(f"training: {bad} non-finite epoch losses")
    with tr.span("detector.calibrate_threshold"):
        threshold = calibrate_threshold(result.model, w.scaler, w.val_x, w.val_y)
    if not (math.isfinite(threshold) and threshold > 0):
        tally.failed_epochs += 1
        tally.fail(f"calibration gave threshold {threshold!r}")
    return result.model


def recurrent_probes(s: Session, model, repeats: int = 3) -> None:
    """Traced run only: the LSTM's backward and forward passes on their own,
    at the training batch size."""
    w, tr = s.windows, s.tracer
    for _ in range(repeats):
        with tr.span("recurrent.loss_and_grads"):
            loss_and_grads(model, w.train_x, w.train_y)
        with tr.span("recurrent.predict"):
            predict(model, w.train_x)
