"""Runtime safeguards for near-RT RIC control loops.

Three detection layers, each paired with policy-driven mitigation:

* message level — signature inspection of inbound E2 frames at the ingress
  (:mod:`ricguard.inspector`, :mod:`ricguard.signatures`);
* data level — recurrent next-step forecasting over per-UE KPM streams to
  flag poisoned telemetry (:mod:`ricguard.detector`, :mod:`ricguard.kpm`,
  :mod:`ricguard.recurrent`);
* control-logic level — seeded-hash challenge/response attestation of xApp
  memory images (:mod:`ricguard.attestation`).

:mod:`ricguard.emulator` and :mod:`ricguard.harness` provide a deterministic
desk-scale stand-in for a RAN emulator plus the experiment runners; the
``ricguard`` console script exposes them as benchmarks.
"""

__version__ = "0.1.0"

from .attestation import (
    AttestationChallenge,
    AttestationEngine,
    AttestationResponse,
    ReferenceImage,
    VerificationResult,
    XappImage,
    attest,
    inject_code,
)
from .detector import (
    AnomalyVerdict,
    DetectorBundle,
    StreamingDetector,
    calibrate_threshold,
    classify_magnitude,
    evaluate,
    load_bundle,
    save_bundle,
    score_window,
)
from .e2 import (
    E2Message,
    E2MessageKind,
    KpmReportPayload,
    calibrated_indication_size,
    decode_frame,
    decode_kpm_payload,
    encode_frame,
    encode_kpm_payload,
)
from .emulator import RanEmulator, ScenarioConfig, UeProfile, poison_records
from .inspector import IngressInspector, InspectionOutcome, Verdict, latency_summary
from .kpm import FeatureScaler, KpmRecord, fit_scaler
from .mitigation import (
    Blocklist,
    IncidentLog,
    Magnitude,
    MitigationAction,
    MitigationPolicy,
    XappTier,
    apply_actions,
    resolve_attestation_event,
    resolve_inspector_event,
    resolve_kpm_event,
)
from .recurrent import SequenceModel, TrainConfig, train_model
from .signatures import (
    AhoCorasickMatcher,
    MatchResult,
    NaiveMatcher,
    Signature,
    SignatureSet,
    load_rulebook,
    save_rulebook,
    scan_naive,
    synthetic_rulebook,
)
from .timing import DEFAULT_COST_MODEL, CostModel, SimClock
