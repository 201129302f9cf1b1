"""Golden outputs: the deterministic CSVs that do not pass through BLAS.

The inspector and attestation runs of acceptance criterion 11, charged to
the default cost model, and the ground truth its detector run writes, must
keep these exact bytes: a change to the emulator's seeded stream (payload
bytes, injections, poison plan) or to the cost model's charges shows here.
``detector.csv`` and the use-case CSVs go through the trained LSTM, whose
float sums follow the BLAS build, so criterion 11 checks them only for
repeatability. The KPM values the emulator writes into its frames are pinned
apart from the CSVs, rounded so that LAPACK's last bits cannot move them.
"""

import hashlib

import pytest

from ricguard.e2 import E2MessageKind, decode_frame, decode_kpm_payload
from ricguard.emulator import RanEmulator, ScenarioConfig
from ricguard.harness import (
    detector_preset,
    inspector_preset,
    run_attestation_experiment,
    run_detector_experiment,
    run_inspector_experiment,
)
from ricguard.timing import DEFAULT_COST_MODEL

GOLDEN_SHA256 = {
    "inspector.csv": "60edd84cf3b6ebdad2ec0366dd631123af33715721428560e8754561aac00e63",
    "attestation.csv": "5fe24684d081c120e01085d19254d3fb3c21d644856180be2951e53115a49340",
    "ground_truth_af1.2.csv": "a91a6e6d226ef44861ca917c28b82e59eb37887b5b8a500facd04d0475609f16",
    "ground_truth_af1.5.csv": "e19dbc76faefef60d2f164906d147b6c3caf3a1beb8bfa8c9f4404c7e058a592",
}


@pytest.fixture(scope="module")
def outputs(quick_bundle, rulebook, tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    run_inspector_experiment(inspector_preset(seed=5, loops=30), rulebook, runs=2,
                             cost_model=DEFAULT_COST_MODEL, out_dir=out)
    run_detector_experiment(detector_preset(seed=5, loops=50), af_grid=(1.2, 1.5), runs=2,
                            bundle=quick_bundle, cost_model=DEFAULT_COST_MODEL, out_dir=out)
    run_attestation_experiment(sizes_mb=(0.5, 1.0), rounds=5, runs=2, injection_trials=5,
                               seed=5, workdir=out, cost_model=DEFAULT_COST_MODEL,
                               out_dir=out)
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_csv_bytes_match_golden(outputs, name):
    digest = hashlib.sha256((outputs / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name]


#: 12 UEs over 16 ticks; half are poison targets, attacked from tick 12 on.
KPM_SCENARIO = ScenarioConfig(node_count=2, cells_per_node=2, ues_per_cell=3,
                              poison_target_fraction=0.5, amplification_factor=1.5,
                              loops=16, rng_seed=5)
KPM_GOLDEN_SHA256 = "9fb5a183cf9d2b6119399863bb102a45382c527d1a542ace226ef973de8e1ec5"


def test_emulated_kpm_values_match_golden():
    """The decoded records of every indication, features to 9 significant
    digits: ``psd_factor``'s eigendecomposition may differ between LAPACK
    builds in the last bits, far below the ninth digit."""
    emulator = RanEmulator(KPM_SCENARIO)
    lines, poisoned = [], 0
    for t in range(KPM_SCENARIO.loops):
        for emitted in emulator.step(t):
            msg = decode_frame(emitted.frame)
            if msg.kind is E2MessageKind.INDICATION:
                poisoned += sum(label.poisoned for label in emitted.labels)
                lines += [",".join([str(r.timestamp), str(r.ue_id), *(f"{v:.9g}" for v in r[2:])])
                          for r in decode_kpm_payload(msg.payload)]
    assert len(lines) == 12 * KPM_SCENARIO.loops and poisoned
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == KPM_GOLDEN_SHA256
