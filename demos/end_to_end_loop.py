#!/usr/bin/env python3
"""Walk through the full control loop with every safeguard enabled.

Wires emulator -> frame codec -> ingress inspector -> poisoning detector ->
verified telemetry store -> consumer xApp, paired against a baseline run of
the same scenario without safeguards, and reports the data-availability
shift the safeguards impose. Uses deterministic cost-model timing so the
numbers reproduce bit-for-bit.

Takes a minute or two (it trains a small detector first).
"""

from ricguard.harness import (
    run_use_case,
    train_detector_bundle,
    use_case_preset,
    detector_preset,
)
from ricguard.recurrent import TrainConfig
from ricguard.signatures import synthetic_rulebook
from ricguard.timing import DEFAULT_COST_MODEL

rulebook = synthetic_rulebook(count=100, seed=1, action_codes="D")

print("training the detector bundle on a benign run of the same scenario...")
bundle = train_detector_bundle(
    detector_preset(seed=1),
    TrainConfig(hidden_size=16, epochs=60, learning_rate=5e-3, rng_seed=5),
)
print(f"threshold: {bundle.threshold:.4f}\n")

for total_ues in (50, 500):
    config = use_case_preset(seed=1, total_ues=total_ues)
    result = run_use_case(config, bundle, rulebook, runs=3,
                          cost_model=DEFAULT_COST_MODEL)
    composed = [i + d for i, d in zip(result.inspector_ms, result.detector_ms)]
    safeguarded, baseline = result.arms[0]
    print(f"{total_ues} UEs over {len(result.shift_ms)} loops:")
    print(f"  data-availability shift  min {min(result.shift_ms):7.3f}  "
          f"max {max(result.shift_ms):7.3f}  avg {result.avg_shift_ms:7.3f} ms")
    print(f"  inspector + detector avg {sum(composed) / len(composed):7.3f} ms "
          f"(the shift is their sum less the store time of the records the detector dropped)")
    print(f"  store: baseline kept {len(baseline.store)} records, "
          f"safeguarded kept {len(safeguarded.store)} "
          f"({safeguarded.flagged} poisoned records dropped)")
    print(f"  incidents logged: {len(safeguarded.mitigation.log)}")
    worst = max(result.real_wall_ms)
    print(f"  worst loop wall time: {worst:.1f} ms (budget 1000 ms)\n")
