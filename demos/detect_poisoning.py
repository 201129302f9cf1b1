#!/usr/bin/env python3
"""Walk through data-level detection: train, calibrate, poison, score.

Runs a small benign scenario to train the forecasting model, calibrates the
anomaly threshold on held-out windows, then streams a poisoned scenario
through the detector and reports ADR/FPR per amplification factor.

Takes roughly half a minute; shrink `loops`/`epochs` for a quicker pass.
"""

from dataclasses import replace

from ricguard import RanEmulator, ScenarioConfig, StreamingDetector, evaluate
from ricguard.detector import DetectorBundle, calibrate_threshold, classify_magnitude
from ricguard.kpm import TICK_MS, build_windows, fit_scaler
from ricguard.recurrent import TrainConfig, train_model

scenario = ScenarioConfig(
    node_count=3, cells_per_node=3, total_ues=30,
    poison_target_fraction=0.3, loops=80, rng_seed=11,
)

# --- collect a benign run and train on its first 80% of ticks --------------
benign = replace(scenario, poison_target_fraction=0.0, loops=150)
emulator = RanEmulator(benign, run_seed=999)
records = []
for t in range(benign.loops):
    tick_records, _ = emulator.generate_tick(t)
    records.extend(tick_records)

split_ms = int(0.8 * benign.loops) * TICK_MS
train_records = [r for r in records if r.timestamp < split_ms]
val_records = [r for r in records if r.timestamp >= split_ms]
scaler = fit_scaler(train_records)
train_x, train_y = build_windows(train_records, scaler)
val_x, val_y = build_windows(val_records, scaler)
print(f"training windows: {train_x.shape[0]}, validation windows: {val_x.shape[0]}")

result = train_model(train_x, train_y,
                     TrainConfig(hidden_size=16, epochs=80, learning_rate=5e-3,
                                 rng_seed=5))
print(f"loss {result.epoch_losses[0]:.3f} -> {result.epoch_losses[-1]:.3f} "
      f"over {len(result.epoch_losses)} epochs")

# Threshold = 99.5th percentile of benign validation scores, so the
# false-positive regime is fixed before any attack is seen.
threshold = calibrate_threshold(result.model, scaler, val_x, val_y)
bundle = DetectorBundle(model=result.model, scaler=scaler, threshold=threshold)
print(f"calibrated threshold: {threshold:.4f}")

# --- stream poisoned scenarios through the detector ------------------------
print(f"\n{'AF':<6}{'ADR %':>8}{'FPR %':>8}{'poisoned':>10}{'flagged':>9}")
for af in (1.2, 1.3, 1.4, 1.5):
    emulator = RanEmulator(replace(scenario, amplification_factor=af), run_seed=2)
    detector = StreamingDetector(bundle)
    labels, scored = {}, []
    for t in range(scenario.loops):
        tick_records, tick_labels = emulator.generate_tick(t)
        labels.update({(l.ue_id, l.timestamp): l.poisoned for l in tick_labels})
        scored.extend(detector.observe_tick(tick_records))
    metrics = evaluate(scored, labels)
    print(f"{af:<6}{metrics.adr_pct:>8.2f}{metrics.fpr_pct:>8.2f}"
          f"{metrics.scored_poisoned:>10}{metrics.flagged_poisoned:>9}")

# --- anomaly magnitudes drive the mitigation policy -------------------------
print("\ndeviation magnitude for a few score/threshold ratios:")
for ratio in (1.5, 3.0, 8.0):
    magnitude = classify_magnitude(ratio * threshold, threshold)
    print(f"  score {ratio:.1f}x threshold -> {magnitude.value}")
