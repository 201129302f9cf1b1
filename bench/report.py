"""Turn one measured session into the benchmark's metrics.

:func:`run_workload` sets up and measures one workload, prints its gate
results and metric lines, and returns the result object whose JSON form is
the run's last output line.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from pathlib import Path

import numpy as np
from ricguard.e2 import FRAME_HEADER_SIZE

import session
from spans import Tracer, counted, durations_ns, per_tick_ns, self_times_ns, starts_by_tick


def _median(values) -> float:
    return float(statistics.median(values))


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


class Metrics:
    """Metric lines for people, plus the metric map for the JSON line."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        _print_metric(name, value, unit, samples)


def _print_metric(name: str, value: float, unit: str, samples: int) -> None:
    print(f"  {name:32s} {value:>14.6g} {unit:6s} (n={samples})")


def end_to_end(s: session.Session, setup_s: float, setup_n: int) -> Metrics:
    tally, w = s.tally, s.windows
    loop_s = sum(tally.loop_ns) / 1e9
    n = len(tally.loop_ns)
    r = Metrics()
    print("end-to-end metrics:")
    r.add("setup_s", setup_s, "s", setup_n)
    tail = session.TAIL_PERCENTILE
    r.add(f"loop_p{tail}_ms", _percentile(tally.loop_ns, tail) / 1e6, "ms", n)
    r.add(f"shift_p{tail}_ms", _percentile(tally.shift_ns, tail) / 1e6, "ms", n)
    r.add("attest_round_p50_ms", _median(tally.attest_ns) / 1e6, "ms", len(tally.attest_ns))
    windows_per_run = len(w.train_x) * session.TRAIN_CONFIG.epochs
    r.add("train_windows_per_s", windows_per_run / (_percentile(tally.train_ns, tail) / 1e9),
          "1/s", len(tally.train_ns))
    r.add("val_mse", tally.val_mse, "mse", len(w.val_x))
    r.add("rss_peak_mb", _rss_peak_mb(), "MB", 1)

    print("reported, not gated (see README.md):")
    _print_metric("loop_p50_ms", _median(tally.loop_ns) / 1e6, "ms", n)
    _print_metric("shift_p50_ms", _median(tally.shift_ns) / 1e6, "ms", n)
    _print_metric("shift_mean_ms", statistics.fmean(tally.shift_ns) / 1e6, "ms", n)
    _print_metric("records_per_s", tally.records_offered / loop_s, "1/s", tally.records_offered)
    _print_metric("train_windows_per_s_mean",
                  len(w.train_x) * tally.epochs / (sum(tally.train_ns) / 1e9), "1/s",
                  len(tally.train_ns))
    if tally.scored_poisoned:
        _print_metric("adr_pct", 100.0 * tally.flagged_poisoned / tally.scored_poisoned, "%",
                      tally.scored_poisoned)
    else:
        print(f"  {'adr_pct':32s} {'n/a':>14s} %      (no poisoned records in this workload)")
    if tally.scored_benign:
        _print_metric("fpr_pct", 100.0 * tally.flagged_benign / tally.scored_benign, "%",
                      tally.scored_benign)
    return r


def _traced_minus_untraced(loop_by_tick: dict[int, int], is_traced) -> list[float]:
    """Per traced tick: its loop time minus the mean of the untraced ticks
    just before and after it. Machine speed drifts within a run, so only
    neighbouring ticks are compared."""
    diffs = []
    for t, loop_ns in loop_by_tick.items():
        if not is_traced(t):
            continue
        near = [loop_by_tick[u] for u in range(t - 2, t + 3)
                if u in loop_by_tick and not is_traced(u)]
        if near:
            diffs.append(loop_ns - sum(near) / len(near))
    return diffs


def per_layer(s: session.Session, shape: session.Shape) -> tuple[Metrics, dict]:
    tally, spans = s.tally, s.tracer.spans
    traced = [t for t in tally.measured_ticks if session.is_traced(t)]
    loop_by_tick = dict(zip(tally.measured_ticks, tally.loop_ns))
    tick_start = starts_by_tick(spans, "loop.tick")

    def tick_median_ms(name: str) -> float:
        return _median(per_tick_ns(spans, name, traced)) / 1e6

    def wait_ms(name: str) -> float:
        starts = starts_by_tick(spans, name)
        return _median([starts[t] - tick_start[t] for t in traced]) / 1e6

    decode_us = [d / 1e3 for d in durations_ns(spans, "e2.decode_frame")]
    inspect_us = [d / 1e3 for d in durations_ns(spans, "inspector.inspect")]
    messages = tally.frames - tally.codec_errors
    observe_ns = durations_ns(spans, "detector.observe_tick")
    warm_attest_ms = _median(tally.attest_ns) / 1e6
    overhead_ms = _median(_traced_minus_untraced(loop_by_tick, session.is_traced)) / 1e6

    r = Metrics()
    print(f"per-layer metrics (traced ticks: {len(traced)} of {len(tally.measured_ticks)}):")
    r.add("e2.decode_frame_us_p50", _median(decode_us), "us", len(decode_us))
    r.add("e2.decode_kpm_ms", tick_median_ms("e2.decode_kpm_payload"), "ms", len(traced))
    r.add("e2.frames", tally.frames, "count", 1)
    r.add("e2.bytes", tally.frame_bytes, "bytes", 1)
    r.add("e2.codec_errors", tally.codec_errors, "count", 1)
    r.add("inspector.inspect_us_p50", _median(inspect_us), "us", len(inspect_us))
    r.add("inspector.inspect_us_p95", _percentile(inspect_us, 95), "us", len(inspect_us))
    r.add("inspector.busy_ms", tick_median_ms("inspector.inspect"), "ms", len(traced))
    r.add("inspector.messages", messages, "count", 1)
    r.add("inspector.bytes", tally.frame_bytes - FRAME_HEADER_SIZE * tally.frames, "bytes", 1)
    r.add("inspector.diverted", tally.diverted, "count", 1)
    r.add("inspector.divert_ratio", tally.diverted / messages, "ratio", messages)
    r.add("detector.observe_ms", _median(observe_ns) / 1e6, "ms", len(observe_ns))
    r.add("detector.us_per_record",
          sum(observe_ns) / 1e3 / max(counted(spans, "detector.observe_tick"), 1), "us",
          counted(spans, "detector.observe_tick"))
    r.add("detector.wait_ms", wait_ms("detector.observe_tick"), "ms", len(traced))
    r.add("detector.records", tally.detector_records, "count", 1)
    r.add("detector.scored_ratio", tally.scored / tally.detector_records, "ratio",
          tally.detector_records)
    r.add("detector.flagged", tally.flagged, "count", 1)
    r.add("mitigation.busy_ms", tick_median_ms("mitigation.apply"), "ms", len(traced))
    r.add("mitigation.events", tally.flagged + tally.diverted, "count", 1)
    r.add("mitigation.incidents", len(s.mitigation.log) - tally.incidents_before, "count", 1)
    r.add("store.append_ms", tick_median_ms("store.append"), "ms", len(traced))
    r.add("store.rows", len(s.store), "count", 1)
    r.add("store.kept_ratio", tally.kept / tally.detector_records, "ratio",
          tally.detector_records)
    r.add("consumer.pass_ms", tick_median_ms("consumer.pass"), "ms", len(traced))
    r.add("consumer.wait_ms", wait_ms("consumer.pass"), "ms", len(traced))
    r.add("attestation.round_ms", warm_attest_ms, "ms", len(tally.attest_ns))
    r.add("attestation.cold_round_ms", tally.cold_attest_ns / 1e6, "ms", 1)
    r.add("attestation.ms_per_mb", warm_attest_ms / shape.image_mb, "ms/MB", len(tally.attest_ns))
    r.add("attestation.rounds", tally.rounds, "count", 1)
    r.add("attestation.violations", tally.failed_rounds, "count", 1)
    r.add("recurrent.train_s", _median(tally.train_ns) / 1e9, "s", len(tally.train_ns))
    for name in ("recurrent.loss_and_grads", "recurrent.predict", "detector.calibrate_threshold"):
        values = durations_ns(spans, name)
        metric = "detector.calibrate_ms" if name.startswith("detector") else f"{name}_ms"
        r.add(metric, _median(values) / 1e6, "ms", len(values))
    build_ns = durations_ns(spans, "kpm.build_windows")
    r.add("kpm.build_windows_ms", sum(build_ns) / 1e6, "ms", len(build_ns))
    r.add("trace.overhead_ms", overhead_ms, "ms", len(traced))

    # Self time per layer as a share of the traced ticks' loop time.
    self_ns = self_times_ns(spans, set(traced))
    loop_total = sum(loop_by_tick[t] for t in traced)
    in_loop = [name for name in self_ns if name not in ("emulator.step", "baseline.pass",
                                                        "attestation.run_round")]
    shares = {name: self_ns[name] / loop_total for name in sorted(
        in_loop, key=lambda k: -self_ns[k])}
    print("self time as a share of loop time (traced ticks):")
    for name, share in shares.items():
        print(f"  {name:32s} {100 * share:6.2f} %")
    return r, {"trace_overhead_ms": overhead_ms, "loop_shares": shares}


def _rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, traced: bool, import_ns: int,
                 env: dict, workdir: Path) -> dict:
    """Set up, measure, report. ``import_ns`` is this process's time from
    start to the program imported, the first step of its set-up."""
    shape = session.WORKLOADS[name]
    print(f"== workload {name} seed {seed} seconds {seconds:g} trace {int(traced)}")
    with session.gc_paused():
        s = session.set_up(shape, seed, workdir, Tracer(enabled=traced))
    steps_ns = [[import_ns, *s.setup_steps_ns]]

    def set_up_again() -> None:
        steps_ns.append(session.set_up_in_child(name, seed, workdir))

    start = time.perf_counter_ns()
    with session.gc_paused():
        model = session.measure(s, shape, seconds, traced,
                                None if traced else set_up_again)
        if traced and model is not None:
            session.recurrent_probes(s, model)
    tally = s.tally
    print(f"measured {len(tally.loop_ns)} ticks, {len(tally.train_ns)} training runs of "
          f"{session.TRAIN_CONFIG.epochs} epochs and {len(steps_ns) - 1} set-ups in fresh "
          f"processes in {(time.perf_counter_ns() - start) / 1e9:.1f} s")
    print(f"gates: {tally.failed} failed of {tally.attempted} attempted "
          f"(ticks {tally.failed_ticks}/{tally.ticks}, attestation rounds "
          f"{tally.failed_rounds}/{tally.rounds}, epochs {tally.failed_epochs}/{tally.epochs}); "
          f"injected {tally.injected}, missed {tally.missed}, "
          f"false diversions {tally.false_diversions}")
    for reason in tally.failures:
        print(f"  FAILED {reason}")

    correct = tally.failed == 0 and math.isfinite(tally.val_mse)
    if traced:
        metrics, extra = per_layer(s, shape)
        trace_path = workdir / f"trace-{name}-seed{seed}.json"
        s.tracer.write(trace_path, {"workload": name, "seed": seed, "environment": env,
                                    "metrics": metrics.metrics, **extra})
        print(f"tracing overhead (traced minus neighbouring untraced ticks, p50): "
              f"{extra['trace_overhead_ms']:.3f} ms; spans written to {trace_path}")
    else:
        setup_s = session.setup_seconds(steps_ns)
        print("set-ups (s): " + " ".join(f"{sum(steps) / 1e9:.3f}" for steps in steps_ns)
              + f"; second-slowest time of each step, summed: {setup_s:.3f}")
        metrics = end_to_end(s, setup_s, len(steps_ns))
    return {"correct": bool(correct), "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics.metrics}
