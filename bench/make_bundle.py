"""Regenerate the fixed detector bundle that the loop workloads load.

The bundle is trained once with ``harness.DEFAULT_TRAIN_CONFIG`` on the
benign ``detector_preset(seed=1)`` collection and saved in the frozen KPMD
format. Loading it, instead of training at set-up, keeps training numerics
out of the loop timings and out of the detection figures; the ``train``
workload measures training on its own.

Run from the repository root (about a minute on two cores)::

    python3 bench/make_bundle.py            # writes bench/detector-h32.kpmd

Training is deterministic, so rerunning it on an unchanged tree rewrites the
file byte for byte.

BLAS is pinned to one thread before numpy loads: with two threads the
trained weights differ in their last digits.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
BUNDLE_PATH = HERE / "detector-h32.kpmd"
sys.path.insert(0, str(HERE.parent / "src"))

from ricguard.detector import save_bundle  # noqa: E402
from ricguard.harness import DEFAULT_TRAIN_CONFIG, detector_preset, train_detector_bundle  # noqa: E402


def main() -> int:
    bundle = train_detector_bundle(detector_preset(seed=1), DEFAULT_TRAIN_CONFIG)
    save_bundle(bundle, BUNDLE_PATH)
    print(f"wrote {BUNDLE_PATH} (threshold {bundle.threshold!r})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
