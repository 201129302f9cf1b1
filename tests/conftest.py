import time
from dataclasses import dataclass

import pytest

from ricguard.detector import DetectorBundle
from ricguard.harness import detector_preset, train_detector_bundle
from ricguard.recurrent import TrainConfig
from ricguard.signatures import synthetic_rulebook


@pytest.fixture(scope="session")
def rulebook():
    return synthetic_rulebook(count=100, seed=1, action_codes="D")


@dataclass
class TimedBundle:
    bundle: DetectorBundle
    train_seconds: float


@pytest.fixture(scope="session")
def trained_bundle():
    """Full-quality bundle on the detector preset; trained once per session."""
    started = time.perf_counter()
    bundle = train_detector_bundle(detector_preset(seed=1))
    return TimedBundle(bundle=bundle, train_seconds=time.perf_counter() - started)


@pytest.fixture(scope="session")
def quick_bundle():
    """Small, fast bundle for pipeline-shape tests (not for accuracy bands)."""
    return train_detector_bundle(
        detector_preset(seed=1),
        TrainConfig(hidden_size=8, epochs=12, learning_rate=5e-3, rng_seed=3),
        train_loops=100,
    )
