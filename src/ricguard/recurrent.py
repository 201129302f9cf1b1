"""Recurrent sequence model for next-step KPM forecasting.

A single LSTM layer followed by a linear readout, implemented directly on
numpy arrays with analytic backpropagation through time. Given the ten most
recent normalized records of one UE, the model predicts the next record's
six measurement features; the detector turns the prediction error into an
anomaly score.

Weight layout: the four gate blocks (input, forget, cell, output) are
stacked row-wise in ``w_x``/``w_h``/``b``, in that order. Training is
full-batch and fully deterministic for a fixed seed; its forward pass
(:func:`_forward`) runs the whole batch at once and keeps every step for
backpropagation. Inference (:func:`predict`) runs its own forward pass over
blocks of rows small enough to stay in cache, and keeps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kpm import FEATURE_COUNT, SEQUENCE_LENGTH

#: Scratch bytes of one block of the inference pass: 256 rows at H=32, which
#: keeps a block's gates and state in cache.
INFERENCE_BLOCK_BYTES = 640 << 10


class TrainingError(RuntimeError):
    """Raised when optimisation produces a non-finite loss."""


@dataclass
class SequenceModel:
    """LSTM cell weights plus output projection.

    Shapes: w_x (4H, F), w_h (4H, H), b (4H,), w_out (F, H), b_out (F,), with
    F = :data:`FEATURE_COUNT`; every model reads windows of
    :data:`SEQUENCE_LENGTH` steps.
    """

    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray
    hidden_size: int

    def __post_init__(self) -> None:
        h, f = self.hidden_size, FEATURE_COUNT
        expected = {
            "w_x": (4 * h, f),
            "w_h": (4 * h, h),
            "b": (4 * h,),
            "w_out": (f, h),
            "b_out": (f,),
        }
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite weights")

    def parameters(self) -> dict[str, np.ndarray]:
        return {
            "w_x": self.w_x,
            "w_h": self.w_h,
            "b": self.b,
            "w_out": self.w_out,
            "b_out": self.b_out,
        }


def init_model(hidden_size: int, rng: np.random.Generator) -> SequenceModel:
    """Small uniform init; forget-gate bias starts at 1 so early gradients
    flow through the cell state."""
    h, f = hidden_size, FEATURE_COUNT
    scale = 1.0 / np.sqrt(h)
    b = np.zeros(4 * h)
    b[h : 2 * h] = 1.0
    return SequenceModel(
        w_x=rng.uniform(-scale, scale, size=(4 * h, f)),
        w_h=rng.uniform(-scale, scale, size=(4 * h, h)),
        b=b,
        w_out=rng.uniform(-scale, scale, size=(f, h)),
        b_out=np.zeros(f),
        hidden_size=h,
    )


def _check_inputs(inputs: np.ndarray) -> None:
    if inputs.shape[1:] != (SEQUENCE_LENGTH, FEATURE_COUNT):
        raise ValueError(
            f"inputs of shape {inputs.shape}, expected (n, {SEQUENCE_LENGTH}, {FEATURE_COUNT})"
        )


def _forward(model: SequenceModel, inputs: np.ndarray):
    """Run the LSTM over (n, T, F) inputs; returns the (n, F) predictions,
    the last hidden state and the cache of every step.

    This is the training pass: it runs the whole batch at once and keeps
    every step for :func:`loss_and_grads`. The input projection of every
    step is one matmul into a (T, n, 4H) buffer (Appleyard et al.,
    arXiv:1604.01946); each step adds its recurrent term to its slice and
    activates the gates there, in place. The rows of the sigmoid gates are
    pre-scaled by 0.5, which is exact, so one tanh over the slice yields
    tanh(z/2) for them and sigma(z) = 0.5 * (1 + tanh(z/2)). The cache
    holds views of the buffer.
    """
    _check_inputs(inputs)
    n, t_len, f = inputs.shape
    h_size = model.hidden_size
    scale = np.full(4 * h_size, 0.5)
    scale[2 * h_size : 3 * h_size] = 1.0
    steps = np.ascontiguousarray(inputs.transpose(1, 0, 2))
    gates = (steps.reshape(t_len * n, f) @ (model.w_x.T * scale)).reshape(t_len, n, 4 * h_size)
    gates += model.b * scale
    w_h = model.w_h.T * scale
    h = np.zeros((n, h_size))
    c = np.zeros((n, h_size))
    cache = []
    for t in range(t_len):
        z = gates[t]
        z += h @ w_h
        np.tanh(z, out=z)
        for sig in (z[:, : 2 * h_size], z[:, 3 * h_size :]):
            sig += 1.0
            sig *= 0.5
        i = z[:, :h_size]
        fgate = z[:, h_size : 2 * h_size]
        g = z[:, 2 * h_size : 3 * h_size]
        o = z[:, 3 * h_size :]
        c_next = fgate * c
        c_next += i * g
        h_next = np.tanh(c_next)
        h_next *= o
        cache.append((steps[t], h, c, i, fgate, g, o, c_next))
        h, c = h_next, c_next
    predictions = h @ model.w_out.T + model.b_out
    return predictions, h, cache


def predict(model: SequenceModel, inputs: np.ndarray) -> np.ndarray:
    """Next-step feature predictions for a batch of (n, T, F) windows.

    The inference pass: the arithmetic of :func:`_forward`, run over blocks
    of at most :func:`_block_rows` rows so that a block's scratch stays in
    cache, and keeping nothing; training keeps the whole-batch pass. Each
    step projects its inputs straight into the block's (rows, 4H) gate
    buffer, a strided view of ``inputs`` that is never copied or written.
    The gate columns are reordered to i, f, o, g, so the three sigmoid
    gates are one slice, and every factor 0.5 is deferred, which is exact:
    the gates hold 2·sigma, h is carried as 2h (0.5 folded into ``w_h`` and
    ``w_out``) and c = 0.5·(f'·c + i'·g). Step 0 skips the terms of the zero
    h and c. Scratch is allocated per call.
    """
    _check_inputs(inputs)
    n, t_len, _ = inputs.shape
    h_size = model.hidden_size
    order = np.r_[: 2 * h_size, 3 * h_size : 4 * h_size, 2 * h_size : 3 * h_size]
    scale = np.full(4 * h_size, 0.5)
    scale[3 * h_size :] = 1.0
    w_x = model.w_x[order].T * scale
    b = model.b[order] * scale
    w_h = model.w_h[order].T * (0.5 * scale)
    block = _block_rows(model)
    rows = min(n, block)
    z_buf, recur_buf = np.empty((rows, 4 * h_size)), np.empty((rows, 4 * h_size))
    c_buf, term_buf = np.empty((rows, h_size)), np.empty((rows, h_size))
    hidden = np.empty((n, h_size))  # 2h of every row after the last step
    for start in range(0, n, block):
        stop = min(start + block, n)
        m = stop - start
        z, recur, c, term = z_buf[:m], recur_buf[:m], c_buf[:m], term_buf[:m]
        h2 = hidden[start:stop]
        for t in range(t_len):
            np.matmul(inputs[start:stop, t], w_x, out=z)
            z += b
            if t:
                np.matmul(h2, w_h, out=recur)
                z += recur
            np.tanh(z, out=z)
            z[:, : 3 * h_size] += 1.0
            i = z[:, :h_size]
            o = z[:, 2 * h_size : 3 * h_size]
            g = z[:, 3 * h_size :]
            if t:
                c *= z[:, h_size : 2 * h_size]
                np.multiply(i, g, out=term)
                c += term
            else:
                np.multiply(i, g, out=c)
            c *= 0.5
            np.tanh(c, out=h2)
            h2 *= o
    predictions = hidden @ (0.5 * model.w_out.T)
    predictions += model.b_out
    return predictions


def _block_rows(model: SequenceModel) -> int:
    """Rows per block of :func:`predict`: as many as keep a block's scratch
    (two gate rows of 4H and two state rows of H per row) within
    :data:`INFERENCE_BLOCK_BYTES`, at least one."""
    row_bytes = 8 * (2 * 4 + 2) * model.hidden_size
    return max(1, INFERENCE_BLOCK_BYTES // row_bytes)


def loss_and_grads(model: SequenceModel, inputs: np.ndarray,
                   targets: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """Mean-squared next-step error and analytic gradients (BPTT)."""
    n = inputs.shape[0]
    h_size = model.hidden_size
    predictions, h_last, cache = _forward(model, inputs)
    diff = predictions - targets
    denom = diff.size
    loss = float(np.sum(diff * diff) / denom)

    d_pred = 2.0 * diff / denom
    grads = {
        "w_out": d_pred.T @ h_last,
        "b_out": d_pred.sum(axis=0),
        "w_x": np.zeros_like(model.w_x),
        "w_h": np.zeros_like(model.w_h),
        "b": np.zeros_like(model.b),
    }
    dh = d_pred @ model.w_out
    dc = np.zeros((n, h_size))
    for t in range(SEQUENCE_LENGTH - 1, -1, -1):
        x_t, h_prev, c_prev, i, fgate, g, o, c_next = cache[t]
        tanh_c = np.tanh(c_next)
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        df = dc * c_prev
        di = dc * g
        dg = dc * i
        dc_prev = dc * fgate
        dz = np.concatenate(
            [
                di * i * (1.0 - i),
                df * fgate * (1.0 - fgate),
                dg * (1.0 - g * g),
                do * o * (1.0 - o),
            ],
            axis=1,
        )
        grads["w_x"] += dz.T @ x_t
        grads["w_h"] += dz.T @ h_prev
        grads["b"] += dz.sum(axis=0)
        dh = dz @ model.w_h
        dc = dc_prev
    return loss, grads


@dataclass(frozen=True)
class TrainConfig:
    hidden_size: int = 32
    epochs: int = 30
    learning_rate: float = 1e-3
    rng_seed: int = 0
    optimizer: str = "gd"  # "gd" (full-batch gradient descent) or "adam"


@dataclass
class TrainResult:
    model: SequenceModel
    epoch_losses: list[float] = field(default_factory=list)


def train_model(inputs: np.ndarray, targets: np.ndarray,
                config: TrainConfig) -> TrainResult:
    """Full-batch training on benign windows; deterministic for a seed.

    ``epoch_losses[k]`` is the loss at the start of epoch k, so a healthy
    run shows a decreasing sequence.
    """
    if config.optimizer not in ("gd", "adam"):
        raise ValueError(f"unknown optimizer {config.optimizer!r}")
    _check_inputs(inputs)
    if targets.shape != (len(inputs), FEATURE_COUNT):
        raise ValueError(f"targets of shape {targets.shape}, expected "
                         f"({len(inputs)}, {FEATURE_COUNT})")
    rng = np.random.default_rng(config.rng_seed)
    model = init_model(config.hidden_size, rng)
    params = model.parameters()
    adam_m = {k: np.zeros_like(v) for k, v in params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    losses: list[float] = []
    for epoch in range(config.epochs):
        loss, grads = loss_and_grads(model, inputs, targets)
        if not np.isfinite(loss):
            raise TrainingError(
                f"non-finite loss at epoch {epoch}; lower the learning rate"
            )
        losses.append(loss)
        if config.optimizer == "gd":
            for name, param in params.items():
                param -= config.learning_rate * grads[name]
        else:
            step = epoch + 1
            for name, param in params.items():
                adam_m[name] = beta1 * adam_m[name] + (1 - beta1) * grads[name]
                adam_v[name] = beta2 * adam_v[name] + (1 - beta2) * grads[name] ** 2
                m_hat = adam_m[name] / (1 - beta1**step)
                v_hat = adam_v[name] / (1 - beta2**step)
                param -= config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return TrainResult(model=model, epoch_losses=losses)


def numerical_gradients(model: SequenceModel, inputs: np.ndarray,
                        targets: np.ndarray, step: float = 1e-5) -> dict[str, np.ndarray]:
    """Central finite differences over every parameter; tiny models only."""

    def loss_at() -> float:
        predictions = predict(model, inputs)
        diff = predictions - targets
        return float(np.sum(diff * diff) / diff.size)

    grads: dict[str, np.ndarray] = {}
    for name, param in model.parameters().items():
        grad = np.zeros_like(param)
        flat = param.reshape(-1)
        grad_flat = grad.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            upper = loss_at()
            flat[idx] = original - step
            lower = loss_at()
            flat[idx] = original
            grad_flat[idx] = (upper - lower) / (2.0 * step)
        grads[name] = grad
    return grads


def gradient_relative_error(analytic: dict[str, np.ndarray],
                            numeric: dict[str, np.ndarray]) -> float:
    """Worst per-tensor norm ratio ||ga - gn|| / max(||ga||, ||gn||)."""
    worst = 0.0
    for name, ga in analytic.items():
        gn = numeric[name]
        scale = max(float(np.linalg.norm(ga)), float(np.linalg.norm(gn)), 1e-12)
        worst = max(worst, float(np.linalg.norm(ga - gn)) / scale)
    return worst
