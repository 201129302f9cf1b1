"""Recurrent sequence model for next-step KPM forecasting.

A single LSTM layer followed by a linear readout, implemented directly on
numpy arrays with analytic backpropagation through time. Given the ten most
recent normalized records of one UE, the model predicts the next record's
six measurement features; the detector turns the prediction error into an
anomaly score.

Weight layout: the four gate blocks (input, forget, cell, output) are
stacked row-wise in ``w_x``/``w_h``/``b``, in that order. Training is
full-batch Adam (Kingma & Ba, arXiv:1412.6980) and fully deterministic for
a fixed seed. Both passes run the batch in blocks of :func:`_block_rows`
rows, small enough that a block's scratch stays in cache. Inference
(:func:`predict`) keeps nothing of a block: it holds the block's state
transposed, as one (features, rows) buffer ``[x_t; 1; 2h]``, so each step
is one matmul with the stacked ``[w_x | b | w_h]`` weights. Training
(:func:`loss_and_grads`) keeps a block's steps only until it has
backpropagated through them, before it moves to the next block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kpm import FEATURE_COUNT, SEQUENCE_LENGTH

#: Sets the rows per block of both LSTM passes: 256 at H=32, in inverse
#: proportion to H (see :func:`_block_rows`). At H=32 the scratch of an
#: inference block, about 0.5 MB, stays in cache.
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


def _check_batch(inputs: np.ndarray, targets: np.ndarray) -> None:
    """Training batches: windows as :func:`_check_inputs`, one target row of
    F features per window, at least one window (the mean loss of none is
    undefined), and only finite values (a NaN or inf would surface only
    later, as a non-finite loss)."""
    _check_inputs(inputs)
    if targets.shape != (len(inputs), FEATURE_COUNT):
        raise ValueError(f"targets of shape {targets.shape}, expected "
                         f"({len(inputs)}, {FEATURE_COUNT})")
    if not len(inputs):
        raise ValueError("empty training batch: at least one window is needed")
    if not (np.isfinite(inputs).all() and np.isfinite(targets).all()):
        raise ValueError("non-finite training input: windows and targets must be finite")


def predict(model: SequenceModel, inputs: np.ndarray) -> np.ndarray:
    """Next-step feature predictions for a batch of (n, T, F) windows.

    The inference pass: the LSTM of :func:`loss_and_grads`, run over blocks
    of at most :func:`_block_rows` rows so that a block's scratch stays in
    cache, and keeping nothing. A block's state is transposed, one
    (F+1+H, rows) buffer holding ``[x_t; 1; 2h]``, and the weights are one
    (4H, F+1+H) matrix ``[w_x | b | w_h]`` stacked once per call, so each
    step is one matmul into the (4H, rows) gate buffer (Appleyard et al.,
    arXiv:1604.01946) plus the element-wise gate arithmetic; step 0 reads
    only the first F+1 columns, as h is zero. Each step copies x_t out of
    ``inputs``, which is never written, and writes 2h = 2·o·tanh(c) straight
    into the state; the block's readout is one (F, H) @ (H, rows) product,
    stored transposed into the C-contiguous (n, F) result.
    The gate rows are reordered to i, f, o, g, so the three sigmoid gates
    are one contiguous slice, and every factor 0.5 is deferred, which is
    exact: the gates hold 2·sigma, h is carried as 2h (0.5 folded into the
    recurrent columns and ``w_out``) and c = 0.5·(f'·c + i'·g). Step 0
    skips the terms of the zero c. Scratch is allocated per call.
    """
    _check_inputs(inputs)
    n, t_len, f = inputs.shape
    h_size = model.hidden_size
    weights = _stacked_weights(model)
    w_step0 = weights[:, : f + 1]
    w_out = 0.5 * model.w_out
    block = _block_rows(model)
    rows = min(n, block)
    # flat scratch; a block of m rows takes a contiguous prefix of each
    state_buf, z_buf = np.empty((f + 1 + h_size) * rows), np.empty(4 * h_size * rows)
    c_buf, term_buf = np.empty(h_size * rows), np.empty(h_size * rows)
    predictions = np.empty((n, f))
    for start in range(0, n, block):
        stop = min(start + block, n)
        m = stop - start
        state = state_buf[: (f + 1 + h_size) * m].reshape(f + 1 + h_size, m)
        z = z_buf[: 4 * h_size * m].reshape(4 * h_size, m)
        c = c_buf[: h_size * m].reshape(h_size, m)
        term = term_buf[: h_size * m].reshape(h_size, m)
        x, h2 = state[:f], state[f + 1 :]
        i, fgate = z[:h_size], z[h_size : 2 * h_size]
        o, g = z[2 * h_size : 3 * h_size], z[3 * h_size :]
        state[f] = 1.0
        for t in range(t_len):
            x[...] = inputs[start:stop, t].T
            if t:
                np.matmul(weights, state, out=z)
            else:
                np.matmul(w_step0, state[: f + 1], out=z)
            np.tanh(z, out=z)
            z[: 3 * h_size] += 1.0
            if t:
                c *= fgate
                np.multiply(i, g, out=term)
                c += term
            else:
                np.multiply(i, g, out=c)
            c *= 0.5
            np.tanh(c, out=h2)
            h2 *= o
        np.matmul(h2.T, w_out.T, out=predictions[start:stop])
    predictions += model.b_out
    return predictions


def _stacked_weights(model: SequenceModel) -> np.ndarray:
    """:func:`predict`'s (4H, F+1+H) step weights ``[w_x | b | 0.5·w_h]``,
    gate blocks reordered from i, f, g, o to i, f, o, g and the three
    sigmoid blocks halved: one stack, one block gather, one scaling."""
    h_size = model.hidden_size
    weights = np.hstack([model.w_x, model.b[:, None], 0.5 * model.w_h])
    weights = weights.reshape(4, h_size, -1)[[0, 1, 3, 2]]
    weights[:3] *= 0.5
    return weights.reshape(4 * h_size, -1)


def _block_rows(model: SequenceModel) -> int:
    """Rows per block of both :func:`predict` and :func:`loss_and_grads`:
    :data:`INFERENCE_BLOCK_BYTES` over 80·H, 256 rows at H=32, and at least
    one. Training keeps the T steps of a block of that many rows."""
    return max(1, INFERENCE_BLOCK_BYTES // (80 * model.hidden_size))


def loss_and_grads(model: SequenceModel, inputs: np.ndarray,
                   targets: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """Mean-squared next-step error and analytic gradients (BPTT).

    The training pass: one sweep over blocks of at most :func:`_block_rows`
    rows, the block size of :func:`predict`. A block runs its forward pass,
    keeping its T steps of gates, h, c and time-major inputs in scratch sized
    to one block, and writes its predictions; it then backpropagates through
    the same steps at once, writing dz in place over its gates, and adds its
    weight gradients to the totals. A prediction's gradient depends on the
    batch only through the element count, so no block waits for another;
    the loss is taken once over all predictions.

    The scratch is gate-major, (4, T, rows, H), so every element-wise step
    reads and writes whole (rows, H) gates; the input projection of all of
    a block's steps is one batched matmul (Appleyard et al.,
    arXiv:1604.01946). The rows of the sigmoid gates are pre-scaled by 0.5,
    which is exact, so one tanh yields tanh(z/2) for them and
    sigma(z) = 0.5 * (1 + tanh(z/2)). Scratch is allocated once per call.
    """
    _check_batch(inputs, targets)
    n, t_len, f = inputs.shape
    h_size = model.hidden_size
    scale = np.full(4 * h_size, 0.5)
    scale[2 * h_size : 3 * h_size] = 1.0
    # gate-major weights: (4, F, H), (4, 1, H) and (4, H, H). w_x and w_h
    # stay transposed views, so BLAS gets each gate's weights in the layout
    # of a (F or H, 4H) matmul and a one-row block sums as that would.
    w_x = (model.w_x * scale[:, None]).reshape(4, h_size, f).transpose(0, 2, 1)
    b = (model.b * scale).reshape(4, 1, h_size)
    w_h = (model.w_h * scale[:, None]).reshape(4, h_size, h_size).transpose(0, 2, 1)
    block = _block_rows(model)
    rows = min(n, block)
    # flat scratch; a block of m rows takes a contiguous prefix of each
    xs_buf, gates_buf = np.empty(t_len * rows * f), np.empty(4 * t_len * rows * h_size)
    hs_buf, cs_buf = np.empty((t_len + 1) * rows * h_size), np.empty((t_len + 1) * rows * h_size)
    recur_buf, dz_buf = np.empty(4 * rows * h_size), np.empty((rows, 4 * h_size))
    dh_buf, dc_buf, a_buf, b_buf, c_buf = (np.empty((rows, h_size)) for _ in range(5))
    ones = np.ones(t_len * rows)  # sums dz over a block's steps and rows
    predictions = np.empty((n, f))
    denom = predictions.size
    grads = {name: np.zeros_like(param) for name, param in model.parameters().items()}
    for start in range(0, n, block):
        stop = min(start + block, n)
        m = stop - start
        xs = xs_buf[: t_len * m * f].reshape(t_len, m, f)
        gates = gates_buf[: 4 * t_len * m * h_size].reshape(4, t_len, m, h_size)
        hs = hs_buf[: (t_len + 1) * m * h_size].reshape(t_len + 1, m, h_size)
        cs = cs_buf[: (t_len + 1) * m * h_size].reshape(t_len + 1, m, h_size)
        recur = recur_buf[: 4 * m * h_size].reshape(4, m, h_size)
        dz, dh, dc = dz_buf[:m], dh_buf[:m], dc_buf[:m]
        tmp_a, tmp_b, tmp_c = a_buf[:m], b_buf[:m], c_buf[:m]

        xs[...] = inputs[start:stop].transpose(1, 0, 2)
        np.matmul(xs.reshape(t_len * m, f), w_x, out=gates.reshape(4, t_len * m, h_size))
        gates += b[:, None]
        hs[0] = 0.0
        cs[0] = 0.0
        for t in range(t_len):
            z = gates[:, t]
            if t:
                np.matmul(hs[t], w_h, out=recur)
                z += recur
            np.tanh(z, out=z)
            for sig in (z[:2], z[3]):
                sig += 1.0
                sig *= 0.5
            i, fgate, g, o = z
            c_next = cs[t + 1]
            np.multiply(fgate, cs[t], out=c_next)
            np.multiply(i, g, out=tmp_a)
            c_next += tmp_a
            np.tanh(c_next, out=hs[t + 1])
            hs[t + 1] *= o
        pred = predictions[start:stop]
        np.matmul(hs[t_len], model.w_out.T, out=pred)
        pred += model.b_out

        diff = pred - targets[start:stop]
        d_pred = 2.0 * diff / denom
        grads["w_out"] += d_pred.T @ hs[t_len]
        grads["b_out"] += d_pred.sum(axis=0)
        np.matmul(d_pred, model.w_out, out=dh)
        dc[...] = 0.0
        for t in range(t_len - 1, -1, -1):
            i, fgate, g, o = gates[:, t]
            tanh_c = np.tanh(cs[t + 1], out=tmp_a)
            do = np.multiply(dh, tanh_c, out=tmp_b)
            np.multiply(dh, o, out=tmp_c)  # dc += dh * o * (1 - tanh_c^2)
            tanh_c *= tanh_c
            np.subtract(1.0, tanh_c, out=tanh_c)
            tmp_c *= tanh_c
            dc += tmp_c
            # dz over the gates, in place: i, then f (dc becomes dc_prev),
            # then g and o
            di = np.multiply(dc, g, out=tmp_a)
            dg = np.multiply(dc, i, out=tmp_c)
            di *= i
            np.subtract(1.0, i, out=i)
            i *= di
            df = np.multiply(dc, cs[t], out=tmp_a)
            df *= fgate
            dc *= fgate
            np.subtract(1.0, fgate, out=fgate)
            fgate *= df
            g *= g
            np.subtract(1.0, g, out=g)
            g *= dg
            do *= o
            np.subtract(1.0, o, out=o)
            o *= do
            if t:  # dh of step t-1: one (rows, 4H) @ (4H, H) matmul
                np.copyto(dz.reshape(m, 4, h_size), gates[:, t].transpose(1, 0, 2))
                np.matmul(dz, model.w_h, out=dh)
        flat_dz = gates.reshape(4, t_len * m, h_size)
        grads["w_x"] += (flat_dz.transpose(0, 2, 1)
                         @ xs.reshape(t_len * m, f)).reshape(4 * h_size, f)
        grads["w_h"] += (gates[:, 1:].reshape(4, (t_len - 1) * m, h_size).transpose(0, 2, 1)
                         @ hs[1:t_len].reshape((t_len - 1) * m, h_size)).reshape(4 * h_size, h_size)
        grads["b"] += (ones[: t_len * m] @ flat_dz).reshape(-1)
    diff = predictions - targets
    loss = float(np.sum(diff * diff) / denom)
    return loss, grads


@dataclass(frozen=True)
class TrainConfig:
    """Full-batch Adam: model width, epochs, step size and init seed."""

    hidden_size: int = 32
    epochs: int = 30
    learning_rate: float = 1e-3
    rng_seed: int = 0


@dataclass
class TrainResult:
    model: SequenceModel
    epoch_losses: list[float] = field(default_factory=list)


def train_model(inputs: np.ndarray, targets: np.ndarray,
                config: TrainConfig) -> TrainResult:
    """Full-batch Adam on benign windows; deterministic for a seed.

    ``epoch_losses[k]`` is the loss at the start of epoch k, so a healthy
    run shows a decreasing sequence.
    """
    _check_batch(inputs, targets)
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
            raise TrainingError(f"loss {loss} at epoch {epoch} is not finite")
        losses.append(loss)
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
