"""Recurrent sequence model for next-step KPM forecasting.

A single LSTM layer followed by a linear readout, implemented directly on
numpy arrays with analytic backpropagation through time. Given the ten most
recent normalized records of one UE, the model predicts the next record's
six measurement features; the detector turns the prediction error into an
anomaly score.

Weight layout: the four gate blocks (input, forget, cell, output) are
stacked row-wise in ``w_x``/``w_h``/``b``, in that order. Training is
full-batch Adam (Kingma & Ba, arXiv:1412.6980) and fully deterministic for
a fixed seed. Both passes run the batch in blocks of rows small enough that
a block's scratch stays in cache, and share one forward pass: the block's
state is transposed, one (features, rows) buffer ``[x_t; 1; 2h]``, so each
step is one matmul with the stacked ``[w_x | b | w_h]`` weights of
:func:`_stacked_weights`. Inference (:func:`predict`) runs blocks of
:func:`_block_rows` rows on the calling thread and keeps nothing of a
block. Training (:func:`loss_and_grads`) runs blocks of half that on two
threads, the caller and one worker, each over its half of the batch
(synchronous data parallelism, Dean et al., NIPS 2012). It keeps a
block's steps only until it has backpropagated through them, with one
matmul per backward step and one weight-gradient product per block, before
it moves to the next block.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .kpm import FEATURE_COUNT, SEQUENCE_LENGTH

#: Sets the rows per block of both LSTM passes: 256 float64 or 512 float32
#: rows at H=32 for inference, in inverse proportion to H and the item size
#: (see :func:`_block_rows`), and half that for each of training's two
#: threads. At H=32 the scratch of an inference block, about 0.5 MB, stays
#: in cache; a 128-row training block keeps its ten steps, about 2.5 MB, so
#: the two threads' scratch is about 5 MB together.
INFERENCE_BLOCK_BYTES = 640 << 10

#: The one training worker of the process: :func:`loss_and_grads` runs the
#: second half of a batch's blocks on it. It is not the attestation
#: verifier's worker, so a round's digest never queues behind a training
#: share. Its thread starts at the first submit, not at import.
_TRAINER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ricguard-trainer")


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
        if h < 1:
            raise ValueError(f"hidden_size {h}: a model needs at least one hidden unit")
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
    arXiv:1604.01946) plus the element-wise gate arithmetic, both in
    :func:`_forward_step`, which training shares; step 0 reads
    only the first F+1 columns, as h is zero. Each step copies x_t out of
    ``inputs``, which is never written, and writes 2h = 2·o·tanh(c) straight
    into the state; the block's readout is one (F, H) @ (H, rows) product,
    stored transposed into the C-contiguous (n, F) result.
    The gate rows are reordered to i, f, o, g, so the three sigmoid gates
    are one contiguous slice, and every factor 0.5 is deferred, which is
    exact: the gates hold 2·sigma, h is carried as 2h (0.5 folded into the
    recurrent columns and ``w_out``) and c = 0.5·(f'·c + i'·g). Step 0
    skips the terms of the zero c. Scratch is allocated per call.

    The pass runs in the dtype of the model's arrays: its scratch, state and
    predictions take ``model.w_x.dtype``. Training and calibration call it
    with float64 models; :class:`~ricguard.detector.StreamingDetector` scores
    with a float32 copy of its model, on a float32 context.
    """
    _check_inputs(inputs)
    n, t_len, f = inputs.shape
    h_size = model.hidden_size
    dtype = model.w_x.dtype
    weights = _stacked_weights(model)
    w_step0 = weights[:, : f + 1]
    w_out = 0.5 * model.w_out
    block = _block_rows(model)
    rows = min(n, block)
    # flat scratch; a block of m rows takes a contiguous prefix of each
    state_buf = np.empty((f + 1 + h_size) * rows, dtype)
    z_buf = np.empty(4 * h_size * rows, dtype)
    c_buf, term_buf = np.empty(h_size * rows, dtype), np.empty(h_size * rows, dtype)
    predictions = np.empty((n, f), dtype)
    for start in range(0, n, block):
        stop = min(start + block, n)
        m = stop - start
        state = state_buf[: (f + 1 + h_size) * m].reshape(f + 1 + h_size, m)
        z = z_buf[: 4 * h_size * m].reshape(4 * h_size, m)
        c = c_buf[: h_size * m].reshape(h_size, m)
        term = term_buf[: h_size * m].reshape(h_size, m)
        x, h2 = state[:f], state[f + 1 :]
        state[f] = 1.0
        for t in range(t_len):
            x[...] = inputs[start:stop, t].T
            if t:
                _forward_step(weights, state, z, c, c, term, h2, h2)
            else:
                _forward_step(w_step0, state[: f + 1], z, None, c, term, h2, h2)
        np.matmul(h2.T, w_out.T, out=predictions[start:stop])
    predictions += model.b_out
    return predictions


def _forward_step(weights: np.ndarray, state: np.ndarray, z: np.ndarray,
                  c_prev: np.ndarray | None, c: np.ndarray, term: np.ndarray,
                  tanh_c: np.ndarray, h2: np.ndarray) -> None:
    """One LSTM step of both passes on a block's transposed buffers: the
    (4H, rows) gates ``z = weights @ state``, activated in place to
    i', f', o' (2·sigma) and g; then c = 0.5·(f'·c_prev + i'·g), tanh(c) and
    2h = o'·tanh(c). ``c_prev`` is None at step 0, where c is zero; it may
    be ``c`` itself, and ``tanh_c`` may be ``h2``."""
    h_size = len(c)
    np.matmul(weights, state, out=z)
    np.tanh(z, out=z)
    z[: 3 * h_size] += 1.0
    i, fgate = z[:h_size], z[h_size : 2 * h_size]
    o, g = z[2 * h_size : 3 * h_size], z[3 * h_size :]
    if c_prev is None:
        np.multiply(i, g, out=c)
    else:
        np.multiply(c_prev, fgate, out=c)
        np.multiply(i, g, out=term)
        c += term
    c *= 0.5
    np.tanh(c, out=tanh_c)
    np.multiply(tanh_c, o, out=h2)


def _stacked_weights(model: SequenceModel) -> np.ndarray:
    """:func:`predict`'s (4H, F+1+H) step weights ``[w_x | b | 0.5·w_h]``,
    gate blocks reordered from i, f, g, o to i, f, o, g and the three
    sigmoid blocks halved: one stack, one block gather, one scaling."""
    weights = _gate_blocks(np.hstack([model.w_x, model.b[:, None], 0.5 * model.w_h]))
    weights[: 3 * model.hidden_size] *= 0.5
    return weights


def _gate_blocks(rows: np.ndarray) -> np.ndarray:
    """A copy of a (4H, ...) array with its gate blocks reordered from
    i, f, g, o to i, f, o, g, or back: the swap is its own inverse."""
    return rows.reshape(4, len(rows) // 4, -1)[[0, 1, 3, 2]].reshape(len(rows), -1)


def _block_rows(model: SequenceModel) -> int:
    """Rows per block of :func:`predict`: :data:`INFERENCE_BLOCK_BYTES` over
    10·H items of the model's dtype, 256 float64 or 512 float32 rows at
    H=32, and at least one. Each of :func:`loss_and_grads`'s two threads
    keeps the T steps of a block of half that many rows (at least one)."""
    itemsize = model.w_x.dtype.itemsize
    return max(1, INFERENCE_BLOCK_BYTES // (10 * model.hidden_size * itemsize))


def loss_and_grads(model: SequenceModel, inputs: np.ndarray,
                   targets: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """Mean-squared next-step error and analytic gradients (BPTT).

    The training pass: one sweep over blocks of at most half
    :func:`_block_rows` rows, run on two threads. The block list is cut in
    two contiguous halves at a block boundary; the calling thread runs the
    first half (the larger one, for an odd count) and the :data:`_TRAINER`
    worker the second, each with its own scratch and its own running sums,
    in block order (:func:`_train_share`). The batch gradient is a sum over
    windows, so the halves are independent: the caller adds the worker's
    sums after its own. A batch of one block never leaves the caller. The
    split depends only on the row count, so the result is deterministic.
    The caller waits for the worker in a ``finally``, so a failure in
    either share surfaces here and no thread writes the predictions after
    the call returns. The loss is taken once over all predictions, which
    are bit for bit those of :func:`predict`.

    Each share's block runs :func:`predict`'s forward pass, with the same
    stacked weights, matmuls and element-wise arithmetic. It keeps its T
    steps in time-major scratch sized to one block: the states
    ``[x_t; 1; 2h]`` as (T, F+1+H, rows), the gates as (T, 4H, rows), c and
    tanh(c) as (T, H, rows). It then backpropagates through the same steps
    at once, and adds its weight gradients to its share's sums. A
    prediction's gradient depends on the batch only through the element
    count, so no block waits for another.

    Each backward step writes dz in place over the gates: the three sigmoid
    gates, which hold 2·sigma, take their derivative factor s·(2 - s) on one
    contiguous 3H-row slice. dz carries each gate's gradient times 8 (i, f)
    or 4 (o, g), and c's gradient is carried times 2; these exact scalings
    are undone once per call. dh of the previous step is one (H, 4H) @
    (4H, rows) matmul with recurrent weights divided by those scales, and
    tanh(c) comes from the forward pass. A block's weight gradients are one
    batched ``gates @ states^T`` product summed over its steps, which yields
    ``[dW_x | db | dW_h]`` stacked in predict's gate order (Appleyard et al.,
    arXiv:1604.01946). The calling thread allocates both shares' scratch
    once per call.
    """
    _check_batch(inputs, targets)
    n, t_len, f = inputs.shape
    h_size = model.hidden_size
    dz_scale = np.repeat([8.0, 8.0, 4.0, 4.0], h_size)[:, None]  # the same in either gate order
    block = max(1, _block_rows(model) // 2)
    split = min(n, (-(-n // block) + 1) // 2 * block)  # the caller's ceil(blocks / 2)
    w_rec = np.ascontiguousarray((_gate_blocks(model.w_h) / dz_scale).T)
    predictions = np.empty((n, f))
    pass_args = (model, _stacked_weights(model), w_rec, inputs, targets, predictions, block)
    worker = (_TRAINER.submit(_train_share, *pass_args, split, n,
                              _share_scratch(model, t_len, min(n - split, block)))
              if split < n else None)
    try:
        sums = _train_share(*pass_args, 0, split, _share_scratch(model, t_len, min(split, block)))
    finally:
        if worker is not None:
            wait((worker,))
    if worker is not None:
        sums = tuple(mine + theirs for mine, theirs in zip(sums, worker.result()))
    stacked_grad, w_out_grad, b_out_grad = sums
    stacked_grad = _gate_blocks(stacked_grad) / dz_scale
    stacked_grad[:, f + 1 :] *= 0.5  # the states hold 2h
    grads = {
        "w_x": np.ascontiguousarray(stacked_grad[:, :f]),
        "w_h": np.ascontiguousarray(stacked_grad[:, f + 1 :]),
        "b": stacked_grad[:, f].copy(),
        "w_out": 0.5 * w_out_grad,
        "b_out": b_out_grad,
    }
    diff = predictions - targets
    loss = float(np.sum(diff * diff) / predictions.size)
    return loss, grads


def _share_scratch(model: SequenceModel, t_len: int, rows: int) -> list[np.ndarray]:
    """Scratch for one share's blocks of up to ``rows`` rows: flat buffers,
    of which a block of m rows takes a contiguous prefix, and the (T, 4H,
    F+1+H) weight-gradient products. :func:`loss_and_grads` allocates both
    shares' scratch on the calling thread, so the worker's does not open a
    malloc arena of its own (which read about 3 MB more ``rss_peak_mb`` on
    the ``loop-dense`` benchmark)."""
    h_size = model.hidden_size
    width = FEATURE_COUNT + 1 + h_size
    return [np.empty(t_len * width * rows), np.empty(t_len * 4 * h_size * rows),
            np.empty(t_len * h_size * rows), np.empty(t_len * h_size * rows),
            np.empty(3 * h_size * rows), *(np.empty(h_size * rows) for _ in range(4)),
            np.empty((t_len, 4 * h_size, width))]


def _train_share(model: SequenceModel, weights: np.ndarray, w_rec: np.ndarray,
                 inputs: np.ndarray, targets: np.ndarray, predictions: np.ndarray,
                 block: int, begin: int, end: int, scratch: list[np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One thread's share of :func:`loss_and_grads`: the blocks of ``block``
    rows from row ``begin`` to ``end``, in order, in the buffers of
    :func:`_share_scratch`. Writes their rows of ``predictions`` and returns
    the share's sums of the stacked ``[dW_x | db | dW_h]`` (predict's gate
    order, dz scalings not yet undone), ``w_out`` (for 2h) and ``b_out``
    gradients."""
    _, t_len, f = inputs.shape
    h_size = model.hidden_size
    width = f + 1 + h_size
    w_step0 = weights[:, : f + 1]
    w_out = 0.5 * model.w_out
    denom = predictions.size
    (states_buf, gates_buf, cs_buf, tanh_cs_buf, u_buf, h_buf, dh_buf, dc_buf, term_buf,
     products) = scratch
    stacked_grad = np.zeros((4 * h_size, width))
    w_out_grad, b_out_grad = np.zeros_like(model.w_out), np.zeros_like(model.b_out)
    for start in range(begin, end, block):
        stop = min(start + block, end)
        m = stop - start
        states = states_buf[: t_len * width * m].reshape(t_len, width, m)
        gates = gates_buf[: t_len * 4 * h_size * m].reshape(t_len, 4 * h_size, m)
        cs = cs_buf[: t_len * h_size * m].reshape(t_len, h_size, m)
        tanh_cs = tanh_cs_buf[: t_len * h_size * m].reshape(t_len, h_size, m)
        u = u_buf[: 3 * h_size * m].reshape(3 * h_size, m)
        h_last, dh, dc, term = (buf[: h_size * m].reshape(h_size, m)
                                for buf in (h_buf, dh_buf, dc_buf, term_buf))

        states[:, :f] = inputs[start:stop].transpose(1, 2, 0)
        states[:, f] = 1.0
        states[0, f + 1 :] = 0.0  # h before step 0, for the dW_h product
        for t in range(t_len):
            h2 = states[t + 1, f + 1 :] if t + 1 < t_len else h_last
            if t:
                _forward_step(weights, states[t], gates[t], cs[t - 1], cs[t], term, tanh_cs[t], h2)
            else:
                _forward_step(w_step0, states[0, : f + 1], gates[0], None, cs[0], term,
                              tanh_cs[0], h2)
        pred = predictions[start:stop]
        np.matmul(h_last.T, w_out.T, out=pred)
        pred += model.b_out

        d_pred = 2.0 * (pred - targets[start:stop]) / denom
        w_out_grad += d_pred.T @ h_last.T
        b_out_grad += d_pred.sum(axis=0)
        np.matmul(model.w_out.T, d_pred.T, out=dh)
        dc[...] = 0.0  # holds 2·dc
        u_i, u_f, u_o = u[:h_size], u[h_size : 2 * h_size], u[2 * h_size :]
        for t in range(t_len - 1, -1, -1):
            # the gates hold i' = 2i, f' = 2f, o' = 2o and g
            z, tanh_c = gates[t], tanh_cs[t]
            sig, o, g = z[: 3 * h_size], z[2 * h_size : 3 * h_size], z[3 * h_size :]
            i, fgate = z[:h_size], z[h_size : 2 * h_size]
            np.multiply(dh, tanh_c, out=u_o)  # do
            np.multiply(u_o, tanh_c, out=term)  # 2dc += dh · o' · (1 - tanh(c)^2)
            np.subtract(dh, term, out=term)
            term *= o
            dc += term
            np.multiply(dc, g, out=u_i)  # 2di
            if t:
                np.multiply(dc, cs[t - 1], out=u_f)  # 2df
            else:
                u_f[...] = 0.0
            g *= g  # dz_g = 2dc · i' · (1 - g^2) = 4·dg·(1 - g^2)
            np.subtract(1.0, g, out=g)
            g *= i
            g *= dc
            if t:  # 2dc of step t-1 = 2dc · f' / 2
                dc *= fgate
                dc *= 0.5
            # dz of i, f and o: 2di, 2df or do times s·(2 - s) = 4·sigma·(1 - sigma)
            u *= sig
            np.subtract(2.0, sig, out=sig)
            sig *= u
            if t:
                np.matmul(w_rec, z, out=dh)
        stacked_grad += np.matmul(gates, states.transpose(0, 2, 1), out=products).sum(axis=0)
    return stacked_grad, w_out_grad, b_out_grad


@dataclass(frozen=True)
class TrainConfig:
    """Full-batch Adam: model width, epochs, step size and init seed."""

    hidden_size: int = 32
    epochs: int = 30
    learning_rate: float = 1e-3
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.hidden_size < 1:
            raise ValueError(f"hidden_size {self.hidden_size}: a model needs at least one "
                             f"hidden unit")


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
