import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from ricguard import recurrent
from ricguard.recurrent import (
    SequenceModel,
    TrainConfig,
    TrainingError,
    _block_rows,
    gradient_relative_error,
    init_model,
    loss_and_grads,
    numerical_gradients,
    predict,
    train_model,
)


def tiny_data(n=3, seed=42):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 10, 6)), rng.standard_normal((n, 6))


def whole_batch_loss_and_grads(model, inputs, targets):
    """Reference training pass: the whole batch's forward, keeping every
    step, then BPTT over the whole batch one step at a time, in the rows-by-
    gates layout with the model's own i, f, g, o gate order, and without
    deferring any factor 0.5. Returns the loss, the gradients and the (n, F)
    predictions."""
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

    diff = predictions - targets
    denom = diff.size
    loss = float(np.sum(diff * diff) / denom)
    d_pred = 2.0 * diff / denom
    grads = {
        "w_out": d_pred.T @ h,
        "b_out": d_pred.sum(axis=0),
        "w_x": np.zeros_like(model.w_x),
        "w_h": np.zeros_like(model.w_h),
        "b": np.zeros_like(model.b),
    }
    dh = d_pred @ model.w_out
    dc = np.zeros((n, h_size))
    for t in range(t_len - 1, -1, -1):
        x_t, h_prev, c_prev, i, fgate, g, o, c_next = cache[t]
        tanh_c = np.tanh(c_next)
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        dz = np.concatenate([
            dc * g * i * (1.0 - i),
            dc * c_prev * fgate * (1.0 - fgate),
            dc * i * (1.0 - g * g),
            do * o * (1.0 - o),
        ], axis=1)
        grads["w_x"] += dz.T @ x_t
        grads["w_h"] += dz.T @ h_prev
        grads["b"] += dz.sum(axis=0)
        dh = dz @ model.w_h
        dc = dc * fgate
    return loss, grads, predictions


ROW_COUNTS = [lambda block: 1, lambda block: 7, lambda block: block - 1, lambda block: block,
              lambda block: block + 1]
ROW_IDS = ["1", "7", "block-1", "block", "block+1"]

#: row counts of a training pass, from the block of one of its threads: one
#: block or less stays on the caller; block + 1 gives the worker its first
#: block; 2·block + 3 splits three blocks two to one, 3·block + 5 four
#: blocks two to two
TRAIN_ROW_COUNTS = ROW_COUNTS + [lambda block: 2 * block + 3, lambda block: 3 * block + 5,
                                 lambda block: 5500]
TRAIN_ROW_IDS = ROW_IDS + ["2block+3", "3block+5", "5500"]


def training_block(model):
    """Rows per block of each of ``loss_and_grads``'s two threads."""
    return max(1, _block_rows(model) // 2)


def is_trainer(thread):
    return thread.name.startswith("ricguard-trainer")


class TestGradients:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(42)
        model = init_model(4, rng)
        inputs, targets = tiny_data()
        _, analytic = loss_and_grads(model, inputs, targets)
        numeric = numerical_gradients(model, inputs, targets)
        assert gradient_relative_error(analytic, numeric) < 1e-4

    def test_gradients_after_some_training(self):
        # check away from the init point too
        inputs, targets = tiny_data(seed=5)
        model = train_model(inputs, targets,
                            TrainConfig(hidden_size=4, epochs=20,
                                        learning_rate=0.05, rng_seed=1)).model
        _, analytic = loss_and_grads(model, inputs, targets)
        numeric = numerical_gradients(model, inputs, targets)
        assert gradient_relative_error(analytic, numeric) < 1e-4

    def test_central_differences_across_a_block_boundary(self):
        rng = np.random.default_rng(13)
        model = init_model(4, rng)
        model.b[:] = rng.uniform(-1.0, 1.0, size=model.b.shape)
        inputs, targets = tiny_data(n=_block_rows(model) + 3, seed=14)
        _, analytic = loss_and_grads(model, inputs, targets)
        numeric = numerical_gradients(model, inputs, targets)
        assert gradient_relative_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("rows_of_block, loss_rel",
                             [(rows, 1e-12 if name == "5500" else 0.0)
                              for rows, name in zip(TRAIN_ROW_COUNTS, TRAIN_ROW_IDS)],
                             ids=TRAIN_ROW_IDS)
    def test_blocked_pass_matches_whole_batch(self, rows_of_block, loss_rel):
        """Blocks, and the two threads' sums, add the weight gradients in
        another order, so they agree with the whole-batch pass to rounding;
        the loss is bit for bit. Only at 5500 rows does the reference round
        its predictions otherwise, so the two losses differ in the last bit
        there (as they did with one thread); the loss is still bit for bit
        that of ``predict``, below."""
        model, rng = h32_model()
        n = rows_of_block(training_block(model))
        inputs = rng.standard_normal((n, 10, 6)) * 2.0
        targets = rng.standard_normal((n, 6))
        loss, grads = loss_and_grads(model, inputs, targets)
        ref_loss, ref_grads, _ = whole_batch_loss_and_grads(model, inputs, targets)
        assert abs(loss - ref_loss) <= loss_rel * abs(ref_loss)
        for name, ref in ref_grads.items():
            assert gradient_relative_error({name: grads[name]}, {name: ref}) < 1e-12, name

    @pytest.mark.parametrize("hidden_size", [8, 16, 32])
    @pytest.mark.parametrize("rows_of_block", TRAIN_ROW_COUNTS, ids=TRAIN_ROW_IDS)
    def test_loss_is_the_loss_of_predict_bit_for_bit(self, hidden_size, rows_of_block):
        """Training and inference share one forward pass, so the training
        loss is the mean squared error of ``predict``'s outputs exactly."""
        rng = np.random.default_rng(hidden_size)
        model = init_model(hidden_size, rng)
        model.b[:] = rng.uniform(-1.0, 1.0, size=model.b.shape)
        n = rows_of_block(training_block(model))
        rng = np.random.default_rng(n)
        inputs = rng.standard_normal((n, 10, 6)) * 2.0
        targets = rng.standard_normal((n, 6))
        loss, _ = loss_and_grads(model, inputs, targets)
        assert loss == float(np.sum((predict(model, inputs) - targets) ** 2) / targets.size)

    def test_scratch_is_one_block(self):
        """The whole-batch pass peaks at about 113 MB here. The two threads'
        half blocks together, with the predictions, peak at about 6 MB, as
        one full block on one thread did."""
        model, rng = h32_model()
        inputs = rng.standard_normal((5500, 10, 6))
        targets = rng.standard_normal((5500, 6))
        tracemalloc.start()
        try:
            loss_and_grads(model, inputs, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20


class TestTwoThreads:
    """``loss_and_grads`` runs the second half of its blocks on one worker
    thread; these tests pin down how the halves meet."""

    def batch(self, seed=21):
        model, rng = h32_model(seed)
        n = 3 * training_block(model) + 5
        return model, rng.standard_normal((n, 10, 6)), rng.standard_normal((n, 6))

    def test_worker_failure_surfaces_in_the_caller(self, monkeypatch):
        model, inputs, targets = self.batch()
        share = recurrent._train_share

        def failing_on_worker(*args):
            if is_trainer(threading.current_thread()):
                raise RuntimeError("worker share failed")
            return share(*args)

        monkeypatch.setattr(recurrent, "_train_share", failing_on_worker)
        with pytest.raises(RuntimeError, match="^worker share failed$"):
            loss_and_grads(model, inputs, targets)
        monkeypatch.setattr(recurrent, "_train_share", share)
        loss_and_grads(model, inputs, targets)  # the worker still serves

    def test_caller_failure_waits_for_the_worker(self, monkeypatch):
        """No thread writes the predictions after the call has returned."""
        model, inputs, targets = self.batch()
        share = recurrent._train_share
        finished = []

        def slow_worker_failing_caller(*args):
            if not is_trainer(threading.current_thread()):
                raise RuntimeError("caller share failed")
            time.sleep(0.2)
            result = share(*args)
            finished.append(True)
            return result

        monkeypatch.setattr(recurrent, "_train_share", slow_worker_failing_caller)
        with pytest.raises(RuntimeError, match="^caller share failed$"):
            loss_and_grads(model, inputs, targets)
        assert finished == [True]

    def test_concurrent_callers_get_the_sequential_results(self):
        """More callers than cores, switching threads often: each gets what
        it gets alone, bit for bit, though all share the one worker."""
        batches = [self.batch(seed) for seed in (22, 23, 24)]
        expected = [loss_and_grads(*batch) for batch in batches]
        got = [None] * len(batches)
        start = threading.Barrier(len(batches))

        def call(k):
            start.wait()
            got[k] = loss_and_grads(*batches[k])

        threads = [threading.Thread(target=call, args=(k,)) for k in range(len(batches))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for (loss, grads), (ref_loss, ref_grads) in zip(got, expected):
            assert loss == ref_loss
            for name, ref in ref_grads.items():
                assert np.array_equal(grads[name], ref), name

    def test_repeated_training_adds_at_most_one_thread(self):
        model = init_model(8, np.random.default_rng(0))
        inputs, targets = tiny_data(n=3 * training_block(model) + 5, seed=6)
        before = threading.active_count()
        for seed in range(3):
            train_model(inputs, targets,
                        TrainConfig(hidden_size=8, epochs=2, learning_rate=1e-2, rng_seed=seed))
        assert threading.active_count() <= before + 1
        assert sum(map(is_trainer, threading.enumerate())) == 1


def textbook_predict(model, inputs):
    """Per-window, per-step LSTM with the exp form of the sigmoid."""
    h_size = model.hidden_size

    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    predictions = []
    for window in inputs:
        h = np.zeros(h_size)
        c = np.zeros(h_size)
        for x in window:
            z = model.w_x @ x + model.w_h @ h + model.b
            i, f = sigmoid(z[:h_size]), sigmoid(z[h_size : 2 * h_size])
            g, o = np.tanh(z[2 * h_size : 3 * h_size]), sigmoid(z[3 * h_size :])
            c = f * c + i * g
            h = o * np.tanh(c)
        predictions.append(model.w_out @ h + model.b_out)
    return np.array(predictions)


class TestForward:
    def test_predict_matches_textbook_lstm(self):
        rng = np.random.default_rng(7)
        model = init_model(5, rng)
        model.b[:] = rng.uniform(-1.0, 1.0, size=model.b.shape)
        inputs = rng.standard_normal((9, 10, 6)) * 2.0
        assert predict(model, inputs) == pytest.approx(textbook_predict(model, inputs),
                                                       rel=1e-12)

    def test_inputs_left_unmodified(self):
        model = init_model(4, np.random.default_rng(0))
        inputs, targets = tiny_data(n=2 * _block_rows(model) + 3, seed=9)  # several blocks
        original = inputs.copy()
        predict(model, inputs)
        loss_and_grads(model, inputs, targets)
        assert np.array_equal(inputs, original)


def h32_model(seed=11):
    rng = np.random.default_rng(seed)
    model = init_model(32, rng)
    model.b[:] = rng.uniform(-1.0, 1.0, size=model.b.shape)
    return model, rng


class TestBlockedInference:
    """``predict`` runs blocks of rows with the 0.5 factors deferred; the
    reference runs the whole batch. The LSTM is the same, but the rounding
    is not, so the outputs agree to rounding, not bit for bit."""

    @pytest.mark.parametrize("rows_of_block", ROW_COUNTS + [lambda block: 2000,
                                                            lambda block: 5000],
                             ids=ROW_IDS + ["2000", "5000"])
    def test_matches_whole_batch_forward(self, rows_of_block):
        model, rng = h32_model()
        n = rows_of_block(_block_rows(model))
        inputs = rng.standard_normal((n, 10, 6)) * 2.0
        _, _, whole = whole_batch_loss_and_grads(model, inputs, np.zeros((n, 6)))
        assert predict(model, inputs) == pytest.approx(whole, rel=1e-12)

    def test_empty_batch(self):
        model, _ = h32_model()
        assert predict(model, np.empty((0, 10, 6))).shape == (0, 6)

    def test_rows_match_one_row_predict_across_blocks(self):
        """Every row of a three-block batch scores as its window alone does,
        and the call writes neither the inputs nor the model."""
        model, rng = h32_model()
        n = 2 * _block_rows(model) + 37
        inputs = rng.standard_normal((n, 10, 6)) * 2.0
        original_inputs = inputs.copy()
        original_params = {name: param.copy() for name, param in model.parameters().items()}
        batch = predict(model, inputs)
        assert batch.shape == (n, 6)
        assert batch.dtype == np.float64
        assert batch.flags.c_contiguous
        for row in range(n):
            assert batch[row] == pytest.approx(predict(model, inputs[row : row + 1])[0],
                                               rel=1e-12), row
        assert np.array_equal(inputs, original_inputs)
        for name, param in model.parameters().items():
            assert np.array_equal(param, original_params[name]), name

    @pytest.mark.parametrize("n", [1, 64, 257, 2000])
    def test_stacked_weights_match_fancy_index_reference(self, monkeypatch, n):
        """The step weights come from one stack, one gather of the four gate
        blocks and one scaling; ``predict`` is bit for bit what it was with
        the per-row index and scale vector."""
        def reference(model):
            h = model.hidden_size
            order = np.r_[: 2 * h, 3 * h : 4 * h, 2 * h : 3 * h]
            scale = np.full((4 * h, 1), 0.5)
            scale[3 * h :] = 1.0
            return np.hstack([model.w_x[order], model.b[order, None],
                              0.5 * model.w_h[order]]) * scale

        model, rng = h32_model()
        inputs = rng.standard_normal((n, 10, 6)) * 2.0
        stacked = recurrent._stacked_weights(model)
        assert stacked.flags.c_contiguous
        assert np.array_equal(stacked, reference(model))
        got = predict(model, inputs)
        monkeypatch.setattr(recurrent, "_stacked_weights", reference)
        assert np.array_equal(got, predict(model, inputs))

    def test_scratch_is_one_block(self):
        """Projecting every step of every row up front would peak at about
        205 MB here; the output and one block's scratch take about 1.5 MB."""
        model, rng = h32_model()
        inputs = rng.standard_normal((20_000, 10, 6))
        tracemalloc.start()
        try:
            predict(model, inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 << 20


class TestTraining:
    def test_deterministic_weights_for_fixed_seed(self):
        """On a batch whose blocks span both threads."""
        config = TrainConfig(hidden_size=8, epochs=10, learning_rate=1e-2, rng_seed=99)
        model = init_model(config.hidden_size, np.random.default_rng(0))
        inputs, targets = tiny_data(n=3 * training_block(model) + 5)
        first = train_model(inputs, targets, config).model
        second = train_model(inputs, targets, config).model
        for name, param in first.parameters().items():
            assert np.array_equal(param, second.parameters()[name])

    def test_weights_match_an_adam_loop_over_the_whole_batch_reference(self):
        inputs, targets = tiny_data(n=20, seed=4)
        config = TrainConfig(hidden_size=8, epochs=3, learning_rate=1e-2, rng_seed=5)
        trained = train_model(inputs, targets, config).model
        model = init_model(config.hidden_size, np.random.default_rng(config.rng_seed))
        params = model.parameters()
        adam_m = {name: np.zeros_like(param) for name, param in params.items()}
        adam_v = {name: np.zeros_like(param) for name, param in params.items()}
        for step in range(1, config.epochs + 1):
            _, grads, _ = whole_batch_loss_and_grads(model, inputs, targets)
            for name, param in params.items():
                adam_m[name] = 0.9 * adam_m[name] + 0.1 * grads[name]
                adam_v[name] = 0.999 * adam_v[name] + 0.001 * grads[name] ** 2
                m_hat = adam_m[name] / (1 - 0.9**step)
                v_hat = adam_v[name] / (1 - 0.999**step)
                param -= config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert gradient_relative_error(trained.parameters(), params) < 1e-12

    def test_loss_decreases_on_fixed_corpus(self):
        inputs, targets = tiny_data(n=50, seed=3)
        result = train_model(inputs, targets,
                             TrainConfig(hidden_size=8, epochs=30,
                                         learning_rate=1e-2, rng_seed=0))
        assert result.epoch_losses[-1] < result.epoch_losses[0]
        # tolerate tiny transient upticks only
        increases = [
            b - a for a, b in zip(result.epoch_losses, result.epoch_losses[1:]) if b > a
        ]
        assert all(delta < 1e-6 for delta in increases)

    def test_constant_corpus_converges_to_constant(self):
        constant = np.full((40, 10, 6), 0.5)
        targets = np.full((40, 6), 0.5)
        result = train_model(constant, targets,
                             TrainConfig(hidden_size=8, epochs=300,
                                         learning_rate=0.2, rng_seed=2))
        prediction = predict(result.model, constant[:1])
        assert float(np.mean((prediction - 0.5) ** 2)) < 1e-4

    def test_divergent_rate_raises(self):
        # Adam moves a weight by about the learning rate per step, so only a
        # rate near the float range overflows the loss; that overflow is the
        # point of the test, so numpy's warnings about it are silenced
        inputs, targets = tiny_data(n=30, seed=8)
        with np.errstate(over="ignore"), pytest.raises(
                TrainingError, match=r"^loss (nan|-?inf) at epoch \d+ is not finite$"):
            train_model(inputs * 100, targets * 100,
                        TrainConfig(hidden_size=8, epochs=200,
                                    learning_rate=1e154, rng_seed=0))

    def test_empty_batch_rejected_before_training(self, monkeypatch):
        import ricguard.recurrent as recurrent

        monkeypatch.setattr(recurrent, "loss_and_grads", lambda *args: pytest.fail("trained"))
        with pytest.raises(ValueError, match="empty"):
            train_model(np.empty((0, 10, 6)), np.empty((0, 6)), TrainConfig(hidden_size=4))

    @pytest.mark.parametrize("where", ["inputs", "targets"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_batch_rejected_before_training(self, monkeypatch, where, value):
        import ricguard.recurrent as recurrent

        batch = {"inputs": np.zeros((4, 10, 6)), "targets": np.zeros((4, 6))}
        batch[where].flat[5] = value
        with pytest.raises(ValueError, match="non-finite"):
            loss_and_grads(init_model(4, np.random.default_rng(0)), **batch)
        monkeypatch.setattr(recurrent, "loss_and_grads", lambda *args: pytest.fail("trained"))
        with pytest.raises(ValueError, match="non-finite"):
            train_model(batch["inputs"], batch["targets"], TrainConfig(hidden_size=4))

    @pytest.mark.parametrize("targets_shape", [(6,), (3,), (3, 1), (3, 6, 1), (2, 6)])
    def test_loss_rejects_targets_of_another_shape(self, targets_shape):
        """(6,) targets would broadcast against the (3, 6) predictions."""
        model = init_model(4, np.random.default_rng(0))
        inputs, _ = tiny_data()
        with pytest.raises(ValueError, match=r"targets of shape"):
            loss_and_grads(model, inputs, np.zeros(targets_shape))



class TestModelValidation:
    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        model = init_model(4, rng)
        with pytest.raises(ValueError):
            SequenceModel(
                w_x=model.w_x[:, :3], w_h=model.w_h, b=model.b,
                w_out=model.w_out, b_out=model.b_out, hidden_size=4,
            )

    def test_non_finite_weights_rejected(self):
        rng = np.random.default_rng(0)
        model = init_model(4, rng)
        bad = model.w_x.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            SequenceModel(w_x=bad, w_h=model.w_h, b=model.b,
                          w_out=model.w_out, b_out=model.b_out, hidden_size=4)

    def test_config_without_hidden_units_rejected(self):
        with pytest.raises(ValueError, match="at least one hidden unit"):
            TrainConfig(hidden_size=0)

    def test_wrong_window_length_rejected(self):
        rng = np.random.default_rng(0)
        model = init_model(4, rng)
        with pytest.raises(ValueError):
            predict(model, rng.standard_normal((2, 7, 6)))
