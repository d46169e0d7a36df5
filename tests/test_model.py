import dataclasses
import math

import numpy as np
import pytest

from arabner.model import (
    GRU,
    CellParams,
    GruState,
    LSTM,
    LstmState,
    ModelConfig,
    count_params,
    gru_step,
    init_params,
    lstm_step,
    model_backward,
    model_forward,
    zero_params,
    zero_state,
)
from arabner.numerics import log_softmax
from arabner.training import cross_entropy_loss
from fd_oracle import finite_difference_grads, worst_relative_error


def cell_const(G, H, E, w, r, b):
    return CellParams(
        np.full((G * H, E), float(w)), np.full((G * H, H), float(r)), np.full(G * H, float(b))
    )


def lstm_const(H, E, w=0.0, r=0.0, b=0.0, b_f=None):
    p = cell_const(4, H, E, w, r, b)
    if b_f is not None:
        p.b[H : 2 * H] = float(b_f)  # forget-gate block
    return p


def gru_const(H, E, w=0.0, u=0.0, b=0.0, b_z=None):
    p = cell_const(3, H, E, w, u, b)
    if b_z is not None:
        p.b[H : 2 * H] = float(b_z)  # update-gate block
    return p


def zero_model(cell_kind, V=5, E=3, H=4, K=6):
    return zero_params(ModelConfig(cell_kind, V, E, H, K))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig("rnn", 10)
        with pytest.raises(ValueError):
            ModelConfig(LSTM, 1)
        with pytest.raises(ValueError):
            ModelConfig(LSTM, 10, embed_dim=0)


class TestInit:
    def test_deterministic(self):
        cfg = ModelConfig(LSTM, 40, 8, 7, 9, seed=3)
        a = init_params(cfg)
        b = init_params(cfg)
        for (na, ta), (nb, tb) in zip(a.named_tensors(), b.named_tensors()):
            assert na == nb
            assert np.array_equal(ta, tb)

    def test_bias_structure_and_pad_row(self):
        for kind in (LSTM, GRU):
            p = init_params(ModelConfig(kind, 30, 5, 6, 8, seed=1))
            assert np.all(p.cell.b == 0.0)
            assert np.all(p.dense_b == 1.0)  # head bias starts above the ReLU cut
            assert np.all(p.embedding[0] == 0.0)
            assert np.any(p.embedding[1] != 0.0)

    def test_glorot_bound_at_paper_sizes(self):
        p = init_params(ModelConfig(LSTM, 100, 50, 50, 37, seed=0))
        bound = math.sqrt(6.0 / 100.0)  # ~0.2449
        for w in np.split(p.cell.W, 4):  # one Glorot draw per gate block
            assert np.abs(w).max() <= bound
            assert np.abs(w).max() > 0.5 * bound  # actually fills the range

    def test_different_seeds_differ(self):
        a = init_params(ModelConfig(GRU, 30, 5, 6, 8, seed=1))
        b = init_params(ModelConfig(GRU, 30, 5, 6, 8, seed=2))
        assert not np.array_equal(a.embedding, b.embedding)


class TestCountParams:
    def test_paper_values(self):
        assert count_params(ModelConfig(LSTM, 11737, 50, 50, 37)) == 608937
        assert count_params(ModelConfig(GRU, 11737, 50, 50, 37)) == 603887

    def test_hand_example(self):
        assert count_params(ModelConfig(LSTM, 10, 4, 3, 5)) == 156

    def test_gap_is_one_gate_block(self):
        for V, E, H, K in [(11737, 50, 50, 37), (100, 7, 13, 5)]:
            gap = count_params(ModelConfig(LSTM, V, E, H, K)) - count_params(
                ModelConfig(GRU, V, E, H, K)
            )
            assert gap == H * E + H * H + H

    def test_matches_actual_tensor_sizes(self):
        for kind in (LSTM, GRU):
            cfg = ModelConfig(kind, 23, 4, 6, 9, seed=0)
            total = sum(arr.size for _, arr in init_params(cfg).named_tensors())
            assert total == count_params(cfg)


class TestLstmStep:
    def test_zero_params(self):
        p = lstm_const(3, 2)
        state = lstm_step(p, np.array([5.0, -3.0]), LstmState(np.zeros(3), np.zeros(3)))
        assert np.allclose(state.cache["i"], 0.5, atol=0)
        assert np.allclose(state.cache["f"], 0.5, atol=0)
        assert np.allclose(state.cache["o"], 0.5, atol=0)
        assert np.all(state.cache["g"] == 0.0)
        assert np.all(state.c == 0.0) and np.all(state.h == 0.0)

    def test_scalar_hand_example(self):
        p = lstm_const(1, 1, w=1.0, r=1.0)
        state = lstm_step(p, np.array([0.0]), LstmState(np.zeros(1), np.ones(1)))
        assert np.isclose(state.c[0], 0.5, rtol=0, atol=1e-15)
        assert np.isclose(state.h[0], 0.23105857863000487, rtol=0, atol=1e-15)

    def test_forget_gate_saturation(self):
        rng = np.random.default_rng(0)
        p = lstm_const(4, 3, w=0.1, r=0.1, b_f=30.0)
        prev = LstmState(rng.normal(size=4) * 0.5, rng.normal(size=4))
        state = lstm_step(p, rng.normal(size=3), prev)
        expected = prev.c + state.cache["i"] * state.cache["g"]
        assert np.abs(state.c - expected).max() < 1e-12


class TestGruStep:
    def test_zero_params(self):
        p = gru_const(3, 2)
        state = gru_step(p, np.array([1.0, 2.0]), GruState(np.zeros(3)))
        assert np.allclose(state.cache["r"], 0.5, atol=0)
        assert np.allclose(state.cache["z"], 0.5, atol=0)
        assert np.all(state.c == 0.0)

    def test_scalar_hand_example(self):
        # r = z = sigmoid(1); candidate = tanh(r); c = (1-z)*candidate + z
        p = gru_const(1, 1, w=1.0, u=1.0)
        state = gru_step(p, np.array([0.0]), GruState(np.ones(1)))
        s1 = 0.7310585786300049
        assert np.isclose(state.cache["r"][0], s1, rtol=0, atol=1e-15)
        assert np.isclose(state.cache["z"][0], s1, rtol=0, atol=1e-15)
        assert np.isclose(state.cache["n"][0], 0.6237125498258757, rtol=0, atol=1e-15)
        assert np.isclose(state.c[0], 0.8988007183064798, rtol=0, atol=1e-15)

    def test_update_gate_saturation_carries_state(self):
        rng = np.random.default_rng(1)
        p = gru_const(4, 3, w=0.1, u=0.1, b_z=30.0)
        prev = GruState(rng.normal(size=4) * 0.9)
        state = gru_step(p, rng.normal(size=3), prev)
        assert np.abs(state.c - prev.c).max() < 1e-12

    def test_output_is_state(self):
        state = GruState(np.array([0.25, -0.5]))
        assert state.h is state.c


@pytest.mark.parametrize("kind", [LSTM, GRU])
def test_step_shape_mismatch_names_shapes(kind):
    cfg = ModelConfig(kind, 9, 2, 3, 5, seed=0)
    p, step = init_params(cfg).cell, lstm_step if kind == LSTM else gru_step
    with pytest.raises(ValueError, match=r"expected shape \(5, 2\), got \(2,\)"):
        step(p, np.zeros(2), zero_state(cfg, (5,)))  # would broadcast without the check
    with pytest.raises(ValueError, match=r"expected shape \(2,\), got \(4,\)"):
        step(p, np.zeros(4), zero_state(cfg))


class TestForward:
    def test_rows_normalize(self):
        for kind in (LSTM, GRU):
            p = init_params(ModelConfig(kind, 17, 5, 6, 11, seed=2))
            lp, _ = model_forward(p, [1, 3, 16, 0, 5])
            assert np.abs(np.exp(lp).sum(axis=1) - 1.0).max() <= 1e-12

    def test_all_zero_params_give_uniform(self):
        p = zero_model(LSTM, K=6)
        lp, _ = model_forward(p, [1, 2, 3])
        assert np.allclose(lp, -np.log(6.0), rtol=0, atol=1e-15)

    def test_length_one_matches_manual_composition(self):
        cfg = ModelConfig(LSTM, 9, 4, 5, 7, seed=4)
        p = init_params(cfg)
        lp, _ = model_forward(p, [3])
        state = lstm_step(p.cell, p.embedding[3], zero_state(cfg))
        pre = p.dense_w @ state.h + p.dense_b
        manual = log_softmax(np.maximum(pre, 0.0))
        assert np.array_equal(lp[0], manual)

    def test_id_range_check(self):
        p = init_params(ModelConfig(GRU, 5, 3, 3, 4, seed=0))
        with pytest.raises(ValueError, match="out of range"):
            model_forward(p, [0, 5])
        with pytest.raises(ValueError, match="out of range"):
            model_forward(p, [-1])
        with pytest.raises(ValueError, match=r"shape \(0,\)"):
            model_forward(p, [])

    def test_forward_deterministic(self):
        p = init_params(ModelConfig(GRU, 12, 4, 4, 6, seed=5))
        a, _ = model_forward(p, [1, 2, 3, 4])
        b, _ = model_forward(p, [1, 2, 3, 4])
        assert np.array_equal(a, b)


class TestStateBounds:
    def test_lstm_bounds(self):
        rng = np.random.default_rng(6)
        cfg = ModelConfig(LSTM, 20, 6, 5, 7, seed=6)
        p = init_params(cfg)
        for name, arr in p.cell.named_tensors():
            arr += rng.normal(0, 1.0, arr.shape)
        state = zero_state(cfg)
        for t in range(1, 30):
            state = lstm_step(p.cell, rng.normal(size=6), state)
            assert np.abs(state.h).max() < 1.0
            assert np.abs(state.c).max() <= t

    def test_gru_bound(self):
        rng = np.random.default_rng(7)
        cfg = ModelConfig(GRU, 20, 6, 5, 7, seed=7)
        p = init_params(cfg)
        for name, arr in p.cell.named_tensors():
            arr += rng.normal(0, 1.0, arr.shape)
        state = zero_state(cfg)
        for _ in range(30):
            state = gru_step(p.cell, rng.normal(size=6), state)
            assert np.abs(state.c).max() < 1.0


LENGTHS = (5, 2, 4)  # a ragged batch, padded to its longest sentence


class TestBackward:
    def make(self, kind, seed=7, T=5, relu_head=True):
        cfg = ModelConfig(kind, 13, 4, 3, 13, seed=seed, relu_head=relu_head)
        params = init_params(cfg)
        rng = np.random.default_rng(seed + 100)
        for name, arr in params.named_tensors():
            if arr.ndim == 1:  # move biases off their init point
                arr += rng.normal(0, 0.3, arr.shape)
        ids = rng.integers(1, 13, size=T)
        gold = rng.integers(0, 13, size=T)
        mask = np.ones(T)
        return params, ids, gold, mask

    def make_batch(self, kind, relu_head=True):
        """LENGTHS sentences as (B, T) arrays: PAD ids, -1 tags and mask 0 past each end."""
        params, *_ = self.make(kind, relu_head=relu_head)
        rng = np.random.default_rng(3)
        mask = (np.arange(max(LENGTHS)) < np.array(LENGTHS)[:, None]).astype(float)
        ids = np.where(mask > 0, rng.integers(1, 13, size=mask.shape), 0)
        gold = np.where(mask > 0, rng.integers(0, 13, size=mask.shape), -1)
        return params, ids, gold, mask

    @pytest.mark.parametrize("kind", [LSTM, GRU])
    def test_batch_rows_match_single_sentences(self, kind):
        params, ids, gold, mask = self.make_batch(kind)
        lp, _ = model_forward(params, ids, mask)
        assert lp.shape == (len(LENGTHS), max(LENGTHS), 13)
        for row, n in enumerate(LENGTHS):
            single, _ = model_forward(params, ids[row, :n])
            assert np.abs(lp[row, :n] - single).max() <= 1e-12

    @pytest.mark.parametrize("kind", [LSTM, GRU])
    def test_forward_equals_public_step_loop(self, kind):
        # one source of cell math: the batched forward and the step API agree
        params, ids, gold, mask = self.make_batch(kind)
        lp, caches = model_forward(params, ids, mask)
        step = lstm_step if kind == LSTM else gru_step
        states = caches["h" if kind == LSTM else "c"]  # time-first, row 0 the zero state
        for row, n in enumerate(LENGTHS):
            state = zero_state(params.config)
            for t in range(n):
                state = step(params.cell, params.embedding[ids[row, t]], state)
                manual = log_softmax(np.maximum(params.dense_w @ state.h + params.dense_b, 0.0))
                assert np.abs(states[t + 1, row] - state.h).max() <= 1e-12
                assert np.abs(lp[row, t] - manual).max() <= 1e-12

    @pytest.mark.parametrize("kind", [LSTM, GRU])
    def test_batch_gradient_is_token_weighted_sum(self, kind):
        params, ids, gold, mask = self.make_batch(kind)
        lp, caches = model_forward(params, ids, mask)
        _, d = cross_entropy_loss(lp, gold, mask)
        batch = {name: np.asarray(g) for name, g in model_backward(params, caches, d).items()}
        total = {name: np.zeros_like(g) for name, g in batch.items()}
        for row, n in enumerate(LENGTHS):
            lp1, caches1 = model_forward(params, ids[row, :n])
            _, d1 = cross_entropy_loss(lp1, gold[row, :n], np.ones(n))
            for name, g in model_backward(params, caches1, d1).items():
                total[name] += np.asarray(g) * n / sum(LENGTHS)
        for name in batch:
            assert np.abs(batch[name] - total[name]).max() <= 1e-12, name

    @pytest.mark.parametrize("kind", [LSTM, GRU])
    def test_row_sparse_embedding_gradient_is_the_dense_scatter(self, kind):
        params, ids, gold, mask = self.make_batch(kind)
        ids[:, ::2] = np.where(mask[:, ::2] > 0, 5, 0)  # row 5 sums six positions
        lp, caches = model_forward(params, ids, mask)
        _, d = cross_entropy_loss(lp, gold, mask)
        grad = model_backward(params, caches, d)["embedding"]
        # each position's own gradient: the same model with one embedding row per position
        own = dataclasses.replace(
            params,
            config=dataclasses.replace(params.config, vocab_size=ids.size),
            embedding=params.embedding[ids].reshape(ids.size, -1),
        )
        _, own_caches = model_forward(own, np.arange(ids.size).reshape(ids.shape), mask)
        per_position = model_backward(own, own_caches, d)["embedding"].values.reshape(*ids.shape, -1)
        dense = np.zeros_like(params.embedding)
        np.add.at(dense, ids.T, per_position.transpose(1, 0, 2))  # time-first, as the backward
        assert np.array_equal(grad.rows, np.unique(ids))
        assert np.asarray(grad).tobytes() == dense.tobytes()

    def test_zero_upstream_gives_zero_grads(self):
        for kind in (LSTM, GRU):
            params, ids, gold, mask = self.make(kind)
            _, caches = model_forward(params, ids, mask)
            grads = model_backward(params, caches, np.zeros((5, 13)))
            assert all(np.all(np.asarray(g) == 0.0) for g in grads.values())

    def test_unused_embedding_rows_zero(self):
        params, ids, gold, mask = self.make(LSTM)
        lp, caches = model_forward(params, ids, mask)
        _, d = cross_entropy_loss(lp, gold, mask)
        grads = model_backward(params, caches, d)
        unused = set(range(13)) - set(int(i) for i in ids)
        for row in unused:
            assert np.all(np.asarray(grads["embedding"])[row] == 0.0)

    def test_masked_positions_contribute_nothing(self):
        for kind in (LSTM, GRU):
            params, ids, gold, mask = self.make(kind)
            mask = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
            lp, caches = model_forward(params, ids, mask)
            _, d = cross_entropy_loss(lp, gold, mask)
            clean = model_backward(params, caches, d)
            dirty = d.copy()
            dirty[3:] = 123.0  # garbage at masked rows must be ignored
            poked = model_backward(params, caches, dirty)
            for name in clean:
                assert np.array_equal(clean[name], poked[name]), name

    def test_cache_kind_mismatch(self):
        lstm_params, ids, gold, mask = self.make(LSTM)
        gru_params, *_ = self.make(GRU)
        _, caches = model_forward(lstm_params, ids, mask)
        with pytest.raises(ValueError, match="does not match"):
            model_backward(gru_params, caches, np.zeros((5, 13)))

    @pytest.mark.parametrize("kind", [LSTM, GRU])
    @pytest.mark.parametrize("relu_head", [True, False])
    def test_gradients_match_finite_differences(self, kind, relu_head):
        sentence = self.make(kind, relu_head=relu_head)
        sentence[3][-1] = 0.0  # exercise the mask path too
        for params, ids, gold, mask in (sentence, self.make_batch(kind, relu_head=relu_head)):
            lp, caches = model_forward(params, ids, mask)
            _, d = cross_entropy_loss(lp, gold, mask)
            analytic = model_backward(params, caches, d)

            def loss():
                lp2, _ = model_forward(params, ids, mask)
                return cross_entropy_loss(lp2, gold, mask)[0]

            numeric = finite_difference_grads(params, loss, eps=1e-5)
            worst, where = worst_relative_error(analytic, numeric)
            assert worst < 1e-4, f"{ids.shape}: worst relative error {worst} in {where}"

    def test_backward_deterministic(self):
        params, ids, gold, mask = self.make(GRU)
        lp, caches = model_forward(params, ids, mask)
        _, d = cross_entropy_loss(lp, gold, mask)
        a = model_backward(params, caches, d)
        b = model_backward(params, caches, d)
        assert all(np.array_equal(a[k], b[k]) for k in a)
