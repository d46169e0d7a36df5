import builtins
import copy
import functools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arabner.training
from arabner.cli import EXIT_MISMATCH, EXIT_OK, main
from arabner.bioes import EntitySpan, id_to_tag, parse_tag, tag_strings
from arabner.corpus import TaggedSentence, Vocabulary, encode_sentence, read_corpus
from arabner.model import (
    GRU,
    LSTM,
    ModelConfig,
    RowGrad,
    count_params,
    init_params,
    model_backward,
    model_forward,
)
from arabner.training import (
    ADAM_LIVE_SHARE,
    BETA1,
    BETA2,
    EPSILON,
    AdamState,
    Checkpoint,
    CheckpointError,
    NonFiniteGradientError,
    TrainConfig,
    TrainingDivergedError,
    _spans_lenient,
    _split_metrics,
    adam_step,
    cross_entropy_loss,
    evaluate,
    load_checkpoint,
    predict_lines,
    predict_tags,
    save_checkpoint,
    token_accuracy,
    train,
)

DATA = Path(__file__).parent / "data"
V1 = DATA / "ckpt_v1"  # written by the per-gate code that defined format v1


def uniform_log_probs(T, K):
    return np.full((T, K), -np.log(float(K)))


class TestCrossEntropy:
    def test_uniform_is_log_k(self):
        loss, d = cross_entropy_loss(uniform_log_probs(4, 37), np.zeros(4, int), np.ones(4))
        assert abs(loss - np.log(37.0)) <= 1e-12

    def test_perfect_prediction_zero_loss(self):
        lp = np.full((3, 5), -1e9)
        gold = np.array([1, 0, 4])
        lp[np.arange(3), gold] = 0.0
        loss, _ = cross_entropy_loss(lp, gold, np.ones(3))
        assert loss == 0.0

    def test_hand_example(self):
        lp = np.log(np.array([[0.75, 0.25], [0.25, 0.75]]))
        loss, d = cross_entropy_loss(lp, np.array([0, 0]), np.ones(2))
        assert np.isclose(loss, 0.8369882167858358, rtol=0, atol=1e-12)
        assert np.allclose(d, [[-0.5, 0.0], [-0.5, 0.0]], atol=0)

    def test_gradient_structure_with_mask(self):
        lp = uniform_log_probs(3, 4)
        gold = np.array([2, 1, 3])
        mask = np.array([1.0, 0.0, 1.0])
        loss, d = cross_entropy_loss(lp, gold, mask)
        expected = np.zeros((3, 4))
        expected[0, 2] = -0.5
        expected[2, 3] = -0.5
        assert np.array_equal(d, expected)
        assert abs(loss - np.log(4.0)) <= 1e-12

    def test_masked_rows_ignored_entirely(self):
        lp = uniform_log_probs(3, 4)
        gold = np.array([2, 1, 3])
        mask = np.array([1.0, 0.0, 1.0])
        base_loss, base_d = cross_entropy_loss(lp, gold, mask)
        lp2 = lp.copy()
        lp2[1] = [-50.0, -0.001, -40.0, -30.0]
        loss2, d2 = cross_entropy_loss(lp2, gold, mask)
        assert loss2 == base_loss
        assert np.array_equal(base_d, d2)
        # sentinel -1 gold at a masked row must be tolerated
        gold_sentinel = np.array([2, -1, 3])
        loss3, _ = cross_entropy_loss(lp, gold_sentinel, mask)
        assert loss3 == base_loss

    def test_batch_axes_count_as_positions(self):
        rng = np.random.default_rng(4)
        lp = np.log(rng.dirichlet(np.ones(5), size=(3, 4)))
        gold = rng.integers(0, 5, size=(3, 4))
        mask = np.array([[1.0] * 4, [1.0, 1.0, 0.0, 0.0], [1.0] * 3 + [0.0]])
        loss, d = cross_entropy_loss(lp, gold, mask)
        flat_loss, flat_d = cross_entropy_loss(lp.reshape(12, 5), gold.ravel(), mask.ravel())
        assert loss == pytest.approx(flat_loss, rel=1e-15)
        assert np.array_equal(d.reshape(12, 5), flat_d)
        acc = token_accuracy(lp, gold, mask)
        assert acc == token_accuracy(lp.reshape(12, 5), gold.ravel(), mask.ravel())

    def test_errors(self):
        with pytest.raises(ValueError, match="empty sentence"):
            cross_entropy_loss(uniform_log_probs(2, 3), np.zeros(2, int), np.zeros(2))
        with pytest.raises(ValueError, match="outside"):
            cross_entropy_loss(uniform_log_probs(2, 3), np.array([0, 3]), np.ones(2))


class TestTokenAccuracy:
    def test_basic(self):
        lp = np.log(np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]]))
        assert token_accuracy(lp, np.array([0, 1, 0]), np.ones(3)) == 1.0
        assert token_accuracy(lp, np.array([0, 1, 1]), np.ones(3)) == pytest.approx(2 / 3)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        lp = rng.normal(size=(6, 5))
        gold = rng.integers(0, 5, size=6)
        mask = np.ones(6)
        assert token_accuracy(lp, gold, mask) == token_accuracy(lp + 7.5, gold, mask)

    def test_ties_break_to_lowest_id(self):
        lp = np.zeros((1, 4))
        assert token_accuracy(lp, np.array([0]), np.ones(1)) == 1.0
        assert token_accuracy(lp, np.array([2]), np.ones(1)) == 0.0

    def test_mask_and_errors(self):
        lp = np.zeros((2, 3))
        assert token_accuracy(lp, np.array([0, 2]), np.array([1.0, 0.0])) == 1.0
        with pytest.raises(ValueError, match="empty sentence"):
            token_accuracy(lp, np.array([0, 0]), np.zeros(2))


def tiny_params(seed=0, kind=LSTM):
    return init_params(ModelConfig(kind, 4, 2, 3, 5, seed=seed))


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = tiny_params()
        before = {n: a.copy() for n, a in params.named_tensors()}
        state = AdamState.for_params(params)
        grads = {n: np.zeros_like(a) for n, a in params.named_tensors()}
        adam_step(params, grads, state, TrainConfig())
        assert state.t == 1
        for n, a in params.named_tensors():
            assert np.array_equal(a, before[n])

    def test_first_step_is_signed_learning_rate(self):
        params = tiny_params()
        before = {n: a.copy() for n, a in params.named_tensors()}
        state = AdamState.for_params(params)
        rng = np.random.default_rng(1)
        grads = {n: rng.normal(size=a.shape) for n, a in params.named_tensors()}
        cfg = TrainConfig(learning_rate=0.01)
        adam_step(params, grads, state, cfg)
        for n, a in params.named_tensors():
            delta = a - before[n]
            # at t=1, m_hat = g and sqrt(v_hat) = |g|, so the move is
            # -lr * g / (|g| + eps): sign(g) up to epsilon effects
            big = np.abs(grads[n]) > 1e-3
            expected = -cfg.learning_rate * np.sign(grads[n])
            assert np.abs(delta[big] - expected[big]).max() < 1e-7

    def test_two_step_scalar_oracle(self):
        # theta=1, g=2 for two steps at lr 0.01: values from an independent
        # evaluation of the Adam recurrences
        params = tiny_params()
        params.embedding[1, 0] = 1.0
        state = AdamState.for_params(params)
        grads = {n: np.zeros_like(a) for n, a in params.named_tensors()}
        grads["embedding"] = grads["embedding"].copy()
        grads["embedding"][1, 0] = 2.0
        cfg = TrainConfig(learning_rate=0.01)
        adam_step(params, grads, state, cfg)
        assert np.isclose(params.embedding[1, 0], 0.99000000005, rtol=0, atol=1e-12)
        adam_step(params, grads, state, cfg)
        assert np.isclose(params.embedding[1, 0], 0.9800000001000001, rtol=0, atol=1e-12)
        assert state.t == 2

    def test_sign_symmetry(self):
        params_a = tiny_params(seed=3)
        params_b = copy.deepcopy(params_a)
        rng = np.random.default_rng(2)
        grads = {n: rng.normal(size=a.shape) for n, a in params_a.named_tensors()}
        neg = {n: -g for n, g in grads.items()}
        before = {n: a.copy() for n, a in params_a.named_tensors()}
        adam_step(params_a, grads, AdamState.for_params(params_a), TrainConfig())
        adam_step(params_b, neg, AdamState.for_params(params_b), TrainConfig())
        for n, _ in params_a.named_tensors():
            da = dict(params_a.named_tensors())[n] - before[n]
            db = dict(params_b.named_tensors())[n] - before[n]
            assert np.abs(da + db).max() < 1e-15  # opposite up to addition rounding

    def test_blocked_update_is_the_textbook_update_bit_for_bit(self):
        # the embedding (700 x 50) spans two ADAM_BLOCK passes
        params = init_params(ModelConfig(LSTM, 700, 50, 3, 5, seed=4))
        assert params.embedding.size > arabner.training.ADAM_BLOCK
        cfg = TrainConfig(learning_rate=0.01)
        state = AdamState.for_params(params)
        ref = {n: [a.copy(), np.zeros_like(a), np.zeros_like(a)] for n, a in params.named_tensors()}
        rng = np.random.default_rng(5)
        for t in range(1, 6):
            grads = {n: rng.normal(size=a.shape) for n, a in params.named_tensors()}
            adam_step(params, grads, state, cfg)
            bc1, bc2 = 1.0 - BETA1**t, 1.0 - BETA2**t
            for n, (p, m, v) in ref.items():
                g = grads[n]
                m[...] = BETA1 * m + (1.0 - BETA1) * g
                v[...] = BETA2 * v + (1.0 - BETA2) * g * g
                c = math.sqrt(bc2)
                p -= (cfg.learning_rate * (c / bc1)) * (m / (np.sqrt(v) + EPSILON * c))
        for n, a in params.named_tensors():
            p, m, v = ref[n]
            assert a.tobytes() == p.tobytes(), n
            assert state.m[n].tobytes() == m.tobytes(), n
            assert state.v[n].tobytes() == v.tobytes(), n

    def test_row_sparse_update_is_the_textbook_dense_update_bit_for_bit(self):
        # the embedding (700 x 50) spans two ADAM_BLOCK passes; each step's
        # ragged batch repeats ids, pads with row 0 and touches a few of the
        # pool's rows, so every row is left untouched by some steps
        params = init_params(ModelConfig(GRU, 700, 50, 3, 5, seed=4))
        assert params.embedding.size > arabner.training.ADAM_BLOCK
        cfg = TrainConfig(learning_rate=0.01)
        state = AdamState.for_params(params)
        ref = {n: [a.copy(), np.zeros_like(a), np.zeros_like(a)] for n, a in params.named_tensors()}
        rng = np.random.default_rng(6)
        pool = np.array([1, 2, 3, 300, 654, 655, 656, 699])
        steps = []
        for t in range(1, 6):
            mask = (np.arange(4) < np.array([4, 2, 3])[:, None]).astype(float)
            ids = np.where(mask > 0, rng.choice(rng.choice(pool, 3, replace=False), mask.shape), 0)
            lp, caches = model_forward(params, ids, mask)
            _, d = cross_entropy_loss(lp, rng.integers(0, 5, mask.shape), mask)
            grads = model_backward(params, caches, d)
            assert isinstance(grads["embedding"], RowGrad)
            steps.append(set(grads["embedding"].rows.tolist()))
            dense = {n: np.asarray(g) for n, g in grads.items()}
            adam_step(params, grads, state, cfg)
            bc1, bc2 = 1.0 - BETA1**t, 1.0 - BETA2**t
            for n, (p, m, v) in ref.items():
                g = dense[n]
                m[...] = BETA1 * m + (1.0 - BETA1) * g
                v[...] = BETA2 * v + (1.0 - BETA2) * g * g
                c = math.sqrt(bc2)
                p -= (cfg.learning_rate * (c / bc1)) * (m / (np.sqrt(v) + EPSILON * c))
        assert all(0 in rows for rows in steps)  # the PAD row
        touched = set.union(*steps) - {0}
        assert min(touched) < 655 < max(touched)  # rows of both blocks
        assert not any(all(r in rows for rows in steps) for r in touched)
        for n, a in params.named_tensors():
            p, m, v = ref[n]
            assert a.tobytes() == p.tobytes(), n
            assert state.m[n].tobytes() == m.tobytes(), n
            assert state.v[n].tobytes() == v.tobytes(), n

    @pytest.mark.parametrize("lr", [0.01, 1.0])
    def test_update_agrees_with_textbook_form(self, lr):
        # five steps of dense gradients and an embedding RowGrad against the
        # three-divide form lr*(m/bc1) / (sqrt(v/bc2) + eps)
        params = init_params(ModelConfig(LSTM, 700, 50, 3, 5, seed=4))
        cfg = TrainConfig(learning_rate=lr)
        state = AdamState.for_params(params)
        ref = {n: [a.copy(), np.zeros_like(a), np.zeros_like(a)] for n, a in params.named_tensors()}
        rng = np.random.default_rng(7)
        for t in range(1, 6):
            grads = {n: rng.normal(size=a.shape) for n, a in params.named_tensors()}
            rows = np.unique(rng.integers(0, 700, 40))
            grads["embedding"] = RowGrad(rows, rng.normal(size=(rows.size, 50)), params.embedding.shape)
            adam_step(params, grads, state, cfg)
            bc1, bc2 = 1.0 - BETA1**t, 1.0 - BETA2**t
            for n, (p, m, v) in ref.items():
                g = np.asarray(grads[n])
                m[...] = BETA1 * m + (1.0 - BETA1) * g
                v[...] = BETA2 * v + (1.0 - BETA2) * g * g
                p -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPSILON)
        for n, a in params.named_tensors():
            p, m, v = ref[n]
            assert state.m[n].tobytes() == m.tobytes(), n
            assert state.v[n].tobytes() == v.tobytes(), n
            assert np.all(np.abs(a - p) <= 1e-14 * np.maximum(np.abs(p), lr)), n

    @pytest.mark.parametrize("lr, t", [(1e308, 1), (sys.float_info.max, 10**6)])
    def test_huge_learning_rate_leaves_zero_gradient_rows_and_stays_finite(self, lr, t):
        # at lr 1e308 and t = 1 the textbook lr*(m/bc1) overflows once
        # |g| > ~1.8; lr*(c/bc1) times m/(sqrt(v) + eps*c) stays finite.  At
        # t = 10**6 the step factor c/bc1 is exactly 1.0, its largest, so the
        # step is the largest float.  Either way a row with m = v = 0 moves by
        # exactly 0 (pytest turns numpy warnings into errors).  The state holds
        # the moments of t - 1 earlier steps on the same gradient.
        params = init_params(ModelConfig(GRU, 700, 50, 3, 5, seed=4))
        before = {n: a.copy() for n, a in params.named_tensors()}
        rng = np.random.default_rng(8)
        grads = {n: 10.0 * rng.normal(size=a.shape) for n, a in params.named_tensors()}
        for g in grads.values():
            g[0] = 0.0
        rows = np.array([1, 300, 699])
        grads["embedding"] = RowGrad(rows, 10.0 * rng.normal(size=(3, 50)), params.embedding.shape)
        state = AdamState.for_params(params)
        state.t = t - 1
        for n, _ in params.named_tensors():
            g = np.asarray(grads[n])
            state.m[n][...] = (1.0 - BETA1 ** (t - 1)) * g
            state.v[n][...] = (1.0 - BETA2 ** (t - 1)) * g * g
        adam_step(params, grads, state, TrainConfig(learning_rate=lr))
        for n, a in params.named_tensors():
            assert np.all(np.isfinite(a)), n
            zero = np.all(np.asarray(grads[n]) == 0.0, axis=tuple(range(1, a.ndim)))
            assert zero[0] and not zero.all(), n
            assert a[zero].tobytes() == before[n][zero].tobytes(), n
            assert np.all(a[~zero] != before[n][~zero]), n

    def test_step_factor_is_at_most_one(self):
        # adam_step's factor sqrt(1 - BETA2**t) / (1 - BETA1**t); past
        # t = 40000 both powers are below half an ulp of 1, so it is exactly
        # 1.0 from there on
        factors = [math.sqrt(1.0 - BETA2**t) / (1.0 - BETA1**t) for t in range(1, 40001)]
        assert max(factors) == factors[-1] == 1.0

    def test_non_finite_row_gradient_rejected_before_mutation(self):
        params = tiny_params()
        state = AdamState.for_params(params)
        grads = {n: np.ones_like(a) for n, a in params.named_tensors()}
        adam_step(params, grads, state, TrainConfig())  # non-zero moments to compare
        before = [copy.deepcopy(x) for x in (dict(params.named_tensors()), state.m, state.v)]
        values = np.ones((2, params.embedding.shape[1]))
        values[1, 0] = np.nan
        grads["embedding"] = RowGrad(np.array([1, 3]), values, params.embedding.shape)
        with pytest.raises(NonFiniteGradientError) as exc:
            adam_step(params, grads, state, TrainConfig())
        assert exc.value.tensor_name == "embedding"
        assert state.t == 1
        for old, new in zip(before, (dict(params.named_tensors()), state.m, state.v)):
            assert all(old[n].tobytes() == new[n].tobytes() for n in old)

    def test_non_finite_gradient_rejected_before_mutation(self):
        params = tiny_params()
        before = {n: a.copy() for n, a in params.named_tensors()}
        state = AdamState.for_params(params)
        grads = {n: np.ones_like(a) for n, a in params.named_tensors()}
        grads["dense_w"][0, 0] = np.nan
        with pytest.raises(NonFiniteGradientError, match="dense_w"):
            adam_step(params, grads, state, TrainConfig())
        assert state.t == 0
        for n, a in params.named_tensors():
            assert np.array_equal(a, before[n])


# 700 x 200: a tracked block holds ADAM_BLOCK // (4 * 200) = 40 rows, so the
# live rows below the share (140) span up to four blocks
LIVE_CFG = ModelConfig(GRU, 700, 200, 3, len(tag_strings()), seed=4)
SHARE_ROWS = int(ADAM_LIVE_SHARE * LIVE_CFG.vocab_size)


def embedding_grads(params, rng, step):
    """Gradients of one Adam step: dense normal arrays for every tensor but
    the embedding, whose gradient is dense when ``step`` is None, else a
    RowGrad summing ``scale * normal`` over the step's (row, scale) pairs,
    as model_backward sums a row's repeated positions."""
    grads = {n: rng.normal(size=a.shape) for n, a in params.named_tensors()}
    if step is not None:
        rows = np.array([r for r, _ in step], dtype=np.int64)
        scales = np.array([c for _, c in step])
        unique, inverse = np.unique(rows, return_inverse=True)
        values = np.zeros((unique.size, params.embedding.shape[1]))
        np.add.at(values, inverse, scales[:, None] * rng.normal(size=(rows.size, values.shape[1])))
        grads["embedding"] = RowGrad(unique, values, params.embedding.shape)
    return grads


def textbook_step(ref, grads, t, lr):
    """The dense update of every row, in adam_step's operation order."""
    bc1, c = 1.0 - BETA1**t, math.sqrt(1.0 - BETA2**t)
    for n, (p, m, v) in ref.items():
        g = np.asarray(grads[n])
        m[...] = BETA1 * m + (1.0 - BETA1) * g
        v[...] = BETA2 * v + (1.0 - BETA2) * g * g
        p -= (lr * (c / bc1)) * (m / (np.sqrt(v) + EPSILON * c))


def assert_same_bits(params, state, ref):
    for n, a in params.named_tensors():
        p, m, v = ref[n]
        assert a.tobytes() == p.tobytes(), n
        assert state.m[n].tobytes() == m.tobytes(), n
        assert state.v[n].tobytes() == v.tobytes(), n


STEPS = st.lists(
    st.tuples(
        st.integers(0, 7),  # 7: a dense embedding gradient
        st.lists(
            st.tuples(st.integers(0, 699), st.sampled_from([1.0, 0.0, -3.0])), min_size=1, max_size=60
        ),
    ),
    min_size=1,
    max_size=10,
).map(lambda steps: [None if kind == 7 else pairs for kind, pairs in steps])


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(steps=STEPS)
@example(steps=[None, [(3, 1.0)], [(5, 1.0)]])  # a dense gradient at step 1
@example(steps=[[(r, 1.0) for r in range(SHARE_ROWS)], [(SHARE_ROWS, 1.0)]])  # share, then past it
@example(steps=[[(0, 1.0), (0, 0.0), (4, 0.0), (650, 0.0)], [(4, 0.0), (7, 1.0)], [(650, -3.0)]])
def test_tracked_update_is_the_all_rows_update_bit_for_bit(steps):
    # the same steps on a tracked state and on a copy that tracks nothing;
    # zero-valued gradient rows and the PAD row 0 are live rows like any other
    params = init_params(LIVE_CFG)
    state = AdamState.for_params(params)
    other = copy.deepcopy(params)
    untracked = AdamState(copy.deepcopy(state.m), copy.deepcopy(state.v))
    assert "embedding" in state.live and untracked.live == {}
    rng, other_rng = np.random.default_rng(9), np.random.default_rng(9)
    for step in steps:
        adam_step(params, embedding_grads(params, rng, step), state, TrainConfig())
        adam_step(other, embedding_grads(other, other_rng, step), untracked, TrainConfig())
        assert untracked.live == {}
    ref = {n: (a, untracked.m[n], untracked.v[n]) for n, a in other.named_tensors()}
    assert_same_bits(params, state, ref)


class TestAdamLiveRows:
    def test_live_rows_are_the_union_of_the_row_gradients(self):
        params = init_params(LIVE_CFG)
        state = AdamState.for_params(params)
        assert set(state.live) == {n for n, _ in params.named_tensors()}
        rng = np.random.default_rng(10)
        seen = set()
        for rows in ([0, 5, 5, 9], [9, 300], [0, 699, 1]):
            grads = embedding_grads(params, rng, [(r, 1.0) for r in rows])
            adam_step(params, grads, state, TrainConfig())
            seen |= set(rows)
            assert list(state.live) == ["embedding"]  # every other tensor had a dense gradient
            assert state.live["embedding"].tolist() == sorted(seen)
            live = np.zeros(len(params.embedding), bool)
            live[state.live["embedding"]] = True
            assert not state.m["embedding"][~live].any() and not state.v["embedding"][~live].any()

    def test_tracking_ends_past_the_share_for_good(self):
        params = init_params(LIVE_CFG)
        state = AdamState.for_params(params)
        rng = np.random.default_rng(11)
        grads = embedding_grads(params, rng, [(r, 1.0) for r in range(SHARE_ROWS)])
        adam_step(params, grads, state, TrainConfig())
        assert state.live["embedding"].size == SHARE_ROWS
        adam_step(params, embedding_grads(params, rng, [(SHARE_ROWS, 1.0)]), state, TrainConfig())
        assert "embedding" not in state.live
        adam_step(params, embedding_grads(params, rng, [(1, 1.0)]), state, TrainConfig())
        assert state.live == {}

    def test_tracking_ends_on_a_dense_gradient_for_good(self):
        params = init_params(LIVE_CFG)
        state = AdamState.for_params(params)
        rng = np.random.default_rng(12)
        adam_step(params, embedding_grads(params, rng, [(3, 1.0)]), state, TrainConfig())
        adam_step(params, embedding_grads(params, rng, None), state, TrainConfig())
        assert state.live == {}
        adam_step(params, embedding_grads(params, rng, [(4, 1.0)]), state, TrainConfig())
        assert state.live == {}

    def test_a_failed_step_leaves_the_live_rows(self):
        params = init_params(LIVE_CFG)
        state = AdamState.for_params(params)
        rng = np.random.default_rng(13)
        adam_step(params, embedding_grads(params, rng, [(3, 1.0)]), state, TrainConfig())
        grads = embedding_grads(params, rng, [(4, 1.0)])
        grads["dense_b"][0] = np.inf
        with pytest.raises(NonFiniteGradientError):
            adam_step(params, grads, state, TrainConfig())
        assert state.live["embedding"].tolist() == [3]

    def test_rows_wider_than_a_quarter_block_are_not_tracked(self):
        # --embed 8193: one embedding (and cell.W) row does not fit the
        # quarter of ADAM_BLOCK that the tracked pass gathers it into
        params = init_params(ModelConfig(GRU, 4, 8193, 2, len(tag_strings()), seed=4))
        state = AdamState.for_params(params)
        assert "embedding" not in state.live and "cell.W" not in state.live and "cell.R" in state.live
        ref = {n: (a.copy(), state.m[n].copy(), state.v[n].copy()) for n, a in params.named_tensors()}
        grads = embedding_grads(params, np.random.default_rng(15), [(2, 1.0)])
        adam_step(params, grads, state, TrainConfig())
        textbook_step(ref, grads, 1, TrainConfig().learning_rate)
        assert_same_bits(params, state, ref)

    @pytest.mark.parametrize("built", ["by hand", "from a checkpoint"])
    def test_a_state_not_from_for_params_updates_every_row(self, tmp_path, built):
        # moments non-zero on arbitrary rows, none of them in the gradient
        params = init_params(LIVE_CFG)
        rng = np.random.default_rng(14)
        moments = [{n: np.zeros_like(a) for n, a in params.named_tensors()} for _ in "mv"]
        for m in moments:
            m["embedding"][[2, 77, 500]] = rng.uniform(0.1, 1.0, size=(3, 200))
        state = AdamState(*moments, t=3)
        if built == "from a checkpoint":
            vocab = Vocabulary([f"w{i}" for i in range(LIVE_CFG.vocab_size - 2)])
            save_checkpoint(Checkpoint(params, vocab, adam=state), tmp_path / "m.ckpt")
            loaded = load_checkpoint(tmp_path / "m.ckpt")
            params, state = loaded.params, loaded.adam
        assert state.live == {}
        ref = {n: (a.copy(), state.m[n].copy(), state.v[n].copy()) for n, a in params.named_tensors()}
        before = params.embedding.copy()
        for t in (4, 5):
            grads = embedding_grads(params, rng, [(9, 1.0), (600, -3.0)])
            adam_step(params, grads, state, TrainConfig())
            textbook_step(ref, grads, t, TrainConfig().learning_rate)
        assert_same_bits(params, state, ref)
        assert np.all(params.embedding[[2, 77, 500]] != before[[2, 77, 500]])


def test_training_and_inference_leave_numpy_ma_unimported():
    # np.unique without a return_* flag imports numpy.ma to look for a mask,
    # about 1 MB that the row merge of a tracked Adam step (every step of a
    # fresh run adds the embedding gradient's rows) has no use for
    script = f"""
import sys
from arabner.corpus import read_corpus
from arabner.model import LSTM, ModelConfig
from arabner.training import TrainConfig, evaluate, predict_lines, train
train_split, _ = read_corpus({str(DATA / "overfit" / "train")!r})
valid, _ = read_corpus({str(DATA / "overfit" / "valid")!r})
result = train(train_split, ModelConfig(LSTM, 2, seed=1), TrainConfig(iterations=4, eval_every=2), valid)
evaluate(result.checkpoint, valid)
predict_lines(result.checkpoint, [s.tokens for s in valid])
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""
    env = {**os.environ, "PYTHONPATH": str(Path(arabner.training.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]


def tensor_span(raw, name):
    """(byte offset in the file, element count, shape) of one stored tensor."""
    nl = raw.find(b"\n")
    entry = next(e for e in json.loads(raw[:nl])["tensors"] if e["name"] == name)
    return nl + 1 + entry["offset"], math.prod(entry["shape"]), entry["shape"]


def make_checkpoint(kind=LSTM, seed=0, with_adam=True):
    from arabner.corpus import Vocabulary

    params = init_params(ModelConfig(kind, 5, 2, 3, 37, seed=seed))
    vocab = Vocabulary(["الف", "باء", "جيم"])
    adam = None
    if with_adam:
        adam = AdamState.for_params(params)
        adam.t = 7
        for n in adam.m:
            adam.m[n] += 0.25
    return Checkpoint(params=params, vocab=vocab, adam=adam, iterations=42, seed=seed)


# manifest edits that must fail the load, and a fragment of each message
MALFORMED = {
    "no-vocab": (lambda m: m.__delitem__("vocab"), "vocabulary is not a list"),
    "entry-without-offset": (lambda m: m["tensors"][0].__delitem__("offset"), "offset None"),
    "manifest-is-list": (lambda m: [m], "not a JSON object"),
    "tensors-not-list": (lambda m: m.update(tensors={}), "malformed tensor directory"),
    "step-string": (lambda m: m["optimizer"].update(step="7"), "bad optimizer"),
    "step-float": (lambda m: m["optimizer"].update(step=7.5), "bad optimizer"),
    "iterations-float": (lambda m: m["meta"].update(iterations=1.5), "bad meta"),
    "hidden-dim-float": (lambda m: m["model"].update(hidden_dim=3.0), "wrong type of hidden_dim"),
    "vocab-duplicate": (lambda m: m.update(vocab=["الف", "الف", "جيم"]), "repeats a token"),
    "vocab-not-strings": (lambda m: m.update(vocab=[1, 2, 3]), "must be strings"),
}


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        for with_adam in (True, False):
            ck = make_checkpoint(with_adam=with_adam)
            path = tmp_path / f"m{with_adam}.ckpt"
            save_checkpoint(ck, path)
            back = load_checkpoint(path)
            assert back.config == ck.config
            assert back.vocab == ck.vocab
            assert json.loads(path.read_bytes().split(b"\n", 1)[0])["tag_ordering"] == tag_strings()
            assert back.iterations == 42
            orig = dict(ck.params.named_tensors())
            for n, arr in back.params.named_tensors():
                assert np.array_equal(arr, orig[n]), n
            if with_adam:
                assert back.adam.t == 7
                for n in orig:
                    assert np.array_equal(back.adam.m[n], ck.adam.m[n])
                    assert np.array_equal(back.adam.v[n], ck.adam.v[n])
            else:
                assert back.adam is None

    def edit_manifest(self, path, mutate):
        """Apply mutate to the manifest in place; a non-None result replaces it."""
        raw = Path(path).read_bytes()
        nl = raw.find(b"\n")
        manifest = json.loads(raw[:nl])
        replaced = mutate(manifest)
        if replaced is not None:
            manifest = replaced
        Path(path).write_bytes(json.dumps(manifest, ensure_ascii=False).encode() + raw[nl:])

    @pytest.mark.parametrize("mutate, problem", MALFORMED.values(), ids=list(MALFORMED))
    def test_malformed_manifest_is_checkpoint_error(self, tmp_path, mutate, problem):
        path = tmp_path / "m.ckpt"
        save_checkpoint(make_checkpoint(), path)
        self.edit_manifest(path, mutate)
        with pytest.raises(CheckpointError, match=re.escape(problem)):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "tensor, value", [("embedding", np.nan), ("adam.v.cell.r_c", np.inf)]
    )
    def test_non_finite_tensor_rejected_by_name(self, tmp_path, tensor, value):
        path = tmp_path / "m.ckpt"
        save_checkpoint(make_checkpoint(), path)
        raw = bytearray(path.read_bytes())
        start, _, _ = tensor_span(raw, tensor)
        raw[start : start + 8] = np.array([value], dtype="<f8").tobytes()
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match=re.escape(repr(tensor))):
            load_checkpoint(path)

    def test_failed_save_keeps_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(make_checkpoint(), path)
        before = path.read_bytes()

        class FailingFile:
            """Passes the first two writes through, then fails like a full disk."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 2:
                    raise OSError("no space left on device")
                return self.fh.write(data)

            def __getattr__(self, name):
                return getattr(self.fh, name)

        monkeypatch.setattr(
            arabner.training, "open", lambda *a: FailingFile(builtins.open(*a)), raising=False
        )
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(make_checkpoint(seed=1), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    @pytest.mark.parametrize("kind, second_gate", [(LSTM, "cell.w_f"), (GRU, "cell.w_z")])
    def test_v1_files_load_and_resave_byte_identical(self, tmp_path, kind, second_gate):
        original = (V1 / f"{kind}.ckpt").read_bytes()
        ck = load_checkpoint(V1 / f"{kind}.ckpt")
        save_checkpoint(ck, tmp_path / "resaved.ckpt")
        assert (tmp_path / "resaved.ckpt").read_bytes() == original
        save_checkpoint(make_checkpoint(kind=kind), tmp_path / "fresh.ckpt")
        assert (tmp_path / "fresh.ckpt").read_bytes() == original
        # the file's second per-gate block is rows H..2H of the stacked W
        start, count, shape = tensor_span(original, second_gate)
        block = np.frombuffer(original, "<f8", count, start).reshape(shape)
        H = ck.config.hidden_dim
        assert np.array_equal(ck.params.cell.W[H : 2 * H], block)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(make_checkpoint(), path)
        self.edit_manifest(path, lambda m: m.update(format_version=99))
        with pytest.raises(CheckpointError, match="format version"):
            load_checkpoint(path)

    def test_shape_edit_names_tensor(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(make_checkpoint(), path)

        def mutate(m):
            entry = next(e for e in m["tensors"] if e["name"] == "dense_w")
            entry["shape"] = [2, 3]

        self.edit_manifest(path, mutate)
        with pytest.raises(CheckpointError, match="dense_w"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(make_checkpoint(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_cell_kind_flip_is_config_mismatch(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(make_checkpoint(kind=LSTM), path)
        self.edit_manifest(path, lambda m: m["model"].update(cell_kind=GRU))
        with pytest.raises(CheckpointError, match="does not match a gru"):
            load_checkpoint(path)

    def test_tag_ordering_fingerprint(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(make_checkpoint(), path)

        def mutate(m):
            m["tag_ordering"][1], m["tag_ordering"][2] = m["tag_ordering"][2], m["tag_ordering"][1]

        self.edit_manifest(path, mutate)
        with pytest.raises(CheckpointError, match="fingerprint"):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def json_paths(value, prefix=()):
    """Every path into a JSON value, containers included."""
    yield prefix
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from json_paths(child, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@functools.cache
def checkpoint_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(make_checkpoint(), Path(tmp) / "m.ckpt")
        return (Path(tmp) / "m.ckpt").read_bytes()


@st.composite
def mutated_checkpoints(draw):
    """The small test checkpoint with one manifest field replaced or
    deleted, or with payload bytes flipped, cut off or appended."""
    raw = checkpoint_bytes()
    nl = raw.find(b"\n")
    manifest, payload = json.loads(raw[:nl]), raw[nl + 1 :]
    kind = draw(st.sampled_from(["set", "delete", "flip", "cut", "append"]))
    if kind in ("set", "delete"):
        path = draw(st.sampled_from(list(json_paths(manifest))[1 if kind == "delete" else 0 :]))
        parent = manifest
        for key in path[:-1]:
            parent = parent[key]
        if kind == "delete":
            del parent[path[-1]]
        elif path:
            parent[path[-1]] = draw(JSON_VALUES)
        else:
            manifest = draw(JSON_VALUES)
    elif kind == "flip":
        at, flip = draw(st.integers(0, len(payload) - 1)), draw(st.integers(1, 255))
        payload = payload[:at] + bytes([payload[at] ^ flip]) + payload[at + 1 :]
    elif kind == "cut":
        payload = payload[: draw(st.integers(0, len(payload) - 1))]
    else:
        payload += draw(st.binary(min_size=1, max_size=16))
    return json.dumps(manifest, ensure_ascii=False).encode() + b"\n" + payload


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(raw=mutated_checkpoints())
def test_fuzzed_checkpoint_fails_only_with_checkpoint_error(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path, text = Path(tmp) / "m.ckpt", Path(tmp) / "in.txt"
        path.write_bytes(raw)
        text.write_text("الف باء دال\n", encoding="utf-8")
        try:
            load_checkpoint(path)
            expected = EXIT_OK  # e.g. a flipped payload byte that is still a finite weight
        except CheckpointError:
            expected = EXIT_MISMATCH
        assert main(["predict", "--ckpt", str(path), "--input", str(text)]) == expected


@pytest.fixture(scope="module")
def overfit_train():
    sentences, report = read_corpus(DATA / "overfit" / "train")
    assert report.clean
    return sentences


@pytest.mark.parametrize(
    "name, value",
    [
        ("learning_rate", math.nan),
        ("learning_rate", math.inf),
        ("learning_rate", -math.inf),
        ("learning_rate", 0.0),
        ("learning_rate", -0.01),
        ("max_len", 0),
        ("max_len", -3),
    ],
)
def test_train_config_rejects_bad_values(name, value):
    with pytest.raises(ValueError, match=name):
        TrainConfig(**{name: value})
    TrainConfig(max_len=1)  # the smallest cap and no cap are both accepted
    TrainConfig(max_len=None)


class TestTrain:
    def test_empty_split(self):
        with pytest.raises(ValueError, match="empty"):
            train([], ModelConfig(LSTM, 2), TrainConfig(iterations=1))

    def test_metric_log_and_records(self, overfit_train):
        valid, _ = read_corpus(DATA / "overfit" / "valid")
        res = train(
            overfit_train,
            ModelConfig(LSTM, 2, 8, 8, seed=0),
            TrainConfig(iterations=12, seed=0, eval_every=5),
            valid,
        )
        train_records = [r for r in res.records if r.split == "train"]
        valid_records = res.valid_records
        assert len(train_records) == 12
        assert [r.step for r in valid_records] == [5, 10]
        line = res.records[0].to_line()
        assert line.startswith("step=1 split=train loss=")
        parsed = dict(kv.split("=") for kv in line.split())
        assert float(parsed["loss"]) > 0

    def test_no_eval_when_interval_exceeds_iterations(self, overfit_train):
        valid, _ = read_corpus(DATA / "overfit" / "valid")
        res = train(
            overfit_train,
            ModelConfig(GRU, 2, 6, 6, seed=0),
            TrainConfig(iterations=4, seed=0, eval_every=50),
            valid,
        )
        assert res.valid_records == []
        assert res.summary_lines() == []

    def test_determinism_bitwise(self, overfit_train):
        cfg = ModelConfig(LSTM, 2, 10, 10, seed=9)
        tc = TrainConfig(iterations=15, seed=9, eval_every=100)
        a = train(overfit_train, cfg, tc)
        b = train(overfit_train, cfg, tc)
        ta = dict(a.checkpoint.params.named_tensors())
        for n, arr in b.checkpoint.params.named_tensors():
            assert np.array_equal(arr, ta[n]), n
        assert [r.to_line() for r in a.records] == [r.to_line() for r in b.records]

    def test_vocab_size_substituted(self, overfit_train):
        res = train(
            overfit_train, ModelConfig(LSTM, 2, 6, 6, seed=0), TrainConfig(iterations=2, seed=0)
        )
        cfg = res.checkpoint.config
        assert cfg.vocab_size == len(res.checkpoint.vocab) > 2
        assert count_params(cfg) == sum(
            a.size for _, a in res.checkpoint.params.named_tensors()
        )

    def test_one_forward_and_one_backward_per_step(self, overfit_train, monkeypatch):
        calls = {"model_forward": 0, "model_backward": 0}

        def counted(name):
            real = getattr(arabner.training, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(arabner.training, name, counted(name))
        train(
            overfit_train,
            ModelConfig(GRU, 2, 6, 6, seed=0),
            TrainConfig(iterations=7, seed=0, batch_size=8),
        )
        assert calls == {"model_forward": 7, "model_backward": 7}

    def test_max_len_caps_each_sentence_and_pads_to_the_batch(self, overfit_train, monkeypatch):
        max_len, batch_size, seed = 6, 2, 4
        steps = []
        real = arabner.training.model_forward

        def spy(*args):
            steps.append((args[1].copy(), args[2].copy()))
            return real(*args)

        monkeypatch.setattr(arabner.training, "model_forward", spy)
        res = train(
            overfit_train,
            ModelConfig(LSTM, 2, 6, 6, seed=0),
            TrainConfig(iterations=20, seed=seed, batch_size=batch_size, max_len=max_len),
        )
        vocab = res.checkpoint.vocab
        batches = arabner.training._shuffled_batches(
            len(overfit_train), batch_size, np.random.default_rng(seed)
        )
        widths = set()
        for ids, mask in steps:
            batch = [overfit_train[i] for i in next(batches)]
            kept = [min(len(s), max_len) for s in batch]
            assert ids.shape == mask.shape == (batch_size, max(kept))
            assert mask.sum(axis=1).tolist() == kept
            for row, m, s, n in zip(ids, mask, batch, kept):
                assert row[:n].tolist() == [vocab.lookup(t) for t in s.tokens[:n]]
                assert (row[n:] == 0).all() and (m[:n] == 1).all() and (m[n:] == 0).all()
            widths.add(ids.shape[1])
        assert len(steps) == 20
        assert max_len in widths and min(widths) < max_len  # capped batches and shorter ones
        capped = sum(len(s) > max_len for s in overfit_train)
        assert res.truncated_sentences == capped == 3
        assert f"summary=train truncated_sentences={capped}" in res.summary_lines()

    def test_divergence_carries_last_good_checkpoint(self, overfit_train, monkeypatch):
        calls = {"n": 0}
        real = arabner.training.model_backward

        def sabotaged(params, caches, d):
            grads = real(params, caches, d)
            calls["n"] += 1
            if calls["n"] > 1:  # poison the second optimizer step
                grads["dense_b"] = grads["dense_b"] + np.nan
            return grads

        monkeypatch.setattr(arabner.training, "model_backward", sabotaged)
        with pytest.raises(TrainingDivergedError) as exc:
            train(
                overfit_train,
                ModelConfig(LSTM, 2, 6, 6, seed=1),
                TrainConfig(iterations=10, seed=1, batch_size=8),
            )
        assert exc.value.step == 2
        assert exc.value.checkpoint.iterations == 1
        assert "dense_b" in str(exc.value)


    def test_non_finite_validation_outputs_diverge(self, overfit_train):
        valid, _ = read_corpus(DATA / "overfit" / "valid")
        with pytest.raises(TrainingDivergedError, match="not finite") as exc:
            train(
                overfit_train,
                ModelConfig(LSTM, 2, 6, 6, seed=1),
                TrainConfig(learning_rate=1e308, iterations=3, seed=1, eval_every=1),
                valid,
            )
        assert exc.value.step == 1


class TestSpansLenient:
    def test_valid_sequence_uses_strict_decode(self):
        seq = [parse_tag(t) for t in ["B-PER", "E-PER", "O", "S-LOC"]]
        assert _spans_lenient(seq) == [EntitySpan(0, 1, "PER"), EntitySpan(3, 3, "LOC")]

    def test_invalid_sequence_groups_category_runs(self):
        seq = [parse_tag(t) for t in ["B-PER", "O", "I-LOC", "E-LOC", "E-LOC"]]
        assert _spans_lenient(seq) == [EntitySpan(0, 0, "PER"), EntitySpan(2, 4, "LOC")]


class TestEvaluate:
    def test_each_sequence_validated_at_most_once(self, overfit_train, monkeypatch):
        import arabner.bioes

        real, calls = arabner.bioes.validate_sequence, []

        def counting(tags):
            calls.append(len(tags))
            return real(tags)

        monkeypatch.setattr(arabner.bioes, "validate_sequence", counting)
        monkeypatch.setattr(arabner.training, "validate_sequence", counting)
        evaluate(make_checkpoint(), overfit_train)  # untrained: many ill-formed predictions
        assert 0 < len(calls) <= 2 * len(overfit_train)

    def test_all_outside_zero_model(self):
        # all-zero params predict class 0 (O) everywhere via the argmax tie-break
        from arabner.corpus import Vocabulary
        from arabner.model import zero_params

        params = zero_params(ModelConfig(LSTM, 3, 2, 2, 37))
        ck = Checkpoint(params=params, vocab=Vocabulary(["كلمة"]))
        sentences = [
            TaggedSentence(["كلمة", "كلمة"], [parse_tag("O"), parse_tag("O")]),
        ]
        result = evaluate(ck, sentences)
        assert result.token_accuracy == 1.0
        assert all(s.gold == s.predicted == 0 for s in result.category_scores.values())
        assert result.confusion[0, 0] == 2
        assert result.top_confusions() == []

    def test_overfit_evaluation_and_spans(self, overfit_train):
        res = train(
            overfit_train,
            ModelConfig(LSTM, 2, 50, 50, seed=0),
            TrainConfig(iterations=200, seed=0, eval_every=1000),
        )
        result = evaluate(res.checkpoint, overfit_train)
        assert result.token_accuracy >= 0.99
        for cat in ("PER", "LOC", "ORG"):
            score = result.category_scores[cat]
            assert score.gold > 0
            assert score.precision > 0.8 and score.recall > 0.8

    def test_empty_split(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate(make_checkpoint(), [])


class TestPredict:
    def test_predict_normalizes_input(self, overfit_train):
        res = train(
            overfit_train,
            ModelConfig(GRU, 2, 50, 50, seed=0),
            TrainConfig(iterations=200, seed=0, eval_every=1000),
        )
        plain = predict_tags(res.checkpoint, ["سافر", "أحمد", "إلى", "بغداد"])
        dotted = predict_tags(res.checkpoint, ["سَافَرَ", "أَحْمَدُ", "إلى", "بَغْدَاد"])
        assert [str(t) for t in plain] == [str(t) for t in dotted]
        assert predict_tags(res.checkpoint, []) == []


@pytest.fixture(scope="module")
def overfit_lstm(overfit_train):
    res = train(
        overfit_train,
        ModelConfig(LSTM, 2, 16, 16, seed=2),
        TrainConfig(iterations=150, seed=2, eval_every=1000),
    )
    return res.checkpoint


def count_forwards(monkeypatch):
    calls = []
    real = arabner.training.model_forward

    def counted(*args):
        calls.append(args[1].shape)
        return real(*args)

    monkeypatch.setattr(arabner.training, "model_forward", counted)
    return calls


def ragged_lines(overfit_train, n, seed=0):
    """n lines of 1-9 tokens: training words, diacritized words and OOV words."""
    rng = np.random.default_rng(seed)
    words = sorted({w for s in overfit_train for w in s.tokens})
    pool = words + ["سَافَرَ", "أَحْمَدُ", "بَغْدَاد", "كلمةغريبة", "xyz"]
    return [list(rng.choice(pool, size=rng.integers(1, 10))) for _ in range(n)]


class TestBatchedInference:
    """evaluate, _split_metrics and predict_lines run length-sorted batches
    through model_forward; the results equal one-sentence forward passes."""

    def test_predict_lines_equals_predict_tags(self, overfit_lstm, overfit_train, monkeypatch):
        lines = ragged_lines(overfit_train, 150) + [[], ["في"] * 600]  # an empty and an over-long line
        expected = [predict_tags(overfit_lstm, line) for line in lines]
        calls = count_forwards(monkeypatch)
        got = predict_lines(overfit_lstm, lines)
        assert [[str(t) for t in tags] for tags in got] == [[str(t) for t in tags] for tags in expected]
        assert [len(tags) for tags in got] == [len(line) for line in lines]
        assert 2 < len(calls) < len(lines) // 10  # a few batches, not one call per line
        assert all(B * T <= arabner.training.INFERENCE_POSITIONS for B, T in calls if B > 1)
        assert (1, 600) in calls

    def test_evaluate_equals_per_sentence_forward(self, overfit_lstm, overfit_train, monkeypatch):
        sentences = overfit_train * 6  # several batches
        K = overfit_lstm.config.num_classes
        confusion = np.zeros((K, K), dtype=np.int64)
        correct = total = 0
        gold_spans, pred_spans = [], []
        for s in sentences:
            ids, gold = encode_sentence(s, overfit_lstm.vocab, len(s))
            pred = np.argmax(model_forward(overfit_lstm.params, ids)[0], axis=1)
            np.add.at(confusion, (gold, pred), 1)
            correct += int((pred == gold).sum())
            total += len(s)
            gold_spans.append(_spans_lenient(s.tags))
            pred_spans.append(_spans_lenient([id_to_tag(int(i)) for i in pred]))
        calls = count_forwards(monkeypatch)
        result = evaluate(overfit_lstm, sentences)
        assert 0 < len(calls) < len(sentences)
        assert result.token_accuracy == correct / total  # trace(confusion) / confusion.sum()
        assert np.array_equal(result.confusion, confusion)
        for cat, score in result.category_scores.items():
            g = sum(1 for spans in gold_spans for sp in spans if sp.category == cat)
            p = sum(1 for spans in pred_spans for sp in spans if sp.category == cat)
            m = sum(
                1
                for gs, ps in zip(gold_spans, pred_spans)
                for sp in set(ps) & set(gs)
                if sp.category == cat
            )
            assert (score.gold, score.predicted, score.matched) == (g, p, m), cat
        assert result.token_accuracy > 0.9  # the model has learned the split

    def test_split_metrics_equals_per_sentence_loop(self, overfit_lstm, overfit_train, monkeypatch):
        vocab = overfit_lstm.vocab
        # natural lengths, plus rows cut to 4 tokens
        encoded = [encode_sentence(s, vocab, len(s)) for s in overfit_train * 4]
        encoded += [encode_sentence(s, vocab, 4) for s in overfit_train]
        nll = correct = total = 0.0
        for ids, gold in encoded:
            mask = np.ones(len(ids))
            log_probs, _ = model_forward(overfit_lstm.params, ids)
            loss, _ = cross_entropy_loss(log_probs, gold, mask)
            nll += loss * len(ids)
            correct += token_accuracy(log_probs, gold, mask) * len(ids)
            total += len(ids)
        calls = count_forwards(monkeypatch)
        loss, accuracy = _split_metrics(overfit_lstm.params, encoded)
        assert 0 < len(calls) < len(encoded)
        assert abs(loss - nll / total) <= 1e-12
        assert abs(accuracy - correct / total) <= 1e-12
