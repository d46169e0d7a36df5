import numpy as np
import pytest

from arabner.numerics import affine, log_softmax, relu, sigmoid, tanh


def test_affine_zero_maps():
    b = np.array([1.0, -2.0, 3.0])
    out = affine(np.zeros((3, 2)), np.ones(2), np.zeros((3, 3)), np.ones(3), b)
    assert np.array_equal(out, b)


def test_affine_identity():
    x = np.array([0.3, -1.2, 7.0])
    out = affine(np.eye(3), x, np.zeros((3, 3)), np.zeros(3), np.zeros(3))
    assert np.array_equal(out, x)


def test_affine_hand_example():
    W = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = affine(W, np.array([1.0, 1.0]), np.zeros((2, 2)), np.zeros(2), np.array([0.5, 0.5]))
    assert np.allclose(out, [3.5, 7.5], atol=0, rtol=0)
    # two stacked gate blocks of one row each: R is G*H x H
    R = np.array([[2.0], [-1.0]])
    out = affine(W, np.array([1.0, 1.0]), R, np.array([0.5]), np.array([0.5, 0.5]))
    assert np.allclose(out, [4.5, 7.0], atol=0, rtol=0)
    # a leading batch axis: one row of x and h per batch member
    x = np.array([[1.0, 1.0], [0.0, 0.0]])
    out = affine(W, x, R, np.array([[0.5], [1.0]]), np.array([0.5, 0.5]))
    assert np.allclose(out, [[4.5, 7.0], [2.5, -0.5]], atol=0, rtol=0)


def test_affine_shape_errors_name_shapes():
    W = np.zeros((3, 2))
    R = np.zeros((3, 3))
    with pytest.raises(ValueError, match=r"\(3,\)"):
        affine(W, np.zeros(3), R, np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="incompatible"):
        affine(W, np.zeros(2), np.zeros((2, 2)), np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError, match=r"\(1,\)"):  # stacked R, h of the wrong width
        affine(W, np.zeros(2), np.zeros((3, 1)), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match=r"\(4, 3\).*\(5, 3\)"):  # batch of 4 x, 5 h
        affine(W, np.zeros((4, 2)), R, np.zeros((5, 3)), np.zeros(3))


def test_activation_examples():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    assert tanh(np.array([0.0]))[0] == 0.0
    assert np.array_equal(relu(np.array([-1.0, 2.0])), [0.0, 2.0])
    assert np.isclose(sigmoid(np.array([1.0]))[0], 0.7310585786300049, rtol=0, atol=1e-15)


def test_sigmoid_stable_at_extremes():
    with np.errstate(over="raise"):
        out = sigmoid(np.array([700.0, -700.0]))
    assert out[0] == 1.0
    assert 0.0 < out[1] < 1e-300
    # bit for bit the textbook two-branch form, element by element
    grid = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 700.0, -700.0, 1e-300, -1e-300, 5e-324]
    v = np.concatenate([grid, np.random.default_rng(3).normal(scale=30, size=2000)])

    def textbook(x):
        return 1.0 / (1.0 + np.exp(-x)) if x >= 0 else np.exp(x) / (1.0 + np.exp(x))

    with np.errstate(over="raise"):
        out = sigmoid(v)
    assert out.tobytes() == np.array([textbook(x) for x in v]).tobytes()


def test_sigmoid_symmetry_and_tanh_odd():
    rng = np.random.default_rng(0)
    v = rng.uniform(-50, 50, size=300)
    assert np.all(np.abs(sigmoid(v) + sigmoid(-v) - 1.0) <= 1e-12)
    assert np.all(np.abs(tanh(v) + tanh(-v)) <= 1e-12)


def test_log_softmax_uniform():
    v = np.full(37, 3.25)
    out = log_softmax(v)
    assert np.allclose(out, -np.log(37.0), rtol=0, atol=1e-12)


def test_log_softmax_closed_form():
    out = log_softmax(np.array([0.0, np.log(3.0)]))
    assert np.allclose(out, [-np.log(4.0), np.log(3.0) - np.log(4.0)], rtol=0, atol=1e-12)


def test_log_softmax_shift_invariance_and_normalization():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.uniform(-50, 50, size=rng.integers(1, 40))
        out = log_softmax(v)
        assert abs(np.exp(out).sum() - 1.0) <= 1e-12
        shifted = log_softmax(v + 123.456)
        assert np.allclose(out, shifted, atol=1e-9)
    rows = rng.uniform(-50, 50, size=(4, 37))  # a matrix is normalized row by row
    for out, v in zip(log_softmax(rows), rows):
        assert np.array_equal(out, log_softmax(v))


def test_log_softmax_no_overflow_for_large_logits():
    with np.errstate(over="raise"):
        out = log_softmax(np.array([1000.0, 0.0, -1000.0]))
    assert abs(np.exp(out).sum() - 1.0) <= 1e-12


def test_affine_linear_in_each_argument():
    rng = np.random.default_rng(2)
    for _ in range(20):
        H, D = rng.integers(1, 7, size=2)
        W = rng.normal(size=(H, D))
        R = rng.normal(size=(H, H))
        b = rng.normal(size=H)
        x1, x2 = rng.normal(size=D), rng.normal(size=D)
        h1, h2 = rng.normal(size=H), rng.normal(size=H)
        zero_b = np.zeros(H)
        lhs = affine(W, x1 + x2, R, h1 + h2, b)
        rhs = affine(W, x1, R, h1, b) + affine(W, x2, R, h2, zero_b)
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)
        scaled = affine(W, 3.0 * x1, R, 3.0 * h1, zero_b)
        assert np.allclose(scaled, 3.0 * affine(W, x1, R, h1, zero_b), rtol=0, atol=1e-12)


def test_kernels_do_not_mutate_inputs():
    v = np.array([-1.0, 0.5, 2.0])
    copies = v.copy()
    sigmoid(v), tanh(v), relu(v), log_softmax(v)
    assert np.array_equal(v, copies)
    W = np.ones((2, 3))
    x = np.ones(3)
    R = np.ones((2, 2))
    h = np.ones(2)
    b = np.ones(2)
    affine(W, x, R, h, b)
    assert W.sum() == 6 and x.sum() == 3 and R.sum() == 4 and h.sum() == 2 and b.sum() == 2
