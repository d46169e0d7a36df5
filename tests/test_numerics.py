import numpy as np
import pytest

from arabner.numerics import affine, log_softmax, relu, sigmoid, tanh


def test_affine_zero_maps():
    b = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(affine(np.ones(2), np.zeros((3, 2)), b), b)
    assert np.array_equal(affine(np.zeros((4, 5, 2)), np.ones((3, 2)), b), np.broadcast_to(b, (4, 5, 3)))


def test_affine_identity():
    x = np.array([0.3, -1.2, 7.0])
    assert np.array_equal(affine(x, np.eye(3), np.zeros(3)), x)


def test_affine_hand_example():
    W = np.array([[1.0, 2.0], [3.0, 4.0], [-1.0, 0.5]])  # three outputs of two inputs
    b = np.array([0.5, 0.5, 0.0])
    assert np.array_equal(affine(np.array([1.0, 1.0]), W, b), [3.5, 7.5, -0.5])
    # leading axes carry through: a batch of two inputs, then one time axis in front
    x = np.array([[1.0, 1.0], [2.0, 0.0]])
    assert np.array_equal(affine(x, W, b), [[3.5, 7.5, -0.5], [2.5, 6.5, -2.0]])
    assert np.array_equal(affine(x[None], W, b), [[[3.5, 7.5, -0.5], [2.5, 6.5, -2.0]]])


def test_affine_shape_errors_name_shapes():
    W = np.zeros((3, 2))
    with pytest.raises(ValueError, match=r"affine: b: expected shape \(3,\), got \(1,\)"):
        affine(np.zeros(2), W, np.zeros(1))  # would broadcast without the check
    with pytest.raises(ValueError, match=r"expected shape \(3,\), got \(2,\)"):
        affine(np.zeros(2), W, np.zeros(2))
    with pytest.raises(ValueError, match=r"size 2 is different from 3"):  # x's last axis
        affine(np.zeros((4, 3)), W, np.zeros(3))


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
        N, D = rng.integers(1, 7, size=2)
        W1, W2 = rng.normal(size=(N, D)), rng.normal(size=(N, D))
        x1, x2 = rng.normal(size=(2, D)), rng.normal(size=(2, D))
        b, zero_b = rng.normal(size=N), np.zeros(N)
        lhs = affine(x1 + x2, W1, b)
        assert np.allclose(lhs, affine(x1, W1, b) + affine(x2, W1, zero_b), rtol=0, atol=1e-12)
        lhs = affine(x1, W1 + W2, b)
        assert np.allclose(lhs, affine(x1, W1, b) + affine(x1, W2, zero_b), rtol=0, atol=1e-12)
        scaled = affine(3.0 * x1, W1, zero_b)
        assert np.allclose(scaled, 3.0 * affine(x1, W1, zero_b), rtol=0, atol=1e-12)


def test_kernels_do_not_mutate_inputs():
    v = np.array([-1.0, 0.5, 2.0])
    copies = v.copy()
    sigmoid(v), tanh(v), relu(v), log_softmax(v)
    assert np.array_equal(v, copies)
    x, W, b = np.ones((4, 3)), np.ones((2, 3)), np.ones(2)
    affine(x, W, b)
    assert x.sum() == 12 and W.sum() == 6 and b.sum() == 2
