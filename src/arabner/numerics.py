"""Dense kernels shared by the recurrent cells and the classifier head.

Everything is float64.  Shape mismatches raise immediately instead of
broadcasting; silent broadcasts here would corrupt gradients downstream.
"""

import numpy as np


def _check_shape(name, v, shape):
    if v.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {v.shape}")


def affine(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ W.T + b over the last axis of x, whose leading axes carry through.

    W has one row per output, so a stack of G gate blocks of H rows each
    (W: G*H x D) is projected in one call.  A wrong last axis of x raises in
    the product; b is checked here, since a length-1 b would broadcast.
    """
    _check_shape("affine: b", b, (len(W),))
    return x @ W.T + b


def sigmoid(v: np.ndarray) -> np.ndarray:
    """Elementwise 1/(1+e^-x), stable for large |x| (no overflow in exp).

    With e = e^-|x|, this is 1/(1+e) for x >= 0 and e/(1+e) below 0, the
    two branches of the textbook stable form, bit for bit.  -|x| is taken
    as min(x, -x), which unlike -abs(x) keeps the sign bit of a NaN.
    """
    e = np.exp(np.minimum(v, -v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


def tanh(v: np.ndarray) -> np.ndarray:
    return np.tanh(v)


def relu(v: np.ndarray) -> np.ndarray:
    return np.maximum(v, 0.0)


def log_softmax(v: np.ndarray) -> np.ndarray:
    """v - logsumexp(v) over the last axis, with each row's max shifted out
    before exponentiation."""
    shifted = v - np.max(v, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
