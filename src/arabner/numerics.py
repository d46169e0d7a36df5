"""Dense kernels shared by the recurrent cells and the classifier head.

Everything is float64.  Shape mismatches raise immediately instead of
broadcasting; silent broadcasts here would corrupt gradients downstream.
"""

import numpy as np


def _check_shape(name, v, shape):
    if v.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {v.shape}")


def affine(W: np.ndarray, x: np.ndarray, R: np.ndarray, h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """W @ x + R @ h + b, the shared inner form of every gate.

    W and R have one row per output, so a stack of G gate blocks of H rows
    each (W: G*H x D, R: G*H x H) is computed in one call.  x and h may
    carry the same leading batch axes; the result then carries them too.
    """
    if W.ndim != 2 or R.ndim != 2:
        raise ValueError(f"affine: W and R must be matrices, got {W.shape} and {R.shape}")
    N, D = W.shape
    if R.shape[0] != N:
        raise ValueError(f"affine: R shape {R.shape} incompatible with W shape {W.shape}")
    batch = x.shape[:-1]
    _check_shape("affine: x", x, (*batch, D))
    _check_shape("affine: h", h, (*batch, R.shape[1]))
    _check_shape("affine: b", b, (N,))
    return x @ W.T + h @ R.T + b


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
