"""Dense float tensors with reverse-mode automatic differentiation.

Everything here is deliberately small and single threaded: operations execute
eagerly on numpy arrays and record themselves on a global tape, and
``backward`` replays adjoints in reverse tape order.  Replaying in tape order
also fixes the order in which gradients accumulate, which keeps repeated runs
with identical seeds bit-identical.

A recorded node holds a gradient only from the moment one reaches it until
``backward`` has passed it on to the node's parents, so ``backward`` runs
exactly the nodes the loss depends on and may be called again on the same
tape.  Leaves (tensors created with ``requires_grad=True``) keep a gradient
buffer from creation, and it accumulates until the optimizer clears it.

At the model's sizes the cost is per node, not per flop, so ``linear``
(matrix product plus optional bias) and ``attention`` (head split, scores,
mask, softmax, weighted sum, head merge) are fused: one node each.  Every
matrix product, the GCN's included, is one ``linear`` node, and a constant
input gets no gradient product.  Output distributions are taken as
log-probabilities (``log_softmax``), which stay finite where a probability
would underflow to 0.

A tensor keeps the float dtype of the array it wraps, so a model whose
parameters are float32 runs in float32.  Numpy promotes a float32 array met
by a float64 array (0-d included) or a numpy float64 scalar to float64, so
the constants inside an op are Python floats or arrays of its operands'
dtype, and a Python scalar passed as an operand (a float64 tensor) widens
the result.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
from scipy.special import erf, expit

from .errors import ContractError, NumericDomainError, ShapeError

# Python floats, not numpy float64 scalars, which would promote float32 arrays
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """A dense float array with an optional same-shape gradient accumulator.

    A float array keeps its dtype; ints, bools and Python scalars become
    float64."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # arithmetic sugar; the actual work lives in the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _reduce(self, axis, keepdims, mean=False)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _reduce(self, axis, keepdims, mean=True)


class Tape:
    """Ordered record of executed differentiable operations.

    Creation order is a topological order by construction: an operation can
    only run after the operations that produced its inputs.
    """

    def __init__(self):
        self.nodes: list[Tensor] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def append(self, node: Tensor) -> None:
        self.nodes.append(node)

    def reset(self) -> None:
        self.nodes.clear()


_TAPE = Tape()
_GRAD_ENABLED = True


def active_tape() -> Tape:
    return _TAPE


def reset_tape() -> None:
    _TAPE.reset()


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / evaluation)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def as_tensor(value) -> Tensor:
    """Wrap a scalar or array as a constant Tensor; pass Tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _record(out_data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    # a tracked output gets its gradient buffer when a gradient reaches it
    out = Tensor(out_data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
        _TAPE.append(out)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, (have, want) in enumerate(zip(grad.shape, shape)):
        if want == 1 and have != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _grad_buffer(t: Tensor) -> np.ndarray:
    """``t``'s gradient, created as zeros when the first gradient arrives."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    return t.grad


def _accumulate(t: Tensor, delta) -> None:
    # zeros then ``+=`` (not a copy of ``delta``) keeps the buffer's memory
    # layout, and with it the bits of later reductions over the gradient
    if t.requires_grad:
        buffer = _grad_buffer(t)
        buffer += delta


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(ancestor) into every requires_grad ancestor.

    The loss must be a scalar recorded on the active tape.  Adjoints are
    replayed in reverse tape order, so every node's gradient is complete
    before its own backward runs; a node runs only if a gradient reached it,
    and its gradient is dropped once passed on to its parents.
    """
    if not isinstance(loss, Tensor) or loss.size != 1:
        raise ContractError("backward expects a scalar loss tensor")
    if loss._backward_fn is None or not any(node is loss for node in reversed(_TAPE.nodes)):
        raise ContractError("loss is not on the active tape (constant, computed under no_grad, "
                            "or recorded before the tape was reset)")
    loss.grad = np.ones_like(loss.data)
    for node in reversed(_TAPE.nodes):
        if node.grad is not None:
            node._backward_fn(node.grad)
            node.grad = None


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _record(a.data + b.data, (a, b), backward_fn)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _record(a.data * b.data, (a, b), backward_fn)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward_fn(g):
        _accumulate(a, -g)

    return _record(-a.data, (a,), backward_fn)


def _row_softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a numpy array, with max subtraction."""
    if not np.isfinite(x).all():
        raise NumericDomainError("softmax input contains NaN or Inf")
    exped = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    return exped / np.add.reduce(exped, axis=-1, keepdims=True)


def log_softmax(x) -> Tensor:
    """Log of the softmax over the last axis: max subtraction, then
    log-sum-exp, so a logit gap of 1,000 gives a log-probability of -1000,
    not the log of a probability that underflowed to 0."""
    x = as_tensor(x)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ShapeError(f"log_softmax needs a non-empty last axis, got shape {x.shape}")
    if not np.isfinite(x.data).all():
        raise NumericDomainError("log_softmax input contains NaN or Inf")
    shifted = x.data - np.maximum.reduce(x.data, axis=-1, keepdims=True)
    out = shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))

    def backward_fn(g):
        _accumulate(x, g - np.exp(out) * np.add.reduce(g, axis=-1, keepdims=True))

    return _record(out, (x,), backward_fn)


def linear(x, weight, bias=None) -> Tensor:
    """``x @ weight (+ bias)`` over the last axis of ``x``: one flat GEMM
    over all leading axes, recorded as one node, the tape's only matrix
    product.  A constant ``x`` gets no gradient product."""
    x, weight, bias = as_tensor(x), as_tensor(weight), bias if bias is None else as_tensor(bias)
    d_in, d_out = weight.shape
    if x.ndim < 1 or x.shape[-1] != d_in:
        raise ShapeError(f"linear expected last dim {d_in}, got {x.shape}")
    x2d = x.data.reshape(-1, d_in)
    out = x2d @ weight.data if bias is None else x2d @ weight.data + bias.data

    def backward_fn(g):
        g2d = g.reshape(-1, d_out)
        _accumulate(weight, x2d.T @ g2d)
        if bias is not None:
            _accumulate(bias, g2d.sum(axis=0))
        if x.requires_grad:
            _accumulate(x, (g2d @ weight.data.T).reshape(x.data.shape))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _record(out.reshape(x.shape[:-1] + (d_out,)), parents, backward_fn)


def attention(q, k, v, num_heads: int, bias=None) -> Tensor:
    """Multi-head scaled dot-product attention of (..., L_q, d) queries over
    (..., L_k, d) keys and values, whose leading axes broadcast, as one node.
    ``bias`` is a numpy constant broadcastable to (..., heads, L_q, L_k)."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    width = q.shape[-1]
    if q.ndim < 2 or k.shape != v.shape or k.shape[-1] != width or width % num_heads:
        raise ShapeError(f"attention cannot split q {q.shape}, k {k.shape}, v {v.shape} into {num_heads} heads")
    head_dim = width // num_heads
    scale = 1.0 / math.sqrt(head_dim)

    def split(a):   # (..., L, d) -> (..., heads, L, head_dim)
        return np.swapaxes(a.reshape(a.shape[:-1] + (num_heads, head_dim)), -3, -2)

    def merge(a):   # the inverse of split
        return np.swapaxes(a, -3, -2).reshape(a.shape[:-3] + (a.shape[-2], width))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scores = np.matmul(qh, np.swapaxes(kh, -1, -2)) * scale
    weights = _row_softmax(scores if bias is None else scores + bias)

    def backward_fn(g):
        gh = split(g)
        d_weights = np.matmul(gh, np.swapaxes(vh, -1, -2))
        d_scores = (d_weights - (d_weights * weights).sum(axis=-1, keepdims=True)) * weights * scale
        _accumulate(q, _unbroadcast(merge(np.matmul(d_scores, kh)), q.data.shape))
        _accumulate(k, _unbroadcast(merge(np.matmul(np.swapaxes(d_scores, -1, -2), qh)), k.data.shape))
        _accumulate(v, _unbroadcast(merge(np.matmul(np.swapaxes(weights, -1, -2), gh)), v.data.shape))

    return _record(merge(np.matmul(weights, vh)), (q, k, v), backward_fn)


def relu(x) -> Tensor:
    x = as_tensor(x)

    def backward_fn(g):
        _accumulate(x, g * (x.data > 0.0))

    return _record(np.maximum(x.data, 0.0), (x,), backward_fn)


def leaky_relu(x, slope: float = 0.01) -> Tensor:
    x = as_tensor(x)

    def backward_fn(g):
        _accumulate(x, g * np.where(x.data > 0.0, 1.0, slope))

    return _record(np.where(x.data > 0.0, x.data, slope * x.data), (x,), backward_fn)


def gelu(x) -> Tensor:
    """Exact (erf-based) GELU."""
    x = as_tensor(x)
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))

    def backward_fn(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x.data * x.data)
        _accumulate(x, g * (cdf + x.data * pdf))

    return _record(x.data * cdf, (x,), backward_fn)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift.

    The input is centred once and the centred rows give both the variance
    and ``xhat``; the sums are the ones ``np.mean`` and ``np.var`` take."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    width = x.shape[-1]
    centered = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / width
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / width
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = xhat * gamma.data + beta.data

    def backward_fn(g):
        _accumulate(gamma, np.add.reduce((g * xhat).reshape(-1, width), axis=0))
        _accumulate(beta, np.add.reduce(g.reshape(-1, width), axis=0))
        if x.requires_grad:
            dxhat = g * gamma.data
            term1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / width
            term2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / width
            _accumulate(x, (dxhat - term1 - xhat * term2) * inv_std)

    return _record(out, (x, gamma, beta), backward_fn)


def gather(x, index) -> Tensor:
    """``x[index]`` for a numpy index (an int array, or a tuple of int arrays,
    slices and Ellipsis) with a scatter-add adjoint: embedding lookups, and
    picking entries or rows out of batched matrices."""
    x = as_tensor(x)
    try:
        out = x.data[index]
    except IndexError as exc:
        raise ContractError(f"gather index out of range for shape {x.shape}") from exc

    def backward_fn(g):
        np.add.at(_grad_buffer(x), index, g)

    return _record(out, (x,), backward_fn)


def _reduce(x, axis, keepdims, mean: bool) -> Tensor:
    x = as_tensor(x)
    out = (x.data.mean if mean else x.data.sum)(axis=axis, keepdims=keepdims)
    scale = x.size / max(out.size, 1)

    def backward_fn(g):
        spread = np.broadcast_to(g if axis is None or keepdims else np.expand_dims(g, axis), x.data.shape)
        _accumulate(x, spread / scale if mean else spread)

    return _record(out, (x,), backward_fn)


def custom_op(x, out_data, vjp) -> Tensor:
    """Record one node for a composite computed outside the tape: its value
    ``out_data`` and ``vjp``, which maps the output's gradient to ``x``'s."""
    x = as_tensor(x)

    def backward_fn(g):
        _accumulate(x, vjp(g))

    return _record(out_data, (x,), backward_fn)


def bce_with_logits(logits, targets) -> Tensor:
    """Elementwise binary cross entropy on logits, the numerically stable form."""
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=logits.data.dtype)
    if targets.shape != logits.shape:
        raise ShapeError(f"bce_with_logits shapes disagree: {logits.shape} vs {targets.shape}")
    z = logits.data
    out = np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))

    def backward_fn(g):
        _accumulate(logits, g * (expit(z) - targets))

    return _record(out, (logits,), backward_fn)
