"""Dense float tensors with reverse-mode automatic differentiation.

Everything here is deliberately small: operations execute eagerly on numpy
arrays and record themselves on a global tape, and ``backward`` replays
adjoints in reverse tape order.  Replaying in tape order also fixes the order
in which gradients accumulate, which keeps repeated runs with identical seeds
bit-identical.  The tape is process-wide and unlocked, so only one thread
records on it: one thread trains.  Grad mode is per thread and on by default,
so forward passes under ``no_grad``, which record nothing, may run on other
threads while that thread trains, and a new thread records until it enters
``no_grad`` itself.

A recorded node holds a gradient only from the moment one reaches it until
``backward`` has passed it on to the node's parents, so ``backward`` runs
exactly the nodes the loss depends on and may be called again on the same
tape.  Leaves (tensors created with ``requires_grad=True``) keep a gradient
buffer from creation, and it accumulates until the optimizer clears it.

The tape records eleven kinds of op: ``add``, ``mul``, ``linear``,
``attention``, ``log_softmax``, ``leaky_relu``, ``gelu``, ``layer_norm``,
``gather``, a sum or mean, and ``custom_op``, which carries the models'
composite losses (the overlap penalty and the bce head's cross entropy)
as one node each.  The ReLU is ``leaky_relu`` at slope 0.0, and ``-x`` is
``mul`` by -1 in ``x``'s dtype.  At the model's sizes the cost is per
node, not per flop, so ``linear`` (matrix product plus optional bias) and
``attention`` (head split, scores, mask, softmax, weighted sum, head
merge) are fused: one node each.  Every matrix product, the GCN's
included, is one ``linear`` node.  A constant operand of ``linear``,
``add`` or ``mul`` gets no gradient product.  Output distributions are
taken as log-probabilities (``log_softmax``), which stay finite where a
probability would underflow to 0.  ``gelu`` is the tanh form, a
polynomial and one ``tanh`` instead of the far costlier ``erf``.

Importing this module raises glibc's mmap and trim thresholds to 32 MiB
for the whole process (``mallopt``).  With glibc's defaults, large blocks
are mapped afresh and freed memory goes back to the kernel, so each serving
chunk would fault its activations in again, page by page; with the
thresholds raised, freed blocks stay in the process and the next chunk's
arrays reuse them, for every op and every thread.  Where the C library has
no ``mallopt`` (macOS, Windows), nothing is set and serving runs slower.

A tensor keeps the float dtype of the array it wraps, so a model whose
parameters are float32 runs in float32.  Numpy promotes a float32 array met
by a float64 array (0-d included) or a numpy float64 scalar to float64, so
the constants inside an op are Python floats or arrays of its operands'
dtype, and a Python scalar passed as an operand (a float64 tensor) widens
the result.  ``leaky_relu``'s backward is the one exception: it multiplies
by a float64 array of slopes and stores the product in its input's dtype,
which rounds it as a first ``+=`` into the input's gradient would.
"""

from __future__ import annotations

import ctypes
import math
import threading
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, NumericDomainError, ShapeError

# the tanh-form GELU's cubic is x·(a + b·x²); Python floats, not numpy
# float64 scalars, which would promote float32 arrays
_GELU_A = math.sqrt(2.0 / math.pi)
_GELU_B = 0.044715 * _GELU_A
# past this |x| the cubic exceeds 43, so its tanh is exactly ±1 in float32
# and float64: clipping there changes no bit and keeps x³ from overflowing
_GELU_CLIP = 10.0
# elements per transposed block in ``_row_max``: 128 KiB of float32
_ROW_MAX_BLOCK = 1 << 15

# M_MMAP_THRESHOLD (-3) and M_TRIM_THRESHOLD (-1): see the module docstring
try:
    _MALLOPT = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):   # not glibc
    pass
else:
    _MALLOPT(-3, 32 << 20)
    _MALLOPT(-1, 32 << 20)


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
        return mul(self, np.array(-1.0, self.data.dtype))

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _reduce(self, axis, keepdims, mean=False)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _reduce(self, axis, keepdims, mean=True)


class _GradMode(threading.local):
    """Whether this thread records on the tape; every thread starts on."""

    enabled = True


# recorded nodes in creation order, a topological order by construction
_TAPE: list[Tensor] = []
_GRAD_MODE = _GradMode()


def active_tape() -> list[Tensor]:
    return _TAPE


def reset_tape() -> None:
    _TAPE.clear()


@contextmanager
def no_grad():
    """Disable tape recording on this thread inside the block (inference /
    evaluation); other threads keep their own grad mode."""
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def as_tensor(value) -> Tensor:
    """Wrap a scalar or array as a constant Tensor; pass Tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _record(out_data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    # a tracked output gets its gradient buffer when a gradient reaches it
    out = Tensor(out_data)
    if _GRAD_MODE.enabled and any(p.requires_grad for p in parents):
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
    if loss._backward_fn is None or not any(node is loss for node in reversed(_TAPE)):
        raise ContractError("loss is not on the active tape (constant, computed under no_grad, "
                            "or recorded before the tape was reset)")
    loss.grad = np.ones_like(loss.data)
    for node in reversed(_TAPE):
        if node.grad is not None:
            node._backward_fn(node.grad)
            node.grad = None


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _record(a.data + b.data, (a, b), backward_fn)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _record(a.data * b.data, (a, b), backward_fn)


def _row_max(x: np.ndarray) -> np.ndarray:
    """``np.maximum.reduce(x, axis=-1, keepdims=True)``, faster on short rows.

    Numpy reduces a short last axis one row at a time, about 65 ns a row;
    reducing down the leading axis of a transposed copy compares whole rows
    of maxima at once, 3-10× faster on attention scores.  The copy is taken
    a block of ``_ROW_MAX_BLOCK`` elements at a time, so it stays in cache,
    and only for rows shorter than 64, past which it costs more than it
    saves.  A maximum rounds nothing, so the order of comparison changes no
    value: at most the sign of a zero maximum in a row holding both zeros,
    and ``x - max`` then differs only in the sign of a zero, which exp maps
    to 1 either way.  NaN would not propagate alike, so callers reject it
    first."""
    width = x.shape[-1]
    if width >= 64:
        return np.maximum.reduce(x, axis=-1, keepdims=True)
    rows = x.reshape(-1, width)
    step = _ROW_MAX_BLOCK // width
    if len(rows) > step:
        maxima = np.concatenate([_row_max(rows[i:i + step]) for i in range(0, len(rows), step)])
    else:
        maxima = np.maximum.reduce(rows.T.copy(), axis=0)
    return maxima.reshape(x.shape[:-1] + (1,))


def _row_softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a numpy array, with max subtraction,
    computed in place: ``x`` is overwritten and returned."""
    if not np.isfinite(x).all():
        raise NumericDomainError("softmax input contains NaN or Inf")
    x -= _row_max(x)
    np.exp(x, out=x)
    x /= np.add.reduce(x, axis=-1, keepdims=True)
    return x


def log_softmax(x) -> Tensor:
    """Log of the softmax over the last axis: max subtraction, then
    log-sum-exp, so a logit gap of 1,000 gives a log-probability of -1000,
    not the log of a probability that underflowed to 0."""
    x = as_tensor(x)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ShapeError(f"log_softmax needs a non-empty last axis, got shape {x.shape}")
    if not np.isfinite(x.data).all():
        raise NumericDomainError("log_softmax input contains NaN or Inf")
    out = x.data - _row_max(x.data)
    out -= np.log(np.add.reduce(np.exp(out), axis=-1, keepdims=True))

    def backward_fn(g):
        _accumulate(x, g - np.exp(out) * np.add.reduce(g, axis=-1, keepdims=True))

    return _record(out, (x,), backward_fn)


def linear(x, weight, bias=None) -> Tensor:
    """``x @ weight (+ bias)`` over the last axis of ``x``: one flat GEMM
    over all leading axes, recorded as one node, the tape's only matrix
    product.  A lone row gets the bits it gets among other rows, and so
    does a row of a product wider than 16 columns whatever its row count,
    if ``weight`` has at most 256 rows.  A constant ``x`` gets no gradient
    product."""
    x, weight, bias = as_tensor(x), as_tensor(weight), bias if bias is None else as_tensor(bias)
    d_in, d_out = weight.shape
    if x.ndim < 1 or x.shape[-1] != d_in:
        raise ShapeError(f"linear expected last dim {d_in}, got {x.shape}")
    x2d = x.data.reshape(-1, d_in)
    # numpy runs a one-row product as GEMV, which rounds differently from
    # GEMM; doubling the row gives it the bits it gets among other rows
    rows = x2d if len(x2d) > 1 else np.concatenate([x2d, x2d])
    w = weight.data
    if d_out > 16 and d_out % 16:
        # OpenBLAS's small-matrix kernel (AVX-512 hosts, M·N·K up to 1e6)
        # rounds a product of such a width unlike its large one, so a row's
        # bits would hang on how many rows share it; zero columns up to a
        # multiple of 16 give it the large kernel's bits (for up to 256 rows
        # of ``weight``).  Products of 16 columns or fewer keep theirs: at
        # d_model 64 a serving chunk's (at most 1,024 rows) stays in the small kernel
        w = np.zeros((d_in, d_out + -d_out % 16), w.dtype)
        w[:, :d_out] = weight.data
    out = rows @ w
    if rows is not x2d or w is not weight.data:   # drop the doubled row and the zero columns
        out = out[:len(x2d), :d_out]
    if bias is not None:
        # in place, unless a wider bias widens the output as ``out + bias`` does
        out = np.add(out, bias.data, out=out if bias.data.dtype == out.dtype else None)

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
    ``bias`` is a numpy constant broadcastable to (..., heads, L_q, L_k).
    The scores are scaled, masked and softmaxed in one buffer, or in two
    when the bias widens their dtype or shape."""
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
    scores = np.matmul(qh, np.swapaxes(kh, -1, -2))
    scores *= scale
    if bias is not None:
        try:   # in place when the bias has the scores' dtype and broadcasts into them
            np.add(scores, bias, out=scores, casting="no")
        except (TypeError, ValueError):   # else widened, as ``scores + bias`` widens them
            scores = scores + bias
    weights = _row_softmax(scores)

    def backward_fn(g):
        gh = split(g)
        d_weights = np.matmul(gh, np.swapaxes(vh, -1, -2))
        d_scores = (d_weights - (d_weights * weights).sum(axis=-1, keepdims=True)) * weights * scale
        _accumulate(q, _unbroadcast(merge(np.matmul(d_scores, kh)), q.data.shape))
        _accumulate(k, _unbroadcast(merge(np.matmul(np.swapaxes(d_scores, -1, -2), qh)), k.data.shape))
        _accumulate(v, _unbroadcast(merge(np.matmul(np.swapaxes(weights, -1, -2), gh)), v.data.shape))

    return _record(merge(np.matmul(weights, vh)), (q, k, v), backward_fn)


def leaky_relu(x, slope: float = 0.01) -> Tensor:
    """``x`` where positive, else ``slope·x``, for a slope in [0, 1] (0.0 is
    the ReLU): ``max(x, slope·x)``, bit for bit a masked select on finite x."""
    x = as_tensor(x)

    def backward_fn(g):
        _accumulate(x, np.multiply(g, np.where(x.data > 0.0, 1.0, slope), out=np.empty_like(x.data)))

    return _record(np.maximum(x.data, slope * x.data), (x,), backward_fn)


def gelu(x) -> Tensor:
    """GELU in the tanh form (Hendrycks and Gimpel, arXiv 1606.08415):
    ``0.5·x·(1 + t)`` with ``t = tanh(√(2/π)·x·(1 + 0.044715·x²))``, within
    5e-4 of the erf form.  The backward reuses the saved ``0.5·(1 + t)``.
    Every finite input gives a finite value and gradient without overflow."""
    x = as_tensor(x)
    clipped = np.clip(x.data, -_GELU_CLIP, _GELU_CLIP)
    cdf = clipped * clipped
    cdf *= _GELU_B
    cdf += _GELU_A
    cdf *= clipped
    np.tanh(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5

    def backward_fn(g):
        # cdf + x·(1 − t²)/2·(a + 3b·x²), with 1 − t² = 4·cdf·(1 − cdf); the
        # second term is exactly 0 past the clip, so it may read clipped x
        slope = clipped * clipped
        slope *= 6.0 * _GELU_B
        slope += 2.0 * _GELU_A
        slope *= clipped
        slope *= cdf * (1.0 - cdf)
        slope += cdf
        slope *= g
        _accumulate(x, slope)

    return _record(x.data * cdf, (x,), backward_fn)


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift.

    The input is centred once and the centred rows give both the variance
    and ``xhat``; the sums are the ones ``np.mean`` and ``np.var`` take.
    The forward allocates two arrays of the input's size: the centred rows,
    scaled in place into ``xhat``, and their squares, which the output
    overwrites unless gamma or beta would widen it."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    width = x.shape[-1]
    centered = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / width
    squares = centered * centered
    inv_std = 1.0 / np.sqrt(np.add.reduce(squares, axis=-1, keepdims=True) / width + 1e-5)
    xhat = np.multiply(centered, inv_std, out=centered)
    try:   # in place when gamma and beta have xhat's dtype and broadcast into it
        out = np.multiply(xhat, gamma.data, out=squares, casting="no")
        np.add(out, beta.data, out=out, casting="no")
    except (TypeError, ValueError):   # else widened, as ``xhat * gamma + beta`` widens it
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

