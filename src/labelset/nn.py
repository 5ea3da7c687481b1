"""Layers assembled from the autodiff primitives.

All parameters are ``DTYPE`` (float32) and initialized from a
caller-supplied numpy Generator, uniform in (-1/sqrt(fan_in),
+1/sqrt(fan_in)), drawn in float64 and rounded.  Activations follow the
parameters' dtype, and the constants a layer builds (attention masks,
dropout masks) take the dtype of the tensor they meet.  Modules register
parameters in a dict as they are created, so iteration order (and therefore
optimizer update order) is the creation order, which is fixed by the model
architecture and nothing else.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ContractError

MASK_BIAS = -1e9
# the one precision decision: every parameter, and so every activation, is
# float32; matching costs, the overlap penalty's sorted sums and the metrics
# are taken in float64 where they happen
DTYPE = np.float32


def uniform_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Module:
    """Parameter container; children and parameters keep registration order."""

    def __init__(self):
        self._params: dict[str, T.Tensor] = {}
        self._children: dict[str, Module] = {}

    def register(self, name: str, array: np.ndarray) -> T.Tensor:
        if name in self._params or name in self._children:
            raise ContractError(f"duplicate parameter name {name!r}")
        param = T.Tensor(np.asarray(array, dtype=DTYPE), requires_grad=True)
        self._params[name] = param
        return param

    def add_child(self, name: str, child: "Module") -> "Module":
        if name in self._params or name in self._children:
            raise ContractError(f"duplicate child name {name!r}")
        self._children[name] = child
        return child

    def named_parameters(self, prefix: str = "") -> dict[str, T.Tensor]:
        out: dict[str, T.Tensor] = {}
        for name, param in self._params.items():
            out[prefix + name] = param
        for name, child in self._children.items():
            out.update(child.named_parameters(prefix + name + "."))
        return out


class Linear(Module):
    def __init__(self, rng: np.random.Generator, in_dim: int, out_dim: int):
        super().__init__()
        self.weight = self.register("weight", uniform_init(rng, in_dim, (in_dim, out_dim)))
        self.bias = self.register("bias", uniform_init(rng, in_dim, (out_dim,)))

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return T.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    """Last-axis normalization with learned scale (starts at 1) and shift (0)."""

    def __init__(self, width: int):
        super().__init__()
        self.gamma = self.register("gamma", np.ones(width))
        self.beta = self.register("beta", np.zeros(width))

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return T.layer_norm(x, self.gamma, self.beta)


def mask_to_bias(mask: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Turn a {0,1} key mask of shape (..., L) into an additive attention
    bias of shape (..., 1, 1, L): 0 on real positions, MASK_BIAS on padding.
    Pass the dtype of the scores it is added to."""
    mask = np.asarray(mask, dtype=dtype)
    if mask.ndim < 1:
        raise ContractError(f"key mask needs a key axis, got shape {mask.shape}")
    return ((1.0 - mask) * MASK_BIAS)[..., None, None, :]


class MultiHeadAttention(Module):
    """Four projections around one ``T.attention`` node, which splits the
    heads, attends and merges them again.

    Inputs are (..., L, d_model); leading batch axes broadcast, so one
    (L_q, d_model) query can attend into a batch of memories.  An optional
    additive bias broadcastable to (..., heads, L_q, L_k) masks padding.
    """

    def __init__(self, rng: np.random.Generator, d_model: int, num_heads: int):
        super().__init__()
        if d_model % num_heads != 0:
            raise ContractError(f"d_model {d_model} not divisible by {num_heads} heads")
        self.num_heads = num_heads
        self.proj_q = self.add_child("proj_q", Linear(rng, d_model, d_model))
        self.proj_k = self.add_child("proj_k", Linear(rng, d_model, d_model))
        self.proj_v = self.add_child("proj_v", Linear(rng, d_model, d_model))
        self.proj_out = self.add_child("proj_out", Linear(rng, d_model, d_model))

    def __call__(self, query: T.Tensor, memory: T.Tensor, bias: np.ndarray | None = None,
                 projected: bool = False) -> T.Tensor:
        """``projected``: ``query`` is already ``proj_q``'s output."""
        q = query if projected else self.proj_q(query)
        mixed = T.attention(q, self.proj_k(memory), self.proj_v(memory), self.num_heads, bias)
        return self.proj_out(mixed)


class FeedForward(Module):
    """Position-wise two-layer net, hidden width 4x the model width."""

    def __init__(self, rng: np.random.Generator, d_model: int):
        super().__init__()
        self.expand = self.add_child("expand", Linear(rng, d_model, 4 * d_model))
        self.contract = self.add_child("contract", Linear(rng, 4 * d_model, d_model))

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return self.contract(T.gelu(self.expand(x)))


class Dropout:
    """Inverted dropout that runs exactly when given a Generator (a training
    pass); identity without one or at rate 0."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def __call__(self, x: T.Tensor, rng: np.random.Generator | None,
                 rows: tuple[int, ...] = ()) -> T.Tensor:
        """``rows``: batch axes the mask spans even where x lacks them."""
        if rng is None or self.rate == 0.0:
            return x
        keep = 1.0 - self.rate
        mask = (rng.random(rows + x.shape[-2:] if rows else x.shape) < keep) / keep
        return x * T.Tensor(mask.astype(x.data.dtype))


class TransformerLayer(Module):
    """Pre-norm transformer block; with ``cross=True`` it adds an attention
    sub-layer over an external memory between self-attention and the FFN."""

    def __init__(self, rng: np.random.Generator, d_model: int, num_heads: int,
                 dropout: float = 0.0, cross: bool = False):
        super().__init__()
        self.cross = cross
        self.norm_self = self.add_child("norm_self", LayerNorm(d_model))
        self.attn_self = self.add_child("attn_self", MultiHeadAttention(rng, d_model, num_heads))
        if cross:
            self.norm_cross = self.add_child("norm_cross", LayerNorm(d_model))
            self.attn_cross = self.add_child("attn_cross", MultiHeadAttention(rng, d_model, num_heads))
        self.norm_ffn = self.add_child("norm_ffn", LayerNorm(d_model))
        self.ffn = self.add_child("ffn", FeedForward(rng, d_model))
        self.drop = Dropout(dropout)

    def prefix(self, x: T.Tensor, self_bias: np.ndarray | None = None,
               rng: np.random.Generator | None = None,
               rows: tuple[int, ...] = ()) -> tuple[T.Tensor, T.Tensor | None]:
        """The block up to its first read of a memory: ``x`` after the
        self-attention sub-layer, and with ``cross`` the cross-attention's
        projected queries (else None).  ``rows``: the batch axes dropout
        spans, the memory's leading axes."""
        normed = self.norm_self(x)
        x = x + self.drop(self.attn_self(normed, normed, bias=self_bias), rng, rows)
        return x, (self.attn_cross.proj_q(self.norm_cross(x)) if self.cross else None)

    def __call__(self, x: T.Tensor, memory: T.Tensor | None = None,
                 self_bias: np.ndarray | None = None, memory_bias: np.ndarray | None = None,
                 rng: np.random.Generator | None = None,
                 prefix: tuple[T.Tensor, T.Tensor | None] | None = None) -> T.Tensor:
        """Dropout runs on each sub-layer's output when ``rng`` is given.
        ``prefix``: what ``self.prefix(x)`` returned, which is then not
        computed again (nor ``x`` read)."""
        if self.cross and memory is None:
            raise ContractError("cross-attention layer called without memory")
        # the decoder's (m, d) queries are shared until cross-attention; masks are not
        rows = () if memory is None else memory.shape[:-2]
        x, q = self.prefix(x, self_bias, rng, rows) if prefix is None else prefix
        if self.cross:
            x = x + self.drop(self.attn_cross(q, memory, bias=memory_bias, projected=True),
                              rng, rows)
        x = x + self.drop(self.ffn(self.norm_ffn(x)), rng, rows)
        return x
