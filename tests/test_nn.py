"""Layer-level gradient checks and masking behavior."""

import numpy as np
import numpy.testing as npt
import pytest

from labelset import nn, tensor as T
from labelset.errors import ContractError, ShapeError

from helpers import check_gradients


@pytest.fixture(autouse=True)
def clean_tape():
    T.reset_tape()
    yield
    T.reset_tape()


def test_uniform_init_bounds_and_determinism():
    a = nn.uniform_init(np.random.default_rng(7), 16, (100, 4))
    b = nn.uniform_init(np.random.default_rng(7), 16, (100, 4))
    assert a.tobytes() == b.tobytes()
    assert (np.abs(a) <= 0.25).all()


def test_linear_gradients_and_shape_guard():
    rng = np.random.default_rng(0)
    layer = nn.Linear(rng, 4, 3)
    x = T.Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    check_gradients(lambda ls: layer(ls[0]).sum(), [x, layer.weight, layer.bias])
    with pytest.raises(ShapeError):
        layer(T.Tensor(np.ones((2, 5))))


def test_layer_norm_starts_as_pure_normalization():
    layer = nn.LayerNorm(4)
    x = T.Tensor([[1.0, 2.0, 3.0, 4.0]])
    out = layer(x).data
    npt.assert_allclose(out.mean(), 0.0, atol=1e-12)
    npt.assert_allclose(out.std(), 1.0, atol=1e-3)  # eps shifts variance slightly


def test_named_parameters_are_creation_ordered_and_prefixed():
    rng = np.random.default_rng(1)
    block = nn.TransformerLayer(rng, d_model=8, num_heads=2, cross=True)
    names = list(block.named_parameters())
    assert names[0] == "norm_self.gamma"
    assert "attn_cross.proj_q.weight" in names
    assert names == sorted(names, key=names.index)  # stable, no duplicates
    assert len(set(names)) == len(names)


def test_attention_gradients():
    rng = np.random.default_rng(2)
    attn = nn.MultiHeadAttention(rng, d_model=4, num_heads=2)
    x = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    mem = T.Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    leaves = [x, mem, attn.proj_q.weight, attn.proj_k.weight, attn.proj_v.weight, attn.proj_out.weight]
    check_gradients(lambda ls: (attn(ls[0], ls[1]) * T.Tensor(np.arange(12.0).reshape(3, 4))).sum(), leaves)


def test_mask_bias_zeroes_attention_to_padding():
    rng = np.random.default_rng(3)
    attn = nn.MultiHeadAttention(rng, d_model=8, num_heads=2)
    real = T.Tensor(rng.standard_normal((3, 8)))
    pad_rows = T.Tensor(np.vstack([real.data, rng.standard_normal((2, 8))]))
    bias = nn.mask_to_bias(np.array([1, 1, 1, 0, 0]))
    with T.no_grad():
        trimmed = attn(real, real).data
        padded = attn(real, pad_rows, bias=bias).data
    assert trimmed.tobytes() == padded.tobytes()


def test_padding_rows_receive_zero_gradient():
    rng = np.random.default_rng(4)
    attn = nn.MultiHeadAttention(rng, d_model=4, num_heads=1)
    mem = T.Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    q = T.Tensor(rng.standard_normal((2, 4)))
    bias = nn.mask_to_bias(np.array([1, 1, 0, 0]))
    T.backward(attn(q, mem, bias=bias).sum())
    npt.assert_array_equal(mem.grad[2:], np.zeros((2, 4)))
    assert np.abs(mem.grad[:2]).sum() > 0


def test_transformer_layer_gradients_full_stack():
    rng = np.random.default_rng(5)
    block = nn.TransformerLayer(rng, d_model=4, num_heads=2, cross=True)
    x = T.Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    mem = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    params = list(block.named_parameters().values())
    probe = T.Tensor(rng.standard_normal((2, 4)))
    check_gradients(lambda ls: (block(ls[0], memory=ls[1]) * probe).sum(), [x, mem] + params)


def test_cross_layer_requires_memory():
    block = nn.TransformerLayer(np.random.default_rng(6), d_model=4, num_heads=1, cross=True)
    with pytest.raises(ContractError):
        block(T.Tensor(np.ones((2, 4))))


def test_dropout_identity_when_off_and_scales_when_on():
    drop = nn.Dropout(0.0)
    x = T.Tensor(np.ones((4, 4)))
    assert drop(x, None, train=True) is x
    drop = nn.Dropout(0.5)
    assert drop(x, None, train=False) is x
    out = drop(x, np.random.default_rng(0), train=True).data
    assert set(np.unique(out)) <= {0.0, 2.0}
    with pytest.raises(ContractError):
        nn.Dropout(1.0)


def test_attention_over_a_batch_equals_each_row_alone():
    # an unbatched query broadcasts against a (B, L, d) memory; rows of the
    # same length give the bits each row gives alone
    rng = np.random.default_rng(9)
    attn = nn.MultiHeadAttention(rng, d_model=8, num_heads=2)
    query = T.Tensor(rng.standard_normal((3, 8)))
    memory = T.Tensor(rng.standard_normal((4, 5, 8)))
    with T.no_grad():
        batched = attn(query, memory).data
        alone = [attn(query, T.Tensor(row)).data for row in memory.data]
    assert batched.shape == (4, 3, 8)
    for row, expected in zip(batched, alone):
        assert row.tobytes() == expected.tobytes()


def test_mask_to_bias_keeps_batch_axes():
    bias = nn.mask_to_bias(np.array([[1, 1, 0], [1, 0, 0]]))
    assert bias.shape == (2, 1, 1, 3)
    npt.assert_array_equal(bias[1, 0, 0], [0.0, nn.MASK_BIAS, nn.MASK_BIAS])
    with pytest.raises(ContractError):
        nn.mask_to_bias(np.array(1.0))


def test_dropout_masks_differ_per_batch_row():
    # the decoder's first self-attention output is one (m, d) matrix shared
    # by the batch; its dropout mask must still be drawn per batch row
    rng = np.random.default_rng(10)
    block = nn.TransformerLayer(rng, d_model=4, num_heads=1, dropout=0.5, cross=True)
    for silenced in (block.attn_cross.proj_out, block.ffn.contract):
        silenced.weight.data[...] = 0.0
        silenced.bias.data[...] = 0.0
    x = T.Tensor(rng.standard_normal((2, 4)))
    memory = T.Tensor(rng.standard_normal((2, 3, 4)))
    with T.no_grad():
        out = block(x, memory=memory, rng=np.random.default_rng(11), train=True).data
    assert out.shape == (2, 2, 4)
    assert out[0].tobytes() != out[1].tobytes()
