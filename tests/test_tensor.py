"""Gradient and invariant checks for the autodiff core."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelset import nn, tensor as T
from labelset.errors import ContractError, NumericDomainError, ShapeError

from helpers import check_gradients, leaf


@pytest.fixture(autouse=True)
def clean_tape():
    T.reset_tape()
    yield
    T.reset_tape()


class TestPrimitiveGradients:
    """Every primitive's backward agrees with central differences."""

    def test_add_mul_broadcast(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            a = leaf(rng, 3, 4)
            b = leaf(rng, 4)  # broadcasts against a
            c = leaf(rng, 3, 4)
            check_gradients(lambda ls: ((ls[0] + ls[1]) * ls[2]).sum(), [a, b, c])

    def test_softmax(self):
        rng = np.random.default_rng(4)
        for trial in range(25):
            x = leaf(rng, 2, 5)
            probe = T.Tensor(rng.standard_normal((2, 5)))
            check_gradients(lambda ls: (T.log_softmax(ls[0]) * probe).sum(), [x])

    def test_relu_leaky_gelu_sigmoid(self):
        rng = np.random.default_rng(6)
        for trial in range(25):
            # keep points away from the relu kink where central differences lie
            data = rng.standard_normal(12)
            data[np.abs(data) < 1e-2] += 0.05
            x = T.Tensor(data, requires_grad=True)
            check_gradients(lambda ls: T.relu(ls[0]).sum(), [x])
            check_gradients(lambda ls: T.leaky_relu(ls[0]).sum(), [x])
            check_gradients(lambda ls: T.gelu(ls[0]).sum(), [x])

    def test_layer_norm(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            x = leaf(rng, 2, 6)
            gamma = T.Tensor(rng.uniform(0.5, 1.5, size=6), requires_grad=True)
            beta = leaf(rng, 6)
            probe = T.Tensor(rng.standard_normal((2, 6)))
            check_gradients(lambda ls: (T.layer_norm(ls[0], ls[1], ls[2]) * probe).sum(), [x, gamma, beta])

    def test_embedding(self):
        rng = np.random.default_rng(8)
        table = leaf(rng, 6, 3)
        ids = np.array([[0, 2, 2], [5, 0, 1]])
        probe = T.Tensor(rng.standard_normal((2, 3, 3)))
        check_gradients(lambda ls: (T.gather(ls[0], ids) * probe).sum(), [table])

    def test_gather_rc(self):
        rng = np.random.default_rng(9)
        x = leaf(rng, 4, 5)
        rows = np.array([0, 1, 3, 1])
        cols = np.array([2, 2, 4, 0])
        check_gradients(lambda ls: T.gather(ls[0], (rows, cols)).sum(), [x])

    def test_sum_mean_axes(self):
        rng = np.random.default_rng(10)
        x = leaf(rng, 3, 4)
        probe = T.Tensor(rng.standard_normal(4))
        check_gradients(lambda ls: (ls[0].sum(axis=0) * probe).sum(), [x])
        check_gradients(lambda ls: (ls[0].mean(axis=1)).sum(), [x])
        check_gradients(lambda ls: ls[0].mean(), [x])

    def test_bce_with_logits(self):
        rng = np.random.default_rng(13)
        logits = leaf(rng, 2, 4)
        targets = rng.integers(0, 2, size=(2, 4)).astype(float)
        check_gradients(lambda ls: T.bce_with_logits(ls[0], targets).mean(), [logits])

    def test_composite_softmax_cross_entropy(self):
        rng = np.random.default_rng(14)
        for trial in range(10):
            logits = leaf(rng, 3, 5)
            rows = np.arange(3)
            cols = rng.integers(0, 5, size=3)
            check_gradients(
                lambda ls: -(T.gather(T.log_softmax(ls[0]), (rows, cols)).sum()),
                [logits],
            )


def _attention_oracle(q, k, v, num_heads, bias=None):
    # one head at a time, in plain numpy
    head_dim = q.shape[-1] // num_heads
    out = []
    for h in range(num_heads):
        cols = slice(h * head_dim, (h + 1) * head_dim)
        scores = q[..., cols] @ np.swapaxes(k[..., cols], -1, -2) / np.sqrt(head_dim)
        if bias is not None:
            scores = scores + bias[..., 0, :, :]
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        out.append(weights / weights.sum(axis=-1, keepdims=True) @ v[..., cols])
    return np.concatenate(out, axis=-1)


class TestFusedOps:
    """``linear`` and ``attention`` record one node each and agree with
    central differences on every operand."""

    @pytest.mark.parametrize("lead, bias", [((), True), ((3,), True), ((2, 3), True), ((3,), False)],
                             ids=["1d", "2d", "3d", "2d-no-bias"])
    def test_linear_gradients(self, lead, bias):
        rng = np.random.default_rng(20)
        x = leaf(rng, *lead, 4)
        w = leaf(rng, 4, 3)
        b = leaf(rng, 3) if bias else None
        probe = T.Tensor(rng.standard_normal(lead + (3,)))
        with T.no_grad():
            expected = x.data @ w.data + (b.data if bias else 0.0)
            npt.assert_allclose(T.linear(x, w, b).data, expected, rtol=0, atol=1e-14)
        leaves = [x, w, b] if bias else [x, w]
        check_gradients(lambda ls: (T.linear(*ls) * probe).sum(), leaves)
        T.linear(x, w, b)
        assert len(T.active_tape()) == 1

    def test_linear_rejects_a_bad_width(self):
        w = T.Tensor(np.ones((4, 3)))
        with pytest.raises(ShapeError, match="last dim 4"):
            T.linear(T.Tensor(np.ones((2, 5))), w, T.Tensor(np.zeros(3)))

    def test_attention_with_two_heads_and_a_padding_bias(self):
        rng = np.random.default_rng(21)
        q, k, v = leaf(rng, 2, 3, 4), leaf(rng, 2, 5, 4), leaf(rng, 2, 5, 4)
        bias = nn.mask_to_bias(np.array([[1, 1, 1, 1, 0], [1, 1, 0, 0, 0]]))
        probe = T.Tensor(rng.standard_normal((2, 3, 4)))
        with T.no_grad():
            out = T.attention(q, k, v, 2, bias).data
        npt.assert_allclose(out, _attention_oracle(q.data, k.data, v.data, 2, bias), rtol=0, atol=1e-14)
        check_gradients(lambda ls: (T.attention(ls[0], ls[1], ls[2], 2, bias) * probe).sum(), [q, k, v])
        T.backward((T.attention(q, k, v, 2, bias) * probe).sum())
        assert len(T.active_tape()) == 3   # attention, product, sum
        npt.assert_array_equal(k.grad[1, 2:], 0.0)
        npt.assert_array_equal(v.grad[1, 2:], 0.0)

    def test_attention_of_unbatched_queries_into_a_batch_of_memories(self):
        # the decoder's (m, d) queries against a (B, L, d) memory: the
        # query gradient sums over the batch axis
        rng = np.random.default_rng(22)
        q, k, v = leaf(rng, 3, 4), leaf(rng, 2, 5, 4), leaf(rng, 2, 5, 4)
        bias = nn.mask_to_bias(np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0]]))
        probe = T.Tensor(rng.standard_normal((2, 3, 4)))
        with T.no_grad():
            out = T.attention(q, k, v, 2, bias).data
        assert out.shape == (2, 3, 4)
        npt.assert_allclose(out, _attention_oracle(q.data, k.data, v.data, 2, bias), rtol=0, atol=1e-14)
        check_gradients(lambda ls: (T.attention(ls[0], ls[1], ls[2], 2, bias) * probe).sum(), [q, k, v])

    def test_attention_rejects_widths_it_cannot_split(self):
        x = T.Tensor(np.ones((3, 6)))
        with pytest.raises(ShapeError):
            T.attention(x, x, x, 4)
        with pytest.raises(ShapeError):
            T.attention(x, T.Tensor(np.ones((3, 4))), T.Tensor(np.ones((3, 4))), 2)

    def test_attention_rejects_non_finite_scores(self):
        q = T.Tensor(np.ones((2, 4)))
        k = T.Tensor(np.array([[1.0, 0.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0]]))
        with pytest.raises(NumericDomainError):
            T.attention(q, k, T.Tensor(np.ones((2, 4))), 2)


class TestConstantOperands:
    def test_linear_skips_the_product_for_a_constant_input(self, monkeypatch):
        # the GCN's propagation matrix is a constant left operand
        rng = np.random.default_rng(23)
        spread = rng.standard_normal((4, 4))
        h = leaf(rng, 4, 3)
        probe = rng.standard_normal((4, 3))
        loss = (T.linear(spread, h) * T.Tensor(probe)).sum()
        receivers = []
        accumulate = T._accumulate

        def recording(t, delta):
            receivers.append(t)
            accumulate(t, delta)

        monkeypatch.setattr(T, "_accumulate", recording)
        T.backward(loss)
        assert not any(t.data is spread for t in receivers)
        npt.assert_allclose(h.grad, spread.T @ probe, rtol=0, atol=1e-14)


def _layer_norm_oracle(x, gamma, beta, g, eps=1e-5):
    """Forward and backward of layer norm through np.mean / np.var."""
    width = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    xhat = (x - mu) * inv_std
    dxhat = g * gamma
    dx = (dxhat - dxhat.mean(axis=-1, keepdims=True)
          - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv_std
    return (xhat * gamma + beta, dx, (g * xhat).reshape(-1, width).sum(axis=0),
            g.reshape(-1, width).sum(axis=0))


@pytest.mark.parametrize("shape", [(3,), (2, 5, 7), (8, 12, 64)], ids=["1d", "3d", "wide"])
def test_layer_norm_equals_the_mean_var_oracle_bitwise(shape):
    rng = np.random.default_rng(24)
    x = T.Tensor(rng.normal(0.3, 2.0, size=shape), requires_grad=True)
    gamma = T.Tensor(rng.uniform(0.5, 1.5, size=shape[-1]), requires_grad=True)
    beta = leaf(rng, shape[-1])
    probe = rng.standard_normal(shape)
    out = T.layer_norm(x, gamma, beta)
    T.backward((out * T.Tensor(probe)).sum())
    expected = _layer_norm_oracle(x.data, gamma.data, beta.data, probe)
    # gradients accumulate into zeros, which turns a -0.0 into 0.0
    got = (out.data, x.grad, gamma.grad, beta.grad)
    for have, want in zip(got, (expected[0],) + tuple(0.0 + e for e in expected[1:])):
        assert have.tobytes() == want.tobytes()


class TestWorkedExamples:
    def test_sum_gradient_is_ones(self):
        w = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
        T.backward(w.sum())
        npt.assert_array_equal(w.grad, np.ones(3))

    def test_elementwise_square_gradient(self):
        w = T.Tensor([1.0, 2.0], requires_grad=True)
        T.backward((w * w).sum())
        npt.assert_allclose(w.grad, [2.0, 4.0], rtol=0, atol=0)

    def test_softmax_uniform_on_equal_logits(self):
        log_p = T.log_softmax(T.Tensor([3.0, 3.0, 3.0, 3.0]))
        npt.assert_allclose(np.exp(log_p.data), np.full(4, 0.25), atol=1e-15)


class TestSoftmaxInvariants:
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_rows_sum_to_one_and_positive(self, logits):
        p = np.exp(T.log_softmax(T.Tensor(logits)).data)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert (p > 0.0).all()

    def test_stable_under_large_magnitudes(self):
        # the probability of the second class underflows; its log does not
        log_p = T.log_softmax(T.Tensor([1000.0, 0.0])).data
        npt.assert_array_equal(log_p, [0.0, -1000.0])

    def test_rejects_nan_input(self):
        with pytest.raises(NumericDomainError):
            T.log_softmax(T.Tensor([np.nan, 0.0]))


class TestTapeDiscipline:
    def test_tape_order_is_topological(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        z = y + x
        loss = z.sum()
        tape = T.active_tape()
        position = {id(node): i for i, node in enumerate(tape.nodes)}
        for i, node in enumerate(tape.nodes):
            for parent in node._parents:
                if id(parent) in position:
                    assert position[id(parent)] < i
        assert loss is tape.nodes[-1]

    def test_shared_subexpression_accumulates(self):
        # loss = x*x + x*x: gradient 4x, exercised through a shared node
        x = T.Tensor([3.0], requires_grad=True)
        sq = x * x
        T.backward((sq + sq).sum())
        npt.assert_allclose(x.grad, [12.0])

    def test_no_grad_blocks_recording(self):
        x = T.Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = (x * 2.0).sum()
        assert y._backward_fn is None
        with pytest.raises(ContractError):
            T.backward(y)

    def test_backward_rejects_nonscalar(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        with pytest.raises(ContractError):
            T.backward(y)

    def test_backward_rejects_constant(self):
        with pytest.raises(ContractError):
            T.backward(T.Tensor(3.0))

    def test_backward_rejects_loss_from_a_reset_tape(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        loss = (x * 2.0).sum()
        T.reset_tape()
        with pytest.raises(ContractError, match="not on the active tape"):
            T.backward(loss)
        npt.assert_array_equal(x.grad, np.zeros(3))

    def test_unrelated_branch_untouched(self):
        x = T.Tensor([1.0], requires_grad=True)
        y = T.Tensor([1.0], requires_grad=True)
        _unused = y * 5.0
        T.backward((x * 3.0).sum())
        npt.assert_array_equal(y.grad, [0.0])

    def test_second_backward_adds_leaf_gradient_once_more(self):
        x = T.Tensor([1.0, -2.0], requires_grad=True)
        loss = (x * 2.0).sum()
        T.backward(loss)
        T.backward(loss)
        npt.assert_array_equal(x.grad, [4.0, 4.0])

    def test_no_node_holds_a_gradient_after_backward(self):
        x = T.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        w = T.Tensor([[0.5], [-1.0]], requires_grad=True)
        T.backward(T.log_softmax(T.gelu(T.linear(x, w)) + x).sum())
        assert all(node.grad is None for node in T.active_tape().nodes)

    def test_nodes_after_the_loss_never_run(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        late = T.Tensor([3.0], requires_grad=True)
        loss = (x * x).sum()
        after = loss * late
        T.backward(loss)
        npt.assert_array_equal(x.grad, [2.0, 4.0])
        npt.assert_array_equal(late.grad, [0.0])
        assert after.grad is None


class TestShapeContracts:
    def test_bce_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.bce_with_logits(T.Tensor(np.ones((2, 3))), np.ones((3, 2)))

    def test_embedding_range_check(self):
        with pytest.raises(ContractError):
            T.gather(T.Tensor(np.ones((3, 2)), requires_grad=True), np.array([3]))


class TestDeterminism:
    def test_identical_graphs_bitwise_identical_gradients(self):
        def run():
            T.reset_tape()
            rng = np.random.default_rng(99)
            x = T.Tensor(rng.standard_normal((4, 4)), requires_grad=True)
            w = T.Tensor(rng.standard_normal((4, 4)), requires_grad=True)
            h = T.gelu(T.linear(x, w))
            loss = (T.log_softmax(h) * T.log_softmax(h)).sum()
            T.backward(loss)
            return loss.data.copy(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1.tobytes() == l2.tobytes()
        assert gx1.tobytes() == gx2.tobytes()
        assert gw1.tobytes() == gw2.tobytes()
