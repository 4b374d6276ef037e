"""Tensor and tape behavior: forward values, gradients, selection rules."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molkv.autodiff import (
    GraphError,
    ShapeError,
    Tape,
    Tensor,
    _record,
    add,
    attention,
    backward,
    cross_entropy_logits,
    dense,
    embedding_lookup,
    grad_check,
    matmul,
    mul,
    parameter,
    reshape,
    rmsnorm,
    rmsnorm_np,
    rope_rotate,
    rope_rotate_np,
    scale,
    sigmoid,
    sigmoid_np,
    silu_np,
    softmax_np,
    stack,
    swishglu,
    tensor_sum,
    transpose,
    window_topk_mask,
)
from molkv.kvexperts import molkv_select, sliding_window_mask
from molkv.layers import own_expert_mix


def masked_weights(x: Tensor, mask) -> Tensor:
    """The taped ``attention``'s softmax weights for logits ``x`` (..., s, t): q = x, k = v = I give them exactly."""
    eye = Tensor(np.eye(x.shape[-1], dtype=x.dtype))
    return attention(x, eye, eye, mask, 1.0)


def own_weights(x: Tensor) -> Tensor:
    """``own_expert_mix`` with zero-width keys, identity routers and identity values: the taped softmax of ``x``."""
    n = x.shape[-1]
    eye = Tensor(np.eye(n, dtype=x.dtype))
    no_query, no_keys = Tensor(np.zeros(x.shape[:-1] + (0,), x.dtype)), Tensor(np.zeros((n, 0), x.dtype))
    return own_expert_mix(x, no_query, no_keys, eye, eye, None, 1.0)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, b).data, b.data)

    def test_hand_arithmetic(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    want[i, j] += a[i, k] * b[k, j]
        assert np.array_equal(matmul(Tensor(a), Tensor(b)).data, a @ b)
        np.testing.assert_allclose(matmul(Tensor(a), Tensor(b)).data, want, rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_vector_operand_rejected(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))

    def test_batched_gradients(self):
        rng = np.random.default_rng(1)
        a = parameter(rng.standard_normal((2, 3, 4)))
        b = parameter(rng.standard_normal((4, 5)))
        err = grad_check(lambda: tensor_sum(matmul(a, b)), [a, b])
        assert err < 1e-8

    @pytest.mark.parametrize("op,a_shape,b_shape", [
        (dense, (2, 5, 4), (4, 3)), (dense, (2, 3, 5, 4), (4, 3)),
        (matmul, (2, 5, 4), (4, 3)), (matmul, (2, 3, 5, 4), (4, 3)),
        (matmul, (2, 5, 4), (2, 4, 3)),  # batched 3-D @ 3-D: the per-batch products
    ])
    def test_leading_axes_gradients(self, op, a_shape, b_shape):
        # a 2-D weight's gradient is one 2-D product over every leading index of the activation
        rng = np.random.default_rng(2)
        a, b = parameter(rng.standard_normal(a_shape)), parameter(rng.standard_normal(b_shape))
        w = Tensor(rng.standard_normal(a_shape[:-1] + b_shape[-1:]))
        assert grad_check(lambda: tensor_sum(mul(op(a, b), w)), [a, b]) < 1e-8
        with Tape() as tape:
            loss = tensor_sum(mul(op(a, b), w))
        grads = backward(tape, loss)
        gb = np.swapaxes(a.data, -1, -2) @ w.data
        np.testing.assert_allclose(grads[a], w.data @ np.swapaxes(b.data, -1, -2), rtol=1e-12)
        np.testing.assert_allclose(grads[b], gb.reshape((-1,) + b_shape).sum(axis=0), rtol=1e-12)
        if len(b_shape) == 3:
            np.testing.assert_array_equal(grads[b], gb)


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_silu_at_zero(self):
        assert silu_np(np.array([0.0]))[0] == 0.0
        w = Tensor(np.ones((1, 1)))
        assert swishglu(Tensor([0.0]), w, w, w).data.tolist() == [0.0]

    def test_sigmoid_symmetry(self):
        x = np.linspace(-20, 20, 41)
        total = sigmoid(Tensor(x)).data + sigmoid(Tensor(-x)).data
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_sigmoid_extreme_inputs_finite(self):
        y = sigmoid(Tensor([-1e4, 1e4])).data
        assert np.all(np.isfinite(y))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_np_matches_definition(self, dtype):
        x = np.concatenate([np.random.default_rng(5).standard_normal(200) * 30, [0.0, -0.0, np.inf, -np.inf]])
        x = x.astype(dtype)
        e = np.exp(-np.abs(x))
        want = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        got = sigmoid_np(x)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)
        assert sigmoid_np(x[3]) == want[3]  # a scalar input too

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_sigmoid_np_is_where_form(self, dtype):
        # the branch-free select against the np.where form it replaced, bit for bit, NaN signs included
        def where_form(x):
            e = np.exp(-np.abs(x))
            s = np.where(x >= 0, 1.0, e)
            e += 1.0
            s /= e
            return s

        fi = np.finfo(dtype)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, fi.tiny / 4, -fi.tiny / 4, fi.tiny, fi.max, -fi.max]
        x = np.concatenate([np.array(special), 20.0 * np.random.default_rng(6).standard_normal(229)]).astype(dtype)
        bits = np.dtype(f"u{x.itemsize}")
        with np.errstate(all="ignore"):
            for arr in [x, x.reshape(2, 5, 24)] + [x[i, ...] for i in range(len(special))]:
                got, want = np.asarray(sigmoid_np(arr)), np.asarray(where_form(arr))
                assert got.dtype == want.dtype == dtype and got.shape == want.shape
                np.testing.assert_array_equal(got.reshape(-1).view(bits), want.reshape(-1).view(bits))

    def test_broadcast_mul_gradients(self):
        rng = np.random.default_rng(2)
        a = parameter(rng.standard_normal((3, 1, 4)))
        b = parameter(rng.standard_normal((5, 4)))
        err = grad_check(lambda: tensor_sum(mul(a, b)), [a, b])
        assert err < 1e-8

    def test_add_shape_error(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


class TestMaskedSoftmax:
    """The masked softmax inside ``attention``."""

    def test_uniform(self):
        y = masked_weights(Tensor([[0.0, 0.0, 0.0]]), np.ones(3, dtype=bool))
        np.testing.assert_allclose(y.data, [[1 / 3] * 3])

    def test_single_survivor(self):
        y = masked_weights(Tensor([[5.0, 1.0]]), np.array([False, True]))
        assert y.data.tolist() == [[0.0, 1.0]]

    def test_empty_slice_is_zero(self):
        y = masked_weights(Tensor([[1.0, 2.0]]), np.zeros(2, dtype=bool))
        assert y.data.tolist() == [[0.0, 0.0]]

    def test_masked_large_value_no_overflow(self):
        y = masked_weights(Tensor([[1000.0, 1.0]]), np.array([False, True]))
        assert np.all(np.isfinite(y.data))
        assert y.data.tolist() == [[0.0, 1.0]]

    def test_rows_sum_to_one_or_zero(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((20, 7)))
        mask = rng.random((20, 7)) < 0.5
        y = masked_weights(x, mask).data
        sums = y.sum(axis=-1)
        expect = (mask.sum(axis=-1) > 0).astype(float)
        np.testing.assert_allclose(sums, expect, atol=1e-12)
        assert (y >= 0).all()

    def test_gradients(self):
        rng = np.random.default_rng(4)
        x = parameter(rng.standard_normal((4, 6)))
        mask = rng.random((4, 6)) < 0.6
        w = rng.standard_normal((4, 6))
        err = grad_check(lambda: tensor_sum(mul(masked_weights(x, mask), Tensor(w))), [x])
        assert err < 1e-7


def selected(scores, k) -> list[int]:
    """The slots to which decoding's top-k, ``molkv_select``, gives a nonzero weight."""
    return np.flatnonzero(molkv_select(scores, k)).tolist()


class TestTopK:
    def test_basic(self):
        assert selected(np.array([0.1, 0.9, 0.5, 0.7]), 2) == [1, 3]

    def test_tie_lowest_index(self):
        assert selected(np.array([2.0, 2.0, 2.0]), 1) == [0]

    def test_fewer_than_k(self):
        assert selected(np.array([1.0, 2.0, 3.0]), 10) == [0, 1, 2]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            x = rng.standard_normal(100)
            got = set(selected(x, 10))
            want = set(np.argsort(-x, kind="stable")[:10].tolist())
            assert got == want


class TestBackward:
    def test_sum_gives_ones(self):
        x = parameter(np.arange(6.0).reshape(2, 3))
        with Tape() as tape:
            loss = tensor_sum(x)
        backward(tape, loss)
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_dot_gives_other_operand(self):
        x = parameter(np.array([1.0, 2.0, 3.0]))
        y = Tensor(np.array([4.0, 5.0, 6.0]))
        with Tape() as tape:
            loss = tensor_sum(mul(x, y))
        backward(tape, loss)
        assert np.array_equal(x.grad, y.data)

    def test_non_scalar_loss_rejected(self):
        x = parameter(np.ones(3))
        with Tape() as tape:
            y = mul(x, x)
        with pytest.raises(GraphError):
            backward(tape, y)

    def test_double_backward_rejected(self):
        x = parameter(np.ones(3))
        with Tape() as tape:
            loss = tensor_sum(x)
        backward(tape, loss)
        with pytest.raises(GraphError):
            backward(tape, loss)

    def test_grad_accumulates_across_tapes(self):
        x = parameter(np.ones(2))
        for _ in range(3):
            with Tape() as tape:
                loss = tensor_sum(mul(x, x))
            backward(tape, loss)
        np.testing.assert_allclose(x.grad, 6.0 * np.ones(2))

    def test_no_tape_records_nothing(self):
        x = parameter(np.ones(2))
        y = mul(x, x)
        assert y.requires_grad is False

    def test_reused_intermediate(self):
        x = parameter(np.array([2.0]))
        with Tape() as tape:
            y = mul(x, x)  # used twice below
            loss = tensor_sum(add(y, y))
        backward(tape, loss)
        np.testing.assert_allclose(x.grad, [8.0])

    def test_backward_empties_the_tape(self):
        x = parameter(np.arange(4.0))
        with Tape() as tape:
            loss = tensor_sum(mul(sigmoid(x), x))
        assert len(tape.nodes) == 3
        backward(tape, loss)
        assert tape.nodes == []

    def test_intermediates_freed_before_the_leaves(self):
        x = parameter(np.linspace(-1.0, 1.0, 6))
        with Tape() as tape:
            y = scale(x, 2.0)
            z = sigmoid(y)
            loss = tensor_sum(mul(z, z))
        alive = weakref.ref(z.data)
        del y, z
        first = tape.nodes[0]  # scale's node: the last VJP backward runs
        seen = []
        vjp = first.vjp
        first.vjp = lambda g: (seen.append(alive() is None), vjp(g))[1]
        del first
        backward(tape, loss)
        assert seen == [True]
        np.testing.assert_allclose(x.grad, 4.0 * sigmoid_np(2.0 * x.data) ** 2 * (1.0 - sigmoid_np(2.0 * x.data)))


    def test_output_of_an_earlier_tape_is_a_leaf_of_a_later_one(self):
        x = parameter(np.array([1.0, -2.0]))
        with Tape():
            y = mul(x, x)
        with Tape() as tape:
            loss = tensor_sum(mul(y, y))
        assert set(backward(tape, loss)) == {y}
        np.testing.assert_array_equal(y.grad, 2.0 * y.data)
        assert x.grad is None

    def test_unread_output_freed_during_the_forward(self):
        # a transpose output that no VJP reads dies with its last reference, though the tape lives on
        x = parameter(np.arange(12.0).reshape(3, 4))
        with Tape() as tape:
            y = transpose(x, (1, 0))
            alive = weakref.ref(y.data)
            loss = tensor_sum(scale(y, 2.0))
        del y
        assert alive() is None and len(tape.nodes) == 3
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, np.full((3, 4), 2.0))

    def test_freed_output_id_reuse_is_harmless(self):
        # tensors made after an output is freed may take its id; gradients are filed by handle, not id
        x = parameter(np.arange(1.0, 7.0))
        with Tape() as tape:
            y = transpose(x, (0,))
            z = scale(y, 3.0)
            del y
            later = [parameter(np.full(6, float(i))) for i in range(8)]  # in CPython, one likely takes y's id
            loss = tensor_sum(mul(z, later[0]))
            for c in later[1:]:
                loss = add(loss, tensor_sum(mul(x, c)))
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, np.full(6, 28.0))  # 3 * later[0] + (1 + ... + 7)
        np.testing.assert_array_equal(later[0].grad, 3.0 * x.data)
        for c in later[1:]:
            np.testing.assert_array_equal(c.grad, x.data)


class TestGradCheck:
    def test_quadratic(self):
        x = parameter(np.array([1.0, -2.0, 3.0]))
        err = grad_check(lambda: tensor_sum(mul(x, x)), [x])
        assert err <= 1e-8

    def test_constant_function(self):
        x = parameter(np.array([1.0, 2.0]))
        c = Tensor(np.array(5.0))
        err = grad_check(lambda: tensor_sum(mul(c, c)), [x])
        assert err == 0.0

    def test_rejects_fp32(self):
        x = parameter(np.ones(2, dtype=np.float32))
        with pytest.raises(GraphError):
            grad_check(lambda: tensor_sum(x), [x])


class TestStructuralOps:
    def test_reshape_checks_size(self):
        with pytest.raises(ShapeError):
            reshape(Tensor(np.zeros((2, 3))), (4, 2))

    def test_transpose_roundtrip_grad(self):
        rng = np.random.default_rng(6)
        x = parameter(rng.standard_normal((2, 3, 4)))
        w = Tensor(rng.standard_normal((4, 3, 2)))
        err = grad_check(lambda: tensor_sum(mul(transpose(x, (2, 1, 0)), w)), [x])
        assert err < 1e-8

    def test_stack_gradients(self):
        rng = np.random.default_rng(7)
        xs = [parameter(rng.standard_normal((2, 3))) for _ in range(4)]
        w = Tensor(rng.standard_normal((2, 4, 3)))
        err = grad_check(lambda: tensor_sum(mul(stack(xs, axis=1), w)), xs)
        assert err < 1e-8

    def test_embedding_lookup_grad_scatter(self):
        table = parameter(np.arange(12.0).reshape(4, 3))
        ids = np.array([1, 1, 3])
        with Tape() as tape:
            loss = tensor_sum(embedding_lookup(table, ids))
        backward(tape, loss)
        want = np.zeros((4, 3))
        want[1] = 2.0
        want[3] = 1.0
        assert np.array_equal(table.grad, want)

    def test_embedding_out_of_range(self):
        table = parameter(np.zeros((4, 3)))
        with pytest.raises(IndexError):
            embedding_lookup(table, np.array([4]))

    def test_dense_on_vectors(self):
        w = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = dense(Tensor(np.array([1.0, 1.0])), w)
        assert out.data.tolist() == [4.0, 6.0]


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((5, 7)))
        loss = cross_entropy_logits(logits, np.zeros(5, dtype=int))
        np.testing.assert_allclose(loss.item(), np.log(7.0), rtol=1e-12)

    def test_matches_manual_loop(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((6, 9))
        t = rng.integers(0, 9, size=6)
        manual = 0.0
        for i in range(6):
            p = np.exp(z[i] - z[i].max())
            p /= p.sum()
            manual -= np.log(p[t[i]])
        manual /= 6
        np.testing.assert_allclose(cross_entropy_logits(Tensor(z), t).item(), manual, rtol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(9)
        z = parameter(rng.standard_normal((4, 5)))
        t = rng.integers(0, 5, size=4)
        err = grad_check(lambda: cross_entropy_logits(z, t), [z])
        assert err < 1e-7


class TestNormsAndRotation:
    def test_rmsnorm_constant_vector(self):
        x = Tensor(np.full(8, 3.0))
        y = rmsnorm(x, Tensor(np.ones(8)))
        np.testing.assert_allclose(y.data, 1.0, atol=1e-8)

    def test_rmsnorm_zero_input(self):
        y = rmsnorm(Tensor(np.zeros(4)), Tensor(np.ones(4)))
        assert np.array_equal(y.data, np.zeros(4))

    def test_rmsnorm_scale_invariance(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(16)
        g = Tensor(rng.standard_normal(16))
        a = rmsnorm(Tensor(x), g).data
        b = rmsnorm(Tensor(123.456 * x), g).data
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_rmsnorm_gradients(self):
        rng = np.random.default_rng(11)
        x = parameter(rng.standard_normal((3, 6)))
        g = parameter(rng.standard_normal(6))
        w = Tensor(rng.standard_normal((3, 6)))
        err = grad_check(lambda: tensor_sum(mul(rmsnorm(x, g), w)), [x, g])
        assert err < 1e-7

    def test_rope_rotate_grad_is_inverse_rotation(self):
        rng = np.random.default_rng(12)
        half = 4
        rot = np.exp(1j * rng.standard_normal(half))
        x = parameter(rng.standard_normal((3, 2 * half)))
        w = Tensor(rng.standard_normal((3, 2 * half)))
        err = grad_check(lambda: tensor_sum(mul(rope_rotate(x, rot), w)), [x])
        assert err < 1e-8

    def test_rope_odd_axis_rejected(self):
        with pytest.raises(ShapeError):
            rope_rotate(Tensor(np.zeros(3)), np.ones(1, dtype=complex))

    @pytest.mark.parametrize("table_width, x_width", [(1, 1), (4, 1), (1, 4), (8, 8), (3, 4)])
    def test_rope_table_width_must_be_half_of_x(self, table_width, x_width):
        x, rot = np.ones(x_width), np.ones(table_width, dtype=complex)
        with pytest.raises(ShapeError, match=f"width {x_width // 2}"):
            rope_rotate_np(x, rot)
        with pytest.raises(ShapeError):
            rope_rotate(Tensor(x), rot)


class TestAxisAndThreads:
    def test_masked_softmax_axis_zero(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        m = np.array([[True, False], [True, True], [False, True]])
        y = softmax_np(x.data.T, m.T).T  # the kernel runs over the last axis
        np.testing.assert_allclose(y.sum(axis=0), 1.0, atol=1e-12)
        assert y[2, 0] == 0.0 and y[0, 1] == 0.0

    def test_tapes_are_thread_local(self):
        import threading

        failures = []

        def work(seed):
            try:
                rng = np.random.default_rng(seed)
                p = parameter(rng.standard_normal((16, 16)))
                for _ in range(30):
                    with Tape() as tape:
                        loss = tensor_sum(mul(p, p))
                    backward(tape, loss)
                np.testing.assert_allclose(p.grad, 30 * 2.0 * p.data, rtol=1e-12)
            except Exception as e:  # surfaced in the main thread
                failures.append(e)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures


def test_softmax_matches_masked_all_true():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, 5))
    want = masked_weights(Tensor(x), np.ones((4, 5), bool)).data
    np.testing.assert_array_equal(softmax_np(x), want)
    np.testing.assert_array_equal(own_weights(Tensor(x)).data, want)


def test_forward_values_stay_finite():
    rng = np.random.default_rng(14)
    x = Tensor(rng.standard_normal((5, 8)) * 50)
    eye = Tensor(np.eye(8))
    for y in (sigmoid(x), swishglu(x, eye, eye, eye), own_weights(x), rmsnorm(x, Tensor(np.ones(8)))):
        assert np.all(np.isfinite(y.data))


class TestOneKernel:
    """Each taped op's forward is its numpy kernel, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rmsnorm(self, dtype):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((3, 4, 8)).astype(dtype)
        g = (1.7 * rng.standard_normal(8) + 0.3).astype(dtype)
        want = rmsnorm(Tensor(x), Tensor(g), 1e-6).data
        got = rmsnorm_np(x, g, 1e-6)
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("axis", [0, -1])
    def test_softmax(self, axis):
        rng = np.random.default_rng(16)
        x = 4.0 * rng.standard_normal((5, 6))
        mask = rng.random((5, 6)) < 0.6
        mask[2, :] = False  # a fully masked slice along either axis
        mask[:, 3] = False
        x, mask = (x.T, mask.T) if axis == 0 else (x, mask)  # every softmax runs over the last axis
        np.testing.assert_array_equal(softmax_np(x), own_weights(Tensor(x)).data)
        for m in (mask, np.ones_like(mask)):
            np.testing.assert_array_equal(softmax_np(x, m), masked_weights(Tensor(x), m).data)
        empty = 3 if axis == 0 else 2
        assert softmax_np(x, mask)[empty].tolist() == [0.0] * x.shape[1]

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(17)
        z = parameter(rng.standard_normal((2, 3, 11)))
        t = rng.integers(0, 11, size=(2, 3))
        with Tape() as tape:
            loss = cross_entropy_logits(z, t)
        grad = backward(tape, loss)[z]
        n = t.size
        onehot = np.eye(11)[t.reshape(-1)]
        want = (softmax_np(z.data.reshape(n, 11)) - onehot) * (1.0 / n)
        np.testing.assert_array_equal(grad, want.reshape(z.shape))


def _old_softmax_np(x, mask):
    """The masked last-axis softmax as three ``np.where`` passes, the form the one-buffer kernel replaced."""
    m = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
    neg = np.finfo(x.dtype).min
    hi = np.max(np.where(m, x, neg), axis=-1, keepdims=True)
    hi = np.where(hi > neg / 2, hi, 0.0)
    e = np.where(m, np.exp(np.where(m, x - hi, 0.0)), 0.0)
    tot = e.sum(axis=-1, keepdims=True)
    return e / np.where(tot == 0.0, 1.0, tot)


class TestOldFormulas:
    """The train-step kernels give the bits of the plain numpy forms they replaced."""

    @staticmethod
    def lookup_grad(table, ids, g):
        t = parameter(table)
        with Tape() as tape:
            loss = tensor_sum(mul(embedding_lookup(t, ids), Tensor(g)))
        return backward(tape, loss)[t]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("row", [(16,), (2, 32), (2, 256)])
    def test_lookup_gradient_is_add_at(self, dtype, row):
        rng = np.random.default_rng(20)
        table = rng.standard_normal((40,) + row).astype(dtype)
        ids = rng.integers(0, 36, size=(4, 256))  # every id repeats, some are unused
        ids[0, :5] = 3
        g = (rng.standard_normal(ids.shape + row) * 10.0 ** rng.uniform(-3, 3, ids.shape + row)).astype(dtype)
        want = np.zeros_like(table)
        np.add.at(want, ids.reshape(-1), g.reshape((-1,) + row))
        got = self.lookup_grad(table, ids, g)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_lookup_gradient_of_no_ids_is_zero(self, shape):
        table = np.ones((5, 2, 3))
        ids = np.zeros(shape, dtype=np.int64)
        got = self.lookup_grad(table, ids, np.zeros(shape + (2, 3)))
        np.testing.assert_array_equal(got, np.zeros_like(table))

    @pytest.mark.parametrize("table_shape", [(40,), (40, 1)])
    def test_lookup_gradient_width_one_rows_agree_to_rounding(self, table_shape):
        # One-element rows are summed pairwise, outside the bit-equality guarantee.
        rng = np.random.default_rng(21)
        ids = rng.integers(0, 36, size=(4, 256))
        g = rng.standard_normal(ids.shape + table_shape[1:])
        want = np.zeros(table_shape)
        np.add.at(want, ids.reshape(-1), g.reshape((-1,) + table_shape[1:]))
        np.testing.assert_allclose(self.lookup_grad(np.zeros(table_shape), ids, g), want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_masked_softmax_is_where_chain(self, dtype):
        rng = np.random.default_rng(22)
        x = (6.0 * rng.standard_normal((2, 3, 9, 9))).astype(dtype)
        causal = np.tril(np.ones((9, 9), dtype=bool))  # broadcast over leading axes, as attention does
        causal[:, 4] = False
        causal[4, :] = False  # a fully masked row
        full = rng.random(x.shape) < 0.5
        for mask in (causal, full):
            got = softmax_np(x, mask)
            want = _old_softmax_np(x, mask)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)
            assert not np.isnan(got).any()
        y = softmax_np(x, causal)
        assert np.array_equal(y[..., 4, :], np.zeros_like(y[..., 4, :]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_masked_softmax_gradient_is_old_form(self, dtype):
        rng = np.random.default_rng(23)
        x = parameter(rng.standard_normal((3, 7, 7)).astype(dtype))
        mask = rng.random((7, 7)) < 0.6
        mask[2] = False
        g = rng.standard_normal((3, 7, 7)).astype(dtype)
        with Tape() as tape:
            y = masked_weights(x, mask)
            loss = tensor_sum(mul(y, Tensor(g)))
        got = backward(tape, loss)[x]
        inner = (g * y.data).sum(axis=-1, keepdims=True)
        np.testing.assert_array_equal(got, y.data * (g - inner))


def _old_masked_softmax(x: Tensor, mask) -> Tensor:
    """The taped masked softmax that ``attention`` replaced, last axis."""
    y = softmax_np(x.data, mask)

    def vjp(g):
        gy = g * y
        np.subtract(g, gy.sum(axis=-1, keepdims=True), out=gy)
        return (np.multiply(gy, y, out=gy),)

    return _record(Tensor(y), (x,), vjp)


def _old_silu(x: Tensor) -> Tensor:
    """The taped SiLU that ``swishglu`` replaced."""
    d = x.data
    s = sigmoid_np(d)
    return _record(Tensor(d * s), (x,), lambda g: (g * (s + d * s * (1.0 - s)),))


def _old_attention(q, k, v, mask, c, bias=None):
    """The op chain ``attention`` replaced: the causal path's, or with ``bias`` the cached-expert path's."""
    perm = tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2)
    z = scale(matmul(q, transpose(k, perm)), c)
    if bias is not None:
        n = bias.shape[-1]
        z = reshape(reshape(z, z.shape[:-1] + (z.shape[-1] // n, n)) + reshape(bias, bias.shape[:-1] + (1, n)), z.shape)
    return matmul(_old_masked_softmax(z, mask(z.data) if callable(mask) else mask), v)


def _old_swishglu(x, wg, wu, wd):
    return dense(mul(_old_silu(dense(x, wg)), dense(x, wu)), wd)


def _taped(f, inputs, g, extra=None):
    """f(*inputs)'s output and every input's gradient for loss sum(out * g) [+ sum(extra(inputs[0]))]."""
    leaves = [parameter(a) for a in inputs]
    with Tape() as tape:
        out = f(*leaves)
        loss = tensor_sum(mul(out, Tensor(g)))
        if extra is not None:
            loss = loss + tensor_sum(extra(leaves[0]))
    grads = backward(tape, loss)
    return [out.data] + [grads[t] for t in leaves]


def _molkv_case(rng, dtype, ties=True, b=2, s=9, n=2, dk=4, dv=6, window=3, k=3):
    """Cached-expert scoring inputs (q, k, v, bias), the window mask and top-k."""
    q = rng.standard_normal((b, s, dk)).astype(dtype)
    keys = rng.standard_normal((b, s * n, dk)).astype(dtype)
    if ties:  # equal scores: top-k ties go to the oldest slot
        keys[:, 2:4] = keys[:, 6:8]
    v = rng.standard_normal((b, s * n, dv)).astype(dtype)
    bias = rng.standard_normal((b, s, n)).astype(dtype)
    return (q, keys, v, bias), np.repeat(sliding_window_mask(s, window), n, axis=1), k


class TestFusedOps:
    """``attention`` and ``swishglu`` give the bits of the op chains they replaced, output and gradients."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attention_causal_is_old_chain(self, dtype):
        rng = np.random.default_rng(31)
        b, h, s, hd = 2, 3, 7, 4
        q, k, v = (rng.standard_normal((b, h, s, hd)).astype(dtype) for _ in range(3))
        g = rng.standard_normal((b, h, s, hd)).astype(dtype)
        causal = np.tril(np.ones((s, s), dtype=bool))
        c = 1.0 / math.sqrt(hd)
        got = _taped(lambda *t: attention(*t, causal, c), (q, k, v), g)
        want = _taped(lambda *t: _old_attention(*t, causal, c), (q, k, v), g)
        for a, w in zip(got, want):
            assert a.dtype == dtype
            np.testing.assert_array_equal(a, w)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attention_window_topk_with_bias_is_old_chain(self, dtype):
        rng = np.random.default_rng(32)
        inputs, win, top_k = _molkv_case(rng, dtype)
        g = rng.standard_normal(inputs[0].shape[:-1] + (inputs[2].shape[-1],)).astype(dtype)
        c = 0.5
        mask = lambda z: window_topk_mask(z, win, top_k)  # noqa: E731
        got = _taped(lambda q, k, v, bias: attention(q, k, v, win, c, bias=bias, top_k=top_k), inputs, g)
        want = _taped(lambda q, k, v, bias: _old_attention(q, k, v, mask, c, bias), inputs, g)
        for a, w in zip(got, want):
            assert a.dtype == dtype
            np.testing.assert_array_equal(a, w)
        assert not any(np.isnan(a).any() for a in got)
        assert not got[0][:, 0].any()  # position 0 has no cached expert: zero weights, zero term

    def test_attention_bias_gradient_with_one_key_group(self):
        # t == g: the bias gradient is the unsummed logit gradient, which must not share the scaled buffer
        rng = np.random.default_rng(33)
        inputs = (rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 2, 4)), rng.standard_normal((2, 2, 5)),
                  rng.standard_normal((2, 3, 2)))
        g = rng.standard_normal((2, 3, 5))
        mask = np.ones((3, 2), dtype=bool)
        got = _taped(lambda q, k, v, bias: attention(q, k, v, mask, 0.3, bias=bias), inputs, g)
        want = _taped(lambda q, k, v, bias: _old_attention(q, k, v, mask, 0.3, bias), inputs, g)
        for a, w in zip(got, want):
            np.testing.assert_array_equal(a, w)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(6,), (5, 6), (2, 5, 6)])
    @pytest.mark.parametrize("shared", [False, True])
    def test_swishglu_is_old_chain(self, dtype, shape, shared):
        # shared: x also feeds a later op, so backward sums three gradients into x, in the old chain's order
        rng = np.random.default_rng(34)
        x = (3.0 * rng.standard_normal(shape)).astype(dtype)
        ws = [rng.standard_normal(ws).astype(dtype) for ws in ((6, 11), (6, 11), (11, 4))]
        g = rng.standard_normal(shape[:-1] + (4,)).astype(dtype)
        h = Tensor(rng.standard_normal(shape).astype(dtype))
        extra = (lambda t: mul(t, h)) if shared else None
        got = _taped(swishglu, [x] + ws, g, extra)
        want = _taped(_old_swishglu, [x] + ws, g, extra)
        for a, w in zip(got, want):
            assert a.dtype == dtype and a.shape == w.shape
            np.testing.assert_array_equal(a, w)

    def test_swishglu_shape_mismatch(self):
        w = Tensor(np.ones((3, 4)))
        with pytest.raises(ShapeError):
            swishglu(Tensor(np.ones((2, 5))), w, w, Tensor(np.ones((4, 3))))
        with pytest.raises(ShapeError):
            swishglu(Tensor(np.ones((2, 3))), w, w, Tensor(np.ones((3, 3))))

    def test_attention_gradients(self):
        rng = np.random.default_rng(35)
        q, k, v = (parameter(rng.standard_normal((2, 2, 5, 4))) for _ in range(3))
        w = Tensor(rng.standard_normal((2, 2, 5, 4)))
        causal = np.tril(np.ones((5, 5), dtype=bool))
        assert grad_check(lambda: tensor_sum(mul(attention(q, k, v, causal, 0.5), w)), [q, k, v]) < 1e-7

        inputs, win, top_k = _molkv_case(rng, np.float64, ties=False)  # a tie would flip under central differences
        leaves = [parameter(a) for a in inputs]
        w = Tensor(rng.standard_normal((2, 9, 6)))
        loss = lambda: tensor_sum(mul(attention(*leaves[:3], win, 0.5, bias=leaves[3], top_k=top_k), w))  # noqa: E731
        assert grad_check(loss, leaves) < 1e-6

    @pytest.mark.parametrize("shape", [(6,), (2, 5, 6)])
    def test_swishglu_gradients(self, shape):
        rng = np.random.default_rng(36)
        leaves = [parameter(rng.standard_normal(s)) for s in (shape, (6, 11), (6, 11), (11, 4))]
        w = Tensor(rng.standard_normal(shape[:-1] + (4,)))
        assert grad_check(lambda: tensor_sum(mul(swishglu(*leaves), w)), leaves) < 1e-7


def _blocked_case(rng, dtype, s=150, n=2, window=40):
    """A cached-expert case over three query blocks (the last partial) with integer scores, so top-k ties abound.

    Rows 0-69 see no key, so the first block is empty and the second starts with empty rows.
    """
    q = rng.integers(-2, 3, (2, s, 4)).astype(dtype)
    keys = rng.integers(-2, 3, (2, s * n, 4)).astype(dtype)
    v = rng.standard_normal((2, s * n, 6)).astype(dtype)
    bias = rng.integers(-2, 3, (2, s, n)).astype(dtype)
    win = np.repeat(sliding_window_mask(s, window), n, axis=1)
    win[:70] = False
    return (q, keys, v, bias), win


class TestBlockedAttention:
    """``attention`` over several query blocks against the dense op chain it replaced.

    Only summation order differs (softmax sums over fewer zeros, k and v gradients summed block by block), so
    outputs and gradients agree to 1e-5 of each array's largest entry at fp32 and 1e-12 at fp64.
    """

    TOL = {np.float32: 1e-5, np.float64: 1e-12}

    @staticmethod
    def close(got, want, tol):
        for a, w in zip(got, want):
            assert a.dtype == w.dtype and a.shape == w.shape
            np.testing.assert_allclose(a, w, rtol=0, atol=tol * np.abs(w).max())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_causal_is_dense_chain(self, dtype):
        rng = np.random.default_rng(37)
        b, h, s, hd = 2, 2, 150, 4
        q, k, v = (rng.standard_normal((b, h, s, hd)).astype(dtype) for _ in range(3))
        g = rng.standard_normal((b, h, s, hd)).astype(dtype)
        causal = np.tril(np.ones((s, s), dtype=bool))
        got = _taped(lambda *t: attention(*t, causal, 0.5), (q, k, v), g)
        want = _taped(lambda *t: _old_attention(*t, causal, 0.5), (q, k, v), g)
        self.close(got, want, self.TOL[dtype])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_window_topk_with_bias_is_dense_chain(self, dtype):
        rng = np.random.default_rng(38)
        inputs, win = _blocked_case(rng, dtype)
        g = rng.standard_normal((2, 150, 6)).astype(dtype)
        mask = lambda z: window_topk_mask(z, win, 5)  # noqa: E731
        got = _taped(lambda q, k, v, bias: attention(q, k, v, win, 0.5, bias=bias, top_k=5), inputs, g)
        want = _taped(lambda q, k, v, bias: _old_attention(q, k, v, mask, 0.5, bias), inputs, g)
        self.close(got, want, self.TOL[dtype])
        assert not got[0][:, :70].any() and got[0][:, 70:].all(axis=-1).all()
        scores = 0.5 * np.einsum("bse,bte->bst", inputs[0], inputs[1]) + np.tile(inputs[3], 150)
        fifth, sixth = np.moveaxis(-np.sort(-np.where(win, scores, -np.inf), axis=-1)[..., 4:6], -1, 0)
        assert (fifth == sixth)[:, [127, 128]].all()  # the k-th score ties on both sides of the second block edge

    def test_gradients(self):
        rng = np.random.default_rng(39)
        inputs, win = _blocked_case(rng, np.float64)
        leaves = [parameter(a + 0.1 * rng.standard_normal(a.shape)) for a in inputs]  # no ties to flip
        w = Tensor(rng.standard_normal((2, 150, 6)))
        loss = lambda: tensor_sum(mul(attention(*leaves[:3], win, 0.5, bias=leaves[3], top_k=5), w))  # noqa: E731
        assert grad_check(loss, leaves, samples_per_leaf=12) < 1e-6
        q, k, v = (parameter(rng.standard_normal((1, 2, 150, 4))) for _ in range(3))
        causal = np.tril(np.ones((150, 150), dtype=bool))
        w = Tensor(rng.standard_normal((1, 2, 150, 4)))
        loss = lambda: tensor_sum(mul(attention(q, k, v, causal, 0.5), w))  # noqa: E731
        assert grad_check(loss, [q, k, v], samples_per_leaf=12) < 1e-7


@st.composite
def topk_cases(draw):
    """(x, k): 1-D scores with heavy ties and +-0, and k up to three past their count."""
    n = draw(st.integers(1, 12))
    value = st.one_of(st.sampled_from([-2.0, -0.0, 0.0, 1.0, 1.0, 3.5]), st.floats(-4, 4, width=32))
    return np.array(draw(st.lists(value, min_size=n, max_size=n))), draw(st.integers(1, n + 3))


class TestDecodeKernels:
    """The decode-step kernels give the results of the plain numpy forms they replaced."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(topk_cases())
    def test_topk_is_stable_argsort(self, case):
        x, k = case
        w = molkv_select(x, k)
        want = np.sort(np.argsort(-x, kind="stable")[: min(k, x.size)])  # the top k of a stable descending sort
        np.testing.assert_array_equal(np.flatnonzero(w), want)
        assert abs(w.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(256,), (7, 32), (2, 3, 16), (5,)])
    def test_rmsnorm_is_mean_formula(self, dtype, shape):
        rng = np.random.default_rng(24)
        x = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape[:-1] + (1,))).astype(dtype)
        x[..., :1] = 0.0 if x.ndim > 1 else x[..., :1]
        g = (1.7 * rng.standard_normal(shape[-1]) + 0.3).astype(dtype)
        for eps in (1e-8, 1e-6):
            want = g * (x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + eps))
            got = rmsnorm_np(x, g, eps)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)
        zero = rmsnorm_np(np.zeros(shape, dtype), g, 1e-8)
        np.testing.assert_array_equal(zero, np.zeros(shape, dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rmsnorm_gradient_is_mean_formula(self, dtype):
        rng = np.random.default_rng(25)
        d = rng.standard_normal((4, 3, 16)).astype(dtype)
        gain = (1.7 * rng.standard_normal(16) + 0.3).astype(dtype)
        g = rng.standard_normal(d.shape).astype(dtype)
        x, gn = parameter(d), parameter(gain)
        with Tape() as tape:
            loss = tensor_sum(mul(rmsnorm(x, gn, 1e-6), Tensor(g)))
        grads = backward(tape, loss)
        r = np.sqrt((d * d).mean(axis=-1, keepdims=True) + 1e-6)
        gy = g * gain
        want_x = gy / r - d * ((gy * d).sum(axis=-1, keepdims=True) / (16 * r**3))
        np.testing.assert_array_equal(grads[x], want_x)
        np.testing.assert_array_equal(grads[gn], (g * (d / r)).reshape(-1, 16).sum(axis=0))
