"""Building blocks: RoPE properties, FFN, attention causality and caching, the own-expert mix."""

import numpy as np
import pytest

from molkv.autodiff import ShapeError, Tensor, grad_check, mul, parameter, rmsnorm_np, rope_rotate_np, tensor_sum
from molkv.layers import (
    AttnParams,
    FFNParams,
    KVCache,
    causal_attention,
    causal_attention_step,
    own_expert_mix,
    own_expert_step,
    rope_tables,
    swishglu_ffn,
    swishglu_ffn_np,
)


def make_ffn(rng, d, D, d_out, dtype=np.float64):
    return FFNParams(
        gate=parameter(rng.standard_normal((d, D)) * 0.3, dtype=dtype),
        up=parameter(rng.standard_normal((d, D)) * 0.3, dtype=dtype),
        down=parameter(rng.standard_normal((D, d_out)) * 0.3, dtype=dtype),
    )


def make_attn(rng, d):
    return AttnParams(
        wq=parameter(rng.standard_normal((d, d)) * 0.2),
        wk=parameter(rng.standard_normal((d, d)) * 0.2),
        wv=parameter(rng.standard_normal((d, d)) * 0.2),
        wo=parameter(rng.standard_normal((d, d)) * 0.2),
    )


def rope(x, position):
    """x rotated to ``position``."""
    return rope_rotate_np(x, rope_tables(position, x.shape[-1], dtype=x.dtype))


class TestRope:
    def test_position_zero_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(10)
        assert np.array_equal(rope(x, 0), x)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(16)
        for p in (1, 7, 123, 5000):
            assert abs(np.linalg.norm(rope(x, p)) - np.linalg.norm(x)) < 1e-12

    def test_relative_dot_product(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal(12)
        k = rng.standard_normal(12)
        delta = 5
        ref = rope(q, delta) @ rope(k, 0)
        for p in range(1, 40, 7):
            got = rope(q, p + delta) @ rope(k, p)
            assert abs(got - ref) < 1e-10

    def test_odd_dim_rejected(self):
        with pytest.raises(ShapeError):
            rope_tables(0, 7)

    def test_tables_fp64_then_cast(self):
        rot64 = rope_tables(3, 8, dtype=np.float64)
        rot32 = rope_tables(3, 8, dtype=np.float32)
        assert rot64.dtype == np.complex128 and rot32.dtype == np.complex64
        np.testing.assert_array_equal(rot32, rot64.astype(np.complex64))
        ang = 3 * 10000.0 ** (-np.arange(0, 8, 2) / 8)
        assert np.array_equal(rot64.real, np.cos(ang)) and np.array_equal(rot64.imag, np.sin(ang))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_alone_rotates_as_in_a_batch(self, dtype):
        # decoding rotates one position's row, training the whole sequence at once: the bits must agree
        rng = np.random.default_rng(3)
        s, n, dim = 300, 3, 12
        x = rng.standard_normal((s, n, dim)).astype(dtype)
        batch = rope_rotate_np(x, rope_tables(np.arange(s), dim, dtype=dtype)[:, None, :])
        assert batch.dtype == dtype
        for t in range(s):
            assert np.array_equal(rope_rotate_np(x[t], rope_tables(t, dim, dtype=dtype)), batch[t]), t

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conjugate_table_inverts_the_rotation(self, dtype):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((50, 16)).astype(dtype)
        rot = rope_tables(rng.integers(0, 5000, size=50), 16, dtype=dtype)
        back = rope_rotate_np(rope_rotate_np(x, rot), np.conj(rot))
        assert back.dtype == dtype
        np.testing.assert_allclose(back, x, rtol=0, atol=8 * np.finfo(dtype).eps * np.abs(x).max())


class TestSwishGLU:
    def test_zero_input_zero_output(self):
        rng = np.random.default_rng(3)
        p = make_ffn(rng, 6, 9, 6)
        out = swishglu_ffn(Tensor(np.zeros((2, 6))), p)
        assert np.array_equal(out.data, np.zeros((2, 6)))

    def test_scalar_toy(self):
        one = parameter(np.ones((1, 1)))
        p = FFNParams(gate=one, up=parameter(np.ones((1, 1))), down=parameter(np.ones((1, 1))))
        out = swishglu_ffn(Tensor(np.array([[2.0]])), p)
        silu2 = 2.0 / (1.0 + np.exp(-2.0))
        np.testing.assert_allclose(out.item(), silu2 * 2.0, rtol=1e-12)
        assert abs(out.item() - 3.5232) < 5e-4

    def test_gradients(self):
        rng = np.random.default_rng(4)
        p = make_ffn(rng, 5, 7, 3)
        x = parameter(rng.standard_normal((4, 5)))
        w = Tensor(rng.standard_normal((4, 3)))
        leaves = [x, p.gate, p.up, p.down]
        err = grad_check(lambda: tensor_sum(mul(swishglu_ffn(x, p), w)), leaves)
        assert err < 1e-4

    def test_np_twin_matches(self):
        rng = np.random.default_rng(5)
        p = make_ffn(rng, 5, 7, 4)
        x = rng.standard_normal((3, 5))
        np.testing.assert_array_equal(swishglu_ffn(Tensor(x), p).data, swishglu_ffn_np(x, p))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3, 5), (2, 3, 5)])
    def test_one_kernel_at_both_precisions(self, dtype, shape):
        # the taped op's forward runs decoding's kernel, so the two agree bit for bit
        rng = np.random.default_rng(5)
        p = make_ffn(rng, 5, 7, 4, dtype=dtype)
        x = rng.standard_normal(shape).astype(dtype)
        out = swishglu_ffn(Tensor(x), p).data
        assert out.dtype == dtype and np.array_equal(out, swishglu_ffn_np(x, p))


class TestAttention:
    def test_single_token_is_projected_value(self):
        rng = np.random.default_rng(6)
        d, heads = 8, 2
        p = make_attn(rng, d)
        x = rng.standard_normal((1, d))
        out = causal_attention(Tensor(x), p, heads).data[0]
        want = (x[0] @ p.wv.data) @ p.wo.data  # softmax over one key is 1
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_causality_exact(self):
        rng = np.random.default_rng(7)
        d, heads, s = 8, 2, 6
        p = make_attn(rng, d)
        x = rng.standard_normal((s, d))
        base = causal_attention(Tensor(x), p, heads).data
        x2 = x.copy()
        x2[4] += 10.0
        pert = causal_attention(Tensor(x2), p, heads).data
        assert np.array_equal(base[:4], pert[:4])
        assert not np.allclose(base[4:], pert[4:])

    def test_incremental_matches_batched(self):
        rng = np.random.default_rng(8)
        d, heads, s = 12, 3, 9
        p = make_attn(rng, d)
        x = rng.standard_normal((s, d))
        batched = causal_attention(Tensor(x), p, heads).data
        cache = KVCache((heads, d // heads), (heads, d // heads), np.float64)
        step = np.stack([causal_attention_step(x[t], p, cache, rope_tables(t, d // heads)) for t in range(s)])
        np.testing.assert_allclose(step, batched, atol=1e-10)

    def test_cache_appends_in_place_and_doubles(self):
        rng = np.random.default_rng(11)
        d, heads, s = 12, 3, KVCache.INITIAL_ROWS + 8
        p = make_attn(rng, d)
        x = rng.standard_normal((s, d))
        batched = causal_attention(Tensor(x), p, heads).data
        cache = KVCache((heads, d // heads), (heads, d // heads), np.float64)
        keys = []
        for t in range(s):
            prev = cache.k.base
            step = causal_attention_step(x[t], p, cache, rope_tables(t, d // heads))
            np.testing.assert_allclose(step, batched[t], atol=1e-10)
            keys.append(rope((x[t] @ p.wk.data).reshape(heads, d // heads), t))
            assert np.array_equal(cache.k, np.stack(keys))
            # the buffer doubles once full; every other append writes in place
            assert (cache.k.base is prev) == (t != KVCache.INITIAL_ROWS), t

    def test_head_dim_must_be_even_for_tables(self):
        with pytest.raises(ShapeError):
            rope_tables(np.arange(4), 5)

    def test_gradients_flow(self):
        rng = np.random.default_rng(9)
        d, heads, s = 8, 2, 4
        p = make_attn(rng, d)
        x = parameter(rng.standard_normal((s, d)))
        w = Tensor(rng.standard_normal((s, d)))
        leaves = [x, p.wq, p.wk, p.wv, p.wo]
        err = grad_check(lambda: tensor_sum(mul(causal_attention(x, p, heads), w)), leaves, samples_per_leaf=6)
        assert err < 1e-4


@pytest.mark.parametrize("window", [None, 1, 4])
def test_kv_cache_matches_concatenate_and_slice(window):
    rng = np.random.default_rng(12)
    cache = KVCache((2, 4), (2, 10), np.float32, window)
    # unbounded: two doublings, at appends 33 and 65; windowed: three compactions, at 2M + 1, 3M + 2 and 4M + 3
    appends = 2 * KVCache.INITIAL_ROWS + 1 if window is None else 4 * window + 3
    keys, values = [], []
    doubled, compacted = [], []  # 0-based append indices
    for t in range(appends):
        prev_k, prev_v, prev_end = cache.k.base, cache.v.base, cache.end
        keys.append(rng.standard_normal((2, 4)).astype(np.float32))
        values.append(rng.standard_normal((2, 10)).astype(np.float32))
        cache.append(keys[-1], values[-1])
        live = slice(-window if window else None, None)
        assert np.array_equal(cache.k, np.stack(keys)[live]) and np.array_equal(cache.v, np.stack(values)[live])
        assert cache.next_position == t + 1 and len(cache) == min(t + 1, window or t + 1)
        assert (cache.k.base is prev_k) == (cache.v.base is prev_v)
        if cache.k.base is not prev_k:
            doubled.append(t)
        elif cache.end != prev_end + 1:
            compacted.append(t)
    rows = KVCache.INITIAL_ROWS
    assert doubled == ([rows, 2 * rows] if window is None else [])
    assert compacted == ([] if window is None else [2 * window, 3 * window + 1, 4 * window + 2])
    assert cache.k.dtype == cache.v.dtype == np.float32


def test_rmsnorm_np_matches_definition():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((3, 5))
    g = rng.standard_normal(5)
    want = g * (x / np.sqrt((x**2).mean(-1, keepdims=True) + 1e-8))
    np.testing.assert_array_equal(rmsnorm_np(x, g), want)


@pytest.mark.parametrize("kind", ["mole", "gated-mole", "molkv"])
def test_own_expert_step_is_a_row_of_own_expert_mix(kind):
    # lookup experts are key-value experts with zero-width queries and keys, scored by the router alone
    rng = np.random.default_rng(40)
    b, s, n, d, e = 2, 3, 3, 5, (4 if kind == "molkv" else 0)
    h, q, keys, values = (parameter(rng.standard_normal(shape)) for shape in ((b, s, d), (b, s, e), (b, s, n, e),
                                                                              (b, s, n, d)))
    routers = parameter(rng.standard_normal((d, n)))
    gate = parameter(rng.standard_normal(d)) if kind != "mole" else None
    scale = 1.0 / np.sqrt(e) if e else 1.0

    def mix():
        return own_expert_mix(h, q, keys, values, routers, gate, float(scale))

    taped = mix().data
    for i in range(b):
        for t in range(s):
            step = own_expert_step(h.data[i, t], q.data[i, t], keys.data[i, t], values.data[i, t], routers, gate,
                                   float(scale))
            np.testing.assert_allclose(step, taped[i, t], rtol=0, atol=1e-12)
    w = Tensor(rng.standard_normal(taped.shape))
    leaves = [h, values, routers] + ([q, keys] if e else []) + ([gate] if gate is not None else [])
    assert grad_check(lambda: tensor_sum(mul(mix(), w)), leaves) < 1e-6
