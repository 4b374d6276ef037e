"""Key-value expert block: cache discipline, scores, selection, equivalence."""

import numpy as np
import pytest

from molkv.autodiff import Tensor, attention, grad_check, mul, parameter, rope_rotate_np, tensor_sum, window_topk_mask
from molkv.kvexperts import (
    CacheStateError,
    ExpertKV,
    MoLKVBlockParams,
    cache_insert,
    compute_expert_kv,
    molkv_expert_terms,
    molkv_new_scores,
    molkv_query,
    molkv_select,
    sliding_window_mask,
)
from molkv.layers import (FFNParams, KVCache, lookup_distinct, own_expert_step, rmsnorm_np, rope_tables, sigmoid_np,
                          softmax_np, swishglu_ffn)
from molkv.mole import MoLEBlockParams
from molkv.runtime import mole_step, molkv_step


def make_block(rng, d=10, D=14, dk=6, n=2, top_k=3, scale=0.35):
    def ffn(d_out):
        return FFNParams(
            gate=parameter(rng.standard_normal((d, D)) * scale),
            up=parameter(rng.standard_normal((d, D)) * scale),
            down=parameter(rng.standard_normal((D, d_out)) * scale),
        )

    return MoLKVBlockParams(
        ffn=ffn(d),
        query_proj=parameter(rng.standard_normal((d, dk)) * scale),
        routers=parameter(rng.standard_normal((d, n)) * scale),
        new_routers=parameter(rng.standard_normal((d, n)) * scale),
        gate=parameter(rng.standard_normal(d) * scale),
        new_gate=parameter(rng.standard_normal(d) * scale),
        key_experts=[ffn(dk) for _ in range(n)],
        value_experts=[ffn(d) for _ in range(n)],
        vocab_norm=parameter(np.ones(d)),
        key_norm=parameter(np.ones(dk)),
        value_norm=parameter(np.ones(d)),
        top_k=top_k,
    )


def rope(block, position):
    """The fp64 RoPE table of ``position`` for the block's queries and keys."""
    return rope_tables(position, block.key_dim, block.rope_theta)


def augmented_routing(h, q, kv, block):
    """softmax_n(h . r_n + q . k_n / sqrt(d')): ``own_expert_step``'s ungated mix of identity values."""
    return own_expert_step(h, q, kv.keys, np.eye(block.num_experts), block.routers, None, block.qk_scale)


def own_term(h, q, kv, block):
    """The gated own-expert term of one token, written out; q and keys unrotated."""
    s_own = softmax_np(h @ block.routers.data + kv.keys @ q * block.qk_scale)
    return sigmoid_np(h @ block.gate.data) * (s_own @ kv.values)


def sequence_terms(h, ids, emb, block, window):
    """``molkv_expert_terms`` of one (s, d) sequence, (s, d) out."""
    h = Tensor(h[None])
    return molkv_expert_terms(h, *lookup_distinct(emb, np.reshape(ids, (1, -1))), block, window).data[0]


def fresh_cache(block, window):
    n, d = block.num_experts, block.routers.shape[0]
    return KVCache((n, block.key_dim), (n, d), np.float64, window)


def positions(cache):
    return list(range(cache.next_position - len(cache), cache.next_position))


class TestExpertKV:
    def test_zero_embedding_gives_zero_experts(self):
        rng = np.random.default_rng(0)
        block = make_block(rng)
        kv = compute_expert_kv(np.zeros(10), block)
        assert np.array_equal(kv.keys, np.zeros_like(kv.keys))
        assert np.array_equal(kv.values, np.zeros_like(kv.values))
        assert np.array_equal(kv.values_normed, np.zeros_like(kv.values_normed))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        block = make_block(rng)
        e = rng.standard_normal(10)
        a = compute_expert_kv(e, block)
        b = compute_expert_kv(e, block)
        assert np.array_equal(a.keys, b.keys) and np.array_equal(a.values, b.values)

    def test_normed_values_invariant(self):
        rng = np.random.default_rng(2)
        block = make_block(rng)
        kv = compute_expert_kv(rng.standard_normal(10), block)
        want = rmsnorm_np(kv.values, block.value_norm.data, block.norm_eps)
        assert np.array_equal(kv.values_normed, want)

    def test_key_width_follows_key_dim(self):
        rng = np.random.default_rng(3)
        block = make_block(rng, d=16, dk=8)
        kv = compute_expert_kv(rng.standard_normal(16), block)
        assert kv.keys.shape == (block.num_experts, 8)
        assert kv.values.shape == (block.num_experts, 16)

    def test_batched_matches_single(self):
        # gemm vs gemv reduction order differs, so equality is to rounding
        rng = np.random.default_rng(4)
        block = make_block(rng)
        e = rng.standard_normal((7, 10))
        batched = compute_expert_kv(e, block)
        for i in range(7):
            single = compute_expert_kv(e[i], block)
            np.testing.assert_allclose(batched.keys[i], single.keys, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(batched.values[i], single.values, rtol=1e-12, atol=1e-14)


class TestQuery:
    def test_position_zero_identity(self):
        rng = np.random.default_rng(5)
        block = make_block(rng)
        q, q_rot = molkv_query(rng.standard_normal(10), block, rope(block, 0))
        assert np.array_equal(q, q_rot)

    def test_norm_preserved(self):
        rng = np.random.default_rng(6)
        block = make_block(rng)
        q, q_rot = molkv_query(rng.standard_normal(10), block, rope(block, 11))
        assert abs(np.linalg.norm(q) - np.linalg.norm(q_rot)) < 1e-12

    def test_linear_in_h(self):
        rng = np.random.default_rng(7)
        block = make_block(rng)
        h = rng.standard_normal(10)
        q1, _ = molkv_query(h, block, rope(block, 0))
        q2, _ = molkv_query(2.5 * h, block, rope(block, 0))
        np.testing.assert_allclose(q2, 2.5 * q1, rtol=1e-12)


class TestCache:
    def test_insert_applies_rope_bit_exactly(self):
        rng = np.random.default_rng(8)
        block = make_block(rng)
        cache = fresh_cache(block, window=4)
        for pos in range(3):
            kv = compute_expert_kv(rng.standard_normal(10), block)
            cache_insert(cache, pos, kv, rope(block, pos))
            assert np.array_equal(cache.k[-1], rope_rotate_np(kv.keys, rope(block, pos)))
            assert np.array_equal(cache.v[-1], kv.values_normed)

    def test_window_one_holds_previous_token(self):
        rng = np.random.default_rng(9)
        block = make_block(rng)
        cache = fresh_cache(block, window=1)
        for pos in range(5):
            cache_insert(cache, pos, compute_expert_kv(rng.standard_normal(10), block), rope(block, pos))
            assert positions(cache) == [pos]

    def test_eviction_keeps_last_window(self):
        rng = np.random.default_rng(10)
        block = make_block(rng)
        m = 4
        cache = fresh_cache(block, window=m)
        keys, values = [], []  # concatenate-and-slice reference
        for pos in range(3 * m + 3):  # past 2M + 1: the 2M-slot buffers compact twice
            kv = compute_expert_kv(rng.standard_normal(10), block)
            cache_insert(cache, pos, kv, rope(block, pos))
            keys.append(rope_rotate_np(kv.keys, rope(block, pos)))
            values.append(kv.values_normed)
            assert np.array_equal(cache.k, np.stack(keys)[-m:])
            assert np.array_equal(cache.v, np.stack(values)[-m:])
            assert positions(cache) == list(range(max(0, pos + 1 - m), pos + 1))
        assert positions(cache) == list(range(2 * m + 3, 3 * m + 3))

    def test_equal_scores_select_oldest_slots_after_compaction(self):
        rng = np.random.default_rng(19)
        block = make_block(rng, top_k=3)
        block.new_routers.data[:] = 0.0
        m, n = 4, block.num_experts
        cache = fresh_cache(block, window=m)
        inserted = []
        for pos in range(2 * m + 3):  # the buffers compact at insert 2M + 1
            values = rng.standard_normal((n, 10))
            kv = ExpertKV(keys=np.zeros((n, block.key_dim)), values=values, values_normed=values)
            cache_insert(cache, pos, kv, rope(block, pos))
            inserted.append(values)
        h = rng.standard_normal(10)
        scores = molkv_new_scores(molkv_query(h, block, rope(block, 2 * m + 3))[1], h, cache, block)
        assert np.array_equal(scores, np.zeros(m * n))
        idx = np.flatnonzero(molkv_select(scores, block.top_k))
        assert idx.tolist() == [0, 1, 2]
        oldest = inserted[m + 3]
        want = np.stack([oldest[0], oldest[1], inserted[m + 4][0]])
        assert np.array_equal(cache.v.reshape(-1, 10)[idx], want)

    def test_inserts_write_in_place_between_compactions(self):
        rng = np.random.default_rng(20)
        block = make_block(rng)
        m = 4
        cache = fresh_cache(block, window=m)
        kv = compute_expert_kv(rng.standard_normal(10), block)
        cache_insert(cache, 0, kv, rope(block, 0))
        prev_keys, prev_values = cache.k, cache.v
        for pos in range(1, 2 * m):  # all 2M slots fill without a move
            cache_insert(cache, pos, kv, rope(block, pos))
            assert np.shares_memory(cache.k, prev_keys)
            assert np.shares_memory(cache.v, prev_values)
            prev_keys, prev_values = cache.k, cache.v
        base_keys, base_values = prev_keys.base, prev_values.base
        cache_insert(cache, 2 * m, kv, rope(block, 2 * m))  # compaction moves slots within the same buffers
        assert cache.k.base is base_keys and cache.v.base is base_values

    def test_out_of_order_insert_rejected(self):
        rng = np.random.default_rng(11)
        block = make_block(rng)
        cache = fresh_cache(block, window=4)
        cache_insert(cache, 0, compute_expert_kv(rng.standard_normal(10), block), rope(block, 0))
        with pytest.raises(CacheStateError):
            cache_insert(cache, 2, compute_expert_kv(rng.standard_normal(10), block), rope(block, 2))

    def test_empty_cache_starts_at_zero(self):
        rng = np.random.default_rng(12)
        block = make_block(rng)
        cache = fresh_cache(block, window=4)
        with pytest.raises(CacheStateError):
            cache_insert(cache, 3, compute_expert_kv(rng.standard_normal(10), block), rope(block, 3))


class TestScoresAndSelection:
    def test_empty_cache_empty_scores(self):
        rng = np.random.default_rng(14)
        block = make_block(rng)
        cache = fresh_cache(block, window=4)
        scores = molkv_new_scores(rng.standard_normal(6), rng.standard_normal(10), cache, block)
        assert scores.size == 0
        w = molkv_select(scores, 5)
        assert w.size == 0

    def test_zero_new_router_leaves_qk_scores(self):
        rng = np.random.default_rng(15)
        block = make_block(rng)
        block.new_routers.data[:] = 0.0
        cache = fresh_cache(block, window=4)
        for pos in range(3):
            cache_insert(cache, pos, compute_expert_kv(rng.standard_normal(10), block), rope(block, pos))
        h = rng.standard_normal(10)
        _, q_rot = molkv_query(h, block, rope(block, 3))
        scores = molkv_new_scores(q_rot, h, cache, block)
        want = (cache.k.reshape(-1, block.key_dim) @ q_rot) * block.qk_scale
        np.testing.assert_allclose(scores, want, atol=1e-15)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(16)
        block = make_block(rng)
        cache = fresh_cache(block, window=6)
        for pos in range(5):
            cache_insert(cache, pos, compute_expert_kv(rng.standard_normal(10), block), rope(block, pos))
        h = rng.standard_normal(10)
        _, q_rot = molkv_query(h, block, rope(block, 5))
        scores = molkv_new_scores(q_rot, h, cache, block)
        router = h @ block.new_routers.data
        n = block.num_experts
        for j in range(len(cache)):
            for e in range(n):
                want = cache.k[j, e] @ q_rot * block.qk_scale + router[e]
                assert scores[j * n + e] == pytest.approx(want, abs=1e-15)

    def test_select_fewer_than_k(self):
        scores = np.array([0.3, -0.2])
        w = molkv_select(scores, 32)
        assert np.flatnonzero(w).tolist() == [0, 1]
        assert w.sum() == pytest.approx(1.0, abs=1e-15)

    def test_select_dominant_score(self):
        scores = np.array([0.0, 50.0, 0.0, 0.0])
        w = molkv_select(scores, 2)
        assert np.count_nonzero(w) == 2 and w.argmax() == 1
        assert w[1] > 1.0 - 1e-9

    def test_weights_nonnegative_sum_one(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            scores = rng.standard_normal(12)
            w = molkv_select(scores, 4)
            assert np.count_nonzero(w) == 4
            assert (w >= 0).all() and w.sum() == pytest.approx(1.0, abs=1e-12)


    def test_cached_mix_is_a_row_of_taped_attention(self):
        rng = np.random.default_rng(23)
        block = make_block(rng, top_k=3)
        m, n, t = 4, block.num_experts, 6
        cache = fresh_cache(block, window=m)
        for pos in range(t):
            cache_insert(cache, pos, compute_expert_kv(rng.standard_normal(10), block), rope(block, pos))
        h = rng.standard_normal(10)
        kv = compute_expert_kv(rng.standard_normal(10), block)
        q, q_rot = molkv_query(h, block, rope(block, t))
        keys, values = cache.k.reshape(m * n, -1).copy(), cache.v.reshape(m * n, -1).copy()  # before t joins
        router = Tensor((h @ block.new_routers.data)[None, :])
        mix = attention(Tensor(q_rot[None, :]), Tensor(keys), Tensor(values), np.ones((1, m * n), dtype=bool),
                        block.qk_scale, bias=router, top_k=block.top_k).data[0]
        own = own_term(h, q, kv, block)
        term, selected = molkv_step(h, t, cache, kv, block, rope(block, t))
        assert selected == block.top_k
        np.testing.assert_allclose(term, own + sigmoid_np(h @ block.new_gate.data) * mix, rtol=0, atol=1e-12)


class TestAugmentedRouting:
    def test_zero_query_reduces_to_plain_routing(self):
        rng = np.random.default_rng(18)
        block = make_block(rng)
        h = rng.standard_normal(10)
        kv = compute_expert_kv(rng.standard_normal(10), block)
        got = augmented_routing(h, np.zeros(block.key_dim), kv, block)
        want = softmax_np(h @ block.routers.data)
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_uniform_when_all_logits_equal(self):
        rng = np.random.default_rng(19)
        block = make_block(rng)
        block.routers.data[:] = 0.0
        kv = compute_expert_kv(np.zeros(10), block)  # zero keys
        s = augmented_routing(rng.standard_normal(10), rng.standard_normal(block.key_dim), kv, block)
        np.testing.assert_allclose(s, 1.0 / block.num_experts)

    def test_sums_to_one(self):
        rng = np.random.default_rng(20)
        block = make_block(rng)
        for _ in range(25):
            h = rng.standard_normal(10)
            kv = compute_expert_kv(rng.standard_normal(10), block)
            q, _ = molkv_query(h, block, rope(block, 0))
            assert augmented_routing(h, q, kv, block).sum() == pytest.approx(1.0, abs=1e-12)


class TestWindowMask:
    def test_strictly_causal(self):
        m = sliding_window_mask(5, 10)
        assert not m.diagonal().any()
        assert np.array_equal(m, np.tril(np.ones((5, 5), bool), -1))

    def test_window_limits(self):
        m = sliding_window_mask(6, 2)
        assert m[5].tolist() == [False, False, False, True, True, False]
        assert m[0].tolist() == [False] * 6

    def test_wide_window_equals_strict_causal(self):
        assert np.array_equal(sliding_window_mask(7, 7), sliding_window_mask(7, 100))


class TestWindowTopK:
    """Training's top-k mask is the set a stable descending argsort keeps."""

    @staticmethod
    def argsort_mask(scores, win, k):
        masked = np.where(win, scores, -np.inf)
        order = np.argsort(-masked, axis=-1, kind="stable")[..., : min(k, scores.shape[-1])]
        top = np.zeros(scores.shape, dtype=bool)
        np.put_along_axis(top, order, True, axis=-1)
        return top & win

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3, 5, 200])
    def test_matches_stable_argsort(self, dtype, k):
        rng = np.random.default_rng(31)
        s, n, window = 12, 2, 5
        win = np.repeat(sliding_window_mask(s, window), n, axis=1)  # rows 0-2 hold fewer than 5 entries
        # Scores from four values: most rows have ties exactly at the k-th score.
        scores = rng.integers(0, 4, size=(3, s, s * n)).astype(dtype)
        got = window_topk_mask(scores, win, k)
        np.testing.assert_array_equal(got, self.argsort_mask(scores, win, k))
        assert (got.sum(axis=-1) == np.minimum(k, win.sum(axis=-1))).all()

    def test_ties_keep_lowest_index(self):
        win = np.ones((1, 6), dtype=bool)
        scores = np.array([[1.0, 2.0, 1.0, 2.0, 1.0, 0.0]])
        assert window_topk_mask(scores, win, 3).tolist() == [[True, True, False, True, False, False]]

    def test_random_scores(self):
        rng = np.random.default_rng(32)
        win = np.repeat(sliding_window_mask(64, 16), 2, axis=1)
        scores = rng.standard_normal((4, 64, 128)).astype(np.float32)
        np.testing.assert_array_equal(window_topk_mask(scores, win, 16), self.argsort_mask(scores, win, 16))


class TestTrainInferEquivalence:
    @pytest.mark.parametrize("window,top_k,n", [(1, 2, 1), (4, 8, 2), (16, 2, 2), (3, 8, 1)])
    def test_per_token_match(self, window, top_k, n):
        rng = np.random.default_rng(21 + window + top_k + n)
        block = make_block(rng, n=n, top_k=top_k)
        emb = parameter(rng.standard_normal((15, 10)) * 0.5)
        s = 24
        ids = rng.integers(0, 15, size=s)
        h = rng.standard_normal((s, 10))
        y_batch = sequence_terms(h, ids, emb, block, window)
        cache = fresh_cache(block, window)
        for t in range(s):
            kv = compute_expert_kv(emb.data[ids[t]], block)
            y_t, k_eff = molkv_step(h[t], t, cache, kv, block, rope(block, t))
            assert k_eff == min(top_k, min(t, window) * n)
            rel = np.abs(y_t - y_batch[t]).max() / (np.abs(y_batch[t]).max() + 1e-300)
            assert rel < 1e-12

    def test_sequence_length_one_has_no_cached_term(self):
        rng = np.random.default_rng(22)
        block = make_block(rng)
        emb = parameter(rng.standard_normal((15, 10)))
        h = rng.standard_normal((1, 10))
        ids = np.array([4])
        y = sequence_terms(h, ids, emb, block, window=8)
        # reconstruct without the cached path
        kv = compute_expert_kv(emb.data[4], block)
        q, _ = molkv_query(h[0], block, rope(block, 0))
        want = own_term(h[0], q, kv, block)
        np.testing.assert_allclose(y[0], want, atol=1e-12)

    def test_new_gate_saturation_kills_cached_term(self):
        rng = np.random.default_rng(23)
        block = make_block(rng)
        cache = fresh_cache(block, window=4)
        for pos in range(4):
            cache_insert(cache, pos, compute_expert_kv(rng.standard_normal(10), block), rope(block, pos))
        h = rng.standard_normal(10)
        h = h * (-30.0 / (h @ block.new_gate.data))  # force h.u' = -30
        kv = compute_expert_kv(rng.standard_normal(10), block)
        y, k_eff = molkv_step(h.copy(), 4, cache, kv, block, rope(block, 4))
        q, _ = molkv_query(h, block, rope(block, 4))
        no_new = own_term(h, q, kv, block)
        assert k_eff > 0  # experts were selected, the gate just silences them
        np.testing.assert_allclose(y, no_new, atol=1e-10)

    def test_causality_of_batched_forward(self):
        rng = np.random.default_rng(24)
        block = make_block(rng)
        emb = parameter(rng.standard_normal((15, 10)))
        ids = rng.integers(0, 15, size=8)
        h = rng.standard_normal((8, 10))
        base = sequence_terms(h, ids, emb, block, window=4)
        ids2 = ids.copy()
        ids2[6] = (ids2[6] + 1) % 15
        h2 = h.copy()
        h2[6] += 3.0
        pert = sequence_terms(h2, ids2, emb, block, window=4)
        assert np.array_equal(base[:6], pert[:6])

    def test_window_locality(self):
        # with the block alone (no backbone attention), outputs at t depend
        # only on tokens in [t - M, t]
        rng = np.random.default_rng(25)
        block = make_block(rng)
        emb = parameter(rng.standard_normal((15, 10)))
        window = 3
        s = 10
        ids = rng.integers(0, 15, size=s)
        h = rng.standard_normal((s, 10))
        base = sequence_terms(h, ids, emb, block, window)
        ids2 = ids.copy()
        ids2[2] = (ids2[2] + 5) % 15  # outside the window of t = 9 (window covers 6..8)
        pert = sequence_terms(h, ids2, emb, block, window)
        assert np.array_equal(base[9], pert[9])
        assert not np.allclose(base[2], pert[2])


class TestGatedLookupReduction:
    def test_zero_query_empty_window_equals_gated_lookup(self):
        # with q = 0 the augmented routing collapses to plain routing, and an
        # empty window removes the cached term; what remains is exactly the
        # gated lookup block over this block's expert values
        rng = np.random.default_rng(30)
        block = make_block(rng)
        block.query_proj.data[:] = 0.0
        token = 3
        emb = rng.standard_normal((8, 10))
        kv = compute_expert_kv(emb[token], block)
        cache = fresh_cache(block, window=4)
        h = rng.standard_normal(10)
        y_kv, _ = molkv_step(h, 0, cache, kv, block, rope(block, 0))
        lookup = MoLEBlockParams(ffn=block.ffn, routers=block.routers, experts=[], gate=block.gate)
        np.testing.assert_array_equal(y_kv, mole_step(h, kv.values, lookup))


class TestGradients:
    @staticmethod
    def sublayer(h, ids, emb, block):
        """The FFN sublayer as ``forward`` computes it, for a (1, s, d) h and (1, s) ids."""
        return swishglu_ffn(h, block.ffn) + molkv_expert_terms(h, *lookup_distinct(emb, ids), block, window=3)

    def test_every_group_gets_gradient(self):
        rng = np.random.default_rng(26)
        block = make_block(rng, d=8, D=10, dk=4, n=2, top_k=2)
        emb = parameter(rng.standard_normal((12, 8)))
        ids = rng.integers(0, 12, size=(1, 6))
        h = Tensor(rng.standard_normal((1, 6, 8)))
        w = Tensor(rng.standard_normal((1, 6, 8)))
        from molkv.autodiff import Tape, backward

        leaves = dict(block.tensors())
        leaves["embedding"] = emb
        with Tape() as tape:
            loss = tensor_sum(mul(self.sublayer(h, ids, emb, block), w))
        backward(tape, loss)
        for name, t in leaves.items():
            assert t.grad is not None and np.abs(t.grad).max() > 0, f"no gradient reached {name}"

    def test_finite_differences(self):
        rng = np.random.default_rng(27)
        block = make_block(rng, d=6, D=8, dk=4, n=2, top_k=2)
        emb = parameter(rng.standard_normal((8, 6)))
        ids = rng.integers(0, 8, size=(1, 5))
        h = Tensor(rng.standard_normal((1, 5, 6)))
        w = Tensor(rng.standard_normal((1, 5, 6)))
        leaves = [t for _, t in block.tensors()] + [emb]
        err = grad_check(
            lambda: tensor_sum(mul(self.sublayer(h, ids, emb, block), w)),
            leaves,
            samples_per_leaf=6,
            seed=2,
        )
        assert err < 1e-4
