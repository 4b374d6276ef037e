"""Lookup-expert block: routing, both modes, gating, reparameterization."""

from dataclasses import replace

import numpy as np

from molkv.autodiff import Tensor, grad_check, mul, parameter, sigmoid_np, tensor_sum
from molkv.layers import FFNParams, lookup_distinct, own_expert_step, swishglu_ffn
from molkv.model import named_tensors
from molkv.mole import MoLEBlockParams, mole_expert_terms, mole_expert_values
from molkv.runtime import mole_step


def value_table(emb, block):
    """The exported (|V|, N, d) table of FFN_n(e_i), untaped."""
    return mole_expert_values(Tensor(emb), block).data


def make_ffn(rng, d, D, d_out, scale=0.3):
    return FFNParams(
        gate=parameter(rng.standard_normal((d, D)) * scale),
        up=parameter(rng.standard_normal((d, D)) * scale),
        down=parameter(rng.standard_normal((D, d_out)) * scale),
    )


def make_block(rng, d=8, D=12, n=3, gated=False, scale=0.3):
    return MoLEBlockParams(
        routers=parameter(rng.standard_normal((d, n)) * scale),
        experts=[make_ffn(rng, d, D, d, scale) for _ in range(n)],
        gate=parameter(rng.standard_normal(d) * scale) if gated else None,
    )


def routing(h, block):
    """softmax_n(h . r_n), the weights of ``mole_step``: ``own_expert_step``'s ungated mix of identity values."""
    n = block.routers.shape[1]
    return own_expert_step(h, np.zeros(0), np.zeros((n, 0)), np.eye(n), block.routers, None, 1.0)


class TestRouting:
    def test_zero_routers_uniform(self):
        rng = np.random.default_rng(0)
        block = make_block(rng, n=4)
        block.routers.data[:] = 0.0
        s = routing(np.ones(8), block)
        np.testing.assert_allclose(s, 0.25)

    def test_single_expert(self):
        rng = np.random.default_rng(1)
        block = make_block(rng, n=1)
        s = routing(rng.standard_normal(8), block)
        np.testing.assert_allclose(s, [1.0])

    def test_argmax_matches_raw_logits(self):
        rng = np.random.default_rng(2)
        block = make_block(rng, n=4)
        for _ in range(50):
            h = rng.standard_normal(8)
            s = routing(h, block)
            assert np.argmax(s) == np.argmax(h @ block.routers.data)
            np.testing.assert_allclose(s.sum(), 1.0, atol=1e-12)

    def test_independent_of_token_id(self):
        # routing uses only h; ids differ solely through the looked-up values
        rng = np.random.default_rng(3)
        block = make_block(rng)
        table = value_table(rng.standard_normal((10, 8)), block)
        h = rng.standard_normal(8)
        s = routing(h, block)
        for i in range(3):
            np.testing.assert_allclose(mole_step(h, table[i], block), s @ table[i], atol=1e-12)


class TestInferenceMode:
    def test_zero_h_zero_routers_gives_expert_mean(self):
        rng = np.random.default_rng(4)
        block = make_block(rng, n=4)
        block.routers.data[:] = 0.0
        emb = rng.standard_normal((5, 8))
        table = value_table(emb, block)
        np.testing.assert_allclose(mole_step(np.zeros(8), table[2], block), table[2].mean(axis=0), atol=1e-12)

    def test_single_expert_form(self):
        rng = np.random.default_rng(5)
        block = make_block(rng, n=1)
        emb = rng.standard_normal((5, 8))
        table = value_table(emb, block)
        h = rng.standard_normal(8)
        np.testing.assert_allclose(mole_step(h, table[3], block), table[3, 0], atol=1e-12)


class TestTrainingMode:
    def test_zero_embedding_row_drops_expert_term(self):
        rng = np.random.default_rng(7)
        block = make_block(rng)
        emb = parameter(rng.standard_normal((6, 8)))
        emb.data[4] = 0.0
        h = rng.standard_normal(8)
        term = mole_expert_terms(Tensor(h), *lookup_distinct(emb, 4), block).data
        np.testing.assert_allclose(term, np.zeros(8), atol=1e-12)

    def test_identical_embeddings_identical_terms(self):
        rng = np.random.default_rng(8)
        block = make_block(rng)
        emb = parameter(rng.standard_normal((6, 8)))
        emb.data[3] = emb.data[1]
        h = Tensor(rng.standard_normal(8))
        np.testing.assert_array_equal(
            mole_expert_terms(h, *lookup_distinct(emb, 1), block).data,
            mole_expert_terms(h, *lookup_distinct(emb, 3), block).data,
        )

    def test_gradients_reach_everything(self):
        rng = np.random.default_rng(9)
        block = make_block(rng, d=6, D=8, n=2, gated=True)
        emb = parameter(rng.standard_normal((5, 6)))
        ids = rng.integers(0, 5, size=4)
        h = Tensor(rng.standard_normal((4, 6)))
        w = Tensor(rng.standard_normal((4, 6)))
        shared = make_ffn(rng, 6, 8, 6)
        leaves = [t for node in (shared, block) for _, t in named_tensors(node)] + [emb]

        def loss():  # the FFN sublayer as ``forward`` computes it
            y = swishglu_ffn(h, shared) + mole_expert_terms(h, *lookup_distinct(emb, ids), block)
            return tensor_sum(mul(y, w))

        err = grad_check(loss, leaves, samples_per_leaf=6)
        assert err < 1e-4


class TestGated:
    def test_zero_gate_vector_halves_expert_term(self):
        rng = np.random.default_rng(10)
        block = make_block(rng, gated=True)
        block.gate.data[:] = 0.0  # g = sigmoid(0) = 0.5
        table = value_table(rng.standard_normal((5, 8)), block)
        h = rng.standard_normal(8)
        mix = routing(h, block) @ table[1]
        base = mole_step(h, table[1], replace(block, gate=None))
        gated = mole_step(h, table[1], block)
        np.testing.assert_allclose(gated - base, -0.5 * mix, atol=1e-12)

    def test_gate_saturates_to_zero(self):
        rng = np.random.default_rng(11)
        block = make_block(rng, gated=True)
        table = value_table(rng.standard_normal((5, 8)), block)
        h = rng.standard_normal(8)
        h = h * (-25.0 / (h @ block.gate.data))  # force h.u = -25
        assert sigmoid_np(h @ block.gate.data) < 1e-9
        np.testing.assert_allclose(mole_step(h, table[0], block), np.zeros(8), atol=1e-8)

    def test_gate_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(12)
        block = make_block(rng, gated=True)
        for _ in range(100):
            g = sigmoid_np(rng.standard_normal(8) @ block.gate.data)
            assert 0.0 < g < 1.0

    def test_gated_equals_ungated_when_gate_forced_to_one(self):
        rng = np.random.default_rng(14)
        block = make_block(rng, gated=True)
        table = value_table(rng.standard_normal((5, 8)), block)
        h = rng.standard_normal(8)
        mix = routing(h, block) @ table[2]
        g = sigmoid_np(h @ block.gate.data)
        got = mole_step(h, table[2], block)
        want_if_g_one = mole_step(h, table[2], replace(block, gate=None))
        np.testing.assert_allclose(got + (1.0 - g) * mix, want_if_g_one, atol=1e-12)


class TestReparamEquivalence:
    def test_train_equals_infer_for_tiny_blocks(self):
        rng = np.random.default_rng(15)
        for trial in range(5):
            gated = trial % 2 == 1
            block = make_block(rng, d=6, D=10, n=2, gated=gated)
            emb = parameter(rng.standard_normal((8, 6)))
            table = value_table(emb.data, block)
            for token in range(8):
                for _ in range(3):
                    h = rng.standard_normal(6)
                    want = mole_expert_terms(Tensor(h), *lookup_distinct(emb, token), block).data
                    got = mole_step(h, table[token], block)
                    rel = np.abs(got - want).max() / (np.abs(want).max() + 1e-300)
                    assert rel < 1e-12
