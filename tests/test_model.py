"""Model assembly: initialization, parameter walk, forward shapes."""

from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from molkv import kvexperts, mole
from molkv import model as model_module
from molkv.autodiff import Tape, Tensor, backward, grad_check, mul, parameter, tensor_sum
from molkv.config import ConfigError, ModelConfig, published_config
from molkv.layers import lookup_distinct, swishglu_ffn
from molkv.model import forward, init_model, named_tensors, next_token_loss
from molkv.store import reparameterize


def cfg_of(kind):
    common = dict(num_layers=2, hidden_size=16, ffn_size=12, vocab_size=31, num_heads=2)
    if kind == "dense":
        return ModelConfig(kind=kind, **common)
    if kind == "molkv":
        return ModelConfig(kind=kind, num_experts=2, key_dim=4, cache_window=3, top_k=2,
                           expert_layers=(1,), **common)
    return ModelConfig(kind=kind, num_experts=3, expert_layers=(0,), **common)


class TestConfig:
    def test_published_config_values(self):
        m = published_config("molkv")
        assert (m.hidden_size, m.ffn_size, m.num_experts) == (1024, 2548, 2)
        assert (m.key_dim, m.cache_window, m.top_k) == (146, 512, 32)
        assert len(m.expert_layers) == 14
        assert published_config("mole").ffn_size == 2644
        assert published_config("dense").num_experts == 0

    def test_dense_rejects_expert_settings(self):
        with pytest.raises(ConfigError):
            ModelConfig(kind="dense", num_layers=1, hidden_size=8, ffn_size=8, vocab_size=8,
                        num_experts=2, num_heads=2)

    def test_molkv_requires_window_and_topk(self):
        base = dict(kind="molkv", num_layers=1, hidden_size=8, ffn_size=8, vocab_size=8,
                    num_experts=1, key_dim=4, expert_layers=(0,), num_heads=2)
        with pytest.raises(ConfigError):
            ModelConfig(cache_window=0, top_k=1, **base)
        with pytest.raises(ConfigError):
            ModelConfig(cache_window=1, top_k=0, **base)

    def test_odd_key_dim_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(kind="molkv", num_layers=1, hidden_size=8, ffn_size=8, vocab_size=8,
                        num_experts=1, key_dim=5, cache_window=1, top_k=1, expert_layers=(0,),
                        num_heads=2)

    def test_expert_layers_bounds(self):
        with pytest.raises(ConfigError):
            ModelConfig(kind="mole", num_layers=2, hidden_size=8, ffn_size=8, vocab_size=8,
                        num_experts=1, expert_layers=(2,), num_heads=2)


class TestInit:
    @pytest.mark.parametrize("kind", ["dense", "mole", "gated-mole", "molkv"])
    def test_parameter_names_unique_and_complete(self, kind):
        model = init_model(cfg_of(kind), seed=0)
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        assert names[0] == "embedding" and names[-1] == "out_proj"

    @pytest.mark.parametrize("kind", ["dense", "mole", "gated-mole", "molkv"])
    def test_parameter_walk_order(self, kind):
        # The checkpoint and optimizer order: field order of the dataclasses, list items by index.
        def backbone(i):
            return [f"layers.{i}.{n}" for n in ("attn_norm", "attn.wq", "attn.wk", "attn.wv", "attn.wo",
                                                 "ffn_norm", "ffn.gate", "ffn.up", "ffn.down")]

        mole_block = ["routers",
                      "experts.0.gate", "experts.0.up", "experts.0.down",
                      "experts.1.gate", "experts.1.up", "experts.1.down",
                      "experts.2.gate", "experts.2.up", "experts.2.down"]
        molkv_block = ["query_proj", "routers", "new_routers", "gate", "new_gate",
                       "key_experts.0.gate", "key_experts.0.up", "key_experts.0.down",
                       "key_experts.1.gate", "key_experts.1.up", "key_experts.1.down",
                       "value_experts.0.gate", "value_experts.0.up", "value_experts.0.down",
                       "value_experts.1.gate", "value_experts.1.up", "value_experts.1.down",
                       "vocab_norm", "key_norm", "value_norm"]
        blocks = {  # (expert layer, its block's names)
            "dense": (None, []),
            "mole": (0, mole_block),
            "gated-mole": (0, mole_block + ["gate"]),
            "molkv": (1, molkv_block),
        }
        li, block = blocks[kind]
        want = ["embedding"]
        for i in range(2):
            want += backbone(i) + ([f"layers.{i}.block.{n}" for n in block] if i == li else [])
        want += ["final_norm", "out_proj"]
        model = init_model(cfg_of(kind), seed=0)
        assert [n for n, _ in model.named_parameters()] == want
        assert [layer.block is None for layer in model.layers] == [i != li for i in range(2)]

    @pytest.mark.parametrize("kind", ["dense", "mole", "gated-mole", "molkv"])
    def test_parameter_tree_holds_only_tensors(self, kind):
        # ModelConfig is the one home of every architecture number: no parameter dataclass keeps a copy.
        def check(params, prefix=""):
            for f in fields(params):
                name, value = prefix + f.name, getattr(params, f.name)
                if name == "config":  # ModelParams.config, the one home of the architecture numbers
                    continue
                if isinstance(value, list):
                    for i, item in enumerate(value):
                        assert isinstance(item, Tensor) or is_dataclass(item), f"{name}.{i} holds {item!r}"
                        if is_dataclass(item):
                            check(item, f"{name}.{i}.")
                elif is_dataclass(value):
                    check(value, name + ".")
                else:
                    assert value is None or isinstance(value, Tensor), f"{name} holds {value!r}"

        check(init_model(cfg_of(kind), seed=0))

    def test_same_seed_same_init(self):
        a = init_model(cfg_of("molkv"), seed=4, dtype=np.float64)
        b = init_model(cfg_of("molkv"), seed=4, dtype=np.float64)
        for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb and np.array_equal(ta.data, tb.data)

    def test_norm_gains_start_at_one(self):
        model = init_model(cfg_of("molkv"), seed=1)
        assert np.array_equal(model.final_norm.data, np.ones(16, dtype=np.float32))
        block = model.layers[1].block
        assert np.array_equal(block.key_norm.data, np.ones(4, dtype=np.float32))

    def test_gate_presence_by_kind(self):
        assert init_model(cfg_of("mole"), seed=0).layers[0].block.gate is None
        assert init_model(cfg_of("gated-mole"), seed=0).layers[0].block.gate is not None

    def test_expert_key_width_follows_config(self):
        # published geometry uses 146-wide expert keys
        cfg = replace(cfg_of("molkv"), key_dim=146)
        model = init_model(cfg, seed=2)
        block = model.layers[1].block
        assert block.key_dim == 146
        assert block.key_experts[0].down.shape == (12, 146)
        keys, _ = kvexperts.molkv_expert_pairs(Tensor(model.embedding.data[3].astype(np.float64)), block)
        assert keys.shape == (2, 146)


class TestForward:
    @pytest.mark.parametrize("kind", ["dense", "mole", "gated-mole", "molkv"])
    def test_logit_shape_and_finite(self, kind):
        model = init_model(cfg_of(kind), seed=3, dtype=np.float64)
        ids = np.random.default_rng(0).integers(0, 31, size=(2, 7))
        logits = forward(model, ids)
        assert logits.shape == (2, 7, 31)
        assert np.all(np.isfinite(logits.data))

    def test_loss_positive(self):
        model = init_model(cfg_of("molkv"), seed=5, dtype=np.float64)
        batch = np.random.default_rng(1).integers(0, 31, size=(2, 9))
        assert next_token_loss(model, batch).item() > 0

    def test_fp32_and_fp64_agree_loosely(self):
        ids = np.random.default_rng(2).integers(0, 31, size=(1, 6))
        l32 = forward(init_model(cfg_of("molkv"), seed=6, dtype=np.float32), ids).data
        l64 = forward(init_model(cfg_of("molkv"), seed=6, dtype=np.float64), ids).data
        np.testing.assert_allclose(l32, l64, atol=1e-3)


class TestPerIdExperts:
    """Training runs the expert FFNs once per distinct token id, not per position."""

    KINDS = ["mole", "gated-mole", "molkv"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_expert_ffns_see_one_row_per_distinct_id(self, kind, monkeypatch):
        model = init_model(cfg_of(kind), seed=3, dtype=np.float64)
        ids = np.random.default_rng(4).integers(0, 6, size=(3, 8))  # 24 positions, at most 6 ids
        rows = []
        for module in (kvexperts, mole):

            def counted(x, p, _fn=module.swishglu_ffn):
                rows.append(int(np.prod(x.shape[:-1])))
                return _fn(x, p)

            monkeypatch.setattr(module, "swishglu_ffn", counted)
        with Tape() as tape:
            loss = next_token_loss(model, ids)
        backward(tape, loss)
        n = model.config.num_experts
        assert len(rows) == (2 * n if kind == "molkv" else n) * len(model.config.expert_layers)
        assert rows == [np.unique(ids[:, :-1]).size] * len(rows)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("batch", ["one id everywhere", "every id distinct"])
    def test_block_grad_check(self, kind, batch):
        # Block level, with random hidden states; the whole-model check on a
        # one-id batch is TestWholeModelGradCheck.
        cfg = cfg_of(kind)
        layer = init_model(cfg, seed=5, dtype=np.float64, init_std=0.3).layers[cfg.expert_layers[0]]
        block = layer.block
        rng = np.random.default_rng(6)
        emb = parameter(rng.standard_normal((16, cfg.hidden_size)))
        ids = np.full((2, 8), 7) if batch == "one id everywhere" else rng.permutation(16).reshape(2, 8)
        h = Tensor(rng.standard_normal((2, 8, cfg.hidden_size)))
        w = Tensor(rng.standard_normal((2, 8, cfg.hidden_size)))
        if kind == "molkv":
            terms = lambda: kvexperts.molkv_expert_terms(h, *lookup_distinct(emb, ids), block, cfg.cache_window,
                                                         cfg.top_k)
        else:
            terms = lambda: mole.mole_expert_terms(h, *lookup_distinct(emb, ids), block)
        loss = lambda: tensor_sum(mul(swishglu_ffn(h, layer.ffn) + terms(), w))  # the sublayer as forward runs it
        leaves = [t for node in (layer.ffn, block) for _, t in named_tensors(node)]
        assert grad_check(loss, leaves, samples_per_leaf=6, seed=1) < 1e-4
        # Every coordinate of the table, so the rows the batch uses are all checked.
        assert grad_check(loss, [emb], samples_per_leaf=emb.data.size) < 1e-4

    @pytest.mark.parametrize("kind", KINDS)
    def test_training_table_rows_equal_export_rows(self, kind, monkeypatch):
        model = init_model(cfg_of(kind), seed=7, dtype=np.float64, init_std=0.3)
        ids = np.random.default_rng(8).integers(0, 31, size=(2, 12))
        tables = []
        owner, name = (kvexperts, "molkv_expert_pairs") if kind == "molkv" else (mole, "mole_expert_values")

        def captured(*args, _fn=getattr(owner, name)):
            out = _fn(*args)
            tables.append(out if kind == "molkv" else (out,))
            return out

        monkeypatch.setattr(owner, name, captured)
        forward(model, ids)
        monkeypatch.undo()
        export = reparameterize(model)
        _, inverse = np.unique(ids, return_inverse=True)
        inverse = inverse.reshape(ids.shape)
        assert len(tables) == len(model.config.expert_layers)
        for slot, table in enumerate(tables):
            want = (export.keys[slot], export.values[slot]) if kind == "molkv" else (export.values[slot],)
            for got, ref in zip(table, want):
                np.testing.assert_allclose(got.data[inverse], ref[ids], rtol=1e-12, atol=0)


def scaled_vjp(op, factor):
    """``op`` with the gradient it records multiplied by ``factor``: a wrong VJP."""

    def wrong(*args, **kw):
        out = op(*args, **kw)
        if Tape.active() is not None:  # central differences run untaped
            node = Tape.active().nodes[-1]
            assert node.out is out.handle
            vjp = node.vjp
            node.vjp = lambda g: tuple(factor * gi for gi in vjp(g))
        return out

    return wrong


class TestWholeModelGradCheck:
    """A one-id batch makes every attention input equal, so the q/k gradients are
    exactly zero and their central differences rounding noise; both count as agreeing."""

    @pytest.mark.parametrize("kind", ["dense", "mole", "gated-mole", "molkv"])
    def test_one_id_batch_passes(self, kind):
        model = init_model(cfg_of(kind), seed=5, dtype=np.float64, init_std=0.3)
        ids, params = np.full((2, 9), 7), [p for _, p in model.named_parameters()]
        assert grad_check(lambda: next_token_loss(model, ids), params, samples_per_leaf=8) < 1e-4

    @pytest.mark.parametrize("factor", [1.01, -1.0])
    def test_wrong_vjp_still_fails(self, factor, monkeypatch):
        model = init_model(cfg_of("molkv"), seed=5, dtype=np.float64, init_std=0.3)
        ids, params = np.full((2, 9), 7), [p for _, p in model.named_parameters()]
        monkeypatch.setattr(model_module, "rmsnorm", scaled_vjp(model_module.rmsnorm, factor))
        assert grad_check(lambda: next_token_loss(model, ids), params, samples_per_leaf=8) > 1e-3
