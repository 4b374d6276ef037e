"""Expert store: reparameterization, binary round-trips, parameter counts."""

import os
import threading
import warnings
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molkv.autodiff import Tensor
from molkv.config import ConfigError, ModelConfig, published_config
from molkv.kvexperts import molkv_expert_pairs
from molkv.layers import lookup_distinct, swishglu_ffn_np
from molkv.model import init_model, named_tensors
from molkv.mole import mole_expert_terms
from molkv.runtime import mole_step
from molkv.store import (
    NUMPY_DTYPES,
    ExpertStoreHeader,
    ExpertStoreReader,
    RecordLookupError,
    ReparamTables,
    count_params,
    reparameterize,
    write_store,
)
from molkv.training import (STORE_MAGIC, TrainConfig, load_checkpoint, load_parameters, new_train_state,
                            save_checkpoint)


def tiny_config(kind="molkv"):
    if kind == "molkv":
        return ModelConfig(
            kind="molkv",
            num_layers=3,
            hidden_size=12,
            ffn_size=10,
            vocab_size=17,
            num_experts=2,
            key_dim=4,
            cache_window=4,
            top_k=2,
            expert_layers=(0, 2),
            num_heads=2,
        )
    return ModelConfig(
        kind=kind,
        num_layers=2,
        hidden_size=12,
        ffn_size=10,
        vocab_size=17,
        num_experts=3,
        expert_layers=(0, 1),
        num_heads=2,
    )


def _store(tmp_path, kind="molkv", dtype="fp32", seed=0):
    """A store of ``tiny_config(kind)`` at ``tmp_path / "s.mlkv"``; returns its path, header and bytes."""
    path = tmp_path / "s.mlkv"
    header = write_store(reparameterize(init_model(tiny_config(kind), seed=seed, dtype=np.float64, init_std=0.3)),
                         path, dtype=dtype)
    return path, header, path.read_bytes()


# Random bytes almost always break the JSON; JSON's own characters also reach the checks behind it.
JSON_PATCHES = st.text(alphabet='0123456789-+.eE"[]{},: truefalsnx', min_size=1, max_size=8).map(str.encode)


def _tables(vocab, n, d, dk, layers, seed=0):
    rng = np.random.default_rng(seed)
    return ReparamTables(keys=[rng.standard_normal((vocab, n, dk)) for _ in range(layers)],
                         values=[rng.standard_normal((vocab, n, d)) for _ in range(layers)])


class TestHeader:
    def test_bad_magic(self, tmp_path):
        path, _, data = _store(tmp_path)
        path.write_bytes(b"XXXXXXXX" + data[8:])
        with pytest.raises(ConfigError, match="not a molkv expert store: bad magic"):
            ExpertStoreReader(path)

    def test_checkpoint_is_not_a_store(self, tmp_path):
        model = ModelConfig(kind="molkv", num_layers=1, hidden_size=8, ffn_size=8, vocab_size=257, num_heads=2,
                            num_experts=2, expert_layers=(0,), key_dim=4, cache_window=4, top_k=2)
        save_checkpoint(tmp_path / "m.ckpt", new_train_state(model, TrainConfig()), TrainConfig())
        with pytest.raises(ConfigError, match="a molkv checkpoint, not a molkv expert store"):
            ExpertStoreReader(tmp_path / "m.ckpt")

    @pytest.mark.parametrize("load", [load_parameters, load_checkpoint])
    def test_store_is_not_a_checkpoint(self, tmp_path, load):
        path, _, _ = _store(tmp_path)
        with pytest.raises(ConfigError, match="a molkv expert store, not a molkv checkpoint"):
            load(path, tiny_config("molkv"), TrainConfig())

    def test_bad_version(self, tmp_path):
        path, _, data = _store(tmp_path)
        path.write_bytes(data[:8] + struct.pack("<I", 99) + data[12:])
        with pytest.raises(ConfigError, match="^unsupported expert store version 99$"):
            ExpertStoreReader(path)

    def test_refuses_a_version_1_store(self, tmp_path):
        # version 1 was a fixed 64-byte header under the magic "MLKV", then the records as today
        path, header, data = _store(tmp_path, "mole")
        v1 = struct.pack("<4s5IQ3I20x", b"MLKV", 1, 1, 0, 1, 2, 17, 3, 12, 0) + data[header.layer_offsets[0]:]
        path.write_bytes(v1)
        with pytest.raises(ConfigError, match="not a molkv expert store: bad magic b'MLKV"):
            ExpertStoreReader(path)
        path.write_bytes(STORE_MAGIC + struct.pack("<I", 1) + data[12:])  # today's layout, numbered 1
        with pytest.raises(ConfigError, match="^unsupported expert store version 1$"):
            ExpertStoreReader(path)

    def test_record_arithmetic_published_geometry(self):
        h = ExpertStoreHeader(dtype="fp32", vocab_size=50304, num_experts=2, hidden_size=1024, key_dim=146,
                              layer_offsets=(200,) * 14)
        assert h.record_values == 2 * (1024 + 146) == 2340
        assert h.record_bytes == 2 * (1024 + 146) * 4 == 9360
        assert h.num_expert_layers == 14 and h.record_offset(13, 50303) == 200 + 50303 * 9360

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.tuples(st.integers(1, 5), st.integers(1, 3), st.integers(1, 4), st.integers(0, 3), st.integers(1, 3)),
           st.sampled_from(sorted(NUMPY_DTYPES)))
    def test_every_valid_header_roundtrips(self, tmp_path_factory, extents, dtype):
        # the header write_store returns is the one the reader finds, offsets included
        path = tmp_path_factory.mktemp("store") / "s.mlkv"
        written = write_store(_tables(*extents), path, dtype=dtype)
        vocab, n, d, dk, layers = extents
        assert (written.vocab_size, written.num_experts, written.hidden_size, written.key_dim,
                written.num_expert_layers) == extents
        with ExpertStoreReader(path) as reader:
            assert reader.header == written
        assert path.stat().st_size == written.record_offset(layers - 1, vocab - 1) + written.record_bytes

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data())
    def test_corrupt_header_is_refused_or_fits(self, tmp_path_factory, data):
        # a few bytes overwritten anywhere in the preamble or the JSON header: refused, or every record in the file
        tmp = tmp_path_factory.mktemp("store")
        path, header, raw = _store(tmp, data.draw(st.sampled_from(["mole", "molkv"])))
        offset = data.draw(st.integers(0, header.layer_offsets[0] - 1))
        patch = data.draw(st.one_of(st.binary(min_size=1, max_size=8), JSON_PATCHES))
        path.write_bytes(raw[:offset] + patch + raw[offset + len(patch):])
        try:
            reader = ExpertStoreReader(path)
        except ConfigError:
            return
        with reader:
            h = reader.header
            size = path.stat().st_size
            for layer in range(h.num_expert_layers):
                assert h.layer_offsets[0] <= h.record_offset(layer, 0)
                assert h.record_offset(layer, h.vocab_size - 1) + h.record_bytes <= size
                assert reader.read_record(layer, h.vocab_size - 1).nbytes == h.record_bytes

    @pytest.mark.parametrize("key_dim", [0, 2])
    def test_kind_follows_key_dim(self, key_dim):
        h = ExpertStoreHeader(dtype="fp32", vocab_size=4, num_experts=1, hidden_size=4, key_dim=key_dim,
                              layer_offsets=(20,))
        assert h.kind == ("molkv" if key_dim else "mole")


class TestReparameterize:
    def test_zero_embedding_row_exports_zero_record(self):
        model = init_model(tiny_config("mole"), seed=0, dtype=np.float64, init_std=0.3)
        model.embedding.data[5] = 0.0
        tables = reparameterize(model)
        assert np.array_equal(tables.values[0][5], np.zeros_like(tables.values[0][5]))

    def test_two_exports_bit_identical(self):
        model = init_model(tiny_config("molkv"), seed=1, dtype=np.float64, init_std=0.3)
        a = reparameterize(model)
        b = reparameterize(model)
        for la, lb in zip(a.values, b.values):
            assert np.array_equal(la, lb)
        for la, lb in zip(a.keys, b.keys):
            assert np.array_equal(la, lb)

    def test_molkv_tables_match_per_id_computation(self):
        model = init_model(tiny_config("molkv"), seed=2, dtype=np.float64, init_std=0.3)
        tables = reparameterize(model)
        block = model.layers[0].block
        for token in (0, 7, 16):
            keys, values = molkv_expert_pairs(Tensor(model.embedding.data[token]), block)
            np.testing.assert_allclose(tables.keys[0][token], keys.data, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(tables.values[0][token], values.data, rtol=1e-12, atol=1e-14)

    def test_infer_equals_train_after_export(self):
        rng = np.random.default_rng(3)
        model = init_model(tiny_config("mole"), seed=4, dtype=np.float64, init_std=0.3)
        tables = reparameterize(model)
        block = model.layers[1].block
        for _ in range(10):
            h = rng.standard_normal(12)
            token = int(rng.integers(0, 17))
            want = mole_expert_terms(Tensor(h), *lookup_distinct(model.embedding, token), block).data
            got = mole_step(h, tables.values[1][token], block)
            rel = np.abs(got - want).max() / (np.abs(want).max() + 1e-300)
            assert rel < 1e-6

    def test_dense_has_nothing_to_export(self):
        model = init_model(ModelConfig(kind="dense", num_layers=1, hidden_size=8, ffn_size=8,
                                       vocab_size=8, num_heads=2), seed=0)
        with pytest.raises(ValueError):
            reparameterize(model)


class TestFileRoundTrip:
    @pytest.mark.parametrize("kind", ["mole", "molkv"])
    @pytest.mark.parametrize("dtype,np_dtype", [("fp32", np.float32), ("fp16", np.float16), ("fp64", np.float64)])
    def test_bit_exact_roundtrip(self, tmp_path, dtype, np_dtype, kind):
        cfg = tiny_config(kind)
        tables = reparameterize(init_model(cfg, seed=5, dtype=np.float64, init_std=0.3))
        path = tmp_path / f"store_{dtype}.mlkv"
        assert write_store(tables, path, dtype=dtype).kind == kind
        with ExpertStoreReader(path) as reader:
            for layer in range(tables.num_expert_layers):
                for token in range(17):
                    rec = reader.read_record(layer, token)
                    assert rec.keys.shape == (cfg.num_experts, cfg.key_dim)  # (N, 0) for lookup experts
                    assert rec.keys.dtype == rec.values.dtype == np_dtype
                    assert np.array_equal(rec.keys, tables.keys[layer][token].astype(np_dtype))
                    assert np.array_equal(rec.values, tables.values[layer][token].astype(np_dtype))

    @pytest.mark.parametrize("dtype", ["fp16", "fp32", "fp64"])
    def test_lookup_payload_is_the_value_tables(self, tmp_path, dtype):
        # zero-width keys add no bytes: the records are the value tables, layer after layer
        tables = reparameterize(init_model(tiny_config("mole"), seed=5, dtype=np.float64, init_std=0.3))
        header = write_store(tables, tmp_path / "s.mlkv", dtype=dtype)
        payload = b"".join(v.astype(NUMPY_DTYPES[dtype]).tobytes() for v in tables.values)
        assert (tmp_path / "s.mlkv").read_bytes()[header.layer_offsets[0]:] == payload

    def test_byte_counter_counts_single_records(self, tmp_path):
        model = init_model(tiny_config("mole"), seed=6, dtype=np.float64, init_std=0.3)
        tables = reparameterize(model)
        path = tmp_path / "store.mlkv"
        write_store(tables, path, dtype="fp32")
        with ExpertStoreReader(path) as reader:
            expect = reader.header.record_bytes
            assert expect == 3 * 12 * 4  # N * d * itemsize, no keys
            for i, (layer, token) in enumerate([(0, 0), (1, 16), (0, 5)], start=1):
                rec = reader.read_record(layer, token)
                assert rec.nbytes == expect
                assert reader.bytes_read == i * expect
                assert reader.reads == i

    def test_totals_exact_under_shared_readers(self, tmp_path):
        model = init_model(tiny_config("mole"), seed=6, dtype=np.float64, init_std=0.3)
        path = tmp_path / "store.mlkv"
        write_store(reparameterize(model), path, dtype="fp32")
        n_threads, n = 4, 2000
        with ExpertStoreReader(path) as reader:
            start = threading.Barrier(n_threads)

            def work(seed):
                start.wait()
                for i in range(n):
                    reader.read_record((seed + i) % 2, (seed * 7 + i) % 17)

            threads = [threading.Thread(target=work, args=(s,)) for s in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert reader.reads == n_threads * n
            assert reader.bytes_read == n_threads * n * reader.header.record_bytes

    def test_out_of_range_lookups(self, tmp_path):
        model = init_model(tiny_config("mole"), seed=7, dtype=np.float64, init_std=0.3)
        write_store(reparameterize(model), tmp_path / "s.mlkv", dtype="fp32")
        with ExpertStoreReader(tmp_path / "s.mlkv") as reader:
            with pytest.raises(RecordLookupError):
                reader.read_record(0, 17)  # id == |V|
            with pytest.raises(RecordLookupError):
                reader.read_record(2, 0)
            with pytest.raises(RecordLookupError):
                reader.read_record(-1, 0)

    def test_truncated_file_rejected(self, tmp_path):
        model = init_model(tiny_config("mole"), seed=8, dtype=np.float64, init_std=0.3)
        path = tmp_path / "s.mlkv"
        write_store(reparameterize(model), path, dtype="fp32")
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(ConfigError):
            ExpertStoreReader(path)

    def test_trailing_byte_rejected(self, tmp_path):
        path, _, data = _store(tmp_path)
        path.write_bytes(data + b"\x00")
        with pytest.raises(ConfigError, match="expert store with 1 trailing bytes"):
            ExpertStoreReader(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.mlkv"
        path.write_bytes(b"not a store" + b"\x00" * 100)
        with pytest.raises(ConfigError):
            ExpertStoreReader(path)

    def test_fp16_store_still_close_to_train(self, tmp_path):
        rng = np.random.default_rng(9)
        model = init_model(tiny_config("mole"), seed=10, dtype=np.float64, init_std=0.3)
        tables = reparameterize(model)
        path = tmp_path / "s16.mlkv"
        write_store(tables, path, dtype="fp16")
        layer = model.layers[0]
        block = layer.block
        with ExpertStoreReader(path) as reader:
            for _ in range(10):
                h = rng.standard_normal(12)
                token = int(rng.integers(0, 17))
                values = reader.read_record(0, token).values.astype(np.float64)
                # the block outputs h + FFN(h) + expert term
                shared = h + swishglu_ffn_np(h, layer.ffn)
                got = shared + mole_step(h, values, block)
                want = shared + mole_expert_terms(Tensor(h), *lookup_distinct(model.embedding, token), block).data
                rel = np.abs(got - want).max() / (np.abs(want).max() + 1e-300)
                assert rel < 1e-2  # fp16 degrades gracefully

    def test_values_beyond_fp16_rejected(self, tmp_path):
        tables = reparameterize(init_model(tiny_config("mole"), seed=0, dtype=np.float64, init_std=8.0))
        assert max(np.abs(v).max() for v in tables.values) > np.finfo(np.float16).max
        path = tmp_path / "big.mlkv"

        def refused_fp16_export():
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the error replaces numpy's cast warning
                with pytest.raises(ConfigError, match=r"layer 0 .*max \|value\| .*fp16 max 6\.55e\+04"):
                    write_store(tables, path, dtype="fp16")

        refused_fp16_export()
        assert os.listdir(tmp_path) == []  # no file at the path, and no partial file beside it
        write_store(tables, path, dtype="fp32")
        fp32_store = path.read_bytes()
        refused_fp16_export()
        assert os.listdir(tmp_path) == ["big.mlkv"] and path.read_bytes() == fp32_store
        with ExpertStoreReader(path) as reader:
            assert reader.header.dtype == "fp32"


class TestCountParams:
    def test_published_totals(self):
        assert count_params(published_config("mole"), "experts-only") == 1_648_361_472
        assert count_params(published_config("molkv"), "experts-only") == 1_647_959_040
        assert count_params(published_config("dense"), "experts-only") == 0

    def test_formula_matches_offload_column(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(1, 9)) * 4
            n_layers = int(rng.integers(1, 5))
            n_exp = int(rng.integers(1, n_layers + 1))
            cfg = ModelConfig(
                kind="molkv",
                num_layers=n_layers,
                hidden_size=d,
                ffn_size=int(rng.integers(4, 33)),
                vocab_size=int(rng.integers(2, 100)),
                num_experts=int(rng.integers(1, 5)),
                key_dim=2 * int(rng.integers(1, 5)),
                cache_window=int(rng.integers(1, 9)),
                top_k=int(rng.integers(1, 5)),
                expert_layers=tuple(range(n_exp)),
                num_heads=2,
            )
            per_layer = cfg.num_experts * cfg.vocab_size * (cfg.hidden_size + cfg.key_dim)
            assert count_params(cfg, "experts-only") == per_layer * n_exp

    def test_conventions_are_consistent(self):
        cfg = published_config("molkv")
        experts = count_params(cfg, "experts-only")
        backbone = count_params(cfg, "backbone-only")
        assert count_params(cfg, "experts+backbone") == experts + backbone
        assert backbone > 0

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            count_params(published_config("dense"), "everything")

    def test_model_tensor_count_matches_backbone_convention(self):
        # backbone-only counts RAM-resident inference parameters: the live
        # model minus the (reparameterized-away) expert FFNs
        cfg = tiny_config("molkv")
        model = init_model(cfg, seed=12)
        total = sum(t.data.size for _, t in model.named_parameters())
        expert_ffns = 0
        for li in cfg.expert_layers:
            block = model.layers[li].block
            for e in block.key_experts + block.value_experts:
                expert_ffns += sum(t.data.size for _, t in named_tensors(e))
        assert count_params(cfg, "backbone-only") == total - expert_ffns
