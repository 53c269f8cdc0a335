"""Checkpoint format: bit-exact round trips and corruption handling."""

import hashlib
import os
import struct
import tracemalloc

import numpy as np
import pytest

from amlora.baselines import MethodSpec, make_driver
from amlora.checkpoint import (_read_records, _tensors, load_checkpoint,
                               save_checkpoint)
from amlora.errors import CheckpointFormatError
from amlora.model import ModelConfig, build_model
from reference import frozen

CFG = ModelConfig(vocab_size=32, embed_dim=8, num_layers=1, num_heads=2,
                  seq_len=6, num_classes=3, dropout_rate=0.0,
                  adapter_sites=("query", "value"))


def gated_model(n_tasks=2, seed=0):
    """Model with n trained-looking adapters and randomized heads."""
    model = build_model(CFG, seed)
    driver = make_driver(MethodSpec("amlora", rank=2, alpha=4.0))
    driver.attach(model, seed=0)
    rng = np.random.default_rng(seed + 1)
    for t in range(n_tasks):
        driver.start_stage(model, t, seed=t)
        for site in model.sites.values():
            a = site.stack.task_adapters[-1]
            a.B.data = rng.normal(0.0, 0.2, size=a.B.data.shape)
            for h in site.selector.heads:
                h.data = rng.normal(0.0, 0.5, size=h.data.shape)
        driver.end_stage(model, t)
    return model


def batch(seed=0):
    return np.random.default_rng(seed).integers(0, 32, size=(5, 6))


def test_round_trip_bit_exact_logits(tmp_path):
    path = str(tmp_path / "model.ckpt")
    model = gated_model()
    ids = batch()
    want = model.forward(ids, mode="eval").data
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    got = loaded.forward(ids, mode="eval").data
    assert got.tobytes() == want.tobytes()
    assert loaded.config == model.config
    assert all(s.stack is not None and s.selector is not None
               for s in loaded.sites.values())
    # config scalars are stored as true rank-0 records
    records = _read_records(path)
    assert records["config.vocab_size"].shape == ()


def test_round_trip_plain_model(tmp_path):
    path = str(tmp_path / "plain.ckpt")
    model = build_model(CFG, seed=4)
    ids = batch(2)
    want = model.forward(ids, mode="eval").data
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.forward(ids, mode="eval").data.tobytes() == want.tobytes()
    assert all(s.stack is None for s in loaded.sites.values())


def test_loaded_model_is_inert(tmp_path):
    path = str(tmp_path / "inert.ckpt")
    save_checkpoint(gated_model(), path)
    loaded = load_checkpoint(path)
    assert all(not p.requires_grad for _, p in loaded.base_parameters())
    for site in loaded.sites.values():
        assert all(frozen(a) for a in site.stack.task_adapters)
        assert all(not h.requires_grad for h in site.selector.heads)


def test_record_counts_per_site(tmp_path):
    # n tasks: n adapter pairs and n+1 heads at every adapted site.
    for n in (1, 3):
        path = str(tmp_path / f"count{n}.ckpt")
        save_checkpoint(gated_model(n_tasks=n), path)
        records = _read_records(path)
        for site in ("layers.0.query", "layers.0.value"):
            a_keys = [k for k in records
                      if k.startswith(f"site.{site}.adapter") and k.endswith(".A")]
            b_keys = [k for k in records
                      if k.startswith(f"site.{site}.adapter") and k.endswith(".B")]
            h_keys = [k for k in records if k.startswith(f"site.{site}.head")]
            assert len(a_keys) == n and len(b_keys) == n
            assert len(h_keys) == n + 1


def test_save_is_atomic_and_overwrites(tmp_path):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(gated_model(seed=1), path)
    first = open(path, "rb").read()
    save_checkpoint(gated_model(seed=2), path)
    second = open(path, "rb").read()
    assert first != second
    assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


def test_truncated_file_rejected(tmp_path):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(gated_model(), path)
    blob = open(path, "rb").read()
    for cut in (len(blob) - 1, len(blob) // 2, 20):
        broken = str(tmp_path / f"cut{cut}.ckpt")
        with open(broken, "wb") as f:
            f.write(blob[:cut])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_checkpoint(broken)


def test_version_mismatch(tmp_path):
    path = str(tmp_path / "future.ckpt")
    with open(path, "wb") as f:
        f.write(b"AMLORA-CKPT 2\n")
    with pytest.raises(CheckpointFormatError, match="version 2"):
        load_checkpoint(path)


def test_corrupt_headers(tmp_path):
    cases = {"noise.bin": b"\x00\x01\x02 not a checkpoint \xff" * 4,
             "text.txt": b"accuracy,0.25\n",
             "badver.ckpt": b"AMLORA-CKPT x\n"}
    for name, payload in cases.items():
        path = str(tmp_path / name)
        with open(path, "wb") as f:
            f.write(payload)
        with pytest.raises(CheckpointFormatError, match="header"):
            load_checkpoint(path)


def _record(name: str, arr: np.ndarray) -> bytes:
    # asarray, not ascontiguousarray: config scalars must stay rank 0
    data = np.asarray(arr, dtype="<f8")
    if data.ndim:
        data = np.ascontiguousarray(data)
    nb = name.encode()
    out = struct.pack("<I", len(nb)) + nb + struct.pack("<I", data.ndim)
    out += struct.pack(f"<{data.ndim}I", *data.shape) + data.tobytes()
    return out


def test_missing_config_record(tmp_path):
    path = str(tmp_path / "empty.ckpt")
    with open(path, "wb") as f:
        f.write(b"AMLORA-CKPT 1\n")
    with pytest.raises(CheckpointFormatError, match="missing tensor record"):
        load_checkpoint(path)


def test_insane_record_fields_rejected(tmp_path):
    header = b"AMLORA-CKPT 1\n"
    bad_rank = header + struct.pack("<I", 1) + b"x" + struct.pack("<I", 9)
    bad_name = header + struct.pack("<I", 5000)
    for name, blob, msg in (("rank.ckpt", bad_rank, "rank"),
                            ("name.ckpt", bad_name, "name too long")):
        path = str(tmp_path / name)
        with open(path, "wb") as f:
            f.write(blob)
        with pytest.raises(CheckpointFormatError, match=msg):
            load_checkpoint(path)


def test_head_adapter_count_mismatch(tmp_path):
    # Remove one head record: the per-site n/n+1 relation must be enforced.
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(gated_model(), path)
    records = _read_records(path)
    del records["site.layers.0.query.head2"]
    broken = str(tmp_path / "broken.ckpt")
    with open(broken, "wb") as f:
        f.write(b"AMLORA-CKPT 1\n")
        for name, arr in records.items():
            f.write(_record(name, arr))
    with pytest.raises(CheckpointFormatError, match="heads"):
        load_checkpoint(broken)


def test_base_shape_mismatch(tmp_path):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(build_model(CFG, seed=0), path)
    records = _read_records(path)
    records["base.embedding"] = np.zeros((4, 4))
    broken = str(tmp_path / "reshaped.ckpt")
    with open(broken, "wb") as f:
        f.write(b"AMLORA-CKPT 1\n")
        for name, arr in records.items():
            f.write(_record(name, arr))
    with pytest.raises(CheckpointFormatError, match="shape"):
        load_checkpoint(broken)


def _write_records(path, records):
    with open(path, "wb") as f:
        f.write(b"AMLORA-CKPT 1\n")
        for name, arr in records.items():
            f.write(_record(name, arr))


@pytest.mark.parametrize("index", [0, 3, 99, -1])
def test_retired_rule_index_record_is_ignored(tmp_path, index):
    # Files from earlier builds carry config.rule_index after the sites
    # mask; whatever it reads, what is attached decides the forward.
    path = str(tmp_path / "model.ckpt")
    model = gated_model()
    want = model.forward(batch(), mode="eval").data
    save_checkpoint(model, path)
    records = {}
    for name, arr in _read_records(path).items():
        records[name] = arr
        if name == "config.sites_mask":
            records["config.rule_index"] = None  # where earlier builds put it
    records["config.rule_index"] = np.asarray(float(index))
    old = str(tmp_path / "old.ckpt")
    _write_records(old, records)
    got = load_checkpoint(old).forward(batch(), mode="eval").data
    assert got.tobytes() == want.tobytes()


def test_non_utf8_record_name_rejected(tmp_path):
    path = str(tmp_path / "name.ckpt")
    with open(path, "wb") as f:
        f.write(b"AMLORA-CKPT 1\n" + struct.pack("<I", 2) + b"\xff\xfe"
                + struct.pack("<I", 0) + struct.pack("<d", 1.0))
    with pytest.raises(CheckpointFormatError, match="not UTF-8"):
        load_checkpoint(path)


@pytest.mark.parametrize("name,value", [
    ("config.vocab_size", float("nan")),
    ("config.embed_dim", float("inf")),
    ("config.embed_dim", float("-inf")),
    ("config.adapter_rank", float("nan")),
    ("config.adapter_rank", float("inf")),
    ("config.num_heads", 2.5),
])
def test_noninteger_config_scalar_rejected(tmp_path, name, value):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(gated_model(), path)
    records = _read_records(path)
    records[name] = np.asarray(value)
    broken = str(tmp_path / "broken.ckpt")
    _write_records(broken, records)
    with pytest.raises(CheckpointFormatError, match=name):
        load_checkpoint(broken)



def _rewrite(tmp_path, name, change):
    """A saved gated model whose record ``name`` is ``change(old value)``."""
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(gated_model(), path)
    records = _read_records(path)
    records[name] = change(records[name])
    broken = str(tmp_path / "broken.ckpt")
    _write_records(broken, records)
    return broken


@pytest.mark.parametrize("name", [
    "config.vocab_size", "config.adapter_rank", "config.dropout_rate",
    "config.adapter_alpha", "config.backbone_is_mlp", "config.variant_is_ar",
])
def test_config_scalar_of_rank_one_rejected(tmp_path, name):
    broken = _rewrite(tmp_path, name, lambda old: np.full(2, old))
    with pytest.raises(CheckpointFormatError,
                       match=rf"{name}.*\(2,\), expected \(\)"):
        load_checkpoint(broken)


# CFG: d = 8, rank 2, so A is (2, 8), B is (8, 2) and a head is (8, 1)
@pytest.mark.parametrize("name,shape,want", [
    ("site.layers.0.query.adapter1.A", (2, 3), "(2, 8)"),
    ("site.layers.0.query.adapter2.A", (8, 2), "(2, 8)"),
    ("site.layers.0.value.adapter1.B", (2, 8), "(8, 2)"),
    ("site.layers.0.value.adapter2.B", (8, 3), "(8, 2)"),
    ("site.layers.0.query.head0", (8,), "(8, 1)"),
    ("site.layers.0.value.head2", (1, 8), "(8, 1)"),
])
def test_adapter_and_head_shapes_checked_at_load(tmp_path, name, shape,
                                                 want):
    broken = _rewrite(tmp_path, name, lambda old: np.ones(shape))
    with pytest.raises(CheckpointFormatError) as exc:
        load_checkpoint(broken)
    msg = str(exc.value)
    assert name in msg and str(shape) in msg and want in msg


def _load_small(path):
    """load_checkpoint under tracemalloc; the peak must stay a few MB."""
    tracemalloc.start()
    try:
        return load_checkpoint(path)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 4 * 2**20, f"load peaked at {peak} bytes"


# Values ModelConfig.validate rejects: an mlp flag on a query/value model,
# 3 heads at d = 8, a dropout rate above 1.
@pytest.mark.parametrize("name,value,field", [
    ("config.backbone_is_mlp", 1.0, "mlp backbone"),
    ("config.num_heads", 3.0, "num_heads 3"),
    ("config.dropout_rate", 1.5, "dropout_rate"),
])
def test_config_record_the_model_rejects_is_a_format_error(tmp_path, name,
                                                           value, field):
    broken = _rewrite(tmp_path, name, lambda old: np.asarray(value))
    with pytest.raises(CheckpointFormatError,
                       match=f"config records describe an invalid model.*{field}"):
        _load_small(broken)


def test_zero_extent_does_not_hide_an_overflowing_shape(tmp_path):
    # A flipped rank field makes the reader take data bytes as dims; a 0
    # among them used to pass the size cap and overflow numpy's reshape.
    path = str(tmp_path / "dims.ckpt")
    dims = (0, 2**32 - 1, 2**32 - 1)
    with open(path, "wb") as f:
        f.write(b"AMLORA-CKPT 1\n" + struct.pack("<I", 20)
                + b"config.adapter_alpha" + struct.pack("<I", len(dims))
                + struct.pack("<3I", *dims))
    with pytest.raises(CheckpointFormatError,
                       match="config.adapter_alpha: too large"):
        _load_small(path)


# Each of these sized a tensor in build_model before any shape check: 2**40
# asked for 128 TiB, 8.0 * 2**64 (one exponent-bit flip of 8.0) exceeded
# numpy's maximum dimension, and the rest allocated 8 MB to 300 MB.
@pytest.mark.parametrize("name,value", [
    ("config.embed_dim", 2.0**40),
    ("config.embed_dim", 8.0 * 2.0**64),
    ("config.embed_dim", 2048.0),
    ("config.vocab_size", 2.0**17),
    ("config.num_classes", 2.0**17),
    ("config.ffn_multiplier", 2.0**14),
    ("config.num_layers", 2.0**12),
])
def test_config_int_that_sizes_a_tensor_is_checked_first(tmp_path, name,
                                                         value):
    broken = _rewrite(tmp_path, name, lambda old: np.asarray(value))
    with pytest.raises(CheckpointFormatError, match=rf"record '{name}' is"):
        _load_small(broken)


def test_fuzzed_checkpoint_loads_or_raises_format_error(tmp_path):
    # Seeded truncations and single-bit flips of a two-adapter file. Every
    # outcome is a load or a CheckpointFormatError; a silent load (a flip in
    # the float data, say) is counted, not failed, since the format has no
    # checksum yet.
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(gated_model(), path)
    blob = open(path, "rb").read()
    rng = np.random.default_rng(0)
    broken = str(tmp_path / "broken.ckpt")
    loads = {"truncation": 0, "bit flip": 0}
    for trial in range(1000):
        mutated = bytearray(blob)
        kind = "truncation" if trial % 2 else "bit flip"
        if kind == "truncation":
            mutated = mutated[:int(rng.integers(0, len(blob)))]
        else:
            bit = int(rng.integers(0, 8 * len(blob)))
            mutated[bit // 8] ^= 1 << (bit % 8)
        with open(broken, "wb") as f:
            f.write(mutated)
        try:
            load_checkpoint(broken)
            loads[kind] += 1
        except CheckpointFormatError:
            pass
    print(f"silent loads of a {len(blob)}-byte file, of 500 each: {loads}")


# 5e-324 is 0.0 with its lowest bit set. ADAPTER_SITES order: query, key,
# value, output, ffn; CFG adapts query and value.
@pytest.mark.parametrize("name,value", [
    ("config.variant_is_ar", 5e-324),
    ("config.variant_is_ar", float("nan")),
    ("config.backbone_is_mlp", 5e-324),
    ("config.sites_mask", [1.0, 0.0, 1.0, 0.0, 5e-324]),
])
def test_flag_record_other_than_0_or_1_rejected(tmp_path, name, value):
    broken = _rewrite(tmp_path, name, lambda old: np.asarray(value))
    with pytest.raises(CheckpointFormatError,
                       match=rf"record '{name}' is .*, not 0 or 1"):
        load_checkpoint(broken)


MLP_CFG = ModelConfig(backbone="mlp", embed_dim=8, num_layers=2,
                      num_classes=3, dropout_rate=0.0, adapter_sites=("ffn",))


def staged_model(cfg, method, variant="AR", n_tasks=2):
    """An untrained model after ``n_tasks`` stages of ``method``."""
    model = build_model(cfg, seed=0)
    driver = make_driver(MethodSpec(method, rank=2, alpha=4.0,
                                    variant=variant))
    driver.attach(model, seed=0)
    for t in range(n_tasks):
        driver.start_stage(model, t, seed=t)
        driver.end_stage(model, t)
    return model


# sha256 of each model's format v1 file
PINNED = {
    "amlora AR": (lambda: staged_model(CFG, "amlora"),
        "7a05145c9055c5b38b9878886cc39b886fc71b8f6cc03a5f34e5f59cdbd07c26"),
    "amlora NR": (lambda: staged_model(CFG, "amlora", "NR"),
        "dd6572bf7f1af95c72e481ad0e50afbb9cf9e1eefdcb9904862a4e260c57076b"),
    "inclora": (lambda: staged_model(CFG, "inclora"),
        "3059418680dbd4e4a796e82b788c5f9b956a5eb7d9ad77f4d24dc85a963d0044"),
    "sinlora": (lambda: staged_model(CFG, "sinlora"),
        "a895a8adf875ff86300eace1f71cdbe519bf215f3d9ef692c2f9722ef4c6ed95"),
    "plain transformer": (lambda: build_model(CFG, seed=0),
        "af8a283f3eec682a6589b018b7158fafa4721122c51ca1a05b189dc47f5e731b"),
    "mlp amlora": (lambda: staged_model(MLP_CFG, "amlora"),
        "94094dbc157f88cfc579a8c37863f9a280b7707f2d5357b685cef1e79939eca0"),
}


@pytest.mark.parametrize("key", PINNED)
def test_format_v1_bytes_are_pinned(tmp_path, key):
    make, digest = PINNED[key]
    model = make()
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    with open(path, "rb") as f:
        got = hashlib.sha256(f.read()).hexdigest()
    assert got == digest, (f"{key}: format v1 bytes changed under numpy "
                           f"{np.__version__}; got {got}")
    names = list(_read_records(path))
    assert names == ([n for n in names if n.startswith("config.")]
                     + [n for n, _ in _tensors(model)])


@pytest.mark.parametrize("cfg", [CFG, MLP_CFG], ids=["transformer", "mlp"])
@pytest.mark.parametrize("n_tasks", [1, 3])
@pytest.mark.parametrize("method,variant", [
    ("seqft", "AR"), ("sinlora", "AR"), ("inclora", "AR"), ("amlora", "AR"),
    ("amlora", "NR")])
def test_round_trip_keeps_every_tensor_record(tmp_path, cfg, n_tasks, method,
                                              variant):
    model = staged_model(cfg, method, variant, n_tasks)
    rng = np.random.default_rng(n_tasks)
    for _, t in _tensors(model):  # no record left at its initial bytes
        t.data = rng.normal(size=t.data.shape)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)

    def view(m):
        return [(n, t.data.shape, t.data.tobytes()) for n, t in _tensors(m)]

    assert view(loaded) == view(model)
    assert not any(t.requires_grad for _, t in _tensors(loaded))
    assert loaded.config == model.config
    assert ([s.selector.variant for s in loaded.sites.values() if s.selector]
            == [s.selector.variant for s in model.sites.values() if s.selector])
