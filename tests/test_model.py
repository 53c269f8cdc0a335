"""Backbones: deterministic init, attachment-driven forwards, adapter slots."""

import numpy as np
import pytest

from amlora import autodiff as ad
from amlora.adapters import AdapterStack
from amlora.autodiff import Tensor, finite_diff_check
from amlora.errors import ConfigError, DimensionError
from amlora.model import ADAPTER_SITES, Backbone, ModelConfig, build_model
from amlora.selector import AttentionalSelector
from reference import merged_weight

SMALL = dict(vocab_size=32, embed_dim=8, num_layers=1, num_heads=2,
             seq_len=6, num_classes=3, dropout_rate=0.0)


def small_model(seed=0, **kw):
    return build_model(ModelConfig(**{**SMALL, **kw}), seed)


def token_batch(cfg_vocab=32, b=5, L=6, seed=0):
    return np.random.default_rng(seed).integers(0, cfg_vocab, size=(b, L))


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(backbone="rnn").validate()
    with pytest.raises(ConfigError):
        ModelConfig(embed_dim=30, num_heads=4).validate()
    with pytest.raises(ConfigError):
        ModelConfig(adapter_sites=("query", "gate")).validate()
    with pytest.raises(ConfigError):
        ModelConfig(adapter_sites=()).validate()
    with pytest.raises(ConfigError):
        ModelConfig(dropout_rate=1.0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(backbone="mlp", adapter_sites=("query",)).validate()
    ModelConfig(backbone="mlp", adapter_sites=("ffn",)).validate()


def test_build_is_deterministic():
    a, b = small_model(seed=3), small_model(seed=3)
    c = small_model(seed=4)
    for (na, pa), (_, pb) in zip(a.base_parameters(), b.base_parameters()):
        assert pa.data.tobytes() == pb.data.tobytes(), na
    assert a.embedding.data.tobytes() != c.embedding.data.tobytes()


def test_init_distribution():
    m = build_model(ModelConfig(), seed=0)
    w = m.layers[0]["query"].w0.data
    assert abs(w.std() - 0.02) < 0.006
    assert np.all(m.layers[0]["query"].bias.data == 0.0)
    assert np.all(m.classifier.bias.data == 0.0)


def test_default_base_param_count():
    # d=32, 2 layers, 4-head attention, ffn x4, vocab 128, 4 classes.
    m = build_model(ModelConfig(), seed=0)
    total = sum(p.size for _, p in m.base_parameters())
    assert total == 29380


def test_forward_shapes_and_eval_determinism():
    m = small_model()
    ids = token_batch()
    out1 = m.forward(ids, mode="eval")
    out2 = m.forward(ids)
    assert out1.data.shape == (5, 3)
    assert out1.data.tobytes() == out2.data.tobytes()


def test_vocab_and_shape_validation():
    m = small_model()
    with pytest.raises(ValueError, match="vocabulary"):
        m.forward(np.array([[0, 99]]))
    with pytest.raises(ValueError, match="vocabulary"):
        m.forward(np.array([[-1, 0]]))
    with pytest.raises(DimensionError):
        m.forward(np.array([1, 2, 3]))
    with pytest.raises(ConfigError):
        m.forward(token_batch(), mode="test")


def test_no_grad_forward_sorts_nothing(monkeypatch):
    # layer 0's distinct-token table is found with a presence mask, not a sort
    def no_sort(*args, **kwargs):
        raise AssertionError("sorted at inference")

    m = build_model(ModelConfig(), seed=0)
    ids = token_batch(cfg_vocab=128, b=100, L=16)
    for name in ("unique", "sort", "argsort"):
        monkeypatch.setattr(np, name, no_sort)
    with ad.no_grad():
        assert m.forward(ids).data.shape == (100, 4)


def test_single_layer_attention_numpy_oracle():
    # Re-derive one encoder layer with raw numpy and compare end to end.
    m = small_model(seed=7)
    ids = token_batch(seed=1)
    got = m.forward(ids, mode="eval").data

    layer = m.layers[0]
    b, L, d, nh = 5, 6, 8, 2
    dh = d // nh
    x = m.embedding.data[ids]

    def lin(site, z):
        return z @ site.w0.data.T + site.bias.data

    q = lin(layer["query"], x).reshape(b, L, nh, dh).transpose(0, 2, 1, 3)
    k = lin(layer["key"], x).reshape(b, L, nh, dh).transpose(0, 2, 1, 3)
    v = lin(layer["value"], x).reshape(b, L, nh, dh).transpose(0, 2, 1, 3)
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(b, L, d)
    x = x + lin(layer["output"], ctx)
    h = np.maximum(lin(layer["ffn"], x), 0.0)
    x = x + h @ layer["ffn2"].w0.data.T + layer["ffn2"].bias.data
    expect = x.mean(axis=1) @ m.classifier.w0.data.T + m.classifier.bias.data
    assert np.max(np.abs(got - expect)) < 1e-12


def attach_random_stacks(m, n_tasks=2, rank=2, alpha=4.0, spread=0.3, seed=0,
                         gated=True):
    rng = np.random.default_rng(seed)
    for name, site in m.sites.items():
        stack = AdapterStack(site.d_out, site.d_in, rank=rank, alpha=alpha)
        for t in range(n_tasks):
            a = stack.begin_task(seed=t)
            a.B.data = rng.normal(0.0, spread, size=a.B.data.shape)
        site.stack = stack
        site.selector = (AttentionalSelector(len(stack), site.d_out)
                         if gated else None)


def test_base_rule_ignores_attached_stacks():
    # A site without a stack runs the plain base even with its selector
    # still attached, as the checkpoint loader leaves a 0-adapter site.
    m = small_model(seed=2)
    ids = token_batch(seed=3)
    plain = m.forward(ids).data
    attach_random_stacks(m)
    for site in m.sites.values():
        site.stack = None
    assert m.forward(ids).data.tobytes() == plain.tobytes()


def test_sum_rule_matches_merged_weights():
    # Route A: per-adapter low-rank sums in the live model (a stack without
    # a selector). Route B: a twin model whose site weights are densely
    # merged. Outputs must coincide.
    m = small_model(seed=5)
    attach_random_stacks(m, n_tasks=3, seed=11, gated=False)
    ids = token_batch(seed=4)
    got = m.forward(ids).data

    twin = small_model(seed=5)
    for name, site in m.sites.items():
        twin.sites[name].w0.data = merged_weight(site.stack, site.w0)
    expect = twin.forward(ids).data
    assert np.max(np.abs(got - expect)) < 1e-10


def test_fresh_adapters_do_not_change_forward():
    # B starts at zero, so the unweighted sum (no selector) and the gated
    # mix must reproduce the base forward exactly on attachment.
    for gated in (False, True):
        m = small_model(seed=6)
        ids = token_batch(seed=5)
        plain = m.forward(ids).data
        for site in m.sites.values():
            stack = AdapterStack(site.d_out, site.d_in, rank=2, alpha=4.0)
            stack.begin_task(seed=0)
            site.stack = stack
            site.selector = AttentionalSelector(2, site.d_out) if gated else None
        assert np.array_equal(m.forward(ids).data, plain)


def test_dropout_modes():
    m = small_model(dropout_rate=0.4)
    ids = token_batch()
    with pytest.raises(ConfigError, match="rng"):
        m.forward(ids, mode="train")
    t1 = m.forward(ids, mode="train", rng=np.random.default_rng(0)).data
    t2 = m.forward(ids, mode="train", rng=np.random.default_rng(1)).data
    ev = m.forward(ids, mode="eval").data
    assert not np.array_equal(t1, t2)
    assert not np.array_equal(t1, ev)
    m0 = small_model(dropout_rate=0.0)
    assert np.array_equal(m0.forward(ids, mode="train").data,
                          m0.forward(ids, mode="eval").data)


def test_set_base_trainable():
    m = small_model()
    assert all(not p.requires_grad for _, p in m.base_parameters())
    m.set_base_trainable(True)
    assert all(p.requires_grad for _, p in m.base_parameters())
    names = [n for n, _ in m.base_parameters()]
    assert len(names) == len(set(names))
    assert "embedding" in names and "classifier.w" in names


def test_mlp_backbone_forward_and_validation():
    cfg = ModelConfig(backbone="mlp", embed_dim=8, num_layers=2, num_heads=1,
                      num_classes=3, dropout_rate=0.0, adapter_sites=("ffn",))
    m = build_model(cfg, seed=0)
    assert m.embedding is None
    x = np.random.default_rng(0).normal(size=(4, 8))
    out = m.forward(x)
    assert out.data.shape == (4, 3)
    with pytest.raises(DimensionError):
        m.forward(np.zeros((4, 5)))
    assert set(m.sites) == {"layers.0.ffn", "layers.1.ffn"}


def test_mlp_grads_match_finite_difference():
    cfg = ModelConfig(backbone="mlp", embed_dim=6, num_layers=2, num_heads=1,
                      num_classes=3, dropout_rate=0.0, adapter_sites=("ffn",))
    m = build_model(cfg, seed=3)
    m.set_base_trainable(True)
    x = np.random.default_rng(1).normal(size=(5, 6))
    y = np.array([0, 1, 2, 1, 0])
    params = [p for _, p in m.base_parameters()]

    def loss_fn(_params):
        return ad.cross_entropy(m.forward(x, mode="train"), y)

    assert finite_diff_check(loss_fn, params) < 1e-6


def test_transformer_grads_match_finite_difference():
    m = small_model(seed=9)
    m.set_base_trainable(True)
    ids = token_batch(seed=7, b=3)
    y = np.array([0, 2, 1])
    params = [p for _, p in m.base_parameters()]

    def loss_fn(_params):
        return ad.cross_entropy(m.forward(ids, mode="train"), y)

    # Deep composition at 0.02-scale init: central differences carry more
    # truncation noise than for the shallow cases, hence the looser bound.
    assert finite_diff_check(loss_fn, params) < 1e-4
