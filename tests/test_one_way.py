"""One way to do each thing: ops go through the functional autodiff API,
evaluation has one batch default, report rows are built once, what a method
attaches decides each site's forward, each verb accepts only the inputs it
reads, each value has one owner, each choice set and rule is defined once,
and the per-op reference path lives with the tests, not in the package."""

import ast
import csv
import dataclasses
import inspect
import os

import pytest

import amlora
import amlora.cli as cli
from amlora import adapters, configfile, harness, model, selector
from amlora.autodiff import Tensor
from amlora.cli import parse_and_dispatch
from amlora.harness import MetricsReport, TrainConfig, emit_report

TINY = ["d=16", "heads=2", "layers=1", "seq_len=6", "vocab=64", "tasks=2",
        "classes=2", "train_per_task=24", "eval_per_task=8", "r=2",
        "alpha=4", "pretrain_epochs=0", "sig_tokens=2"]
MLP = ["generator=rotated_gaussian", "backbone=mlp", "sites=ffn"]


def _ov(extra=()):
    return [a for kv in TINY + list(extra) for a in ("--override", kv)]


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def test_tensor_has_no_operator_sugar():
    for name in ("__add__", "__radd__", "__sub__", "__neg__", "__mul__",
                 "__rmul__", "__matmul__", "shape", "zero_grad"):
        assert name not in Tensor.__dict__, name
    with pytest.raises(TypeError):
        Tensor([1.0]) + Tensor([2.0])


def test_train_config_has_no_eval_batch():
    assert "eval_batch" not in {f.name for f in dataclasses.fields(TrainConfig)}


def test_trajectory_rows_are_metrics_rows_by_eval_task(tmp_path):
    reports = [MetricsReport("seqft", s, "order1",
                             acc=[[0.5], [0.25, 0.75], [0.125, 0.375, 1.0]],
                             trainable_per_task=[3, 3, 3]) for s in (0, 1)]
    emit_report(reports, str(tmp_path))
    metrics = _read_rows(tmp_path / "metrics.csv")
    traj = _read_rows(tmp_path / "trajectory.csv")
    assert len(metrics) == 12
    want = []
    for seed in ("0", "1"):
        rows = [r for r in metrics if r["seed"] == seed]
        want += sorted(rows, key=lambda r: (int(r["eval_task"]),
                                            int(r["after_task"])))
    assert traj == want


@pytest.mark.parametrize("verb", ["run", "inspect-gates"])
def test_empty_seed_list_is_a_config_error(tmp_path, capsys, verb):
    for seeds in (",", ""):
        rc = parse_and_dispatch([verb, "--out-dir", str(tmp_path), "--seeds",
                                 seeds] + _ov())
        assert rc == 1
        assert "seed list is empty" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "metrics.csv")


@pytest.mark.parametrize("flag,what", [("--methods", "method"),
                                       ("--orders", "order")])
def test_empty_method_or_order_list_is_a_config_error(tmp_path, capsys, flag,
                                                      what):
    for text in (",", ""):
        rc = parse_and_dispatch(["run", "--out-dir", str(tmp_path), flag, text]
                                + _ov())
        assert rc == 1
        assert f"{what} list is empty" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("flag,text,item", [
    ("--seeds", "0,0", "0"), ("--seeds", "1,0,00", "0"),
    ("--methods", "seqft,seqft", "'seqft'"),
    ("--orders", "order1,order1", "'order1'")])
def test_repeated_list_item_is_a_config_error(tmp_path, capsys, monkeypatch,
                                              flag, text, item):
    # a repeated item would write each of its metrics.csv rows twice, which
    # report rejects; it is compared after parsing, so 0 and 00 repeat
    ran = []
    monkeypatch.setattr(cli, "_try_cell", ran.append)
    out = tmp_path / "o"
    rc = parse_and_dispatch(["run", "--out-dir", str(out), flag, text] + _ov())
    assert rc == 1
    assert f"error: {flag} lists {item} twice" in capsys.readouterr().err
    assert ran == [] and not out.exists()
    # distinct order ids stay legal even where they give the same stream
    cfg = configfile.check_config(configfile.apply_overrides(
        configfile.default_config(), ["tasks=3"]))
    assert cli._parse_csv_list("order1,order2", "order", "--orders",
                               cfg) == ["order1", "order2"]


def test_inspect_gates_takes_one_seed(tmp_path, capsys, monkeypatch):
    trained = []
    monkeypatch.setattr(cli, "_run_cell", lambda *a: trained.append(a))
    rc = parse_and_dispatch(["inspect-gates", "--out-dir", str(tmp_path),
                             "--seeds", "0,1"] + _ov())
    assert rc == 1
    assert "--seeds" in capsys.readouterr().err
    assert trained == []
    assert not os.path.exists(tmp_path / "gates.csv")


def test_no_forward_rule_knob_in_the_package():
    src = os.path.dirname(amlora.__file__)
    offenders = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                text = f.read()
            offenders += [(name, knob) for knob in
                          ("set_rule", "FORWARD_RULES", "rule_index")
                          if knob in text]
    assert offenders == []


def test_all_failing_grid_writes_nothing_and_says_so(tmp_path, capsys):
    out = str(tmp_path / "o")
    rc = parse_and_dispatch(["run", "--out-dir", out, "--methods",
                             "seqft,amlora"] + _ov(["vocab=12"]))
    assert rc == 2
    text = capsys.readouterr().out
    assert text.count("FAILED") == 2
    assert "wrote" not in text
    assert not os.path.exists(os.path.join(out, "metrics.csv"))


def test_rotated_gaussian_runs_on_the_mlp(tmp_path):
    out = str(tmp_path / "o")
    rc = parse_and_dispatch(["run", "--out-dir", out, "--methods",
                             "seqft,amlora"] + _ov(MLP))
    assert rc == 0
    rows = _read_rows(os.path.join(out, "metrics.csv"))
    assert {r["method"] for r in rows} == {"seqft", "amlora"}
    assert len(rows) == 6


@pytest.mark.parametrize("argv", [
    ["report", "--jobs", "2"],
    ["verify-ortho", "--seeds", "1"],
    ["report", "--override", "lr=1"],
    ["grad-check", "--jobs", "2"],
    ["report", "--config", "x.cfg"],
    ["verify-ortho", "--override", "lr=1"],
    ["grad-check", "--seeds", "1"],
    ["grad-check", "--seed", "1"],  # grad-check writes no file: no --out-dir
    ["inspect-gates", "--jobs", "2"],
])
def test_verb_rejects_flags_it_does_not_read(tmp_path, argv):
    assert parse_and_dispatch(argv + ["--out-dir", str(tmp_path)]) == 1
    assert not os.listdir(tmp_path)


def test_each_value_has_one_owner_and_no_test_only_parameter():
    # lambda lives on the method spec, the AR/NR rule reads the selector's
    # variant, an adapter's index is its position in the stack, and
    # ModelConfig's positive ints are listed once, in amlora.model.
    assert not hasattr(selector.AttentionalSelector(1, 4), "lam")
    for fn, name in ((selector.AttentionalSelector, "lam"),
                     (selector.trainable_set, "variant"),
                     (harness.run_stream, "out_dir"),
                     (configfile.parse_config, "base"),
                     (configfile.load_config, "base"),
                     (configfile.to_method_spec, "method"),
                     (adapters.new_adapter, "task_id")):
        assert name not in inspect.signature(fn).parameters, (fn, name)
    assert not hasattr(model, "forward") and not hasattr(amlora, "forward")
    src = os.path.dirname(amlora.__file__)
    offenders = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                text = f.read()
            # tasks.py keeps TaskSpec.task_id, a task's id in the stream
            words = ("current_task", "_CONFIG_INTS") + (
                () if name == "tasks.py" else ("task_id",))
            offenders += [(name, w) for w in words if w in text]
    assert offenders == []


def test_a_stack_holds_only_its_task_adapters():
    # the gate's route 0, the base model alone, is head 0 and no object, and
    # a selector is built by its class
    assert not hasattr(adapters.new_adapter(8, 8, rank=2), "is_zero")
    stack = adapters.AdapterStack(8, 8, rank=2)
    assert not hasattr(stack, "adapters") and len(stack) == 1
    assert not hasattr(selector, "selector_init")


@pytest.mark.parametrize("cfg", [
    model.ModelConfig(vocab_size=16, embed_dim=8, num_layers=2, num_heads=2,
                      seq_len=4),
    model.ModelConfig(backbone="mlp", embed_dim=8, num_layers=2,
                      adapter_sites=("ffn",))])
def test_every_projection_is_an_adapted_linear_that_owns_its_names(cfg):
    # each linear's name is the one source of its parameter names, and a
    # site is wired by assigning its stack and selector
    m = model.build_model(cfg, seed=0)
    lins = [lin for layer in m.layers for lin in layer.values()]
    lins.append(m.classifier)
    assert all(isinstance(lin, model.AdaptedLinear) for lin in lins)
    names = ["embedding"] if cfg.backbone == "transformer" else []
    for lin in lins:
        names += [f"{lin.name}.w", f"{lin.name}.b"]
    assert [n for n, _ in m.base_parameters()] == names
    assert not hasattr(model.AdaptedLinear, "attach")
    assert not hasattr(m, "classifier_w")
    assert not hasattr(model.ModelConfig, "head_dim")


def test_each_choice_set_and_the_sites_rule_are_defined_once():
    # the backbones and the sites rule live in model.py, the optimizers in
    # autodiff.py; the cli parses list flags with their config keys' parsers
    literals = ('"transformer", "mlp"', '"adam", "sgd"', '"sgd", "adam"',
                "set(ADAPTER_SITES)")
    where = {lit: [] for lit in literals}
    src = os.path.dirname(amlora.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                text = f.read()
            for lit in literals:
                where[lit] += [name] * text.count(lit)
    assert where == {'"transformer", "mlp"': ["model.py"],
                     '"adam", "sgd"': ["autodiff.py"], '"sgd", "adam"': [],
                     "set(ADAPTER_SITES)": ["model.py"]}
    assert not hasattr(configfile, "parse_seed")
    assert "valid" not in inspect.signature(cli._parse_csv_list).parameters
    assert not hasattr(cli, "METHODS") and not hasattr(cli, "ORDERS")


# the chains and dense views that only tests read, now in tests/reference.py
REFERENCE_ONLY = {"adapter_apply", "merged_weight", "materialized", "frozen",
                  "outputs", "l1_norm", "index_last", "reshape", "sum_all",
                  "item"}


def test_the_package_defines_no_reference_only_name():
    src = os.path.dirname(amlora.__file__)
    offenders = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    defined = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    defined = []
                offenders += [(name, d) for d in defined
                              if d in REFERENCE_ONLY]
    assert offenders == []
    assert REFERENCE_ONLY.isdisjoint(amlora.__all__)


def test_the_l1_term_has_one_owner():
    # AmLoraDriver.extra_loss records one l1_sum over every site's heads; a
    # per-selector helper split that sum by site and kept its own lam = 0 rule
    src = os.path.dirname(amlora.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                assert "sparsity_loss" not in f.read(), name
    assert "sparsity_loss" not in amlora.__all__


def test_gates_are_handed_back_per_call_and_no_site_holds_them():
    # a switch on a shared object turned off the eval threads and the
    # layer-0 table, and two eval parts writing one slot would race
    src = os.path.dirname(amlora.__file__)
    offenders = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                text = f.read()
            offenders += [(name, "gate_capture")] * ("gate_capture" in text)
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                    args = node.args
                    offenders += [(name, a.arg) for a in
                                  args.posonlyargs + args.args + args.kwonlyargs
                                  if a.arg == "capture"]
    assert offenders == []
