"""Each decision has one owner: config defaults, the atomic writer, report
metrics and what trains in each stage."""

import csv
import os
import re
import stat

import numpy as np
import pytest

import amlora
from amlora.atomic import atomic_write, write_csv
from amlora.baselines import MethodSpec, make_driver
from amlora.checkpoint import load_checkpoint, save_checkpoint
from amlora.cli import parse_and_dispatch
from amlora.configfile import (default_config, to_method_spec,
                               to_model_config, to_stream, to_train_config)
from amlora.harness import TrainConfig, pretrain_base
from amlora.model import ModelConfig, build_model
from amlora.tasks import build_stream

SRC = os.path.dirname(amlora.__file__)

TINY = ["d=16", "heads=2", "layers=1", "seq_len=6", "vocab=64", "tasks=2",
        "classes=2", "train_per_task=24", "eval_per_task=8", "r=2",
        "alpha=4", "pretrain_epochs=0", "sig_tokens=2"]


def _ov():
    return [a for kv in TINY for a in ("--override", kv)]


def test_library_defaults_equal_config_table():
    cfg = default_config()
    assert to_train_config(cfg) == TrainConfig()
    assert to_model_config(cfg) == ModelConfig()
    assert to_method_spec(cfg) == MethodSpec("amlora")
    assert to_stream(cfg) == build_stream()


def test_atomic_write_failed_payload_keeps_old_bytes(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write(str(path), "old\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write(str(path), "new \ud800\n")  # lone surrogate
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_write_failed_rename_removes_temp(tmp_path, monkeypatch):
    path = tmp_path / "out.bin"
    atomic_write(str(path), b"old")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        atomic_write(str(path), b"new")
    monkeypatch.undo()
    assert path.read_bytes() == b"old"
    assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]


def test_atomic_write_mode_and_no_directory_creation(tmp_path):
    path = tmp_path / "a.txt"
    atomic_write(str(path), "x")
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
    with pytest.raises(FileNotFoundError):
        atomic_write(str(tmp_path / "missing" / "a.txt"), "x")
    model = build_model(ModelConfig(vocab_size=16, embed_dim=8, num_layers=1,
                                    num_heads=2, seq_len=4, num_classes=2), 0)
    with pytest.raises(FileNotFoundError):
        save_checkpoint(model, str(tmp_path / "missing" / "m.bin"))


def test_write_csv_keeps_crlf_terminators(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["a", "b"], [[1, "x,y"], [2, repr(0.1)]])
    assert path.read_bytes() == b'a,b\r\n1,"x,y"\r\n2,0.1\r\n'


def test_only_the_writer_module_replaces_files():
    offenders = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name == "atomic.py":
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as f:
            if re.search(r"\bmkstemp\b|\bos\.replace\b", f.read()):
                offenders.append(name)
    assert offenders == []


def test_report_matches_summary_means(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert parse_and_dispatch(["run", "--out-dir", out, "--methods",
                               "seqft,amlora", "--seeds", "0,1"]
                              + _ov()) == 0
    capsys.readouterr()
    assert parse_and_dispatch(["report", "--out-dir", out]) == 0
    printed = {}
    for line in capsys.readouterr().out.splitlines():
        m = re.match(r"\s*(\w+)\s+(\d+)\s+([\d.]+)\+-\S+\s+([\d.]+)\+-", line)
        if m:
            printed[m.group(1)] = (int(m.group(2)), m.group(3), m.group(4))
    with open(os.path.join(out, "summary.csv"), newline="",
              encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert sorted(printed) == ["amlora", "seqft"]
    for method, (runs, acc, forget) in printed.items():
        mine = [r for r in rows if r["method"] == method]
        assert runs == len(mine) == 2
        assert acc == f"{np.mean([float(r['avg_accuracy']) for r in mine]):.4f}"
        assert forget == \
            f"{np.mean([float(r['mean_forgetting']) for r in mine]):.4f}"


@pytest.mark.parametrize("method,variant", [
    ("seqft", "AR"), ("sinlora", "AR"), ("inclora", "AR"), ("amlora", "AR"),
    ("amlora", "NR"), ("pertaskft", "AR"), ("mtl", "AR")],
    ids=["seqft", "sinlora", "inclora", "amlora-AR", "amlora-NR",
         "pertaskft", "mtl"])
def test_exactly_the_returned_list_trains(tmp_path, method, variant):
    # the driver's list is what the optimizer gets and all that trains; a
    # pretrained base and a loaded checkpoint train nothing
    cfg = ModelConfig(vocab_size=16, embed_dim=8, num_layers=1, num_heads=2,
                      seq_len=4, num_classes=2)
    stream = build_stream(num_tasks=1, num_classes=2, train_per_task=8,
                          eval_per_task=4, vocab=16, seq_len=4,
                          sig_tokens_per_class=2)
    model = pretrain_base(cfg, 0, stream, TrainConfig(pretrain_epochs=1), 0)
    assert not any(t.requires_grad for _, t in model.tensors())
    driver = make_driver(MethodSpec(method, rank=2, variant=variant))
    driver.attach(model, 0)
    for stage in range(3):
        params = driver.start_stage(model, stage, stage)
        trains = [t for _, t in model.tensors() if t.requires_grad]
        assert len(trains) == len(params)
        assert all(any(t is p for p in params) for t in trains)
    if method == "amlora":
        for site in model.sites.values():
            assert [h.requires_grad for h in site.selector.heads] == (
                [True] * 4 if variant == "AR" else [False] * 3 + [True])
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(model, path)
    assert not any(t.requires_grad for _, t in load_checkpoint(path).tensors())
