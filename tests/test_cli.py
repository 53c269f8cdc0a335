"""Exit codes, grid execution, verifier verbs, and report aggregation."""

import csv
import hashlib
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from amlora import cli
from amlora.cli import gradcheck_toy, parse_and_dispatch

# Small enough that a full grid cell trains in well under a second.
TINY = ["d=16", "heads=2", "layers=1", "seq_len=6", "vocab=64", "tasks=2",
        "classes=2", "train_per_task=24", "eval_per_task=8", "r=2",
        "alpha=4", "pretrain_epochs=0", "sig_tokens=2"]


def _ov(extra=()):
    out = []
    for kv in list(TINY) + list(extra):
        out += ["--override", kv]
    return out


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def test_run_writes_reports_and_digest(tmp_path, capsys):
    out = str(tmp_path / "o")
    rc = parse_and_dispatch(["run", "--out-dir", out] + _ov())
    assert rc == 0
    for name in ("metrics.csv", "summary.csv", "trajectory.csv",
                 "config_digest.txt", "overhead.txt"):
        assert os.path.exists(os.path.join(out, name)), name
    text = capsys.readouterr().out
    assert "final_avg_acc=" in text and "wrote" in text
    with open(os.path.join(out, "config_digest.txt")) as f:
        assert f.readline().startswith("digest=")


@pytest.mark.parametrize("sites,want", [
    # one shape: the per-site figure is every site's
    ("query,value", "per adapted site: 128 adapter + 48 selector params; "
     "selector share per site 1.1231% of base, total across 2 sites 2.2461%"),
    # the 16 -> 64 ffn site holds 2 rank-2 pairs of 80 columns and 3 heads
    # of 64, so each site gets its own figure and the total sums them
    ("query,ffn", "per adapted site: layers.0.query: 128 adapter + 48 "
     "selector params; selector share per site 1.1231% of base | "
     "layers.0.ffn: 320 adapter + 192 selector params; selector share per "
     "site 4.4923% of base, total across 2 sites 5.6153%")])
def test_overhead_counts_each_site(tmp_path, sites, want):
    out = str(tmp_path / "o")
    rc = parse_and_dispatch(["run", "--out-dir", out, "--methods",
                             "seqft,amlora"]
                            + _ov(["pretrain_epochs=1", f"sites={sites}"]))
    assert rc == 0
    with open(os.path.join(out, "overhead.txt"), encoding="utf-8") as f:
        assert f.read() == ("seqft: base parameters 4274, no adapters "
                            "attached\namlora: base parameters 4274; "
                            + want + "\n")


def test_run_rerun_byte_identical(tmp_path):
    outs = []
    for d in ("a", "b"):
        out = str(tmp_path / d)
        assert parse_and_dispatch(["run", "--out-dir", out] + _ov()) == 0
        with open(os.path.join(out, "metrics.csv"), "rb") as f:
            outs.append(f.read())
    assert outs[0] == outs[1]


def test_unknown_override_key_exit_1(tmp_path, capsys):
    rc = parse_and_dispatch(["run", "--out-dir", str(tmp_path),
                             "--override", "lambada=1"])
    assert rc == 1
    assert "lambada" in capsys.readouterr().err


def test_override_without_equals_exit_1(tmp_path, capsys):
    rc = parse_and_dispatch(["run", "--out-dir", str(tmp_path),
                             "--override", "seed"])
    assert rc == 1
    assert "KEY=VALUE" in capsys.readouterr().err


def test_missing_config_file_exit_1(tmp_path, capsys, monkeypatch):
    # a missing file, a directory and a file that is not UTF-8
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(b"seed = 7  # caf\xe9\n")
    trained = []
    monkeypatch.setattr(cli, "_run_cell", lambda *a: trained.append(a))
    out = tmp_path / "o"
    for path in (tmp_path / "nope.cfg", tmp_path, latin1):
        for verb in ("run", "inspect-gates"):
            rc = parse_and_dispatch([verb, "--config", str(path),
                                     "--out-dir", str(out)])
            assert rc == 1
            assert (f"error: cannot read config file {str(path)!r}"
                    in capsys.readouterr().err)
    assert trained == [] and not out.exists()


def test_config_file_merges_over_defaults(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# comment line\nseed = 7\n")
    out = str(tmp_path / "o")
    rc = parse_and_dispatch(["run", "--config", str(cfg), "--out-dir", out]
                            + _ov())
    assert rc == 0
    rows = _read_rows(os.path.join(out, "metrics.csv"))
    assert rows and all(r["seed"] == "7" for r in rows)


def test_config_file_bad_key_names_line(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("seed = 7\nlambada = 1\n")
    rc = parse_and_dispatch(["run", "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "lambada" in err and "line 2" in err


def test_unknown_method_exit_1(tmp_path, capsys):
    rc = parse_and_dispatch(["run", "--out-dir", str(tmp_path),
                             "--methods", "bogus"] + _ov())
    assert rc == 1
    err = capsys.readouterr().err
    assert "bogus" in err
    assert "--methods must be one of" in err


def test_bad_seeds_flag_exit_1(tmp_path, capsys):
    rc = parse_and_dispatch(["run", "--out-dir", str(tmp_path),
                             "--seeds", "0,x"] + _ov())
    assert rc == 1
    assert "--seeds" in capsys.readouterr().err


@pytest.mark.parametrize("flags,name", [(["--override", "seed=-1"], "seed"),
                                        (["--seeds", "-1"], "--seeds"),
                                        (["--seeds", "0,-2"], "--seeds")])
def test_negative_seed_exit_1_before_any_cell(tmp_path, capsys, monkeypatch,
                                              flags, name):
    ran = []
    monkeypatch.setattr(cli, "_try_cell", ran.append)
    out = tmp_path / "o"
    rc = parse_and_dispatch(["run", "--out-dir", str(out)] + flags + _ov())
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {name} must be >= 0" in err
    assert ran == [] and not out.exists()


@pytest.mark.parametrize("kv", [
    "d=0", "heads=3", "heads=0", "layers=0", "seq_len=0", "vocab=0",
    "classes=0", "classes=1", "dropout=1.5", "dropout=-0.5", "batch=0",
    "epochs=0", "lr=-1", "pretrain_lr=-1", "pretrain_epochs=-1", "p_sig=2",
    "p_sig=-1", "tasks=0", "tasks=-1", "tasks=5", "train_per_task=0",
    "train_per_task=1001", "eval_per_task=0", "sig_tokens=0", "backbone=mlp",
    "generator=rotated_gaussian backbone=mlp sites=ffn heads=1 d=1",
    "generator=rotated_gaussian", "sites=ffn backbone=mlp"])
def test_bad_config_value_exit_1_before_any_cell(tmp_path, capsys,
                                                 monkeypatch, kv):
    # the last K=V of each case is the bad value
    ran = []
    monkeypatch.setattr(cli, "_try_cell", ran.append)
    out = tmp_path / "o"
    rc = parse_and_dispatch(["run", "--out-dir", str(out)] + _ov(kv.split()))
    assert rc == 1
    key = kv.split()[-1].split("=")[0]
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)
    assert ran == [] and not out.exists()


def test_inspect_gates_bad_config_value_exit_1_before_training(
        tmp_path, capsys, monkeypatch):
    trained = []
    monkeypatch.setattr(cli, "_run_cell", lambda *a: trained.append(a))
    out = tmp_path / "o"
    rc = parse_and_dispatch(["inspect-gates", "--out-dir", str(out)]
                            + _ov(["p_sig=2"]))
    assert rc == 1
    assert "error: p_sig must be in [0, 1]" in capsys.readouterr().err
    assert trained == [] and not out.exists()


def test_inspect_gates_failing_stream_exit_1_makes_no_out_dir(tmp_path,
                                                              capsys):
    # vocab=12 passes the config check and fails in task generation
    out = tmp_path / "o"
    rc = parse_and_dispatch(["inspect-gates", "--out-dir", str(out)]
                            + _ov(["vocab=12"]))
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_jobs_must_be_positive(tmp_path, capsys):
    rc = parse_and_dispatch(["run", "--out-dir", str(tmp_path), "--jobs", "0"]
                            + _ov())
    assert rc == 1
    assert "--jobs" in capsys.readouterr().err


def test_grid_runs_all_cells_in_parallel(tmp_path, capsys):
    out = str(tmp_path / "o")
    rc = parse_and_dispatch(["run", "--out-dir", out, "--methods",
                             "seqft,sinlora", "--seeds", "0,1", "--jobs", "2"]
                            + _ov())
    assert rc == 0
    summary = _read_rows(os.path.join(out, "summary.csv"))
    assert len(summary) == 4
    assert {r["method"] for r in summary} == {"seqft", "sinlora"}
    assert {r["seed"] for r in summary} == {"0", "1"}
    assert capsys.readouterr().out.count("final_avg_acc=") == 4


def test_partial_grid_failure_exit_2(tmp_path, capsys):
    # seqft at vocab=12 trains fine; 4 tasks of 4 classes cannot reserve
    # signature regions in a 12-token vocabulary, so every cell fails.
    rc = parse_and_dispatch(
        ["run", "--out-dir", str(tmp_path / "o")]
        + _ov(["vocab=12", "tasks=4", "classes=4", "method=seqft"]))
    assert rc == 2
    assert "FAILED" in capsys.readouterr().out


def test_verify_ortho_four_pass_lines(tmp_path, capsys):
    out = str(tmp_path / "o")
    rc = parse_and_dispatch(["verify-ortho", "--out-dir", out,
                             "--trials", "10"])
    assert rc == 0
    text = capsys.readouterr().out
    for label in ("PASS 1d", "PASS 2d", "PASS nd", "PASS study"):
        assert label in text, label
    assert "FAIL" not in text
    assert os.path.exists(os.path.join(out, "ortho_report.csv"))
    assert os.path.exists(os.path.join(out, "ortho_summary.txt"))


def test_verify_ortho_summary_lists_each_case_once(tmp_path):
    out = str(tmp_path / "o")
    assert parse_and_dispatch(["verify-ortho", "--out-dir", out,
                               "--trials", "2"]) == 0
    with open(os.path.join(out, "ortho_summary.txt"), encoding="utf-8") as f:
        names = [line.split(":")[0].strip() for line in f
                 if ": residual=" in line]
    expected = ["1d-sin"] + [f"{n}d-linear" for n in cli.ND_SIZES]
    assert names == expected


def test_grad_check_passes(capsys):
    rc = parse_and_dispatch(["grad-check"])
    assert rc == 0
    assert "PASS grad-check" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [["--override", "d=64"],
                                   ["--config", "x.cfg"], ["--seed", "-1"],
                                   ["--seed", "x"]])
def test_grad_check_rejects_config_flags_and_bad_seeds(tmp_path, flags,
                                                      monkeypatch):
    out = tmp_path / "o"
    monkeypatch.setenv("AMLORA_OUT", str(out))
    assert parse_and_dispatch(["grad-check"] + flags) == 1
    assert not out.exists()


def test_grad_check_reads_its_seed(capsys):
    rc = parse_and_dispatch(["grad-check", "--seed", "3"])
    assert rc == 0
    err3, err0 = gradcheck_toy(3), gradcheck_toy(0)
    assert f"{err3:.3e}" != f"{err0:.3e}"
    assert f"max relative error {err3:.3e}" in capsys.readouterr().out


def test_gradcheck_toy_error_tiny():
    assert gradcheck_toy(seed=0) < 1e-4


def test_inspect_gates_rows_sum_to_one(tmp_path, capsys):
    out = str(tmp_path / "o")
    rc = parse_and_dispatch(["inspect-gates", "--out-dir", out] + _ov())
    assert rc == 0
    assert "zero adapter" in capsys.readouterr().out
    rows = _read_rows(os.path.join(out, "gates.csv"))
    # 2 sites x 2 eval tasks x 3 stack entries (zero adapter + 2 learned)
    assert len(rows) == 12
    sums = {}
    for r in rows:
        key = (r["site"], r["eval_task"])
        sums[key] = sums.get(key, 0.0) + float(r["mean_gate"])
    assert len(sums) == 4
    assert all(abs(s - 1.0) < 1e-9 for s in sums.values())
    # the hand-off checkpoint lives in a removed temporary directory
    assert os.listdir(out) == ["gates.csv"]


# gates.csv of a pretrained all-sites model; the hash pins every gate byte
# of the eval forward that inspect-gates reads, layer-0 table path included
GATES_PIN = ["d=16", "heads=2", "layers=1", "seq_len=6", "vocab=64",
             "tasks=2", "classes=2", "train_per_task=24", "eval_per_task=8",
             "r=2", "alpha=4", "pretrain_epochs=1", "sig_tokens=2",
             "sites=query,key,value,output,ffn"]
GATES_SHA256 = \
    "bccb144e1b92f4bb537fba46b83c087465b366ca964dab9c19741df94548f94b"


def _pinned_cli(verb, out, *flags):
    """Run ``amlora <verb>`` at the ``GATES_PIN`` overrides in a subprocess
    with BLAS at 1 thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [sys.executable, "-m", "amlora.cli", verb, "--out-dir", out,
            *flags] + [a for kv in GATES_PIN for a in ("--override", kv)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def _sha256(out, name):
    with open(os.path.join(out, name), "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def test_inspect_gates_bytes_are_pinned(tmp_path):
    out = str(tmp_path / "o")
    _pinned_cli("inspect-gates", out)
    digest = _sha256(out, "gates.csv")
    assert digest == GATES_SHA256, (
        f"gates.csv sha256 {digest} under numpy {np.__version__}; the pin "
        f"was taken under numpy 2.4.6 with BLAS at 1 thread")


# every method's metrics.csv and trained checkpoint at the GATES_PIN
# overrides; seqft, pertaskft and mtl train all base tensors
RUN_SHA256 = {
    "metrics.csv":
        "1e185f14497b89b44225d8d55b059fcfd0bcffa2b67a21bef9cc2ff18fe2af52",
    "ckpt_seqft_order1_seed0.bin":
        "df9ab2b395de23b144d1b61537cc1894462fd449b289c3a7c232b3000867faa4",
    "ckpt_sinlora_order1_seed0.bin":
        "2a4601cb1a0db215790dcce304829472376129631e420515ab0797bc92762a9a",
    "ckpt_inclora_order1_seed0.bin":
        "61db0123081174b43fa8c40330d45794d67b4990b85a981d7a559777585e4fa8",
    "ckpt_amlora_order1_seed0.bin":
        "e62483118d1c7f9f4c7f1547498b8c39b6d3b99ab09649a53dee5e7ef5434964",
    "ckpt_pertaskft_order1_seed0.bin":
        "4ba74149ebd6302b1369b49302056167dc6096bdfe83ff3cb882deeb55c47583",
    "ckpt_mtl_order1_seed0.bin":
        "e381c76faac703c0463a52493e80497447531d2655715ec0ca4c88e83f6a8cb1",
}


def test_trained_bytes_of_every_method_are_pinned(tmp_path):
    out = str(tmp_path / "o")
    _pinned_cli("run", out, "--methods",
                "seqft,sinlora,inclora,amlora,pertaskft,mtl", "--seeds", "0",
                "--save-checkpoints")
    got = {name: _sha256(out, name) for name in RUN_SHA256}
    assert got == RUN_SHA256, (
        f"run output sha256 under numpy {np.__version__}; the pins were "
        f"taken under numpy 2.4.6 with BLAS at 1 thread")


def test_report_without_metrics_exit_1(tmp_path, capsys):
    rc = parse_and_dispatch(["report", "--out-dir", str(tmp_path / "empty")])
    assert rc == 1
    assert "metrics.csv" in capsys.readouterr().err


METRICS_HEADER = "method,seed,order_id,after_task,eval_task,accuracy\r\n"


@pytest.mark.parametrize("text,message", [
    ("method,seed,after_task,eval_task,accuracy\r\namlora,0,0,0,0.5\r\n",
     "metrics.csv has no 'order_id' column"),
    (METRICS_HEADER + "amlora,0,order1,0,0,0.5\r\namlora,x,order1,0,0,0.5\r\n",
     "metrics.csv line 3: invalid literal for int() with base 10: 'x'"),
    (METRICS_HEADER + "amlora,0,order1,1,0,0.5\r\namlora,0,order1,1,1,0.5\r\n",
     "metrics.csv has no row for (after_task, eval_task)=(0, 0) of "
     "(method, seed, order_id)=('amlora', 0, 'order1')"),
    (METRICS_HEADER + "amlora,0,order1,0,0,0.5\r\namlora,0,order1,0,0,0.1\r\n",
     "metrics.csv line 3: repeats the row ('amlora', 0, 'order1', 0, 0)"),
    (METRICS_HEADER + "amlora,0,order1,0,0,0.5\r\namlora,0,order1,0,3,0.5\r\n",
     "metrics.csv line 3: eval_task 3 not in [0, after_task 0]"),
    (METRICS_HEADER + "amlora,0,order1,-2,0,0.5\r\n",
     "metrics.csv line 2: eval_task 0 not in [0, after_task -2]"),
    (METRICS_HEADER + "amlora,0,order1,0,-1,0.5\r\n",
     "metrics.csv line 2: eval_task -1 not in [0, after_task 0]"),
    (METRICS_HEADER + "amlora,0,order1,0,0,1.5\r\n",
     "metrics.csv line 2: accuracy 1.5 not in [0, 1]"),
    (METRICS_HEADER + "amlora,0,order1,0,0,nan\r\n",
     "metrics.csv line 2: accuracy nan not in [0, 1]"),
    ("", "metrics.csv has no rows"),
    (METRICS_HEADER, "metrics.csv has no rows"),
], ids=["missing-column", "bad-seed", "missing-cell", "repeated-row",
        "eval-task-after-after-task", "negative-after-task",
        "negative-eval-task", "accuracy-above-1", "accuracy-nan",
        "empty-file", "header-only"])
def test_report_malformed_metrics_exit_1(tmp_path, capsys, text, message):
    (tmp_path / "metrics.csv").write_bytes(text.encode("utf-8"))
    rc = parse_and_dispatch(["report", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert f"error: {tmp_path / message}" in capsys.readouterr().err


def test_report_aggregates_methods(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert parse_and_dispatch(["run", "--out-dir", out, "--methods",
                               "seqft,amlora"] + _ov()) == 0
    capsys.readouterr()
    rc = parse_and_dispatch(["report", "--out-dir", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "seqft" in text and "amlora" in text and "avg_acc" in text


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    env_dir = str(tmp_path / "from_env")
    monkeypatch.setenv("AMLORA_OUT", env_dir)
    rc = parse_and_dispatch(["verify-ortho", "--trials", "5"])
    assert rc == 0
    assert os.path.exists(os.path.join(env_dir, "ortho_summary.txt"))


def test_argparse_paths(capsys):
    assert parse_and_dispatch(["--help"]) == 0
    capsys.readouterr()
    assert parse_and_dispatch([]) == 1
    assert parse_and_dispatch(["frobnicate"]) == 1


def test_save_checkpoints_flag(tmp_path):
    out = str(tmp_path / "o")
    rc = parse_and_dispatch(["run", "--out-dir", out, "--save-checkpoints"]
                            + _ov())
    assert rc == 0
    assert os.path.exists(os.path.join(out, "ckpt_amlora_order1_seed0.bin"))
