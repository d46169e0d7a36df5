import json
import shutil
from pathlib import Path

import pytest

from arabner.cli import (
    EXIT_FORMAT,
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VIOLATIONS,
    main,
)
from arabner.model import count_params
from arabner.training import load_checkpoint, predict_tags

DATA = Path(__file__).parent / "data"


def test_normalize_from_file(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("الْعَيْونُ جميلة\n", encoding="utf-8")
    assert main(["normalize", "--input", str(src)]) == EXIT_OK
    assert capsys.readouterr().out == "العيون جميلة\n"


def test_normalize_stdin(monkeypatch, capsys):
    import io
    import sys

    monkeypatch.setattr(
        sys, "stdin", type("S", (), {"buffer": io.BytesIO("كِتَابٌ".encode("utf-8"))})()
    )
    assert main(["normalize"]) == EXIT_OK
    assert capsys.readouterr().out == "كتاب"


def test_normalize_rejects_bad_utf8(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_bytes(b"\xff\xfe\x00")
    assert main(["normalize", "--input", str(src)]) == EXIT_IO


def test_validate_clean_corpus(capsys):
    assert main(["validate", "--data", str(DATA / "figure1")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "split=all sentences=1 dropped=0" in out


def test_validate_reports_and_fails(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("file_name,sentence,word,tag\nf,1,w,B-XYZ\n", encoding="utf-8")
    assert main(["validate", "--data", str(tmp_path)]) == EXIT_VIOLATIONS
    assert "XYZ" in capsys.readouterr().out


def test_validate_reports_non_contiguous_key(tmp_path, capsys):
    p = tmp_path / "split.csv"
    p.write_text("file_name,sentence,word,tag\nf,1,a,O\nf,2,b,O\nf,1,c,O\n", encoding="utf-8")
    assert main(["validate", "--data", str(tmp_path)]) == EXIT_VIOLATIONS
    out = capsys.readouterr().out
    assert "sentences=3" in out and "not contiguous" in out


def test_validate_split_layout(capsys):
    assert main(["validate", "--data", str(DATA / "overfit")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "split=train sentences=20" in out
    assert "split=valid sentences=5" in out
    assert "split=test sentences=3" in out


def test_stats_table(capsys):
    assert main(["stats", "--data", str(DATA / "overfit")]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.splitlines()
    train_row = next(l for l in lines if l.startswith("train"))
    files, sentences, words = train_row.split()[1:4]
    assert (files, sentences, words) == ("3", "20", "108")
    assert any(l.startswith("total") for l in lines)
    assert "PER" in out and "GEO" in out


def test_missing_data_dir(capsys):
    assert main(["stats", "--data", "/definitely/not/here"]) == EXIT_FORMAT


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", "x"])  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_help_exits_zero():
    for sub in ("normalize", "validate", "stats", "train", "eval", "predict"):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Short CLI training run on the bundled corpus, shared by the tests below."""
    out = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    code = main(
        [
            "train", "--data", str(DATA / "overfit"), "--cell", "gru",
            "--out", str(out), "--iterations", "60", "--hidden", "16",
            "--embed", "16", "--seed", "1", "--eval-every", "30",
        ]
    )
    assert code == EXIT_OK
    return out


def test_train_writes_checkpoint_and_log(trained, capsys):
    ck = load_checkpoint(trained)
    assert ck.iterations == 60
    assert ck.config.hidden_dim == 16
    log = Path(str(trained) + ".log")
    lines = log.read_text(encoding="utf-8").splitlines()
    assert len([l for l in lines if "split=train" in l]) == 60
    assert len([l for l in lines if "split=valid" in l]) == 2
    assert any(l.startswith("summary=valid best_accuracy=") for l in lines)


def test_train_reports_parameter_count(tmp_path, capsys):
    out = tmp_path / "m.ckpt"
    main(
        [
            "train", "--data", str(DATA / "overfit"), "--cell", "lstm",
            "--out", str(out), "--iterations", "3", "--hidden", "8",
            "--embed", "8", "--seed", "0",
        ]
    )
    printed = capsys.readouterr().out
    ck = load_checkpoint(out)
    assert f"parameters={count_params(ck.config)}" in printed


@pytest.mark.parametrize("flag", ["--out", "--log"])
def test_train_missing_output_directory_fails_before_training(tmp_path, monkeypatch, capsys, flag):
    import arabner.cli

    def no_train(*args):
        raise AssertionError("train must not run")

    monkeypatch.setattr(arabner.cli, "train", no_train)
    missing = str(tmp_path / "missing" / "m.out")
    paths = {"--out": str(tmp_path / "m.ckpt"), "--log": str(tmp_path / "m.log")}
    paths[flag] = missing
    code = main(
        [
            "train", "--data", str(DATA / "overfit"), "--cell", "lstm",
            "--out", paths["--out"], "--log", paths["--log"],
        ]
    )
    assert code == EXIT_IO
    assert missing in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag, value, name",
    [("--lr", "nan", "learning_rate"), ("--lr", "inf", "learning_rate"), ("--max-len", "0", "max_len")],
)
def test_train_bad_hyperparameter_exits_4_without_checkpoint(tmp_path, capsys, flag, value, name):
    out = tmp_path / "m.ckpt"
    code = main(
        [
            "train", "--data", str(DATA / "overfit"), "--cell", "lstm",
            "--out", str(out), "--iterations", "2", flag, value,
        ]
    )
    assert code == EXIT_FORMAT
    assert name in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_train_accepts_bare_csv_directory(tmp_path):
    out = tmp_path / "m.ckpt"
    code = main(
        [
            "train", "--data", str(DATA / "overfit" / "train"), "--cell", "gru",
            "--out", str(out), "--iterations", "2", "--hidden", "4", "--embed", "4",
        ]
    )
    assert code == EXIT_OK and out.exists()


def test_train_no_relu_head_flag(tmp_path):
    out = tmp_path / "m.ckpt"
    main(
        [
            "train", "--data", str(DATA / "overfit"), "--cell", "lstm",
            "--out", str(out), "--iterations", "2", "--hidden", "4",
            "--embed", "4", "--no-relu-head",
        ]
    )
    assert load_checkpoint(out).config.relu_head is False


def test_train_reruns_are_byte_identical(tmp_path):
    args = [
        "train", "--data", str(DATA / "overfit"), "--cell", "lstm",
        "--iterations", "25", "--hidden", "12", "--embed", "12", "--seed", "3",
    ]
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert Path(str(a) + ".log").read_text() == Path(str(b) + ".log").read_text()


def test_eval_subcommand(trained, capsys):
    code = main(["eval", "--ckpt", str(trained), "--data", str(DATA / "overfit"), "--split", "test"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "split=test token_accuracy=" in out
    assert "category" in out and "PER" in out


def test_eval_checkpoint_mismatch(trained, tmp_path, capsys):
    tampered = tmp_path / "bad.ckpt"
    raw = Path(trained).read_bytes()
    tampered.write_bytes(raw[: len(raw) - 24])
    code = main(["eval", "--ckpt", str(tampered), "--data", str(DATA / "overfit"), "--split", "test"])
    assert code == EXIT_MISMATCH


def test_predict_after_figure1_overfit(tmp_path, capsys):
    data = tmp_path / "corpus"
    (data / "train").mkdir(parents=True)
    shutil.copy(DATA / "figure1" / "figure1.csv", data / "train" / "figure1.csv")
    out = tmp_path / "fig1.ckpt"
    code = main(
        [
            "train", "--data", str(data), "--cell", "lstm", "--out", str(out),
            "--iterations", "150", "--seed", "0",
        ]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    src = tmp_path / "input.txt"
    src.write_text("قامت في مدينة اشور\n", encoding="utf-8")
    assert main(["predict", "--ckpt", str(out), "--input", str(src)]) == EXIT_OK
    out_text = capsys.readouterr().out
    lines = [l for l in out_text.splitlines() if l]
    assert [l.split("\t") for l in lines] == [
        ["قامت", "O"],
        ["في", "O"],
        ["مدينة", "B-LOC"],
        ["اشور", "E-LOC"],
    ]


def test_train_divergence_saves_last_good_checkpoint(tmp_path, monkeypatch, capsys):
    import arabner.cli
    from arabner.cli import EXIT_NUMERIC
    from arabner.corpus import read_corpus
    from arabner.model import ModelConfig
    from arabner.training import TrainConfig, TrainingDivergedError, train as real_train

    def exploding_train(train_split, model_cfg, train_cfg, valid_split=None):
        good = real_train(train_split, model_cfg, TrainConfig(iterations=3, seed=0))
        raise TrainingDivergedError(4, "non-finite loss", good.checkpoint)

    monkeypatch.setattr(arabner.cli, "train", exploding_train)
    out = tmp_path / "m.ckpt"
    code = main(
        [
            "train", "--data", str(DATA / "overfit"), "--cell", "lstm",
            "--out", str(out), "--iterations", "10", "--hidden", "4", "--embed", "4",
        ]
    )
    assert code == EXIT_NUMERIC
    assert "diverged" in capsys.readouterr().err
    assert load_checkpoint(out).iterations == 3  # last good state was written


def test_predict_multiple_sentences(trained, tmp_path, capsys):
    src = tmp_path / "input.txt"
    src.write_text("سافر أحمد\n\nزار عمر\n", encoding="utf-8")
    assert main(["predict", "--ckpt", str(trained), "--input", str(src)]) == EXIT_OK
    blocks = capsys.readouterr().out.strip().split("\n\n")
    assert len(blocks) == 2
    assert all("\t" in line for block in blocks for line in block.splitlines())


def test_predict_file_equals_per_line_predict_tags(trained, tmp_path, monkeypatch, capsys):
    import arabner.training

    lines = ["سافر أحمد إلى بغداد", "", "زار عمر", "   ", "في", "سَافَرَ أَحْمَدُ كلمةغريبة في بغداد زار"]
    src = tmp_path / "input.txt"
    src.write_text("\n".join(lines * 40) + "\n", encoding="utf-8")
    forwards = []
    real = arabner.training.model_forward
    monkeypatch.setattr(arabner.training, "model_forward", lambda *a: forwards.append(1) or real(*a))
    assert main(["predict", "--ckpt", str(trained), "--input", str(src)]) == EXIT_OK
    assert 0 < len(forwards) < 16  # a few batches, not one forward pass per non-empty line
    ckpt = load_checkpoint(trained)
    expected = [
        "\n".join(f"{tok}\t{tag}" for tok, tag in zip(line.split(), predict_tags(ckpt, line.split())))
        for line in lines * 40
        if line.split()
    ]
    assert capsys.readouterr().out == "\n\n".join(expected) + "\n\n"


def test_predict_malformed_manifest_exits_5(trained, tmp_path, capsys):
    raw = Path(trained).read_bytes()
    nl = raw.find(b"\n")
    manifest = json.loads(raw[:nl])
    del manifest["vocab"]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(json.dumps(manifest, ensure_ascii=False).encode() + raw[nl:])
    src = tmp_path / "input.txt"
    src.write_text("سافر أحمد\n", encoding="utf-8")
    assert main(["predict", "--ckpt", str(bad), "--input", str(src)]) == EXIT_MISMATCH
    assert "vocabulary" in capsys.readouterr().err


@pytest.fixture(scope="module")
def diverged(tmp_path_factory):
    """One step at lr 1e308: finite weights whose outputs overflow."""
    out = tmp_path_factory.mktemp("diverged") / "model.ckpt"
    code = main(
        [
            "train", "--data", str(DATA / "overfit" / "train"), "--cell", "lstm",
            "--out", str(out), "--iterations", "1", "--lr", "1e308",
        ]
    )
    assert code == EXIT_OK
    return out


def test_predict_non_finite_outputs_exit_6(diverged, tmp_path, capsys):
    src = tmp_path / "input.txt"
    src.write_text("سافر أحمد إلى بغداد\n", encoding="utf-8")
    assert main(["predict", "--ckpt", str(diverged), "--input", str(src)]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""  # no tags, not a line of O
    assert "not finite" in captured.err


def test_eval_non_finite_outputs_exit_6(diverged, capsys):
    code = main(["eval", "--ckpt", str(diverged), "--data", str(DATA / "overfit"), "--split", "test"])
    assert code == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err
