import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize(
    "flag, case",
    [
        pytest.param("--out", "missing", id="--out"),
        pytest.param("--log", "missing", id="--log"),
        pytest.param("--out", "directory", id="--out-directory"),
        pytest.param("--log", "directory", id="--log-directory"),
        pytest.param("--log", "same", id="--log-same-as-out"),
    ],
)
def test_train_missing_output_directory_fails_before_training(tmp_path, monkeypatch, capsys, flag, case):
    # an output the save after training could not write, or one the log would overwrite
    import arabner.cli

    def no_train(*args):
        raise AssertionError("train must not run")

    monkeypatch.setattr(arabner.cli, "train", no_train)
    paths = {"--out": str(tmp_path / "m.ckpt"), "--log": str(tmp_path / "m.log")}
    if case == "missing":
        paths[flag] = str(tmp_path / "missing" / "m.out")
    elif case == "directory":
        paths[flag] = str(tmp_path / "taken")
        (tmp_path / "taken").mkdir()
    else:
        paths[flag] = str(tmp_path / "." / "m.ckpt")
    code = main(
        [
            "train", "--data", str(DATA / "overfit"), "--cell", "lstm",
            "--out", paths["--out"], "--log", paths["--log"],
        ]
    )
    assert code == EXIT_IO
    assert paths[flag] in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == (["taken"] if case == "directory" else [])


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


@pytest.mark.parametrize("command", ["validate", "stats", "train", "eval"])
def test_over_long_csv_field_exits_4(trained, tmp_path, capsys, command):
    # one word longer than csv.field_size_limit() (131072 characters)
    split = tmp_path / "corpus" / "train"
    split.mkdir(parents=True)
    (split / "part1.csv").write_text(
        "file_name,sentence,word,tag\nf,1,a,O\nf,2," + "x" * 200000 + ",O\n", encoding="utf-8"
    )
    data = str(tmp_path / "corpus")
    args = {
        "validate": ["validate", "--data", data],
        "stats": ["stats", "--data", data],
        "train": ["train", "--data", data, "--cell", "gru", "--out", str(tmp_path / "m.ckpt")],
        "eval": ["eval", "--ckpt", str(trained), "--data", data, "--split", "train"],
    }[command]
    assert main(args) == EXIT_FORMAT
    assert "part1.csv:3: field larger than field limit" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


CORPUS_CSV = (DATA / "overfit" / "train" / "part1.csv").read_bytes()
HEADER_FIELDS = [b"file_name", b"sentence", b"word", b"tag", b"", b"File_Name", b" tag"]
STRAY_BYTES = [b'"', b"\r", b"\0", b"\xff", b"\xd8", b"\xef\xbb\xbf", b",", b"\n", b'""']


@st.composite
def mutated_corpora(draw):
    """An overfit CSV with one to four edits: a flipped, inserted or cut
    byte run, a stray quote, CR, NUL, invalid UTF-8 or BOM, or a new header."""
    raw = bytearray(CORPUS_CSV)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["flip", "insert", "cut", "header"]))
        end = raw.find(b"\n") % (len(raw) + 1)  # the header's end, or the file's
        if kind == "header":
            raw[:end] = b",".join(draw(st.lists(st.sampled_from(HEADER_FIELDS), max_size=5)))
            continue
        # below the header, so that most edits reach the rows
        at = len(raw) - 1 - draw(st.integers(0, max(len(raw) - end - 2, 0)))
        if kind == "flip" and at >= 0:
            raw[at] ^= draw(st.integers(1, 255))
        elif kind == "insert":
            raw[at + 1 : at + 1] = draw(st.sampled_from(STRAY_BYTES) | st.binary(min_size=1, max_size=6))
        elif kind == "cut":
            del raw[max(at, 0) : at + draw(st.integers(1, 40))]
    return bytes(raw)


LONG_FIELD_CSV = b"file_name,sentence,word,tag\nf,1,a,O\nf,2," + b"x" * 200000 + b",O\n"


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(raw=mutated_corpora(), text=st.binary(max_size=64))
@example(raw=LONG_FIELD_CSV, text=b"x" * 200000 + b"\n")
@example(raw=LONG_FIELD_CSV.replace(b"\nf,1,", b"\n\xef\xbb\xbff,1,"), text=b"\xef\xbb\xbf\xff\n")
def test_corrupt_corpus_and_input_bytes_end_in_a_documented_exit_code(trained, raw, text):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "corpus"
        for split in ("train", "valid"):
            (root / split).mkdir(parents=True)
            (root / split / "part1.csv").write_bytes(raw)
        data, out, src = str(root), str(Path(tmp) / "m.ckpt"), Path(tmp) / "in.txt"
        for args in (
            ["validate", "--data", data],
            ["stats", "--data", data],
            ["train", "--data", data, "--cell", "gru", "--out", out, "--iterations", "2",
             "--hidden", "4", "--embed", "4", "--eval-every", "1"],
            ["eval", "--ckpt", str(trained), "--data", data, "--split", "valid"],
        ):
            assert main(args) in (EXIT_OK, EXIT_VIOLATIONS, EXIT_IO, EXIT_FORMAT), args[0]
        src.write_bytes(text)
        assert main(["predict", "--ckpt", str(trained), "--input", str(src)]) in (EXIT_OK, EXIT_IO)


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


def test_train_divergence_writes_metric_log(tmp_path, capsys):
    out = tmp_path / "m.ckpt"
    code = main(
        [
            "train", "--data", str(DATA / "overfit"), "--cell", "lstm", "--out", str(out),
            "--iterations", "5", "--eval-every", "1", "--lr", "1e308",
        ]
    )
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "diverged at step 1" in err and f"metric log to {out}.log" in err
    log = (tmp_path / "m.ckpt.log").read_text(encoding="utf-8").splitlines()
    assert len(log) == 1 and log[0].startswith("step=1 split=train loss=")


@pytest.mark.parametrize(
    "data, cell, schedule",
    [
        ("overfit", "lstm", ["--iterations", "5", "--eval-every", "1"]),  # validation diverges
        ("overfit/train", "gru", ["--iterations", "50", "--eval-every", "100"]),  # loss diverges
    ],
)
def test_diverged_run_writes_the_initial_state_when_nothing_passed(
    tmp_path, capsys, data, cell, schedule
):
    from arabner.model import init_params

    out = tmp_path / "m.ckpt"
    code = main(
        ["train", "--data", str(DATA / data), "--cell", cell, "--out", str(out), "--lr", "1e308"]
        + schedule
    )
    assert code == EXIT_NUMERIC
    assert "the last good state, after step 0, written to" in capsys.readouterr().err
    ckpt = load_checkpoint(out)
    initial = init_params(ckpt.config)
    for (name, arr), (_, want) in zip(ckpt.params.named_tensors(), initial.named_tensors()):
        assert arr.tobytes() == want.tobytes(), name
    src = tmp_path / "input.txt"
    src.write_text("سافر أحمد إلى بغداد\n", encoding="utf-8")
    assert main(["predict", "--ckpt", str(out), "--input", str(src)]) == EXIT_OK


def test_divergence_after_a_passed_validation_writes_that_state(tmp_path, monkeypatch, capsys):
    import arabner.training

    real = arabner.training.adam_step

    def poisoning(params, grads, state, cfg):
        real(params, grads, state, cfg)
        if state.t == 3:  # step 4's loss is NaN, after step 2's validation passed
            params.cell.W[0, 0] = float("nan")

    def run(out, iterations):
        return main(
            [
                "train", "--data", str(DATA / "overfit"), "--cell", "lstm", "--out", str(out),
                "--iterations", str(iterations), "--eval-every", "2", "--hidden", "8", "--embed", "8",
            ]
        )

    assert run(tmp_path / "clean.ckpt", 2) == EXIT_OK
    monkeypatch.setattr(arabner.training, "adam_step", poisoning)
    assert run(tmp_path / "diverged.ckpt", 6) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "diverged at step 4: non-finite loss; the last good state, after step 2," in err
    assert (tmp_path / "diverged.ckpt").read_bytes() == (tmp_path / "clean.ckpt").read_bytes()


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


def test_predict_ignores_a_leading_byte_order_mark(trained, tmp_path, capsys):
    text = "ولد سافر أحمد\nزار عمر\n"
    outputs = []
    for name, prefix in (("plain.txt", ""), ("bom.txt", "\ufeff")):
        src = tmp_path / name
        src.write_text(prefix + text, encoding="utf-8")
        assert main(["predict", "--ckpt", str(trained), "--input", str(src)]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0].startswith("ولد\t")
    assert outputs[1] == outputs[0]


def test_normalize_ignores_a_leading_byte_order_mark(tmp_path, monkeypatch, capsys):
    import io
    import sys

    src = tmp_path / "in.txt"
    src.write_text("\ufeffكِتَابٌ\n", encoding="utf-8")
    assert main(["normalize", "--input", str(src)]) == EXIT_OK
    assert capsys.readouterr().out == "كتاب\n"
    stdin = io.BytesIO("\ufeffكِتَابٌ".encode("utf-8"))
    monkeypatch.setattr(sys, "stdin", type("S", (), {"buffer": stdin})())
    assert main(["normalize"]) == EXIT_OK
    assert capsys.readouterr().out == "كتاب"


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
