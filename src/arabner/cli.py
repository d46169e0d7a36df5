"""Command-line entry point: normalize, validate, stats, train, eval, predict.

Commands raise their failures; only ``main`` maps them to exit codes:
  0  success (for ``validate``: corpus is clean)
  1  ``validate`` found report entries
  2  usage error (argparse)
  3  I/O error, including an unreadable corpus file, an unusable ``train``
     output path and non-UTF-8 input at the boundary; also running out of
     memory
  4  data format error (corpus layout, including a root with split
     directories but no ``train/``, a root with split directories and
     top-level CSVs, and a missing ``eval`` split; headers, bad values,
     empty splits)
  5  checkpoint error or config/fingerprint mismatch
  6  numeric failure: training diverged (the last good checkpoint and the
     metric log are written), or eval/predict met non-finite model outputs

Every command finds a corpus's splits through ``_data_splits`` and loads
each through ``_read_split``, which warns on stderr about what it drops
(``validate`` prints that report on stdout instead).  ``train`` writes the
checkpoint and the metric log through ``replace_atomically``.
"""

import argparse
import sys
from pathlib import Path

from .bioes import CATEGORIES
from .corpus import CorpusFormatError, corpus_stats, read_corpus
from .model import GRU, LSTM, ModelConfig, count_params
from .textnorm import normalize_text
from .training import (
    CheckpointError,
    NonFiniteOutputError,
    TrainConfig,
    TrainingDivergedError,
    evaluate,
    load_checkpoint,
    predict_lines,
    predict_tags,  # not called here; the benchmark tracer patches it under this module
    replace_atomically,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_FORMAT = 4
EXIT_MISMATCH = 5
EXIT_NUMERIC = 6

SPLIT_NAMES = ("train", "valid", "test")


def _read_text(input_path: str | None) -> str:
    """UTF-8 text from a file or stdin, less a leading byte order mark;
    malformed bytes are rejected here."""
    if input_path:
        return Path(input_path).read_bytes().decode("utf-8-sig")
    return sys.stdin.buffer.read().decode("utf-8-sig")


def cmd_normalize(args) -> int:
    sys.stdout.write(normalize_text(_read_text(args.input)))
    sys.stdout.flush()
    return EXIT_OK


def _data_splits(root: Path) -> dict[str, Path]:
    """Map split name -> directory, in SPLIT_NAMES order; a root with no
    split directory is one split, "all".  A root with split directories
    and top-level CSVs is refused, since the CSVs would go unread."""
    splits = {name: root / name for name in SPLIT_NAMES if (root / name).is_dir()}
    if splits and any(p.suffix == ".csv" and p.is_file() for p in root.iterdir()):
        raise CorpusFormatError(f"{root}: has split directories and top-level .csv files")
    return splits or {"all": root}


def _read_split(path: Path):
    """Load one split; its load report goes to stderr as warnings."""
    sentences, report = read_corpus(path)
    for issue in report.issues:
        print(f"warning: {issue}", file=sys.stderr)
    return sentences


def cmd_validate(args) -> int:
    clean = True
    for name, path in _data_splits(Path(args.data)).items():
        sentences, report = read_corpus(path)
        print(f"split={name} sentences={len(sentences)} dropped={report.dropped_sentences}")
        for issue in report.issues:
            clean = False
            print(f"  {issue}")
    return EXIT_OK if clean else EXIT_VIOLATIONS


def cmd_stats(args) -> int:
    splits = {name: _read_split(path) for name, path in _data_splits(Path(args.data)).items()}
    stats = corpus_stats(splits)
    print(f"{'split':<10}{'files':>8}{'sentences':>12}{'words':>10}")
    for name, st in stats.splits.items():
        print(f"{name:<10}{st.files:>8}{st.sentences:>12}{st.words:>10}")
    t = stats.total
    print(f"{'total':<10}{t.files:>8}{t.sentences:>12}{t.words:>10}")
    print()
    print(f"{'split':<10}" + "".join(f"{c:>8}" for c in CATEGORIES))
    for name, st in stats.splits.items():
        print(f"{name:<10}" + "".join(f"{st.category_tokens[c]:>8}" for c in CATEGORIES))
    print(f"{'total':<10}" + "".join(f"{t.category_tokens[c]:>8}" for c in CATEGORIES))
    return EXIT_OK


def cmd_train(args) -> int:
    log_path = args.log or (args.out + ".log")
    for path in (args.out, log_path):  # fail before training, not at the save after it
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(f"{path}: parent directory does not exist")
        if Path(path).is_dir():
            raise IsADirectoryError(f"{path}: is a directory")
    if Path(log_path).resolve() == Path(args.out).resolve():
        raise FileExistsError(f"{log_path}: the metric log would overwrite the checkpoint")
    splits = _data_splits(Path(args.data))
    train_dir = splits.get("train", splits.get("all"))
    if train_dir is None:
        raise CorpusFormatError(f"{args.data}: has split directories but no train/")
    sentences = _read_split(train_dir)
    valid_sentences = _read_split(splits["valid"]) if "valid" in splits else None

    model_cfg = ModelConfig(
        cell_kind=args.cell,
        vocab_size=2,  # placeholder; train() substitutes the real size
        embed_dim=args.embed,
        hidden_dim=args.hidden,
        seed=args.seed,
        relu_head=not args.no_relu_head,
    )
    train_cfg = TrainConfig(
        learning_rate=args.lr,
        iterations=args.iterations,
        batch_size=args.batch,
        max_len=args.max_len,
        seed=args.seed,
        eval_every=args.eval_every,
    )
    try:
        result, diverged = train(sentences, model_cfg, train_cfg, valid_sentences), None
    except TrainingDivergedError as exc:
        result, diverged = exc.result, exc
    save_checkpoint(result.checkpoint, args.out)
    lines = [record.to_line() for record in result.records] + result.summary_lines()
    replace_atomically(log_path, ["".join(line + "\n" for line in lines).encode("utf-8")])
    if diverged is not None:
        print(
            f"error: {diverged}; the last good state, after step {diverged.checkpoint.iterations}, "
            f"written to {args.out}, metric log to {log_path}",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    cfg = result.checkpoint.config
    print(f"checkpoint={args.out} log={log_path}")
    print(f"vocab_size={cfg.vocab_size} parameters={count_params(cfg)}")
    for line in result.summary_lines():
        print(line)
    return EXIT_OK


def cmd_eval(args) -> int:
    splits = _data_splits(Path(args.data))
    if args.split not in splits:
        raise CorpusFormatError(f"{args.data}: has no {args.split}/ split directory")
    ckpt = load_checkpoint(args.ckpt)
    result = evaluate(ckpt, _read_split(splits[args.split]))
    print(f"split={args.split} token_accuracy={result.token_accuracy:.6f}")
    print(f"{'category':<10}{'precision':>10}{'recall':>10}{'gold':>7}{'pred':>7}{'match':>7}")
    for cat in CATEGORIES:
        sc = result.category_scores[cat]
        print(
            f"{cat:<10}{sc.precision:>10.4f}{sc.recall:>10.4f}"
            f"{sc.gold:>7}{sc.predicted:>7}{sc.matched:>7}"
        )
    top = result.top_confusions()
    if top:
        print("top confusions (gold -> predicted):")
        for gold, pred, count in top:
            print(f"  {gold} -> {pred}: {count}")
    return EXIT_OK


def cmd_predict(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    lines = [tokens for tokens in map(str.split, _read_text(args.input).splitlines()) if tokens]
    out = []
    for tokens, tags in zip(lines, predict_lines(ckpt, lines)):
        for token, tag in zip(tokens, tags):
            out.append(f"{token}\t{tag}")
        out.append("")
    sys.stdout.write("\n".join(out) + ("\n" if out else ""))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arabner",
        description="BIOES sequence-labeling toolkit for Arabic NER.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="strip Tashkil/Tanween diacritics from text")
    p.add_argument("--input", help="input file (default: stdin)")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("validate", help="load a corpus and print the load report")
    p.add_argument("--data", required=True, help="corpus root or split directory")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="print per-split corpus statistics")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train a tagger and write a checkpoint")
    p.add_argument("--data", required=True, help="corpus root (train/ and optional valid/)")
    p.add_argument("--cell", required=True, choices=[LSTM, GRU])
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--hidden", type=int, default=50)
    p.add_argument("--embed", type=int, default=50)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--eval-every", type=int, default=50)
    p.add_argument("--no-relu-head", action="store_true", help="skip ReLU on the class logits")
    p.add_argument("--log", help="metric log path (default: <out>.log)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", required=True, choices=SPLIT_NAMES)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="tag whitespace-tokenized sentences, one per line")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--input", help="input file (default: stdin)")
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except NonFiniteOutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except UnicodeDecodeError as exc:
        print(f"error: input is not valid UTF-8 ({exc})", file=sys.stderr)
        return EXIT_IO
    except (OSError, MemoryError) as exc:
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
