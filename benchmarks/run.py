"""Benchmark of arabner on seeded synthetic corpora.

    python3 benchmarks/run.py --workload train-lstm-paper --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --smoke

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src/``.  ``--trace 0`` prints the end-to-end metrics, ``--trace
1`` the per-layer metrics of a traced run.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Each run also writes ``benchmarks/out/results/<workload>-seed<n>-trace<t>.json``
(and, traced, its spans to ``benchmarks/out/traces/``).  ``--smoke`` runs
every workload on a tiny corpus and checks only the output schema.
"""

import argparse
import gc
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

SPEC = ROOT / "BENCHMARK.json"


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Name -> unit of the end-to-end and of the per-layer metrics."""
    spec = json.loads(SPEC.read_text())
    return tuple({m["name"]: m["unit"] for m in spec[section]} for section in ("end_to_end", "per_layer"))


def import_program():
    """Put the checkout's src/ first on sys.path; refuse any other arabner."""
    if not (SRC / "arabner" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'arabner'} not found; the benchmark runs the checkout's own sources")
    sys.path.insert(0, str(SRC))
    import arabner

    if Path(arabner.__file__).resolve().parent != (SRC / "arabner").resolve():
        sys.exit(f"error: imported arabner from {arabner.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def corpus_figures(gen) -> dict:
    lengths = [len(s.words) for s in gen.train]
    vocab = {w for s in gen.train for w in s.words}
    predict = [w for s in gen.predict_sentences for w in s.words]
    return {
        "sentences": len(lengths),
        "tokens": sum(lengths),
        "vocab_with_pad_unk": len(vocab) + 2,
        "longest": max(lengths),
        "mean_length": sum(lengths) / len(lengths),
        "padding_share": 1 - sum(lengths) / (len(lengths) * max(lengths)),
        "held_out_sentences": len(gen.held_out),
        "predict_lines": len(gen.predict_sentences),
        "predict_tokens": len(predict),
        "predict_oov_share": sum(w not in vocab for w in predict) / len(predict),
    }


def prepare(args) -> None:
    """Preparation process of a prepared workload: train and save a checkpoint."""
    import synth
    from reference import CheckFailed
    from tracer import Tracer
    from workloads import OOV_SHARE, PLANS, SMOKE_PLANS, Session

    plan = (SMOKE_PLANS if args.smoke else PLANS)[args.workload]
    work = Path(args.prepare)
    gen = synth.build(args.seed, plan.spec, work, plan.held_out, plan.predict, OOV_SHARE)
    gc.collect()
    gc.freeze()
    out = {}
    with Tracer(full=bool(args.trace)) as tracer:
        session = Session(plan, gen, None, work, args.seed, tracer)
        try:
            session.run_ops(session.prepare_ops())
        except CheckFailed as exc:
            out["check_failed"] = str(exc)
    out.update(samples=session.samples, loss=session.loss, attempted=session.attempted, failed=session.failed)
    if args.trace:
        out["layers"] = tracer.layer_metrics(1, 0.0, session.read_rows)
        out["layers"]["training.save_checkpoint.bytes"] = session.ckpt_bytes
        tracer.write_spans(work / "prep-spans.jsonl.gz")
    (work / "prep.json").write_text(json.dumps(out))


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    import synth
    from arabner import corpus
    from reference import CheckFailed
    from tracer import Tracer
    from workloads import OOV_SHARE, PLANS, SMOKE_PLANS, Session, end_to_end, peak_rss_mb

    plan = (SMOKE_PLANS if smoke else PLANS)[workload]
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.perf_counter()
    try:
        gen = synth.build(seed, plan.spec, work, plan.held_out, plan.predict, OOV_SHARE)
        synth.write(gen, seed)
        held_out, _ = corpus.read_corpus(gen.held_out_dir)
        # the benchmark's own inputs stay out of the program's garbage collections
        gc.collect()
        gc.freeze()
        deadline = time.perf_counter() + seconds
        prep = {}
        if plan.prepared:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--prepare", str(work), "--workload", workload,
                   "--seed", str(seed), "--trace", str(int(trace))] + (["--smoke"] if smoke else [])
            subprocess.run(cmd, check=True, timeout=900)
            prep = json.loads((work / "prep.json").read_text())
        result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "smoke": smoke}
        with Tracer(full=trace) as tracer:
            session = Session(plan, gen, held_out, work, seed, tracer)
            try:
                if "check_failed" in prep:
                    raise CheckFailed("preparation: " + prep["check_failed"])
                session.run_rounds(deadline)
                peak_mb = peak_rss_mb()
                session.final_checks()
                correct, problem = True, None
            except CheckFailed as exc:
                correct, problem = False, str(exc)
        samples = dict(session.samples)
        for key, values in prep.get("samples", {}).items():
            samples.setdefault(key, values)
        computed, metrics, units = {}, {}, {}
        if correct:
            computed = end_to_end(samples, session.loss if session.loss is not None else prep["loss"], peak_mb)
            e2e_units, layer_units = metric_units()
            if trace:
                metrics = {**prep.get("layers", {}), **tracer.layer_metrics(session.rounds, session.rounds_start, session.read_rows), **computed}
                metrics["bioes.invalid_predicted_sentences"] = session.invalid_predicted
                if session.ckpt_bytes is not None:
                    metrics["training.save_checkpoint.bytes"] = session.ckpt_bytes
                units = layer_units
            else:
                metrics = computed
                units = e2e_units
        result.update(
            correct=correct,
            problem=problem,
            attempted=session.attempted + prep.get("attempted", 0),
            failed=session.failed + prep.get("failed", 0),
            rounds=session.rounds,
            wall_s=time.perf_counter() - started,
            metrics={k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
            computed=computed,
            samples=samples,
            corpus=corpus_figures(gen),
            environment=environment(),
        )
        results = OUT / ("smoke" if smoke else "results")
        results.mkdir(parents=True, exist_ok=True)
        name = f"{workload}-seed{seed}-trace{int(trace)}"
        (results / f"{name}.json").write_text(json.dumps(result, indent=1, ensure_ascii=False))
        if trace:
            traces = OUT / ("smoke" if smoke else "traces")
            traces.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(traces / f"{name}.jsonl.gz")
            if (work / "prep-spans.jsonl.gz").exists():
                shutil.move(work / "prep-spans.jsonl.gz", traces / f"{name}-prep.jsonl.gz")
        return result
    finally:
        gc.unfreeze()
        shutil.rmtree(work, ignore_errors=True)


def print_result(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{result['workload']:<18} {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"{result['workload']:<18} attempted={result['attempted']} failed={result['failed']} "
          f"rounds={result['rounds']} correct={result['correct']}" + (f" ({result['problem']})" if result["problem"] else ""))
    last = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(last))


def smoke() -> int:
    """Every workload, untraced and traced, on the tiny corpus: schema only."""
    spec = json.loads(SPEC.read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, 1, 0, bool(trace), smoke=True)
            print_result(result)
            missing = sorted({m["name"] for m in spec[section]} - set(result["metrics"]))
            problems = [f"metrics not computed: {missing}"] if missing else []
            if not all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]) for m in result["metrics"].values()):
                problems.append("a metric value is not a finite number")
            if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
                problems.append("run not correct or had failed operations")
            if problems:
                print(f"smoke FAILED on {workload} trace={trace}: " + "; ".join(problems), file=sys.stderr)
                return 1
    print("smoke ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["train-lstm-paper", "train-gru-short", "tag-file"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpus, schema check only")
    parser.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_program()
    sys.path.insert(0, str(BENCH))
    if args.prepare:
        prepare(args)
        return 0
    if args.smoke and not args.workload:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print_result(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
