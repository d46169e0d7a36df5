"""The traced benchmark wraps arabner's functions by name; check that every
name it looks up still exists where it looks, and that the benchmark's smoke
run passes, so a rename or a changed signature fails here and not in a
benchmark run."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from arabner import training

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
TRACER = BENCHMARKS / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    pairs = [(training, attr) for attr in ("model_forward", "adam_step", "train")]
    for attr, modules in [*tracer.TIMED.values(), *tracer.COUNTED.values()]:
        pairs += [(module, attr) for module in modules]
    missing = [f"{m.__name__}.{attr}" for m, attr in pairs if not callable(getattr(m, attr, None))]
    assert missing == []
    assert len(pairs) > 30  # the tables were read, not empty


def test_benchmark_smoke_run_passes():
    # every workload, untraced and traced, on a tiny corpus (about 5 s)
    run = subprocess.run(
        [sys.executable, str(BENCHMARKS / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.rstrip().endswith("smoke ok")
