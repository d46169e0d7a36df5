"""The traced benchmark wraps arabner's functions by name; check that every
name it looks up still exists where it looks, and that the benchmark's smoke
run passes, so a rename or a changed signature fails here and not in a
benchmark run.  Also check that every other import is read where it is made,
and that every private function is read in the package."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import arabner
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


def test_every_imported_name_is_used():
    # an import nothing reads is a leftover of deleted code, unless the
    # tracer looks the name up in that module to patch it; those shims are
    # listed here, so a new one needs an edit and the list can only shrink
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    patched = {
        (module.__name__.rpartition(".")[2], attr)
        for attr, modules in [*tracer.TIMED.values(), *tracer.COUNTED.values()]
        for module in modules
    }
    unused, shims = [], []
    for path in sorted(Path(arabner.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        found = shims if (path.stem, name) in patched else unused
                        found.append(f"{path.stem}.{name}")
    assert unused == []
    assert sorted(shims) == ["cli.predict_tags", "training.validate_sequence"]


def test_every_private_function_is_called_from_the_package():
    # a single-underscore function that only tests reach is a helper kept
    # for its own tests; every one must be read somewhere in src/arabner
    defined, read = set(), set()
    for path in Path(arabner.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__"):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert len(defined) >= 20  # the scan found the package's helpers
    assert sorted(defined - read) == []


def test_benchmark_smoke_run_passes():
    # every workload, untraced and traced, on a tiny corpus (about 5 s)
    run = subprocess.run(
        [sys.executable, str(BENCHMARKS / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.rstrip().endswith("smoke ok")
