"""The traced benchmark wraps arabner's functions by name; check that every
name it looks up still exists where it looks, so a rename fails here and
not in a ``--trace 1`` benchmark run."""

import importlib.util
from pathlib import Path

from arabner import training

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


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
