"""The names the benchmark tracer wraps, resolved on the package.

`bench/tracer.py` wraps each of its targets by looking the name up with
getattr, so deleting one breaks traced benchmark runs alone. This test
reads the target table from the tracer's source, without installing
the tracer, and looks every name up the way `Tracer.install` does.
"""

import importlib
import types
from fractions import Fraction
from pathlib import Path

from trilie.exact import RatMatrix

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_module() -> types.ModuleType:
    # run from its source text, so no bytecode cache is written beside it
    module = types.ModuleType("tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_tracer_target_resolves():
    targets = _tracer_module().Tracer()._targets()
    assert targets
    for metric, path, _ in targets:
        owner = importlib.import_module("trilie." + metric.split(".", 1)[0])
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
            assert isinstance(owner, type), f"{metric}: no class {cls}"
        assert callable(getattr(owner, attr, None)), f"{metric}: {path} is gone"


def test_ratmatrix_data_is_the_dense_listing():
    # the tracer's matmul density and bit counters read RatMatrix.data
    m = RatMatrix(2, 2, [0, Fraction(1, 2), 3, 0])
    assert m.data == [0, Fraction(1, 2), 3, 0]
