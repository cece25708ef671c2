"""The program names the benchmark tracer wraps.

``perfbench/tracing.py`` times layers by replacing module attributes that
the program looks up at call time, and it names a model's layer by the
model's class name. A target whose attribute no longer exists is reported
as unmeasured, and a model class it does not know is timed under another
name, so a rename in the program silently blinds a layer. These tests read
the tracer's tables (the file is imported, not edited) and fail when the
set of blind targets changes.
"""

import importlib
import importlib.util
from pathlib import Path

from numctx import classifiers

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# targets whose attributes the program no longer has; retargeting the
# tracer empties this set
UNMEASURED = {
    ("numctx.bow_features", "bow_encode"),
    ("numctx.cli", "deserialize"),
    ("numctx.cli", "locate_numbers"),
    ("numctx.cli", "predict"),
    ("numctx.cli", "scan_corpus"),
    ("numctx.cli", "shape_of"),
    ("numctx.cli", "tokenize"),
    ("numctx.cli", "train"),
    ("numctx.cli", "verbalize"),
    ("numctx.context_features", "encode"),
    ("numctx.context_features", "encode_at"),
    ("numctx.context_features", "tokenize"),
    ("numctx.context_features", "window_for_token"),
    ("numctx.evaluation", "train"),
}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_missing_targets_are_the_known_ones():
    missing = {
        (module, attr)
        for module, attr, _name, _rows in _tracing().TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    }
    assert missing == UNMEASURED


def test_every_traced_model_class_exists():
    for name in _tracing()._ALGOS:
        cls = getattr(classifiers, name, None)
        # an alias of another class would be traced under that class's name
        assert isinstance(cls, type) and cls.__name__ == name, name
