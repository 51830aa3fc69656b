"""The bench tracer's bindings: every name it wraps still exists in crossreg.

bench/spans.py patches module attributes by name, so a name that a module
stops binding would only surface as a failed benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import crossreg.pipeline

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is made
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_bound_where_they_are_wrapped(monkeypatch):
    spans = load_spans(monkeypatch)
    unbound = [name for name in spans.PIPELINE_LAYERS
               if not callable(getattr(crossreg.pipeline, name, None))]
    assert unbound == []
    assert [site.__name__ for site in spans.KNN_SITES
            if not callable(getattr(site, "knn_indices", None))] == []
