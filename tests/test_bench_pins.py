"""Every library name the benchmark's tracer wraps still exists.

``bench/spans.py`` records a wrapped name that is gone as absent and reads
its per-layer metrics as 0, so a refactor that drops one would otherwise
pass unnoticed.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_wrapped_name_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in spans.WRAPPED
        if not hasattr(importlib.import_module(f"slotchain.{module}"), attr)
    ]
    assert missing == []
