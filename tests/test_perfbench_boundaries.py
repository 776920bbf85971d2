"""The benchmark's traced run wraps named functions of the package.

Installing the wrappers raises if a name it wraps is gone, so a rename in
the package shows up here rather than in every traced benchmark run.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_span_wrappers_install_and_undo():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    from fixlat import _kernels, relational

    before = (_kernels.gather_candidates, relational.relational_dcl)
    inst = spans.install(spans.Tracer())
    try:
        assert _kernels.gather_candidates is not before[0]
    finally:
        inst.undo()
    assert (_kernels.gather_candidates, relational.relational_dcl) == before
