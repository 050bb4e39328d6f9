"""The benchmark tracer wraps program functions by name; each must exist."""

from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing
    missing = [f"{name}: {owner.__name__}.{attribute}"
               for name, owner, attribute, _ in tracing.TARGETS
               if not callable(getattr(owner, attribute, None))]
    assert not missing, missing
