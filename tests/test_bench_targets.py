"""The benchmark's traced run replaces library attributes in place, looking
each up through ``owner.__dict__``; a refactor that drops one must fail here,
not only under ``bench/run.py --trace 1``."""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_trace_targets_are_own_attributes(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import bench_trace

    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in bench_trace.targets(include_cli=True)
        if attr not in owner.__dict__
    ]
    assert not missing
