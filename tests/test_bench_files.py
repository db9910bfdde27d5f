"""Every committed `BENCH_*.json` keeps the shape that performance claims cite: the
`perfbench/run.py` records of the parent commit and of the change, each naming its
workload, seed and machine beside its metrics."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
RECORD_KEYS = {"workload", "seed", "machine", "metrics"}


def test_bench_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[path.name for path in BENCH_FILES])
def test_bench_file_holds_parent_and_change_records(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    for side in ("parent", "change"):
        records = bench[side]
        assert isinstance(records, list) and records, side
        for record in records:
            assert RECORD_KEYS <= set(record), (side, sorted(RECORD_KEYS - set(record)))
            assert isinstance(record["metrics"], dict) and record["metrics"], side
