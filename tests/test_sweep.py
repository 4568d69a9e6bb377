"""CI-style breadth gate: the driver's correctness gate samples ~50 of the
queries() entries; this marker run keeps the other ~90 honest between
rounds by sweeping EVERY entry against its DuckDB oracle at two scale
factors. Deselected by default (pytest.ini: -m "not sweep"); run with

    python -m pytest tests/ -m sweep -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))


@pytest.mark.sweep
@pytest.mark.parametrize("sf_dir", ["/root/testdata/sf0.001",
                                    "/root/testdata/sf0.01"])
def test_full_oracle_sweep(sf_dir):
    from check_oracle import run_sweep

    failures = run_sweep(sf_dir)
    assert not failures, f"oracle sweep failures at {sf_dir}: {failures}"
