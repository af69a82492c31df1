"""The aggregate CSV keys each row by its full cell, axes included."""

from __future__ import annotations

import csv

from repro.fleet import SweepSpec, aggregate, write_cells_csv


def _rows(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def test_cells_differing_only_in_axes_get_distinct_csv_keys(tmp_path):
    spec = SweepSpec(
        scenarios=("two-region",),
        policies=("uniform",),
        loads=(0.5,),
        replicates=1,
        eras=12,
        retrain=(0, 8),
        domains=("flat", "2x2"),
        policy_heads=("", "static:uniform"),
        slo=("", "p95:0.5"),
    )
    jobs = spec.expand()
    cells = aggregate(jobs, [{"m": float(i)} for i in range(len(jobs))])
    assert len(cells) == spec.cell_count == 16

    path = tmp_path / "cells.csv"
    write_cells_csv(cells, str(path))
    rows = _rows(path)
    columns = list(rows[0])
    key_columns = columns[: columns.index("n")]
    keys = [tuple(row[c] for c in key_columns) for row in rows]
    assert len(set(keys)) == len(cells)
    # each row's key still leads with the historical four columns
    assert key_columns[:4] == ["kind", "scenario", "policy", "load"]
