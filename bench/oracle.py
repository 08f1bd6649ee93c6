"""Compare kernlr CLI outputs with reference files recorded from a known-good build.

Tolerance, cell by cell (``a`` measured, ``b`` reference):

* numeric CSVs (``sweep_*.csv``, ``compare_*.csv``): the ``rank`` column must
  match exactly; every other cell must satisfy
  ``|a - b| <= 1e-6 |b| + 1e-9 max|column of b|``. The absolute term lets
  round-off-level entries near full rank move with summation order.
* ``verify.csv``: the row is split on its first five commas only, because the
  ``detail`` column holds unquoted commas. ``check``, ``threshold``,
  ``passed``, ``seed`` and ``detail`` must match exactly; ``statistic`` must
  satisfy ``|a - b| <= 1e-6 |b| + 1e-3 threshold``.

The header and the row count must match exactly in both cases.
"""

from __future__ import annotations

from pathlib import Path

RTOL = 1e-6
COLUMN_ATOL = 1e-9
THRESHOLD_ATOL = 1e-3


def _read(path: Path, fields: int = 0) -> tuple[str, list[list[str]]]:
    """Header line and rows; with ``fields`` set, split each row into at most that many."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path.name} is empty")
    return lines[0], [line.split(",", fields - 1) for line in lines[1:]]


def _close(a: float, b: float, atol: float) -> bool:
    return abs(a - b) <= RTOL * abs(b) + atol


def _compare_numeric(got: Path, ref: Path) -> list[str]:
    ref_header, ref_rows = _read(ref)
    header, rows = _read(got)
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"{got.name}: header or row count differs from the reference"]
    columns = ref_header.split(",")
    scale = [max(abs(float(row[j])) for row in ref_rows) for j in range(len(columns))]
    problems = []
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(ref_row):
            problems.append(f"{got.name} row {i + 1}: {len(row)} cells, expected {len(ref_row)}")
            continue
        for j, (a, b) in enumerate(zip(row, ref_row)):
            same = (a == b) if columns[j] == "rank" else _close(float(a), float(b),
                                                                 COLUMN_ATOL * scale[j])
            if not same:
                problems.append(f"{got.name} row {i + 1} {columns[j]}: {a} vs reference {b}")
    return problems


def _compare_verify(got: Path, ref: Path) -> list[str]:
    ref_header, ref_rows = _read(ref, fields=6)
    header, rows = _read(got, fields=6)
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"{got.name}: header or row count differs from the reference"]
    problems = []
    for row, ref_row in zip(rows, ref_rows):
        name = ref_row[0]
        if len(row) != 6:
            problems.append(f"{got.name} {name}: {len(row)} fields, expected 6")
            continue
        exact = [row[k] == ref_row[k] for k in (0, 3, 4, 5)] + [float(row[2]) == float(ref_row[2])]
        if not all(exact):
            problems.append(f"{got.name} {name}: {row} vs reference {ref_row}")
        elif not _close(float(row[1]), float(ref_row[1]), THRESHOLD_ATOL * float(ref_row[2])):
            problems.append(f"{got.name} {name}: statistic {row[1]} vs reference {ref_row[1]}")
    return problems


def compare_outputs(out_dir: Path, ref_dir: Path, names) -> list[str]:
    """Problems found comparing ``out_dir/<name>`` with ``ref_dir/<name>``; empty if none."""
    problems = []
    for name in names:
        got = out_dir / name
        if not got.is_file():
            problems.append(f"{name}: missing")
            continue
        compare = _compare_verify if name == "verify.csv" else _compare_numeric
        try:
            problems += compare(got, ref_dir / name)
        except ValueError as exc:  # unparsable cell or empty file
            problems.append(f"{name}: {exc}")
    return problems
