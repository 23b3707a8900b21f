"""CSV input and output for the command-line front end.

Two input shapes are supported. A count-matrix CSV has a header row of
column labels (first cell blank or "table") and one body row per table
row: label followed by integer counts. A record CSV has a two-column
header naming the variables and one (row category, column category)
observation per line.
"""

from __future__ import annotations

import csv
import io as _stdio
import re
from collections import Counter
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import Iterator, Sequence

from .distributions import _count
from .table import ContingencyTable, _table_from_pair_counts

__all__ = [
    "InputFormatError",
    "parse_counts_csv",
    "parse_records_csv",
    "counts_csv_text",
]


class InputFormatError(Exception):
    """Raised when an input file cannot be parsed under its declared
    format; maps to exit code 2 in the CLI."""


# Thousands grouping, which survives CSV quoting: "2,892", "1,234,567".
_GROUPED_INT = re.compile(r"[+-]?[0-9]{1,3}(?:,[0-9]{3})+")


def _parse_count_cell(cell: str, line: int, column: int) -> int:
    text = cell.strip()
    if _GROUPED_INT.fullmatch(text):
        text = text.replace(",", "")
    try:
        value = int(text)
    except ValueError:
        raise InputFormatError(
            f"line {line}, column {column}: expected an integer count, "
            f"got {cell!r}") from None
    try:
        return _count(value, f"line {line}, column {column}: count")
    except ValueError as exc:  # a cell of the input file: an input error
        raise InputFormatError(str(exc)) from None


@contextmanager
def _csv_reader(path: str | Path) -> Iterator:
    """Open ``path`` as a ``csv.reader``; read and parse failures inside
    the block become :class:`InputFormatError`."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                yield reader
            except csv.Error as exc:
                raise InputFormatError(f"line {reader.line_num}: {exc}") from exc
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path} is not valid UTF-8: {exc}") from exc


def _is_blank(row: Sequence[str]) -> bool:
    return not any(cell.strip() for cell in row)


def _nonblank_rows(reader) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line, row)`` for each row left in ``reader`` that has a
    non-blank cell; ``line`` is the physical file line the row starts on,
    counting blank lines and newlines inside quoted cells."""
    start = reader.line_num + 1
    for row in reader:
        if not _is_blank(row):
            yield start, row
        start = reader.line_num + 1


def parse_counts_csv(path: str | Path) -> ContingencyTable:
    """Parse a count-matrix CSV into a table, preserving file order."""
    with _csv_reader(path) as reader:
        rows = _nonblank_rows(reader)
        _, header = next(rows, (0, []))
        first = next(rows, None)
        if first is None:
            raise InputFormatError(f"{path}: need a header row and at least 2 data rows")
        if len(header) < 3:
            raise InputFormatError(
                f"{path}: header must name at least 2 columns, got {len(header) - 1}")
        col_labels = [cell.strip() for cell in header[1:]]
        row_labels: list[str] = []
        counts: list[list[int]] = []
        for line, row in chain([first], rows):
            if len(row) != len(col_labels) + 1:
                raise InputFormatError(
                    f"line {line}: expected {len(col_labels) + 1} cells, got {len(row)}")
            row_labels.append(row[0].strip())
            counts.append([_parse_count_cell(cell, line, j + 2)
                           for j, cell in enumerate(row[1:])])
    if len(counts) < 2:
        raise InputFormatError(f"{path}: at least 2 rows required")
    try:
        return ContingencyTable(counts, tuple(row_labels), tuple(col_labels))
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def parse_records_csv(path: str | Path) -> tuple[ContingencyTable, tuple[str, str]]:
    """Parse a two-column record CSV and cross-tabulate it. Returns the
    table plus the two variable names from the header.

    The body is counted as distinct raw rows before any row is checked,
    so memory grows with the number of distinct rows, not of records.
    """
    with _csv_reader(path) as reader:
        _, header = next(_nonblank_rows(reader), (0, None))
        if header is None:
            raise InputFormatError(f"{path}: empty file")
        if len(header) != 2:
            raise InputFormatError(
                f"{path}: record files need exactly 2 columns, got {len(header)}")
        raw_counts = Counter(map(tuple, reader))
    names = (header[0].strip(), header[1].strip())
    pair_counts: Counter[tuple[str, str]] = Counter()
    # A Counter iterates in first-occurrence order, so the first bad key
    # is the first bad row of the file.
    for row, k in raw_counts.items():
        if _is_blank(row):
            continue
        if len(row) != 2:
            raise InputFormatError(
                f"line {_first_line_of(path, row)}: expected 2 cells, got {len(row)}")
        pair_counts[row[0].strip(), row[1].strip()] += k
    if not pair_counts:
        raise InputFormatError(f"{path}: no records after the header")
    try:
        return _table_from_pair_counts(pair_counts), names
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def _first_line_of(path: str | Path, target: tuple[str, ...]) -> int:
    """The line on which ``target`` first occurs as a row of ``path``."""
    with _csv_reader(path) as reader:
        for line, row in _nonblank_rows(reader):
            if tuple(row) == target:
                return line
    raise InputFormatError(f"{path}: changed while it was being read")


def counts_csv_text(table: ContingencyTable) -> str:
    """Render a table in the count-matrix CSV format; the output parses
    back to an identical table."""
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["table", *table.col_labels])
    for label, row in zip(table.row_labels, table.counts):
        writer.writerow([label, *(int(c) for c in row)])
    return buf.getvalue()
