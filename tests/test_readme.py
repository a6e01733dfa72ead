"""The README's markdown tables render as written: every row has its
header's number of cells, and the check table lists the registry."""

import re
from pathlib import Path

from grothtab.identities import check_ids

README = Path(__file__).parent.parent / "README.md"


def _cells(row: str) -> list[str]:
    """The cells of a table row, split at every pipe a backslash does not
    escape: GitHub-flavoured Markdown splits there even inside a code span."""
    return re.split(r"(?<!\\)\|", row.strip().removeprefix("|").removesuffix("|"))


def _tables() -> list[list[str]]:
    """Each table outside code fences, as its lines: header, delimiter, body."""
    tables, fenced, previous = [], False, False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        is_row = not fenced and line.startswith("|")
        if is_row and not previous:
            tables.append([])
        if is_row:
            tables[-1].append(line)
        previous = is_row
    return tables


def test_every_table_row_has_the_header_cell_count():
    tables = _tables()
    assert len(tables) >= 2
    wrong = [row[:40] for table in tables for row in table
             if len(_cells(row)) != len(_cells(table[0]))]
    assert wrong == []


def test_the_check_table_lists_the_registry_in_order():
    (table,) = [t for t in _tables() if _cells(t[0])[0].strip() == "id"]
    ids = [name for row in table[2:] for name in re.findall(r"`([^`]+)`", _cells(row)[0])]
    assert ids == check_ids()
