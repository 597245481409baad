"""The desk-rows table of tools/desk_rows.py is well formed: every row
names an owning ROADMAP item, reads only inputs the runner writes, and
parses through the CLI's own parser. Nothing is run."""

import importlib.util
import re
from pathlib import Path

import pytest

from dirac_atlas import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "desk_rows.py"


def _load():
    spec = importlib.util.spec_from_file_location("desk_rows", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


desk_rows = _load()


def test_rows_are_well_formed():
    names = [desk_rows.row_name(row) for row in desk_rows.ROWS]
    assert len(names) == len(set(names))
    for row in desk_rows.ROWS:
        assert all(isinstance(word, str) and word for word in row.argv), row
        assert set(row.inputs) <= set(desk_rows.INPUTS) and set(row.inputs) <= set(row.argv), row
        assert row.exit in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NUMERICAL), row
        assert re.fullmatch(r"[0-9a-f]{64}", row.sha256), row
        # a refusal prints nothing on stdout
        assert (row.sha256 == desk_rows.EMPTY) == (row.exit != cli.EXIT_OK), row
        assert isinstance(row.owner, int) and row.owner > 0, row


@pytest.mark.parametrize("row", desk_rows.ROWS, ids=desk_rows.row_name)
def test_row_argv_parses(row):
    args = cli._parse(list(row.argv))
    assert (args.command, args.subcommand) == row.argv[:2]
    assert callable(args.handler)
