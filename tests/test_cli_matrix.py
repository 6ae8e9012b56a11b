"""Every byte the CLI matrix writes matches the committed tests/cli_matrix.golden."""

import difflib
from pathlib import Path

import pytest

import cli_matrix

GOLDEN = Path(__file__).with_name("cli_matrix.golden")
SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_output_matches_the_golden_file():
    expected = GOLDEN.read_text(encoding="utf-8")
    actual = cli_matrix.matrix(SRC)
    if actual != expected:
        diff = "".join(difflib.unified_diff(expected.splitlines(True), actual.splitlines(True),
                                            "tests/cli_matrix.golden", "this run"))
        pytest.fail(f"CLI output moved. The golden file was made with "
                    f"{expected.splitlines()[0].lstrip('# ')}; this run has "
                    f"{actual.splitlines()[0].lstrip('# ')}. If the change is meant, regenerate "
                    f"it with `python tests/cli_matrix.py --src src > tests/cli_matrix.golden`.\n"
                    f"{diff}")
