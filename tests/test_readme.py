"""The Python examples in README.md run against the current API."""

import re
from pathlib import Path

from alp.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    # a small stand-in for the `traces.csv` of the README's `alp synth` line
    assert main(["synth", "--users", "1", "--days", "1", "--pois", "2", "--trip",
                 "--sample-period", "300", "--seed", "7", "--out", "traces.csv"]) == 0
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), {"__name__": "readme"})
