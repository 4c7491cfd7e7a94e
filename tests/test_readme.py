"""The README's "Library" code runs as written.

Each Python block of that section runs in its own namespace, in a
directory holding the files the blocks read: a small ``train.csv`` and
``test.csv`` and a ``fixtures.jsonl`` with answers for (m1, blind, 1.0).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from aebayes_testkit import make_dataset, write_dataset

README = Path(__file__).resolve().parents[1] / "README.md"


def library_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


BLOCKS = library_blocks()


def test_library_section_has_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_library_block_runs(code, tmp_path, monkeypatch, capsys):
    # enough sites in every stratum for the three folds a block may ask for
    write_dataset(make_dataset([1, 2, 3, 4, 5, 6] * 3, seed=1), tmp_path / "train.csv")
    write_dataset(make_dataset([2, 3, 5], seed=2), tmp_path / "test.csv")
    (tmp_path / "fixtures.jsonl").write_text(json.dumps({
        "model": "m1", "strategy": "blind", "temperature": 1.0,
        "response": '{"alpha_rate": 0.5, "beta_rate": 0.1}'}) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()
