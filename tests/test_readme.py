"""The README's library example runs as documented."""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

from congame.examples import example_text

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    games = tmp_path / "games"
    games.mkdir()
    (games / "ex3full.game").write_text(example_text("ex3full"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["result"].values["s3"] == Fraction(3, 5)
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "3/5"
    assert printed[1].startswith("eps-approx ")
