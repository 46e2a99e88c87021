"""The README's Python examples run as written, so the docs follow the API."""

import re
from pathlib import Path

from conftest import CSV_HEADER, profile_rows

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 2  # building models, then replaying one
    rows = profile_rows(150, 1)
    (tmp_path / "speedtests.csv").write_text("\n".join([CSV_HEADER] + rows) + "\n")
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("150 rows accepted, 0 rejected\n")
    assert "time_s,action,download_kbps,upload_kbps,latency_ms\n" in out
    assert (tmp_path / "models.json").exists()
