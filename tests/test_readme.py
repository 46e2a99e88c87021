"""The README's Python examples run as written, so the docs follow the API."""

import re
from pathlib import Path

from conftest import CSV_HEADER, profile_rows

from errant.ingest import _BIN_EDGES

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


def test_readme_signal_bins_match_bin_edges():
    section = README.read_text(encoding="utf-8").split("## Profiles and models", 1)[1]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in section.split("\n#", 1)[0].splitlines()
        if line.startswith("|") and not line.startswith("|---")
    ]
    shipped = [
        [rat.value, f"rssi <= {bad:g}", f"{bad:g} < rssi <= {ordinary:g}", f"rssi > {ordinary:g}"]
        for rat, (bad, ordinary) in _BIN_EDGES.items()
    ]
    assert rows == [["technology", "bad", "ordinary", "good"], *shipped]
