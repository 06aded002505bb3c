"""README's sample config and library example run as printed."""

import json
import re
from pathlib import Path

from blendnet.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(lang):
    blocks = re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)
    assert len(blocks) == 1, f"expected one {lang} block in README.md"
    return blocks[0]


def test_readme_sample_config_validates_runs_and_sizes_k(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(_block("ini"))
    out_dir = tmp_path / "res"
    assert main(["validate", "--config", str(cfg)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
    results = json.loads((out_dir / "results.json").read_text())
    assert results["reliable"] is True
    assert len(results["events_applied"]) == 2
    capsys.readouterr()
    assert main(["kmin", "--config", str(cfg), "--eps", "0.4"]) == 0
    assert json.loads(capsys.readouterr().out)["kmin"] >= 1


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(_block("python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("{1: 10, 2: 10")
    assert (tmp_path / "trace.csv").stat().st_size > 0
    assert (tmp_path / "blended.csv").stat().st_size > 0
