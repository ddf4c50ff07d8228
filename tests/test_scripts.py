import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_demo_find_sub_runs_and_verifies(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    runpy.run_path(str(ROOT / "scripts" / "demo_find_sub.py"), run_name="__main__")
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "verified: containment=True nonempty=True codim=True"


def test_run_sweep_is_byte_identical_and_within_budget(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    script = tmp_path / "run_sweep.py"
    script.write_text((ROOT / "scripts" / "run_sweep.py").read_text())
    outputs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(script), run_name="__main__")
        assert exc.value.code == 0
        outputs.append((tmp_path / "sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]
    rows = [line.split(",") for line in outputs[0].decode().splitlines()[2:]]
    assert len(rows) == 5
    for cols in rows:
        assert cols[8] == "ok"
        assert int(cols[6]) <= int(cols[7])
