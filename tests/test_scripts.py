import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demo_find_sub_runs_and_verifies(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    runpy.run_path(str(ROOT / "scripts" / "demo_find_sub.py"), run_name="__main__")
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "verified: containment=True nonempty=True codim=True"
