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


def test_src_lines_kinds_sum_to_each_module_and_to_the_total(capsys, tmp_path):
    script = runpy.run_path(str(ROOT / "scripts" / "src_lines.py"))
    # a blank line counts as docstring inside a docstring, as code inside
    # any other string
    sample = tmp_path / "sample.py"
    sample.write_text('"""Doc.\n\nMore."""\n\n# note\nx = 1  # trailing\ny = """a\n\nb"""\n')
    assert script["count_lines"](sample) == {"code": 4, "docstring": 3, "comment": 1, "blank": 1}
    modules = sorted(script["PACKAGE"].glob("*.py"))
    assert modules
    total = 0
    for path in modules:
        counts = script["count_lines"](path)
        assert set(counts) == set(script["KINDS"])
        assert sum(counts.values()) == len(path.read_text().splitlines())
        total += sum(counts.values())
    script["main"]()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(modules) + 2
    assert lines[-1].split()[0] == "total"
    assert int(lines[-1].split()[-1].replace(",", "")) == total
