import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def test_scan_model1_levels_smoke():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "scan_model1_levels.py"),
         "--points", "3", "--n-max", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "k = 2.0, branch C2=1/2, C3=k-1, levels scanned 0..2"
    assert lines[1].split() == ["C1", "radicand-ok", "count", "lowest", "E_sq_bar"]
    assert len(lines) == 2 + 3 + 1
    for row in lines[2:5]:
        c1, count, _ = row.split()
        assert 0.0 < float(c1) < 0.5 and 0 <= int(count) <= 3
    assert lines[-1] == "count non-decreasing in C1: True"
