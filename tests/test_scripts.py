import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _env():
    """The environment with the tree's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def test_scan_model1_levels_smoke():
    env = _env()
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


def test_verify_digests_smoke(tmp_path):
    # one line per configuration of the matrix, every run exits 0, each
    # followed by one line per claim family of its report; the examples'
    # digests at their own 4 levels are those of the reports that
    # `dirac-sphere verify` writes, here through its module entry, and so
    # are their family digests
    env = _env()
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "verify_digests.py")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.returncode == 0, res.stderr
    rows = [line.split() for line in res.stdout.splitlines()]
    assert all(len(row) == 3 for row in rows)
    assert all(code == "0" for _, code, _ in rows)
    digests = {name: digest for digest, _, name in rows}
    assert len(digests) == len(rows)
    reports = [name for _, _, name in rows if ":" not in name]
    assert len(reports) == 10 + 3 + 1 + 6 + 8
    families = ["f", "conventions", "a", "b", "c", "d", "e", "g"]
    expected = []
    for name in reports:
        # one level has no partner to pair, so no e.* claim
        expected += [name] + [f"{name}:{f}" for f in families if f != "e" or not name.endswith(".lv1")]
    assert [name for _, _, name in rows] == expected
    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    try:
        import verify_digests
    finally:
        sys.path.pop(0)
    for model in (1, 2):
        subprocess.run(
            [sys.executable, "-m", "dirac_sphere.cli", "verify", "--config",
             os.path.join(ROOT, "examples", f"model{model}.json"), "--out", str(tmp_path)],
            check=True,
            capture_output=True,
            env=env,
        )
        written = (tmp_path / f"verify_model{model}.json").read_bytes()
        assert digests[f"model{model}.lv4"] == hashlib.sha256(written).hexdigest()
        for family, digest in verify_digests.family_digests(json.loads(written)).items():
            assert digests[f"model{model}.lv4:{family}"] == digest
