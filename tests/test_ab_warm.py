"""Smoke tests of tools/ab_warm.py, the paired warm-pass comparison of two
checkouts in one process."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _ab_warm(base, change, workload):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_warm.py"), str(base), str(change),
         "--workload", workload, "--smoke", "--rounds", "2"],
        capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", ["rw-d1-L12", "acceptance-mix"])
def test_this_checkout_against_itself(workload):
    r = _ab_warm(ROOT, ROOT, workload)
    assert r.returncode == 0, r.stderr
    assert f"workload {workload} (smoke)  seed 0  rounds 2  reports equal" in r.stdout
    assert "  base    median " in r.stdout and "  change  median " in r.stdout
    assert "rounds" in r.stdout.splitlines()[-1]


def test_refuses_checkouts_whose_reports_differ(tmp_path):
    package = tmp_path / "src" / "dyadicpara"
    shutil.copytree(ROOT / "src" / "dyadicpara", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = package / "decomposition.py"
    text = source.read_text()
    assert '"size": len(rects),' in text
    source.write_text(text.replace('"size": len(rects),', '"size": len(rects) + 1,'))
    r = _ab_warm(ROOT, tmp_path, "rw-d1-L12")
    assert r.returncode == 1
    assert "the reports differ outside meta" in r.stderr
