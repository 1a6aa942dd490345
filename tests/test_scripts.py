"""Smoke tests: each script under scripts/ runs to completion on a small input."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("argv", [
    ["verify_corpus.py", "--family", "3"],
    ["rank_agreement_sweep.py", "--trials", "100", "--max-n", "4"],
], ids=["corpus-family", "rank-sweep"])
def test_script_exits_0(tmp_path, argv):
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_corpus_refuses_six_vertices_at_once(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "verify_corpus.py"), "--family", "6"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=5)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "family sizes above 5 are refused" in proc.stderr
