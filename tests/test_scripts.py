"""Smoke tests: each script under scripts/ runs to completion on a small input."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# the corpus prints nine reports for each of the 11 instances of 1-3 vertices
CORPUS_3 = (99, "758afcec744bce36952b119e3308e8a4bb5ac81cea671a05c1ae57ed098c6d08")


@pytest.mark.parametrize("argv, summary, stdout", [
    (["verify_corpus.py", "--family", "3"], "; failures: none; ", CORPUS_3),
    (["rank_agreement_sweep.py", "--trials", "100", "--max-n", "4"], ", 0 mismatches, ", None),
], ids=["corpus-family", "rank-sweep"])
def test_script_exits_0(tmp_path, argv, summary, stdout):
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert summary in proc.stderr + proc.stdout  # the corpus summarises on stderr
    if stdout is not None:
        lines, digest = stdout
        assert len(proc.stdout.splitlines()) == lines
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_corpus_refuses_six_vertices_at_once(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "verify_corpus.py"), "--family", "6"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=5)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "family sizes above 5 are refused" in proc.stderr
