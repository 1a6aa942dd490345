"""Smoke tests: each script under scripts/ runs to completion on a small input."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# the corpus prints nine reports for each of the 111 instances of 1-3
# vertices, every tau in [0, deg + 1]
CORPUS_3 = (999, "a63b24855089baed62a7d923fd2ef0ce7c72b6cfa7f589a2c11cf445cf55bb5c")


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


@pytest.mark.parametrize("argv, message", [
    (["verify_corpus.py", "--family", "0"], "--family must be at least 1"),
    (["verify_corpus.py", "--family", "-3"], "--family must be at least 1"),
    (["rank_agreement_sweep.py", "--max-n", "0"], "--max-n must be at least 1"),
    (["rank_agreement_sweep.py", "--trials", "0"], "--trials must be at least 1"),
], ids=["corpus-family-0", "corpus-family-negative", "sweep-max-n-0", "sweep-trials-0"])
def test_scripts_refuse_sizes_below_1(tmp_path, argv, message):
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          cwd=tmp_path, capture_output=True, text=True, timeout=5)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert message in proc.stderr and "Traceback" not in proc.stderr
