"""``examples/observe_fleet.py`` without ``--out`` leaves nothing behind."""

import os
import subprocess
import sys

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
EXAMPLE = os.path.join(ROOT, "examples", "observe_fleet.py")


def test_default_output_directory_is_removed(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=src)
    done = subprocess.run([sys.executable, EXAMPLE, "--workers", "1", "--requests", "2"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "OK: metrics, rollup, and trace all agree" in done.stdout
    assert "fleet-obs-" in done.stdout  # the run did write into a temporary directory
    assert list(tmp_path.iterdir()) == []
