"""Smoke test: the demos run to completion against the source tree.

Demo 07 drives the ``ettrace`` console script; it runs here through a shim on
``PATH`` that starts ``python -m ettrace.cli``, so each subcommand gets a
fresh interpreter, as an installed script would.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-6]_*.py"))


def test_all_python_demos_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05", "06"]


def source_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_zero(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=source_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(shutil.which("bash") is None, reason="demo 07 is a bash script")
def test_cli_tour_exits_zero(tmp_path):
    shim = tmp_path / "bin" / "ettrace"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m ettrace.cli "$@"\n')
    shim.chmod(0o755)
    env = source_env()
    env["PATH"] = os.pathsep.join([str(shim.parent), env.get("PATH", "")])
    proc = subprocess.run(
        ["bash", str(ROOT / "demos" / "07_cli_tour.sh")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
    assert proc.stdout.rstrip().endswith("tour complete")
