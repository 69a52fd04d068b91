"""The demo scripts run to completion.

Demos 01-04 run as subprocesses in a temporary working directory and must
exit 0, with a ``RuntimeWarning`` (an overflow, an invalid operation) made
an error as in the tier-1 run; together they take about 4.5 s.  Demo 05 is
left out: it simulates for about 5 s on two shared CPUs and writes a
28.5 MB trace CSV into its working directory.  The CI workflow runs it in a
step of its own, on the same terms, with nothing allowed on stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p for p in (ROOT / "demos").glob("0[1-4]_*.py"))


def test_demo_set():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
