"""The benchmark's self-tests, run as one test.

perfbench/selftest.py checks the query generators, the answer checks and
the tracer.  Its tracer test resolves every canonfn name the tracer binds
(functions by module and name, methods by class and name, _run_search's
seeds by position), so a moved or renamed name fails here, not only in a
traced benchmark run.  It runs in a subprocess because the tracer patches
canonfn in the process that installs it.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-4000:]
