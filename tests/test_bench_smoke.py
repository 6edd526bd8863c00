"""The benchmark harness runs end to end and every workload's output is correct.

`python3 bench/run.py --smoke` runs every workload once untraced and once
traced at a tiny size and prints one line per run.  No timing is checked:
on a shared machine any bound would be flaky.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT_LINE = re.compile(r"smoke (\S+) +trace=([01]) (\S+) \(")


def test_bench_smoke_runs_and_every_workload_is_correct():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    verdicts = [REPORT_LINE.match(line) for line in lines]
    assert lines and all(verdicts), proc.stdout
    assert [m.group(3) for m in verdicts] == ["ok"] * len(lines), proc.stdout
