"""tools/ab.py: the repo against itself prints one row per workload, and
the two copies give identical outputs."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_repo_against_itself():
    # Two rounds instead of ROUNDS, to keep the test short.
    script = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); "
              f"import ab; ab.ROUNDS = 2; "
              f"sys.exit(ab.main([{str(ROOT)!r}, {str(ROOT)!r}, 'train-copy-t64']))")
    run = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    header, row = run.stdout.splitlines()
    assert header.split() == ["workload", "unit", "A", "ms", "B", "ms", "B/A",
                              "B", "won", "identical"]
    m = re.fullmatch(r"train-copy-t64 +ms/step +(\d+\.\d{3}) +(\d+\.\d{3})"
                     r" +(\d+\.\d{3}) +(\d)/2 +(yes|no)", row.strip())
    assert m, row
    assert 0 <= int(m[4]) <= 2
    assert m[5] == "yes"
