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
              f"sys.exit(ab.main([{str(ROOT)!r}, {str(ROOT)!r}, "
              f"'train-copy-t64', 'decode-t256']))")
    run = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    header, *rows = run.stdout.splitlines()
    assert header.split() == ["workload", "unit", "A", "ms", "A", "IQR%", "B",
                              "ms", "B/A", "B", "won", "identical"]
    assert len(rows) == 2
    for row, (name, unit) in zip(rows, [("train-copy-t64", "ms/step"),
                                        ("decode-t256", "ms/token")]):
        m = re.fullmatch(rf"{name} +{unit} +(\d+\.\d{{3}}) +(\d+\.\d)"
                         r" +(\d+\.\d{3}) +(\d+\.\d{3}) +(\d)/2 +(yes|no)",
                         row.strip())
        assert m, row
        assert 0 <= int(m[5]) <= 2
        assert m[6] == "yes"


def test_decode_op_times_tokens_not_prefill():
    # A prefill that sleeps 1 s would add 1000/128 ms to every token of a
    # whole-call clock; the per-call median leaves it out.
    script = f"""
import sys, time
sys.path[:0] = [{str(ROOT / 'tools')!r}, {str(ROOT / 'src')!r}]
import ab
side = ab.Side("lpcsm", "decode-t256")
step = side.runtime.step_decode
def slow_prefill(tokens, *args, **kwargs):
    if not isinstance(tokens, int):
        time.sleep(1.0)
    return step(tokens, *args, **kwargs)
side.runtime.step_decode = slow_prefill
ms, out = side.op()
assert side.runtime.step_decode is slow_prefill
print(ms, len(out))
"""
    run = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    ms, tokens = run.stdout.split()
    assert int(tokens) == 256
    assert float(ms) < 5.0
