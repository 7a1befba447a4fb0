"""tools/fingerprint.py: one run prints the 36 hashes it documents."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import lpcsm

ROOT = Path(__file__).resolve().parent.parent
SRC = os.path.dirname(os.path.dirname(os.path.abspath(lpcsm.__file__)))


def test_prints_36_hex_digests():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "fingerprint.py")],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    variants = ["as-is", "ont=false", "slow_memory=false", "chunk_size=5",
                "latent_dim=8", "mhc=false,predictive_coding=false"]
    keys = {f"{name}/{v}/{what}"
            for name, whats in [("train-copy-t64", ("csv", "params")),
                                ("train-recall-t256", ("csv", "params")),
                                ("decode-t256", ("tokens", "logits"))]
            for v in variants for what in whats}
    assert len(keys) == 36
    assert set(out) == keys
    assert list(out) == sorted(out)
    assert all(re.fullmatch(r"[0-9a-f]{16}", h) for h in out.values())
