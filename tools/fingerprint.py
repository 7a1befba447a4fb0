"""Bitwise fingerprint of training and decoding, to show that a change to
`src/` leaves every float as it was.

    PYTHONPATH=src python tools/fingerprint.py

It takes no options and prints sorted JSON: for each case, the first 16
hex digits of a sha256. The perfbench configs are read relative to this
file and lpcsm is imported from PYTHONPATH, so one copy of the script can
be run against two source trees and the outputs compared.

Train cases: 4 `train()` steps, seed 1, of the two train configs, each as
it is and in five variants; the metrics CSV without its tokens/s column,
and the parameter bytes in store order. Decode cases: the decode config's
model at init seed 1, in the same six variants; the greedy tokens of the
first two task prompts extended by 128 tokens, and the logits of a 7-token
prefill followed by 33 one-token decode steps.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import replace
from pathlib import Path

from lpcsm.config import load_run_config
from lpcsm.data import make_batch
from lpcsm.model import init_params
from lpcsm.runtime import generate, init_cache, step_decode
from lpcsm.train import train

CONFIGS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"
VARIANTS = {
    "as-is": {},
    "ont=false": {"ont": False},
    "slow_memory=false": {"slow_memory": False},
    "chunk_size=5": {"chunk_size": 5},
    "latent_dim=8": {"latent_dim": 8},
    "mhc=false,predictive_coding=false": {"mhc": False,
                                          "predictive_coding": False},
}
SEED = 1
TRAIN_STEPS = 4
MAX_NEW = 128
PREFILL, STEPS = 7, 33


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def train_case(run) -> dict[str, str]:
    out = io.StringIO()
    result = train(run, steps=TRAIN_STEPS, seed=SEED, metrics_out=out)
    csv = "".join(line.rsplit(",", 1)[0] + "\n"
                  for line in out.getvalue().splitlines())
    return {"csv": digest(csv.encode()),
            "params": digest(*(t.data.tobytes()
                               for _, t in result.params.items()))}


def decode_case(run) -> dict[str, str]:
    cfg = run.model
    params = init_params(cfg, seed=SEED)
    prompts, _ = make_batch(run.task, 2, index=0)
    tokens = [generate(p.tolist(), MAX_NEW, params, cfg) for p in prompts]
    first = prompts[0].tolist()
    logits, cache = step_decode(first[:PREFILL], init_cache(cfg), params, cfg)
    rows = [logits]
    for t in first[PREFILL:PREFILL + STEPS]:
        logits, cache = step_decode(t, cache, params, cfg)
        rows.append(logits)
    return {"tokens": digest(json.dumps(tokens).encode()),
            "logits": digest(*(part.data.tobytes() for r in rows
                               for part in (r.lm, r.stop) if part is not None))}


def main() -> None:
    cases = [("train-copy-t64", train_case), ("train-recall-t256", train_case),
             ("decode-t256", decode_case)]
    out = {}
    for name, case in cases:
        run = load_run_config(str(CONFIGS / f"{name}.yaml"))
        for variant, changes in VARIANTS.items():
            model = replace(run.model, **changes)
            for what, value in case(replace(run, model=model)).items():
                out[f"{name}/{variant}/{what}"] = value
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
