"""Seeded input sweep through `lpcsm.cli.main`, in-process: mutated
checkpoint bytes through `generate`, mutated run-config values through
`train --steps 1`, and extreme `generate` and `probe` arguments. Every
exit is a documented code (0 success, 2 config, 3 numeric, 4 I/O) and no
traceback reaches stderr. The seeds and case counts are fixed, so a case
that fails fails again, and the cases the sweep once failed on are kept
as named tests."""

import random
from dataclasses import fields

import pytest

from lpcsm.checkpoint import save_checkpoint
from lpcsm.cli import main
from lpcsm.config import TrainSettings
from lpcsm.data import SyntheticTask
from lpcsm.model import ModelConfig, init_params
from lpcsm.objective import LossWeights, SgdConfig

DOCUMENTED = {0, 2, 3, 4}
BIG = "99999999999999999999"
PAST_FLOAT = "1" + "0" * 400  # an int no float holds
PAST_STR_LIMIT = "1" + "0" * 5000  # more digits than int() reads from text

# The run config the YAML cases mutate: section -> key -> YAML text.
GOOD = {
    "model": {"vocab_size": "11", "width": "8", "layers": "1", "heads": "2",
              "window": "3", "chunk_size": "3", "max_seq_len": "32"},
    "task": {"kind": "copy", "vocab_size": "11", "seq_len": "12",
             "key_len": "3"},
    "train": {"steps": "2"},
}
SECTIONS = {"model": ModelConfig, "loss": LossWeights, "optimizer": SgdConfig,
            "task": SyntheticTask, "train": TrainSettings}
# Values a mutated key takes, as YAML text. None is so large that it
# allocates much: a size past the bounds is refused before any array.
VALUES = ["0", "1", "-1", "2", "3", "7", "64", "1000000000000", BIG,
          "-" + BIG, PAST_FLOAT, PAST_STR_LIMIT, "0.5", "-0.5", "2.5",
          "1.0e-300", "1.0e+300", "-1.0e+308", ".nan", ".inf", "-.inf",
          "true", "false", "null", "abc", "copy", "key-recall", "[]", "{}",
          "[1, 2]", "'7'"]


def run_cli(argv, capsys):
    """`main`'s exit code and stderr; any exception that escapes it fails
    the test with its traceback."""
    try:
        code = main(argv)
    except SystemExit as e:  # argparse refuses its own arguments
        code = e.code
    return code, capsys.readouterr().err


def check(case, code, err):
    assert code in DOCUMENTED and "Traceback" not in err, (case, code, err)


def with_key(section, key, value):
    """The YAML text of GOOD with one key of one section set to value."""
    sections = {name: dict(body) for name, body in GOOD.items()}
    sections.setdefault(section, {})[key] = value
    return "".join(f"{name}:\n" + "".join(f"  {k}: {v}\n" for k, v in body.items())
                   for name, body in sections.items())


def mutated_yaml(rng):
    """GOOD with one key of one section set to a value from VALUES."""
    section = rng.choice(sorted(SECTIONS))
    key = rng.choice([f.name for f in fields(SECTIONS[section])])
    value = rng.choice(VALUES)
    return f"{section}.{key}={value[:24]}", with_key(section, key, value)


def tiny_checkpoint(path):
    cfg = ModelConfig(vocab_size=11, width=8, layers=1, window=3, heads=2,
                      chunk_size=3, s_ref=1, max_seq_len=32, ratio_init=0.23)
    save_checkpoint(init_params(cfg, seed=1), cfg, path)


def mutated_bytes(data, rng):
    """`data` with a few bits flipped, cut short, or with bytes inserted
    or deleted."""
    out = bytearray(data)
    kind, pos = rng.choice(["flip", "cut", "insert", "delete"]), rng.randrange(len(out))
    if kind == "flip":
        for _ in range(rng.randint(1, 4)):
            out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
    elif kind == "cut":
        del out[pos:]
    elif kind == "insert":
        out[pos:pos] = bytes(rng.randrange(256) for _ in range(rng.randint(1, 8)))
    else:
        del out[pos:pos + rng.randint(1, 8)]
    return f"{kind}@{pos}", bytes(out)


def test_mutated_checkpoints_through_generate(tmp_path, capsys):
    good, path = tmp_path / "good.ckpt", tmp_path / "m.ckpt"
    tiny_checkpoint(str(good))
    data, rng = good.read_bytes(), random.Random(0)
    for _ in range(200):
        case, mutated = mutated_bytes(data, rng)
        path.write_bytes(mutated)
        check(case, *run_cli(["generate", "--ckpt", str(path), "--prompt",
                              "2,3", "--max-new", "4"], capsys))


def test_mutated_run_configs_through_train(tmp_path, capsys):
    path, rng = tmp_path / "run.yaml", random.Random(0)
    for _ in range(100):
        case, text = mutated_yaml(rng)
        path.write_text(text)
        check(case, *run_cli(["train", "--config", str(path), "--steps", "1"],
                             capsys))


# Cases the sweep failed on: each ended in a traceback or ran without end.
FOUND = {
    "loss weight past the float range": with_key("loss", "lambda_pred", PAST_FLOAT),
    "lr past the float range": with_key("optimizer", "lr", PAST_FLOAT),
    "clip_norm past the float range": with_key("optimizer", "clip_norm",
                                               PAST_FLOAT),
    "int past int()'s digit limit": with_key("model", "width", PAST_STR_LIMIT),
    "batch_size past any batch": with_key("train", "batch_size", "1000000000000"),
    "batch_size past the float range": with_key("train", "batch_size", PAST_FLOAT),
}


@pytest.mark.parametrize("case", sorted(FOUND))
def test_found_run_configs_are_refused(case, tmp_path, capsys):
    path = tmp_path / "run.yaml"
    path.write_text(FOUND[case])
    code, err = run_cli(["train", "--config", str(path), "--steps", "1"], capsys)
    assert code == 2 and "Traceback" not in err, (code, err)


GENERATE = {"--prompt": "2,3", "--max-new": "4"}
PROBE_SPEC = "n_prompts=2,prompt_len=12,distractor_len=2,key_len=2,seed=1"
# flag -> values; each replaces the flag's value in GENERATE, or is
# added to it, one at a time. A value is passed as --flag=value, so that
# one starting with "-" is read as the value.
EXTREMES = {
    "--prompt": ["", ",", "2,,3", " 2", "-1", "2.0", "0x2", "٣", BIG,
                 PAST_STR_LIMIT, ",".join(["2"] * 10_000), "nan"],
    "--max-new": ["0", "-1", BIG, "1e3", "", PAST_STR_LIMIT, "nan"],
    "--eos": ["-1", "0", "10", "11", BIG, "x"],
    "--stop-threshold": ["nan", "inf", "-inf", "-0.0", "0", "1", "1.0000001",
                         "1e-400", "1e400", "x"],
}
PROBE_SPECS = [
    PROBE_SPEC.replace("n_prompts=2", "n_prompts=1000000000000"),
    PROBE_SPEC.replace("n_prompts=2", "n_prompts=" + PAST_STR_LIMIT),
    PROBE_SPEC.replace("n_prompts=2", "n_prompts=-1"),
    PROBE_SPEC.replace("n_prompts=2", "n_prompts=True"),
    PROBE_SPEC.replace("n_prompts=2", "n_prompts=[1]"),
    PROBE_SPEC.replace("prompt_len=12", "prompt_len=" + BIG),
    PROBE_SPEC.replace("distractor_len=2", "distractor_len=" + BIG),
    PROBE_SPEC.replace("key_len=2", "key_len=0"),
    PROBE_SPEC.replace("seed=1", "seed=" + BIG),
    PROBE_SPEC.replace("seed=1", "seed=" + PAST_FLOAT),
    "=", ",,,", "n_prompts", "x=1", "missing-spec-file", ".",
]


def test_extreme_generate_and_probe_arguments(tmp_path, capsys):
    ckpt = str(tmp_path / "m.ckpt")
    tiny_checkpoint(ckpt)
    for flag, values in EXTREMES.items():
        for value in values:
            args = {**GENERATE, flag: value}
            argv = ["generate", "--ckpt", ckpt] + [f"{k}={v}" for k, v in args.items()]
            check((flag, value[:24]), *run_cli(argv, capsys))
    for spec in PROBE_SPECS:
        check(spec[:48], *run_cli(["probe", "--ckpt", ckpt, "--probe-spec",
                                   spec], capsys))


def test_probe_past_any_batch_is_refused(tmp_path, capsys):
    ckpt = str(tmp_path / "m.ckpt")
    tiny_checkpoint(ckpt)
    code, err = run_cli(["probe", "--ckpt", ckpt, "--probe-spec",
                         PROBE_SPECS[0]], capsys)
    assert code == 2 and "Traceback" not in err, (code, err)
