"""Harness plumbing: synthetic data, checkpoints, run configuration,
training determinism, the recall probe, the ablation driver, and the CLI."""

import ast
import io
import math
import os
import platform
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lpcsm.data import EOS, DELIM, SyntheticTask, make_batch, recall_key_slice
from lpcsm.model import ModelConfig, init_params, model_forward
from lpcsm.checkpoint import (
    save_checkpoint, load_checkpoint, CheckpointError, MAGIC,
)
from lpcsm.config import ConfigError, RunConfig, TrainSettings, load_run_config
from lpcsm.objective import LossWeights, SgdConfig, log_softmax
from lpcsm.numerics import NumericsError
from lpcsm.train import (
    train, evaluate, probe_delayed_identifier, ProbeSpec, ablate,
    sequence_loss, METRICS_HEADER, TrainingDivergedError,
)
from lpcsm.cli import main
import lpcsm

SRC = os.path.dirname(os.path.dirname(os.path.abspath(lpcsm.__file__)))


def run_python(args, **env):
    """Run the interpreter on `args` with lpcsm importable from SRC."""
    full_env = dict(os.environ, PYTHONPATH=SRC, **env)
    return subprocess.run([sys.executable, *args], env=full_env,
                          capture_output=True, text=True, timeout=300)


def tiny_cfg(**overrides):
    base = dict(vocab_size=11, width=8, layers=1, window=3, heads=2,
                chunk_size=3, s_ref=1, max_seq_len=32, ratio_init=0.23)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_run(**overrides):
    fields = dict(
        model=tiny_cfg(),
        loss=LossWeights(),
        optimizer=SgdConfig(lr=0.01, momentum=0.9, clip_norm=1.0),
        task=SyntheticTask(kind="copy", vocab_size=11, seq_len=12, key_len=3),
        train=TrainSettings(steps=3, batch_size=1, seed=0),
    )
    fields.update(overrides)
    return RunConfig(**fields)


class TestSyntheticData:
    def test_copy_structure(self):
        task = SyntheticTask(kind="copy", vocab_size=16, seq_len=15, key_len=4)
        inputs, _ = make_batch(task, 2, index=7)
        for row in inputs:
            key = row[:4]
            assert row[4] == DELIM
            assert np.array_equal(row[5:9], key)
            assert np.all(key >= 2)

    def test_seeded_determinism(self):
        task = SyntheticTask(kind="copy", vocab_size=16, seq_len=12,
                             key_len=4, seed=7)
        a = make_batch(task, 3, index=5)
        b = make_batch(task, 3, index=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = make_batch(task, 3, index=6)
        assert not np.array_equal(a[0], c[0])

    def test_recall_zero_distractor(self):
        task = SyntheticTask(kind="key-recall", vocab_size=16, seq_len=12,
                             key_len=3, distractor_len=0)
        inputs, _ = make_batch(task, 1)
        row = inputs[0]
        assert row[3] == DELIM
        assert np.array_equal(row[4:7], row[:3])
        assert np.all(row[7:] == EOS)

    def test_recall_layout(self):
        task = SyntheticTask(kind="key-recall", vocab_size=16, seq_len=20,
                             key_len=3, distractor_len=5)
        inputs, targets = make_batch(task, 1)
        row = inputs[0]
        assert row[8] == DELIM
        assert np.array_equal(row[9:12], row[:3])
        sl = recall_key_slice(task)
        assert np.array_equal(targets[0][sl], row[:3])

    def test_targets_shifted_left(self):
        task = SyntheticTask(kind="copy", vocab_size=8, seq_len=10, key_len=2)
        inputs, targets = make_batch(task, 2)
        assert np.array_equal(targets[:, :-1], inputs[:, 1:])
        assert np.all(targets[:, -1] == EOS)

    def test_validation(self):
        with pytest.raises(NumericsError):
            SyntheticTask(kind="sort", vocab_size=8, seq_len=8, key_len=2)
        with pytest.raises(NumericsError):
            SyntheticTask(kind="copy", vocab_size=2, seq_len=8, key_len=2)
        with pytest.raises(NumericsError):
            SyntheticTask(kind="key-recall", vocab_size=8, seq_len=6,
                          key_len=3, distractor_len=4)
        with pytest.raises(NumericsError):
            SyntheticTask(kind="copy", vocab_size=8, seq_len=0, key_len=2)
        with pytest.raises(NumericsError):
            SyntheticTask(kind="copy", vocab_size=8, seq_len=8, key_len=2,
                          distractor_len=-1)

    def test_copy_key_fits_its_sequence(self):
        # A copy sequence holds its key and a delimiter: a longer key would
        # draw ids no position holds.
        for key_len in (16, 100_000, 99999999999999999999):
            with pytest.raises(ConfigError, match="key_len"):
                SyntheticTask(kind="copy", vocab_size=8, seq_len=16,
                              key_len=key_len)
        inputs, _ = make_batch(SyntheticTask(kind="copy", vocab_size=8,
                                             seq_len=16, key_len=15), 2)
        assert np.all(inputs[:, 15] == DELIM)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=3)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(params, cfg, path)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        assert list(loaded.names()) == list(params.names())
        for name, t in params.items():
            assert np.array_equal(t.data, loaded[name].data)

    def test_trainable_flags_restored(self, tmp_path):
        cfg = tiny_cfg(adaptive_ratio=False)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(init_params(cfg, seed=4), cfg, path)
        loaded, _ = load_checkpoint(path)
        assert not loaded.is_trainable("layers.0.ctrl.ratio_raw")

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        cfg = tiny_cfg()
        save_checkpoint(init_params(cfg), cfg, path)
        raw = bytearray(open(path, "rb").read())
        raw[:4] = b"NOPE"
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointError, match="bad magic bytes"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        cfg = tiny_cfg()
        save_checkpoint(init_params(cfg), cfg, path)
        raw = bytearray(open(path, "rb").read())
        raw[4:8] = struct.pack("<I", 99)
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointError,
                           match="unsupported checkpoint version 99"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        cfg = tiny_cfg()
        save_checkpoint(init_params(cfg), cfg, path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:len(raw) // 2])
        with pytest.raises(CheckpointError, match="checkpoint file is truncated"):
            load_checkpoint(path)

    def test_config_mismatch(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        cfg = tiny_cfg()
        save_checkpoint(init_params(cfg), cfg, path)
        with pytest.raises(CheckpointError, match="does not match expected config"):
            load_checkpoint(path, expect_cfg=tiny_cfg(width=16))

    def test_magic_constant(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        cfg = tiny_cfg()
        save_checkpoint(init_params(cfg), cfg, path)
        assert open(path, "rb").read(4) == MAGIC

    @pytest.mark.parametrize("old, new", [
        ("window=3", "window=(3"),         # not a literal
        ("window=3", "window=__import__"),  # a name, not a literal
        ("window=3", "window='w'"),         # wrong type
        ("window=3", "window={[1]: 2}"),    # unhashable, not a literal
        ("heads=2", "heads=2.0"),           # float for an int field
        ("mhc=True", "mhc=1"),              # int for a bool field
        ("latent_dim=None", "latent_dim=2.5"),
        ("vocab_size=11\n", ""),            # missing required key
    ])
    def test_corrupt_config_text(self, tmp_path, old, new):
        path = str(tmp_path / "m.ckpt")
        cfg = tiny_cfg()
        save_checkpoint(init_params(cfg), cfg, path)
        rewrite_config(path, old, new)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_non_utf8_tensor_name(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        cfg = tiny_cfg()
        save_checkpoint(init_params(cfg), cfg, path)
        corrupt_first_name(path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        cfg = tiny_cfg()
        save_checkpoint(init_params(cfg), cfg, path)
        with open(path, "ab") as f:
            f.write(b"\0")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_nonfinite_tensor_named(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        cfg = tiny_cfg()
        params = init_params(cfg)
        params["layers.0.mem.w_r"].data[1, 2] = np.nan
        save_checkpoint(params, cfg, path)
        with pytest.raises(NumericsError, match="'layers.0.mem.w_r'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("case, message", [
        ("repeated", "entries do not match"),
        ("missing", "entries do not match"),
        ("extra", "entries do not match"),
        ("swapped", "'embed.pos' where 'embed.tok' belongs"),
        ("wrong shape", "shape mismatch for 'embed.tok'"),
        ("old ctrl.bias layout", "^checkpoint entries do not match"),
    ])
    def test_entries_follow_the_table(self, tmp_path, case, message):
        path = str(tmp_path / "m.ckpt")
        cfg = tiny_cfg()
        save_checkpoint(init_params(cfg), cfg, path)
        ENTRY_EDITS[case](path)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)


def rewrite_config(path, old, new):
    """Replace `old` with `new` in a checkpoint's config text."""
    raw = open(path, "rb").read()
    (cfg_len,) = struct.unpack("<I", raw[8:12])
    text = raw[12:12 + cfg_len].decode("utf-8")
    assert old in text
    cfg_bytes = text.replace(old, new).encode("utf-8")
    open(path, "wb").write(raw[:8] + struct.pack("<I", len(cfg_bytes))
                           + cfg_bytes + raw[12 + cfg_len:])


def corrupt_first_name(path):
    """Make the first tensor name of a checkpoint invalid UTF-8."""
    raw = bytearray(open(path, "rb").read())
    (cfg_len,) = struct.unpack("<I", raw[8:12])
    raw[12 + cfg_len + 8] = 0xFF  # after the tensor count and name length
    open(path, "wb").write(bytes(raw))


def entries_edited(edit):
    """A setup that rewrites a checkpoint's tensor entries, each kept as
    its raw bytes, as `edit` of their list; the count follows the list."""
    def setup(path):
        raw = open(path, "rb").read()
        (cfg_len,) = struct.unpack("<I", raw[8:12])
        pos, entries = 16 + cfg_len, []
        while pos < len(raw):
            (name_len,) = struct.unpack_from("<I", raw, pos)
            (rank,) = struct.unpack_from("<I", raw, pos + 4 + name_len)
            dims = struct.unpack_from(f"<{rank}I", raw, pos + 8 + name_len)
            end = pos + 8 + name_len + 4 * rank + 8 * math.prod(dims)
            entries.append(raw[pos:end])
            pos = end
        entries = edit(entries)
        open(path, "wb").write(raw[:12 + cfg_len] + struct.pack("<I", len(entries))
                               + b"".join(entries))
    return setup


def swap_first_dims(entries):
    """The entries with the first one's two dims swapped; its size holds."""
    first = bytearray(entries[0])
    at = 8 + struct.unpack_from("<I", first)[0]  # after its name and rank
    first[at:at + 8] = first[at + 4:at + 8] + first[at:at + 4]
    return [bytes(first), *entries[1:]]


def with_ctrl_bias(entries):
    """The entries in the earlier layout, which stored a scalar 0.0
    `layers.{i}.ctrl.bias` before each `layers.{i}.ctrl.scale`."""
    out = []
    for entry in entries:
        name = entry[4:4 + struct.unpack_from("<I", entry)[0]]
        if name.endswith(b".ctrl.scale"):
            bias = name.replace(b".ctrl.scale", b".ctrl.bias")
            out.append(struct.pack("<I", len(bias)) + bias
                       + struct.pack("<Id", 0, 0.0))  # rank 0, value 0.0
        out.append(entry)
    return out


# Checkpoints whose entries do not follow the config's parameter table.
ENTRY_EDITS = {
    "repeated": entries_edited(lambda e: e + e[:1]),
    "missing": entries_edited(lambda e: e[:-1]),
    "extra": entries_edited(
        lambda e: e + [e[0].replace(b"embed.tok", b"embed.xyz")]),
    "swapped": entries_edited(lambda e: [e[1], e[0], *e[2:]]),
    "wrong shape": entries_edited(swap_first_dims),
    "old ctrl.bias layout": entries_edited(with_ctrl_bias),
}


class TestRunConfig:
    def _write(self, tmp_path, text):
        p = tmp_path / "run.yaml"
        p.write_text(text)
        return str(p)

    GOOD = """
model:
  vocab_size: 11
  width: 8
  layers: 1
  heads: 2
  window: 3
  chunk_size: 3
  max_seq_len: 32
task:
  kind: copy
  vocab_size: 11
  seq_len: 12
  key_len: 3
train:
  steps: 2
"""

    def test_load_good(self, tmp_path):
        run = load_run_config(self._write(tmp_path, self.GOOD))
        assert run.model.width == 8
        assert run.task.kind == "copy"
        assert run.train.steps == 2
        assert run.optimizer.lr == 3e-4  # section defaults apply

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_config(self._write(tmp_path, self.GOOD + "\nextra:\n  a: 1\n"))

    def test_unknown_key(self, tmp_path):
        bad = self.GOOD.replace("train:\n  steps: 2", "train:\n  stepz: 2")
        with pytest.raises(ConfigError):
            load_run_config(self._write(tmp_path, bad))

    def test_missing_required_section(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_config(self._write(tmp_path, "model:\n  vocab_size: 8\n  width: 8\n  layers: 1\n"))

    def test_invalid_model_value(self, tmp_path):
        bad = self.GOOD.replace("width: 8", "width: 9")
        with pytest.raises(ConfigError):
            load_run_config(self._write(tmp_path, bad))

    def test_unparsable_yaml(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_config(self._write(tmp_path, "model: [unclosed"))

    def test_validators_raise_config_error(self):
        # An input check raises ConfigError where it lives, so every caller
        # maps it to exit 2 without re-checking or re-wrapping.
        offenders = []
        for path in sorted(Path(lpcsm.__file__).parent.glob("*.py")):
            for fn in ast.walk(ast.parse(path.read_text())):
                if getattr(fn, "name", "") not in (
                        "__post_init__", "from_fields", "parse_fields"):
                    continue
                offenders += [
                    f"{path.name}:{n.lineno}" for n in ast.walk(fn)
                    if isinstance(n, ast.Raise)
                    and not (isinstance(n.exc, ast.Call)
                             and getattr(n.exc.func, "id", "") == "ConfigError")]
        assert offenders == []


class TestTrainHarness:
    def test_steps_zero_keeps_initialization(self):
        # A run config needs steps >= 1; train() still takes an override.
        run = tiny_run(train=TrainSettings(steps=3, batch_size=1, seed=5))
        result = train(run, steps=0)
        fresh = init_params(run.model, seed=5)
        for name, t in fresh.items():
            assert np.array_equal(t.data, result.params[name].data)

    def test_metrics_csv_shape(self):
        run = tiny_run()
        out = io.StringIO()
        result = train(run, metrics_out=out)
        lines = out.getvalue().strip().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 1 + 3
        assert len(lines[1].split(",")) == len(METRICS_HEADER.split(","))
        assert len(result.metrics) == 3

    def test_metrics_rows_are_one_write_of_the_kept_row(self):
        # One write per line (perfbench timestamps each), and each field
        # before tokens/s is the repr of the kept row's field.
        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

        out = Recorder()
        result = train(tiny_run(), metrics_out=out)
        assert len(out.writes) == 3 + 1
        assert out.writes[0] == METRICS_HEADER + "\n"
        for text, row in zip(out.writes[1:], result.metrics):
            fields = text.rstrip("\n").split(",")
            assert fields[:-1] == [repr(v) for v in row[:-1]]
            assert fields[-1] == f"{row[-1]:.1f}"

    def test_same_seed_identical_logs(self):
        # Everything except wall-clock throughput is bit-identical.
        a = train(tiny_run())
        b = train(tiny_run())
        for ra, rb in zip(a.metrics, b.metrics):
            assert ra[:-1] == rb[:-1]
        for name, t in a.params.items():
            assert np.array_equal(t.data, b.params[name].data)

    def test_tokens_per_second_is_median_over_steps(self):
        result = train(tiny_run(train=TrainSettings(steps=5, batch_size=1, seed=0)))
        per_step = sorted(row[-1] for row in result.metrics)
        assert result.tokens_per_second == per_step[2]
        assert train(tiny_run(), steps=0).tokens_per_second == 0.0

    def test_overflowing_update_diverges_at_that_step(self):
        # lambda_pred scales the gradients past lr's reach: the first
        # update overflows embed.tok.
        run = tiny_run(loss=LossWeights(lambda_pred=1e4),
                       optimizer=SgdConfig(lr=1e306, momentum=0.0,
                                           clip_norm=1e308))
        with np.errstate(all="ignore"), \
                pytest.raises(TrainingDivergedError, match="after the update") as e:
            train(run)
        assert e.value.step == 0

    def test_different_seed_differs(self):
        a = train(tiny_run(), seed=0)
        b = train(tiny_run(), seed=1)
        assert a.final_lm != b.final_lm

    @staticmethod
    def count_calls(monkeypatch, module, name):
        calls = [0]
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_step_is_one_forward_and_one_backward(self, monkeypatch):
        import lpcsm.train

        forwards = self.count_calls(monkeypatch, lpcsm.train, "model_forward")
        backwards = self.count_calls(monkeypatch, lpcsm.train, "forward_backward")
        train(tiny_run(train=TrainSettings(steps=2, batch_size=4, seed=0)))
        assert forwards[0] == backwards[0] == 2

    def test_sinkhorn_once_per_layer_per_step(self, monkeypatch):
        import lpcsm.mhc

        calls = self.count_calls(monkeypatch, lpcsm.mhc, "sinkhorn_normalize")
        run = tiny_run(model=tiny_cfg(layers=2),
                       train=TrainSettings(steps=1, batch_size=4, seed=0))
        train(run)
        assert calls[0] == 2

    def test_batch_step_matches_per_sequence_mean(self):
        # The step's logged terms are the means of the per-sequence terms.
        run = tiny_run(train=TrainSettings(steps=1, batch_size=3, seed=4))
        row = train(run).metrics[0]
        inputs, targets = make_batch(run.task, 3, index=0)
        params = init_params(run.model, seed=4)
        per_seq = [sequence_loss(inputs[i], targets[i], params, run.model,
                                 run.loss) for i in range(3)]
        for col, key in enumerate(("lm", "pred", "sparse", "mem", "stop",
                                   "total"), start=1):
            mean = np.mean([b.values()[key] for b, _ in per_seq])
            assert abs(row[col] - mean) < 1e-12, key
        assert abs(row[7] - np.mean([r for _, r in per_seq])) < 1e-12

    def test_evaluate_is_one_forward_of_the_batch(self, monkeypatch):
        import lpcsm.train

        run = tiny_run()
        params = init_params(run.model, seed=3)
        inputs, targets = make_batch(run.task, 4, index=10_000)
        per_seq = [sequence_loss(inputs[i], targets[i], params, run.model,
                                 run.loss)[0].values() for i in range(4)]
        forwards = self.count_calls(monkeypatch, lpcsm.train, "model_forward")
        out = evaluate(params, run.model, run.task, run.loss, batch=4)
        assert forwards[0] == 1
        for key, value in out.items():
            assert abs(value - np.mean([v[key] for v in per_seq])) < 1e-12, key

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="counts page faults under glibc's malloc")
    def test_steps_reuse_freed_tape_memory(self):
        # Tensor.backward frees the tape as it goes; the next step reuses
        # that memory rather than faulting fresh pages in (about 1900 a
        # step on this model when glibc hands the freed heap back).
        code = (
            "import resource, statistics\n"
            "from lpcsm.config import RunConfig, TrainSettings\n"
            "from lpcsm.data import SyntheticTask\n"
            "from lpcsm.model import ModelConfig\n"
            "from lpcsm.objective import LossWeights, SgdConfig\n"
            "from lpcsm.train import train\n"
            "class Faults:\n"
            "    counts = []\n"
            "    def write(self, line):\n"
            "        self.counts.append(resource.getrusage("
            "resource.RUSAGE_SELF).ru_minflt)\n"
            "run = RunConfig(ModelConfig(vocab_size=32, width=32, layers=2,"
            " chunk_size=16, max_seq_len=256), LossWeights(), SgdConfig(),"
            " SyntheticTask('key-recall', 32, 256, 4, distractor_len=240),"
            " TrainSettings(steps=8))\n"
            "out = Faults()\n"
            "train(run, metrics_out=out)\n"
            "c = out.counts[3:]\n"
            "print(statistics.median(b - a for a, b in zip(c, c[1:])))\n"
        )
        result = run_python(["-c", code])
        assert result.returncode == 0, result.stderr
        assert float(result.stdout) < 200

    def test_evaluate_held_out(self):
        run = tiny_run()
        result = train(run)
        out = evaluate(result.params, run.model, run.task, run.loss, batch=2)
        assert set(out) == {"lm", "pred", "sparse", "mem", "stop", "total"}
        assert np.isfinite(out["total"])


class TestProbe:
    def test_untrained_near_uniform(self):
        cfg = tiny_cfg(vocab_size=16, width=8, max_seq_len=64)
        params = init_params(cfg, seed=6)
        spec = ProbeSpec(n_prompts=3, prompt_len=32, distractor_len=12,
                         key_len=4, seed=9)
        result = probe_delayed_identifier(params, cfg, spec)
        assert abs(result.key_cross_entropy - np.log(16)) < 0.1 * np.log(16)

    def test_probe_determinism(self):
        cfg = tiny_cfg(max_seq_len=64)
        params = init_params(cfg, seed=7)
        spec = ProbeSpec(n_prompts=2, prompt_len=24, distractor_len=8,
                         key_len=3, seed=2)
        a = probe_delayed_identifier(params, cfg, spec)
        b = probe_delayed_identifier(params, cfg, spec)
        assert a == b

    def test_probe_is_one_forward_of_the_prompts(self, monkeypatch):
        import lpcsm.train

        cfg = tiny_cfg(max_seq_len=64)
        params = init_params(cfg, seed=8)
        spec = ProbeSpec(n_prompts=3, prompt_len=24, distractor_len=8,
                         key_len=3, seed=5)
        task = SyntheticTask(kind="key-recall", vocab_size=cfg.vocab_size,
                             seq_len=24, key_len=3, distractor_len=8, seed=5)
        inputs, targets = make_batch(task, 3, index=0)
        key = recall_key_slice(task)
        per_prompt = []
        for i in range(3):
            logits, _ = model_forward(inputs[i], params, cfg)
            lp = log_softmax(logits.lm.data)[np.arange(24), targets[i]]
            per_prompt.append(-lp[key].mean())
        forwards = TestTrainHarness.count_calls(monkeypatch, lpcsm.train,
                                                "model_forward")
        result = probe_delayed_identifier(params, cfg, spec)
        assert forwards[0] == 1
        assert abs(result.key_cross_entropy - np.mean(per_prompt)) < 1e-12

    def test_probe_validation(self):
        cfg = tiny_cfg()
        params = init_params(cfg)
        with pytest.raises(NumericsError):
            probe_delayed_identifier(params, cfg,
                                     ProbeSpec(prompt_len=999))

    def test_layout_is_checked_as_the_task(self):
        # The spec holds no copy of the task's rules: a layout that does
        # not fit is refused when the probe builds its prompts.
        cfg = tiny_cfg(max_seq_len=64)
        spec = ProbeSpec(n_prompts=2, prompt_len=24, distractor_len=16,
                         key_len=4)
        with pytest.raises(ConfigError, match="key-recall layout"):
            probe_delayed_identifier(init_params(cfg), cfg, spec)

    def test_fingerprint_independent_of_hash_seed(self):
        # The probe's key cross-entropy, to the last bit, across processes
        # with different string hash seeds.
        code = (
            "from lpcsm.model import ModelConfig, init_params\n"
            "from lpcsm.train import probe_delayed_identifier, ProbeSpec\n"
            "cfg = ModelConfig(vocab_size=11, width=8, layers=1, heads=2,"
            " max_seq_len=32)\n"
            "spec = ProbeSpec(n_prompts=1, prompt_len=24, distractor_len=8,"
            " key_len=3)\n"
            "print(probe_delayed_identifier(init_params(cfg), cfg, spec)"
            ".key_cross_entropy.hex())\n"
        )
        runs = [run_python(["-c", code], PYTHONHASHSEED=seed)
                for seed in ("1", "2")]
        assert all(r.returncode == 0 for r in runs), [r.stderr for r in runs]
        assert runs[0].stdout == runs[1].stdout


class TestAblate:
    def test_full_matrix_emits_six_rows(self):
        rows = ablate(tiny_run(train=TrainSettings(steps=1, batch_size=1,
                                                   seed=0)))
        assert len(rows) == 6
        assert rows[0].delta_pct == 0.0
        assert all(np.isfinite(r.final_lm) for r in rows)


def cut_last_data(path):
    """Cut a checkpoint's last 4 bytes, inside the last tensor's data."""
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-4])


def nan_last_value(path):
    """Overwrite the last stored float64 of a checkpoint with NaN."""
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-8] + struct.pack("<d", float("nan")))


def save_without_stop_head(path):
    """Replace a checkpoint with one of the same model minus its stop head."""
    cfg = tiny_cfg(stop_head=False)
    save_checkpoint(init_params(cfg), cfg, path)


def save_vocab_two(path):
    """Replace a checkpoint with one of the same model over two tokens."""
    cfg = tiny_cfg(vocab_size=2)
    save_checkpoint(init_params(cfg), cfg, path)


def huge_first_dims(path):
    """Set the first tensor's two dims to 4e9, far past the end of the file."""
    raw = bytearray(open(path, "rb").read())
    (cfg_len,) = struct.unpack("<I", raw[8:12])
    (name_len,) = struct.unpack("<I", raw[16 + cfg_len:20 + cfg_len])
    dims = 24 + cfg_len + name_len  # after the tensor's name and rank
    raw[dims:dims + 8] = struct.pack("<II", 4_000_000_000, 4_000_000_000)
    open(path, "wb").write(bytes(raw))


def run_yaml(old, new):
    """The good run config with `old` replaced by `new`."""
    assert old in TestRunConfig.GOOD
    return TestRunConfig.GOOD.replace(old, new)


def model_yaml(line):
    """The good run config with one more [model] line."""
    return run_yaml("layers: 1", "layers: 1\n  " + line)


def optimizer_yaml(line):
    """The good run config with an [optimizer] section of one line."""
    return run_yaml("train:", "optimizer:\n  " + line + "\ntrain:")


class TestCli:
    CONFIG = TestRunConfig.GOOD

    def _config(self, tmp_path):
        p = tmp_path / "run.yaml"
        p.write_text(self.CONFIG)
        return str(p)

    def test_train_eval_generate(self, tmp_path, capsys):
        cfg_path = self._config(tmp_path)
        ckpt = str(tmp_path / "m.ckpt")
        metrics = str(tmp_path / "metrics.csv")
        rc = main(["train", "--config", cfg_path, "--steps", "2",
                   "--out", ckpt, "--metrics", metrics])
        assert rc == 0
        assert os.path.exists(ckpt)
        assert open(metrics).readline().strip() == METRICS_HEADER

        rc = main(["eval", "--ckpt", ckpt, "--task",
                   "kind=copy,vocab_size=11,seq_len=12,key_len=3"])
        assert rc == 0
        assert "lm:" in capsys.readouterr().out

        rc = main(["generate", "--ckpt", ckpt, "--prompt", "2,3,4",
                   "--max-new", "4"])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("2,3,4")

    def test_probe_command(self, tmp_path, capsys):
        cfg_path = self._config(tmp_path)
        ckpt = str(tmp_path / "m.ckpt")
        main(["train", "--config", cfg_path, "--steps", "1", "--out", ckpt])
        spec = tmp_path / "probe.spec"
        spec.write_text("n_prompts=2\nprompt_len=24\ndistractor_len=8\nkey_len=3\nseed=1\n")
        rc = main(["probe", "--ckpt", ckpt, "--probe-spec", str(spec)])
        assert rc == 0
        assert "key cross-entropy" in capsys.readouterr().out

    def test_verify_ont_command(self, capsys):
        rc = main(["verify-ont", "--trials", "50"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("pass") >= 7

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_verify_ont_without_trials(self, trials, capsys):
        assert main(["verify-ont", "--trials", trials]) == 2
        assert "pass" not in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("model:\n  nonsense: 1\n")
        assert main(["train", "--config", str(bad)]) == 2

    def test_io_error_exit_code(self, tmp_path):
        assert main(["eval", "--ckpt", str(tmp_path / "missing.ckpt"),
                     "--task", "kind=copy,vocab_size=8,seq_len=8,key_len=2"]) == 4

    def test_generate_fills_max_seq_len(self, tmp_path, capsys):
        ckpt = str(tmp_path / "m.ckpt")
        cfg = tiny_cfg()
        save_checkpoint(init_params(cfg), cfg, ckpt)
        assert main(["generate", "--ckpt", ckpt, "--prompt", "2,3",
                     "--max-new", "30"]) == 0
        assert len(capsys.readouterr().out.strip().split(",")) == cfg.max_seq_len

    def test_bad_checkpoint_exit_code(self, tmp_path):
        junk = tmp_path / "junk.ckpt"
        junk.write_bytes(b"garbage bytes here")
        assert main(["generate", "--ckpt", str(junk), "--prompt", "2",
                     "--max-new", "1"]) == 4

    PROBE_SPEC = "n_prompts=2,prompt_len=24,distractor_len=8,key_len=3,seed=1"
    TASK = "kind=copy,vocab_size=11,seq_len=12,key_len=3"
    PROMPT = ["--prompt", "2,3", "--max-new", "2"]
    # case -> (setup, command and its arguments, exit code[, text the
    # error must contain]). The setup is the text of a run config for
    # --config, or else a corruption applied to a saved checkpoint (None
    # for none) for --ckpt.
    MALFORMED = {
        "corrupt config text": (
            lambda p: rewrite_config(p, "window=3", "window=(3"),
            ["probe", "--probe-spec", PROBE_SPEC], 4),
        "float config value": (
            lambda p: rewrite_config(p, "heads=2", "heads=2.0"),
            ["generate", *PROMPT], 4),
        "non-UTF-8 tensor name": (
            corrupt_first_name, ["probe", "--probe-spec", PROBE_SPEC], 4),
        "trailing checkpoint bytes": (
            lambda p: open(p, "ab").write(b"\0"),
            ["probe", "--probe-spec", PROBE_SPEC], 4),
        "inline probe spec": (None, ["probe", "--probe-spec", PROBE_SPEC], 0),
        "unknown probe spec key": (
            None, ["probe", "--probe-spec", PROBE_SPEC + ",bogus=1"], 2),
        "non-integer probe spec value": (
            None, ["probe", "--probe-spec", "n_prompts=two"], 2),
        "zero probe prompts": (
            None, ["probe", "--probe-spec",
                   PROBE_SPEC.replace("n_prompts=2", "n_prompts=0")], 2),
        "unknown task key": (None, ["eval", "--task", TASK + ",bogus=1"], 2),
        "unknown task kind": (
            None, ["eval", "--task", TASK.replace("copy", "bogus")], 2),
        "yaml float heads": (run_yaml("heads: 2", "heads: 2.0"), ["train"], 2),
        "yaml float chunk_size": (
            run_yaml("chunk_size: 3", "chunk_size: 2.5"), ["train"], 2),
        "yaml float batch_size": (
            run_yaml("steps: 2", "steps: 2\n  batch_size: 2.0"), ["train"], 2),
        "yaml lr without a decimal point": (
            run_yaml("train:", "optimizer:\n  lr: 3e-4\ntrain:"), ["train"], 2),
        "yaml section not a mapping": (
            run_yaml("train:\n  steps: 2", "train: 2"), ["train"], 2),
        "zero heads": (run_yaml("heads: 2", "heads: 0"), ["train"], 2),
        "ratio_init below ratio_min": (
            model_yaml("ratio_init: 0.01"), ["train"], 2),
        "ratio_min above ratio_init": (
            model_yaml("ratio_min: 0.9"), ["train"], 2),
        "zero temperature": (model_yaml("temperature: 0.0"), ["train"], 2),
        "nan temperature": (model_yaml("temperature: .nan"), ["train"], 2),
        "infinite temperature": (model_yaml("temperature: .inf"), ["train"], 2),
        "nan alpha_n": (model_yaml("alpha_n: .nan"), ["train"], 2),
        "infinite alpha_n": (model_yaml("alpha_n: .inf"), ["train"], 2),
        "negative rmsnorm_eps": (model_yaml("rmsnorm_eps: -1.0"), ["train"], 2),
        "nan rmsnorm_eps": (model_yaml("rmsnorm_eps: .nan"), ["train"], 2),
        "checkpoint infinite alpha_n": (
            lambda p: rewrite_config(p, "alpha_n=0.5", "alpha_n=1e999"),
            ["generate", *PROMPT], 4),
        "one mhc stream": (model_yaml("mhc_streams: 1"), ["train"], 2),
        "zero sinkhorn iters": (model_yaml("sinkhorn_iters: 0"), ["train"], 2),
        # Sinkhorn keeps every pass for the backward: a pass count past
        # mhc.MAX_EXTRA_PASSES is refused before any is run.
        "sinkhorn iters past the pass cap": (
            model_yaml("sinkhorn_iters: 100000000"), ["train"], 2),
        "checkpoint sinkhorn iters past the pass cap": (
            lambda p: rewrite_config(p, "sinkhorn_iters=20",
                                     "sinkhorn_iters=100000000"),
            ["generate", *PROMPT], 4),
        "zero latent_dim": (model_yaml("latent_dim: 0"), ["train"], 2),
        "zero batch_size": (
            run_yaml("steps: 2", "steps: 2\n  batch_size: 0"), ["train"], 2),
        "negative seed": (
            run_yaml("steps: 2", "steps: 2\n  seed: -1"), ["train"], 2),
        "negative task seed": (
            run_yaml("key_len: 3", "key_len: 3\n  seed: -1"), ["train"], 2),
        "negative eval task seed": (
            None, ["eval", "--task", TASK + ",seed=-1"], 2),
        "negative probe seed": (
            None, ["probe", "--probe-spec",
                   PROBE_SPEC.replace("seed=1", "seed=-3")], 2),
        "zero steps": (run_yaml("steps: 2", "steps: 0"), ["train"], 2),
        "zero steps flag": (TestRunConfig.GOOD, ["train", "--steps", "0"], 2),
        "task vocab above model vocab": (
            run_yaml("kind: copy\n  vocab_size: 11", "kind: copy\n  vocab_size: 12"),
            ["train"], 2),
        "task longer than max_seq_len": (
            run_yaml("seq_len: 12", "seq_len: 40"), ["train"], 2),
        "eval task vocab above checkpoint vocab": (
            None, ["eval", "--task", TASK.replace("vocab_size=11", "vocab_size=12")], 2),
        "eval task longer than max_seq_len": (
            None, ["eval", "--task", TASK.replace("seq_len=12", "seq_len=40")], 2),
        "non-integer prompt token": (
            None, ["generate", "--prompt", "2,3,x", "--max-new", "2"], 2),
        "checkpoint ratio_init below ratio_min": (
            lambda p: rewrite_config(p, "ratio_init=0.23", "ratio_init=0.01"),
            ["generate", *PROMPT], 4),
        "infinite lr": (optimizer_yaml("lr: .inf"), ["train"], 2),
        "negative lr": (optimizer_yaml("lr: -0.5"), ["train"], 2),
        "negative clip_norm": (optimizer_yaml("clip_norm: -1.0"), ["train"], 2),
        "nan momentum": (optimizer_yaml("momentum: .nan"), ["train"], 2),
        "nan loss weight": (
            run_yaml("train:", "loss:\n  lambda_pred: .nan\ntrain:"), ["train"], 2),
        "zero task seq_len": (run_yaml("seq_len: 12", "seq_len: 0"), ["train"], 2),
        "negative distractor_len": (
            run_yaml("key_len: 3", "key_len: 3\n  distractor_len: -1"), ["train"], 2),
        "copy key longer than seq_len": (
            run_yaml("key_len: 3", "key_len: 100000"), ["train"], 2, "key_len"),
        "copy key past any array size": (
            run_yaml("key_len: 3", "key_len: 99999999999999999999"), ["train"],
            2, "key_len"),
        "eval copy key without its delimiter": (
            None, ["eval", "--task", TASK.replace("key_len=3", "key_len=12")],
            2, "key_len"),
        "key-recall layout exceeds seq_len": (
            run_yaml("kind: copy\n  vocab_size: 11\n  seq_len: 12\n  key_len: 3",
                     "kind: key-recall\n  vocab_size: 11\n  seq_len: 12\n"
                     "  key_len: 3\n  distractor_len: 8"), ["train"], 2),
        "default probe longer than max_seq_len": (None, ["probe"], 2),
        "prompt token above vocab": (
            None, ["generate", "--prompt", "2,30", "--max-new", "2"], 2),
        "prompt longer than max_seq_len": (
            None, ["generate", "--prompt", ",".join(["2"] * 33),
                   "--max-new", "1"], 2),
        "max-new past max_seq_len": (
            None, ["generate", "--prompt", "2,3", "--max-new", "31"], 2),
        "negative max-new": (
            None, ["generate", "--prompt", "2,3", "--max-new", "-3"], 2),
        "eos above vocab": (None, ["generate", *PROMPT, "--eos", "11"], 2),
        "nan stop threshold": (
            None, ["generate", *PROMPT, "--stop-threshold", "nan"], 2),
        "stop threshold without a stop head": (
            save_without_stop_head,
            ["generate", *PROMPT, "--stop-threshold", "0.0"], 2),
        "non-finite checkpoint tensor": (nan_last_value, ["generate", *PROMPT], 3),
        "probe on a two-token vocabulary": (
            save_vocab_two, ["probe", "--probe-spec", "n_prompts=1,prompt_len=12,"
                             "distractor_len=2,key_len=2"], 2),
        "tensor dims past the end of the file": (
            huge_first_dims, ["generate", *PROMPT], 4),
        "last tensor's data cut short": (
            cut_last_data, ["generate", *PROMPT], 4, "truncated"),
        "repeated checkpoint entry": (
            ENTRY_EDITS["repeated"], ["generate", *PROMPT], 4),
        "missing checkpoint entry": (
            ENTRY_EDITS["missing"], ["generate", *PROMPT], 4),
        "extra checkpoint entry": (
            ENTRY_EDITS["extra"], ["generate", *PROMPT], 4),
        "swapped checkpoint entries": (
            ENTRY_EDITS["swapped"], ["generate", *PROMPT], 4),
        "checkpoint entry of the wrong shape": (
            ENTRY_EDITS["wrong shape"], ["generate", *PROMPT], 4),
        "checkpoint of the layout with ctrl.bias": (
            ENTRY_EDITS["old ctrl.bias layout"], ["generate", *PROMPT], 4,
            "I/O error: checkpoint entries do not match"),
        # Sizes the machine cannot allocate stop before init_params.
        "max_seq_len past the parameter bound": (
            run_yaml("max_seq_len: 32", "max_seq_len: 100000000000"),
            ["train"], 2),
        "layers past the parameter bound": (
            run_yaml("layers: 1", "layers: 1000000000000"), ["train"], 2),
        "checkpoint max_seq_len past the parameter bound": (
            lambda p: rewrite_config(p, "max_seq_len=32",
                                     "max_seq_len=100000000000"),
            ["generate", *PROMPT], 4),
        # A spec value is a Python literal, as in checkpoint config text,
        # and a bare word is a string.
        "task seq_len with a leading zero": (
            None, ["eval", "--task", TASK.replace("seq_len=12", "seq_len=012")],
            2),
        "task seq_len in hexadecimal": (
            None, ["eval", "--task", TASK.replace("seq_len=12", "seq_len=0xc")],
            0),
        "quoted task kind": (
            None, ["eval", "--task", TASK.replace("kind=copy", "kind='copy'")],
            0),
        "task value nested too deep": (
            None, ["eval", "--task", TASK + ",seed=" + "[" * 100000], 2),
        "unhashable task value": (
            None, ["eval", "--task", TASK + ",seed={[1]: 2}"], 2),
        "task without a kind": (
            None, ["eval", "--task", TASK.replace("kind=copy,", "")], 2),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_exit_code(self, tmp_path, case):
        setup, (command, *args), code, *texts = self.MALFORMED[case]
        if isinstance(setup, str):
            path = tmp_path / "run.yaml"
            path.write_text(setup)
            source = ["--config", str(path)]
        else:
            ckpt = str(tmp_path / "m.ckpt")
            cfg = tiny_cfg()
            save_checkpoint(init_params(cfg), cfg, ckpt)
            if setup is not None:
                setup(ckpt)
            source = ["--ckpt", ckpt]
        proc = run_python(["-m", "lpcsm.cli", command, *source, *args])
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert all(text in proc.stderr for text in texts), proc.stderr

    def test_non_utf8_run_config(self, tmp_path, capsys):
        path = tmp_path / "run.yaml"
        path.write_bytes(self.CONFIG.encode() + b"\xff\xfe\n")
        assert main(["train", "--config", str(path)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_probe_spec_file_matches_inline(self, tmp_path, capsys):
        ckpt = str(tmp_path / "m.ckpt")
        cfg = tiny_cfg()
        save_checkpoint(init_params(cfg), cfg, ckpt)
        spec = tmp_path / "probe.spec"
        spec.write_text(self.PROBE_SPEC.replace(",", "\n") + "\n")
        outputs = []
        for arg in (self.PROBE_SPEC, str(spec)):
            assert main(["probe", "--ckpt", ckpt, "--probe-spec", arg]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_non_utf8_probe_spec_file(self, tmp_path, capsys):
        ckpt = str(tmp_path / "m.ckpt")
        cfg = tiny_cfg()
        save_checkpoint(init_params(cfg), cfg, ckpt)
        spec = tmp_path / "probe.spec"
        spec.write_bytes(b"n_prompts=2\n\xff\n")
        assert main(["probe", "--ckpt", ckpt, "--probe-spec", str(spec)]) == 2
        assert "bad probe spec" in capsys.readouterr().err

    def test_diverged_train_writes_no_checkpoint(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(run_yaml("train:", "loss:\n  lambda_pred: 1.0e+4\n"
                                 "optimizer:\n  lr: 1.0e+306\n  momentum: 0.0\n"
                                 "  clip_norm: 1.0e+308\ntrain:"))
        ckpt = tmp_path / "m.ckpt"
        proc = run_python(["-W", "ignore", "-m", "lpcsm.cli", "train",
                           "--config", str(path), "--out", str(ckpt)])
        assert proc.returncode == 3, proc.stderr
        assert "after the update" in proc.stderr
        assert not ckpt.exists()

    def test_overflowing_update_prints_only_the_failure(self, tmp_path,
                                                         capsys):
        # The update overflows the weights; the block output check raises
        # and the user sees the documented line, with no numpy warning
        # from the ops that overflowed on the way.
        path = tmp_path / "run.yaml"
        path.write_text(optimizer_yaml("lr: !!float 1e300"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", str(path)]) == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1, err

    def test_ablate_command(self, tmp_path, capsys):
        cfg_path = self._config(tmp_path)
        rc = main(["ablate", "--config", cfg_path, "--steps", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Full" in out and "w/o mHC" in out

    def test_import_loads_no_scipy(self):
        code = ("import sys, lpcsm, lpcsm.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
