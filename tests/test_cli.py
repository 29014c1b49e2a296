"""Command-line surface: flag validation, exit codes, CSV and manifest
outputs, deterministic reruns, and the micro train/resume path.

Everything runs in-process through cli.main so exit codes and stderr are
observable without spawning interpreters, except the size-bound tests: they
run cli.main in a child interpreter under an address-space limit, where a
missing bound ends in MemoryError instead of taking the machine's memory.
"""

import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from htlab import cli, rl
from htlab.classic import floyd_steinberg
from htlab.hvs import HvsConfig, build_kernel
from htlab.imagecore import (Rng, constant_image, derive_seed, load_pgm,
                             save_pbm, save_pgm)
from htlab.metrics import cssim, ssim
from htlab.nn import (Adam, CheckpointError, PolicyNetwork,
                      network_from_checkpoint, read_checkpoint,
                      save_checkpoint)


def write_contone(path, size=12, seed=1):
    save_pgm(helpers.natural_crop(size=size, seed=seed), str(path))


def parse_csv(path):
    lines = Path(path).read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    rows = [l.split(",") for l in lines if not l.startswith("#")]
    return comments, rows[0], rows[1:]


@pytest.fixture
def contone(tmp_path):
    path = tmp_path / "img.pgm"
    write_contone(path)
    return str(path)


@pytest.fixture
def tiny_checkpoint(tmp_path):
    net = PolicyNetwork(channels=2, blocks=0, in_channels=2)
    net.init_params(Rng(0), std=0.5)
    path = tmp_path / "policy.htnn"
    save_checkpoint(str(path), net)
    return str(path)


def train_config(tmp_path, **overrides):
    dataset = tmp_path / "data"
    dataset.mkdir(exist_ok=True)
    write_contone(dataset / "img.pgm")
    values = {
        "dataset_dir": str(dataset),
        "out_dir": str(tmp_path / "run"),
        "iterations": 4, "batch_size": 2, "crop_size": 8,
        "channels": 2, "blocks": 0, "w_s": 0.06, "w_a": 0.001,
        "estimator": "local_expectation", "seed": 3, "log_every": 1,
        "checkpoint_every": 2, "hvs_model": "gaussian", "hvs_size": 5,
        "hvs_sigma": 1.5,
    }
    values.update(overrides)
    cfg = tmp_path / "train.cfg"
    cfg.write_text("# micro run\n"
                   + "".join(f"{k} = {v}\n" for k, v in values.items()))
    return str(cfg), values


def run_cli_limited(args, cwd, limit=3 * 10 ** 9):
    """cli.main(args) in a child interpreter whose address space is capped
    at `limit` bytes, so an allocation a command should never attempt ends
    there in MemoryError (exit 4) instead of taking the machine's memory."""
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from htlab import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code] + args, cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=300)


class TestExitCodes:
    def test_version_exits_zero(self):
        assert cli.main(["--version"]) == 0

    def test_unknown_flag_is_usage(self, contone, tmp_path):
        assert cli.main(["halftone", "--input", contone, "--output",
                         str(tmp_path / "o.pbm"), "--method", "fs",
                         "--nope"]) == 2

    def test_missing_required_flag_is_usage(self):
        assert cli.main(["halftone", "--method", "fs"]) == 2

    def test_nn_without_checkpoint_is_usage(self, contone, tmp_path, capsys):
        code = cli.main(["halftone", "--input", contone, "--output",
                         str(tmp_path / "o.pbm"), "--method", "nn"])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_halftone_without_method_is_usage(self, contone, tmp_path,
                                              capsys):
        out = tmp_path / "o.pbm"
        assert cli.main(["halftone", "--input", contone, "--output",
                         str(out)]) == 2
        assert "--method" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["halftone", "eval", "spectra"])
    def test_oversized_nn_inference_is_data_error(self, tmp_path, command):
        # 128 channels over a 2048² image: under a 3 GB address-space limit
        # the first layer's 4.3 GB padded input ends in MemoryError, which
        # the command reports as a data error naming the image and policy
        net = PolicyNetwork(channels=128, blocks=0, in_channels=2)
        net.init_params(Rng(0), std=0.1)
        ck = tmp_path / "wide.htnn"
        save_checkpoint(str(ck), net)
        big = tmp_path / "big"
        big.mkdir()
        (big / "img.pgm").write_bytes(b"P5\n2048 2048\n255\n"
                                      + b"\x80" * 2048 ** 2)
        source = {"halftone": ["--input", str(big / "img.pgm")],
                  "eval": ["--contone-dir", str(big)],
                  "spectra": ["--gray", "0.5", "--size", "2048"]}[command]
        out = tmp_path / "o.out"
        done = run_cli_limited([command, "--method", "nn", "--checkpoint",
                                str(ck), "--output", str(out)] + source,
                               tmp_path)
        assert done.returncode == 3, done.stderr
        assert "2048x2048" in done.stderr and "128" in done.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["halftone", "spectra"])
    def test_nn_inference_above_a_training_batch_runs(self, tmp_path,
                                                      command):
        # 32 channels over a 1025x1024 image exceed rl.MAX_ACTIVATION, the
        # bound on a training batch; forward-only inference keeps no
        # activations and needs about 1.2 GB here, within a 3 GB limit
        net = PolicyNetwork(channels=32, blocks=0, in_channels=2)
        net.init_params(Rng(0), std=0.1)
        assert net.channels * 1025 * 1024 > rl.MAX_ACTIVATION
        ck = tmp_path / "policy.htnn"
        save_checkpoint(str(ck), net)
        img = tmp_path / "img.pgm"
        img.write_bytes(b"P5\n1025 1024\n255\n" + b"\x80" * 1025 * 1024)
        source = {"halftone": ["--input", str(img)],
                  "spectra": ["--gray", "0.5", "--size", "1025"]}[command]
        out = tmp_path / "o.out"
        done = run_cli_limited([command, "--method", "nn", "--checkpoint",
                                str(ck), "--output", str(out)] + source,
                               tmp_path)
        assert done.returncode == 0, done.stderr
        assert out.exists()

    def test_missing_input_is_data_error(self, tmp_path):
        assert cli.main(["halftone", "--input", str(tmp_path / "gone.pgm"),
                         "--output", str(tmp_path / "o.pbm"),
                         "--method", "fs"]) == 3

    def test_corrupt_pgm_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P9 this is not a pgm")
        assert cli.main(["halftone", "--input", str(bad), "--output",
                         str(tmp_path / "o.pbm"), "--method", "fs"]) == 3

    def test_corrupt_checkpoint_is_data_error(self, contone, tmp_path):
        ck = tmp_path / "bad.htnn"
        ck.write_bytes(b"XXXX" + b"\x00" * 100)
        assert cli.main(["halftone", "--input", contone, "--output",
                         str(tmp_path / "o.pbm"), "--method", "nn",
                         "--checkpoint", str(ck)]) == 3

    def test_p2_header_beyond_its_payload_is_data_error(self, tmp_path):
        # 10^10 samples claimed in a 20-byte file: rejected before any
        # sample buffer is allocated
        bad = tmp_path / "huge.pgm"
        bad.write_bytes(b"P2 100000 100000 255")
        assert cli.main(["halftone", "--input", str(bad), "--output",
                         str(tmp_path / "o.pbm"), "--method", "fs"]) == 3

    def test_checkpoint_arch_beyond_its_blob_is_data_error(
            self, contone, tiny_checkpoint, tmp_path):
        # a header claiming 60000 channels and one residual block (two
        # 60000^2 x 3 x 3 convs): rejected before any network is built
        raw = bytearray(Path(tiny_checkpoint).read_bytes())
        raw[12:16] = (60000).to_bytes(4, "little")
        raw[16:20] = (1).to_bytes(4, "little")
        ck = tmp_path / "wide.htnn"
        ck.write_bytes(bytes(raw))
        assert cli.main(["halftone", "--input", contone, "--output",
                         str(tmp_path / "o.pbm"), "--method", "nn",
                         "--checkpoint", str(ck)]) == 3

    def test_checkpoint_blob_of_partial_floats_is_data_error(
            self, contone, tiny_checkpoint, tmp_path):
        ck = tmp_path / "ragged.htnn"
        ck.write_bytes(Path(tiny_checkpoint).read_bytes() + b"\x00" * 13)
        assert cli.main(["halftone", "--input", contone, "--output",
                         str(tmp_path / "o.pbm"), "--method", "nn",
                         "--checkpoint", str(ck)]) == 3

    @pytest.mark.parametrize("in_channels", [1, 3])
    def test_checkpoint_of_other_input_channels_is_data_error(
            self, contone, tmp_path, in_channels):
        net = PolicyNetwork(channels=2, blocks=0, in_channels=in_channels)
        net.init_params(Rng(0), std=0.5)
        ck = tmp_path / "other.htnn"
        save_checkpoint(str(ck), net)
        assert cli.main(["halftone", "--input", contone, "--output",
                         str(tmp_path / "o.pbm"), "--method", "nn",
                         "--checkpoint", str(ck)]) == 3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("weight", [math.nan, 1e300])
    @pytest.mark.parametrize("command", ["halftone", "spectra", "eval"])
    def test_degenerate_checkpoint_is_data_error(self, contone, tmp_path,
                                                 capsys, weight, command):
        # NaN weights are refused when the file is read; 1e300 weights are
        # finite but overflow the forward pass, and the error names the file
        net = PolicyNetwork(channels=2, blocks=0, in_channels=2)
        for param in net.params():
            param.value[...] = weight
        ck = str(tmp_path / "degenerate.htnn")
        save_checkpoint(ck, net)
        argv = {"halftone": ["--input", contone,
                             "--output", str(tmp_path / "o.pbm")],
                "spectra": ["--gray", "0.3",
                            "--output", str(tmp_path / "s.csv")],
                "eval": ["--contone-dir", str(tmp_path),
                         "--output", str(tmp_path / "e.csv")]}[command]
        assert cli.main([command, *argv, "--method", "nn",
                         "--checkpoint", ck]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert "Warning" not in err
        assert ("non-finite values" if math.isnan(weight) else ck) in err

    @pytest.mark.filterwarnings("error")
    def test_diverging_train_keeps_its_log_and_checkpoints(self, tmp_path,
                                                           capsys):
        # a step size of 1e300 sends the logits to infinity in the second
        # iteration's forward pass; numpy warns about none of it
        cfg, values = train_config(tmp_path, lr_start=1e300, lr_end=1e300,
                                   checkpoint_every=1)
        assert cli.main(["train", "--config", cfg]) == 3
        assert "diverged at iteration 2" in capsys.readouterr().err
        run = Path(values["out_dir"])
        assert sorted(p.name for p in run.iterdir()) == [
            "ckpt_000001.htnn", "log.csv"]
        assert read_checkpoint(str(run / "ckpt_000001.htnn"))[0][
            "iteration"] == 1
        _, header, rows = parse_csv(run / "log.csv")
        assert header == ["iteration", "reward", "l_as", "bin_gap", "lr"]
        assert [row[0] for row in rows] == ["1"]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_adam_step_is_data_error(self, tmp_path, capsys):
        # w_s = -1e308 overflows the squared gradient of Adam's second
        # moment; the run must stop before it writes a model it cannot load
        cfg, values = train_config(tmp_path, iterations=1, w_s=-1e308)
        assert cli.main(["train", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "diverged at iteration 1" in err
        assert "Warning" not in err
        assert sorted(p.name for p in Path(values["out_dir"]).iterdir()) == [
            "log.csv"]


# the checkpoint header as the format defines it: magic, version, input
# channels, channels, blocks, iteration, Adam step, four RNG state words
HEADER = struct.Struct("<4sIIIIQQ4Q")
HEADER_FIELDS = ([st.binary(min_size=4, max_size=4)]
                 + [st.integers(0, 2 ** 32 - 1)] * 4
                 + [st.integers(0, 2 ** 64 - 1)] * 6)


def mutate_checkpoint(raw, fields, keep=None, extra=b""):
    """raw with header fields {index: value} replaced, its body cut to
    `keep` bytes (None keeps all) and `extra` appended."""
    header = list(HEADER.unpack_from(raw))
    for index, value in fields.items():
        header[index] = value
    body = raw[HEADER.size:]
    return HEADER.pack(*header) + body[:keep] + extra


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A valid checkpoint with Adam state, and a directory for mutants."""
    work = tmp_path_factory.mktemp("fuzz")
    net = PolicyNetwork(channels=2, blocks=1, in_channels=2)
    net.init_params(Rng(0), std=0.5)
    save_checkpoint(str(work / "base.htnn"), net, Adam(net.params()),
                    iteration=3, rng_state=(1, 2, 3, 4))
    return (work / "base.htnn").read_bytes(), work


class TestCheckpointFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_files_raise_only_checkpoint_error(self, fuzz_base,
                                                       data):
        raw, work = fuzz_base
        indices = data.draw(st.sets(st.integers(0, len(HEADER_FIELDS) - 1)))
        fields = {i: data.draw(HEADER_FIELDS[i]) for i in sorted(indices)}
        keep = data.draw(st.none() | st.integers(0, len(raw) - HEADER.size))
        extra = data.draw(st.binary(max_size=24))
        mutated = mutate_checkpoint(raw, fields, keep, extra)
        if data.draw(st.booleans()):
            mutated = mutated[:data.draw(st.integers(0, len(mutated)))]
        path = work / "mutated.htnn"
        path.write_bytes(mutated)
        try:
            read_checkpoint(str(path))
        except CheckpointError:
            pass

    def test_mutated_file_makes_halftone_exit_3(self, fuzz_base, contone,
                                                tmp_path):
        raw, _ = fuzz_base
        ck = tmp_path / "v2.htnn"
        ck.write_bytes(mutate_checkpoint(raw, {1: 2}))
        assert cli.main(["halftone", "--input", contone, "--output",
                         str(tmp_path / "o.pbm"), "--method", "nn",
                         "--checkpoint", str(ck)]) == 3
        assert not (tmp_path / "o.pbm").exists()


# config lines: a known key (or an unknown or empty one) with a value that
# parses, is out of range, huge or not a number at all; free text and
# arbitrary bytes (not all of them UTF-8) cover the rest
_CONFIG_VALUES = st.one_of(
    st.integers(-10 ** 6, 10 ** 12).map(str),
    st.floats().map(repr),
    st.sampled_from(["true", "no", "nan", "-inf", "1e400", "9" * 5000,
                     "local_expectation", "coma", "gaussian", "nasanen",
                     ""]),
    st.text(max_size=8))
_CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from([f.name for f in fields(rl.TrainConfig)]
                              + ["momentum", ""]),
              _CONFIG_VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=16))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config_fuzz")


class TestConfigFuzz:
    @settings(max_examples=400, deadline=None)
    @given(data=st.one_of(
        st.lists(_CONFIG_LINES, max_size=8).map(
            lambda lines: "\n".join(lines).encode("utf-8")),
        st.binary(max_size=64)))
    def test_loader_raises_only_usage_error(self, fuzz_dir, data):
        path = fuzz_dir / "fuzz.cfg"
        path.write_bytes(data)
        try:
            cfg = cli.load_train_config(str(path))
        except cli.UsageError:
            return
        assert isinstance(cfg, rl.TrainConfig)

    def test_config_that_is_not_utf8_exits_usage(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("estimator = coma # \xe9\n".encode("latin-1"))
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert "UTF-8" in capsys.readouterr().err


class TestHalftoneFlags:
    @pytest.mark.parametrize("extra", [
        ["--levels", "1"],
        ["--levels", "3"],                       # multitone needs nn
        ["--trace", "t.csv"],                    # trace needs dbs
    ])
    def test_fs_flag_combinations_rejected(self, contone, tmp_path, extra):
        assert cli.main(["halftone", "--input", contone, "--output",
                         str(tmp_path / "o.pbm"), "--method", "fs"]
                        + extra) == 2

    def test_bayer_order_must_be_power_of_two(self, contone, tmp_path):
        assert cli.main(["halftone", "--input", contone, "--output",
                         str(tmp_path / "o.pbm"), "--method", "bayer",
                         "--order", "3"]) == 2

    @pytest.mark.parametrize("command", ["halftone", "eval", "spectra"])
    @pytest.mark.parametrize("method, extra", [
        ("bayer", ["--order", "3"]),
        ("fs", ["--levels", "1"]),
        ("fs", ["--levels", "3"]),               # multitone needs nn
        ("dbs", ["--max-sweeps", "-1"]),
        # beyond the PGM maxval; rejected before the checkpoint is opened
        ("nn", ["--checkpoint", "absent.htnn", "--levels", "65537"]),
        ("bayer", ["--order", "2048"]),          # above MAX_ORDER
    ])
    def test_every_synthesizing_command_checks_the_shared_flags(
            self, contone, tmp_path, command, method, extra):
        source = {"halftone": ["--input", contone],
                  "eval": ["--contone-dir", str(Path(contone).parent)],
                  "spectra": ["--gray", "0.5"]}[command]
        assert cli.main([command, "--output", str(tmp_path / "o.out"),
                         "--method", method] + source + extra) == 2


class TestHalftoneOutputs:
    def test_bayer_writes_pbm_and_manifest(self, contone, tmp_path):
        out = tmp_path / "h.pbm"
        assert cli.main(["halftone", "--input", contone, "--output",
                         str(out), "--method", "bayer"]) == 0
        assert out.read_bytes().startswith(b"P4")
        manifest = json.loads((tmp_path / "h.pbm.manifest.json").read_text())
        assert manifest["command"] == "halftone"
        assert manifest["seed"] == 0
        assert str(out) in manifest["outputs"]
        assert cli.verify_manifest(str(tmp_path / "h.pbm.manifest.json")) \
            == []

    def test_dbs_rerun_is_byte_identical(self, contone, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.pbm"
            trace = tmp_path / f"{name}.csv"
            assert cli.main(["halftone", "--input", contone, "--output",
                             str(out), "--method", "dbs", "--seed", "7",
                             "--trace", str(trace)]) == 0
            outs.append((out.read_bytes(), trace.read_bytes()))
        assert outs[0] == outs[1]

    def test_dbs_trace_is_monotone(self, contone, tmp_path):
        out = tmp_path / "h.pbm"
        trace = tmp_path / "t.csv"
        assert cli.main(["halftone", "--input", contone, "--output",
                         str(out), "--method", "dbs", "--trace",
                         str(trace)]) == 0
        _, header, rows = parse_csv(trace)
        assert header == ["sweep", "mse"]
        errors = [float(r[1]) for r in rows]
        assert all(b <= a for a, b in zip(errors, errors[1:]))

    def test_manifest_detects_tampering(self, contone, tmp_path):
        out = tmp_path / "h.pbm"
        assert cli.main(["halftone", "--input", contone, "--output",
                         str(out), "--method", "white"]) == 0
        manifest = str(tmp_path / "h.pbm.manifest.json")
        assert cli.verify_manifest(manifest) == []
        with open(out, "ab") as fh:
            fh.write(b"\x00")
        assert cli.verify_manifest(manifest) == [str(out)]

    def test_nn_binary_output(self, contone, tmp_path, tiny_checkpoint):
        out = tmp_path / "h.pbm"
        assert cli.main(["halftone", "--input", contone, "--output",
                         str(out), "--method", "nn", "--checkpoint",
                         tiny_checkpoint]) == 0
        assert out.read_bytes().startswith(b"P4")

    def test_nn_multitone_writes_pgm_with_level_maxval(self, contone,
                                                       tmp_path,
                                                       tiny_checkpoint):
        out = tmp_path / "m.pgm"
        assert cli.main(["halftone", "--input", contone, "--output",
                         str(out), "--method", "nn", "--checkpoint",
                         tiny_checkpoint, "--levels", "3"]) == 0
        tokens = out.read_bytes().split(None, 4)
        assert tokens[0] == b"P5"
        assert tokens[3] == b"2"                 # maxval = levels - 1
        m = load_pgm(str(out))
        assert set(np.unique(m)).issubset({0.0, 0.5, 1.0})


class TestConfigParsing:
    def test_types_comments_and_bools(self):
        out = cli.parse_config("# comment\n\niterations = 12\n"
                               "w_s = 0.5\nestimator = coma\n"
                               "multitone_anisotropy = yes\n")
        assert out == {"iterations": 12, "w_s": 0.5, "estimator": "coma",
                       "multitone_anisotropy": True}

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(cli.UsageError, match=r"line 2.*'momentum'"):
            cli.parse_config("iterations = 5\nmomentum = 0.9\n")

    def test_bad_value_rejected(self):
        with pytest.raises(cli.UsageError, match="ten"):
            cli.parse_config("iterations = ten\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected(self, tmp_path, value):
        with pytest.raises(cli.UsageError, match="lr_start"):
            cli.parse_config(f"lr_start = {value}\n")
        cfg, _ = train_config(tmp_path, lr_start=value)
        assert cli.main(["train", "--config", cfg]) == 2
        assert not (tmp_path / "run").exists()

    def test_missing_equals_rejected(self):
        with pytest.raises(cli.UsageError, match="line 1"):
            cli.parse_config("iterations: 5\n")

    def test_unknown_key_exits_usage(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("momentum = 0.9\n")
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert "momentum" in capsys.readouterr().err

    def test_invalid_semantics_exit_usage(self, tmp_path):
        cfg, _ = train_config(tmp_path, estimator="coma", levels=3)
        assert cli.main(["train", "--config", cfg]) == 2

    @pytest.mark.parametrize("overrides", [
        {"hvs_size": 12}, {"hvs_model": "foo"},
        {"hvs_model": "gaussian", "hvs_sigma": -1.0}])
    def test_bad_hvs_value_exits_usage(self, tmp_path, capsys, overrides):
        # the kernel is built when the config loads, not in the first step
        cfg, _ = train_config(tmp_path, **overrides)
        assert cli.main(["train", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key,value", [
        ("channels", 100000),       # a 720 GB residual conv weight
        ("batch_size", 1000000000), ("blocks", 100000000),
        ("crop_size", 100000)])
    def test_oversized_network_or_batch_exits_usage(self, tmp_path, key,
                                                    value):
        # run under a 3 GB address-space limit: an attempt to build any of
        # these ends in MemoryError there, so exit 2 shows the config was
        # refused before anything was allocated
        cfg, _ = train_config(tmp_path, **{"blocks": 1, key: value})
        done = run_cli_limited(["train", "--config", cfg], tmp_path)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("usage error: ")
        assert key in done.stderr
        assert not (tmp_path / "run").exists()

    def test_size_bounds_admit_the_paper_config_and_themselves(self):
        rl.TrainConfig().validate()
        rl.TrainConfig(channels=rl.MAX_CHANNELS, blocks=rl.MAX_BLOCKS,
                       batch_size=rl.MAX_BATCH_SIZE, crop_size=16).validate()
        assert (rl.MAX_BATCH_SIZE * rl.MAX_CHANNELS * 16 ** 2
                == rl.MAX_ACTIVATION)

    def test_missing_dataset_dir_is_data_error(self, tmp_path):
        cfg, _ = train_config(tmp_path,
                              dataset_dir=str(tmp_path / "nowhere"))
        assert cli.main(["train", "--config", cfg]) == 3

    def test_undersized_dataset_image_is_data_error(self, tmp_path):
        cfg, values = train_config(tmp_path, crop_size=64)
        assert cli.main(["train", "--config", cfg]) == 3


class TestTrain:
    def test_outputs_log_checkpoints_manifest(self, tmp_path):
        cfg, values = train_config(tmp_path)
        assert cli.main(["train", "--config", cfg]) == 0
        run = Path(values["out_dir"])
        assert (run / "model.htnn").is_file()
        assert (run / "ckpt_000002.htnn").is_file()
        _, header, rows = parse_csv(run / "log.csv")
        assert header == ["iteration", "reward", "l_as", "bin_gap", "lr"]
        assert [r[0] for r in rows] == ["1", "2", "3", "4"]
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 3
        assert manifest["resolved"]["config_values"]["iterations"] == 4
        assert str(run / "ckpt_000002.htnn") in manifest["outputs"]
        assert cli.verify_manifest(str(run / "manifest.json")) == []

    def test_resume_from_mid_checkpoint_is_byte_identical(self, tmp_path):
        cfg_a, values_a = train_config(tmp_path,
                                       out_dir=str(tmp_path / "runA"))
        assert cli.main(["train", "--config", cfg_a]) == 0

        cfg_b, values_b = train_config(tmp_path,
                                       out_dir=str(tmp_path / "runB"))
        resume = str(Path(values_a["out_dir"]) / "ckpt_000002.htnn")
        assert cli.main(["train", "--config", cfg_b, "--resume",
                         resume]) == 0

        model_a = (Path(values_a["out_dir"]) / "model.htnn").read_bytes()
        model_b = (Path(values_b["out_dir"]) / "model.htnn").read_bytes()
        assert model_a == model_b

        # the resumed log continues at iteration 3 with the same rows
        _, _, rows_a = parse_csv(Path(values_a["out_dir"]) / "log.csv")
        _, _, rows_b = parse_csv(Path(values_b["out_dir"]) / "log.csv")
        assert rows_b == rows_a[2:]

    def test_one_pixel_crops_train_with_zero_anisotropy(self, tmp_path):
        # a 1x1 crop's spectrum has no ring, so L_as is 0, not an error
        cfg, values = train_config(tmp_path, crop_size=1,
                                   w_a=rl.TrainConfig().w_a)
        assert cli.main(["train", "--config", cfg]) == 0
        _, header, rows = parse_csv(Path(values["out_dir"]) / "log.csv")
        assert len(rows) == 4
        assert {r[header.index("l_as")] for r in rows} == {"0"}


class TestEval:
    def _contones(self, tmp_path, n=3, size=18):
        cdir = tmp_path / "contones"
        cdir.mkdir()
        for i in range(n):
            write_contone(cdir / f"img{i}.pgm", size=size, seed=i)
        return str(cdir)

    def test_requires_exactly_one_source(self, tmp_path):
        cdir = self._contones(tmp_path, n=1)
        out = str(tmp_path / "m.csv")
        assert cli.main(["eval", "--contone-dir", cdir, "--output",
                         out]) == 2
        assert cli.main(["eval", "--contone-dir", cdir, "--output", out,
                         "--method", "fs", "--halftone-dir", cdir]) == 2

    def test_identical_pair_scores_perfectly(self, tmp_path):
        cdir = tmp_path / "c"
        hdir = tmp_path / "h"
        cdir.mkdir()
        hdir.mkdir()
        write_contone(cdir / "same.pgm", size=26, seed=5)
        write_contone(hdir / "same.pgm", size=26, seed=5)
        out = tmp_path / "m.csv"
        assert cli.main(["eval", "--contone-dir", str(cdir),
                         "--halftone-dir", str(hdir), "--output",
                         str(out)]) == 0
        comments, header, rows = parse_csv(out)
        assert comments == ["# region = valid"]
        assert header == ["image", "psnr_nasanen", "psnr_gaussian", "ssim",
                          "cssim"]
        row = rows[0]
        assert row[0] == "same"
        assert row[1] == "inf" and row[2] == "inf"
        assert float(row[3]) == pytest.approx(1.0, abs=1e-9)
        assert float(row[4]) == pytest.approx(1.0, abs=1e-9)

    def test_mean_and_std_rows_recompute(self, tmp_path):
        cdir = self._contones(tmp_path)
        out = tmp_path / "m.csv"
        assert cli.main(["eval", "--contone-dir", cdir, "--method", "bayer",
                         "--output", str(out)]) == 0
        _, _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["img0", "img1", "img2", "mean",
                                        "std"]
        data = np.array([[float(v) for v in r[1:]] for r in rows[:3]])
        mean = [float(v) for v in rows[3][1:]]
        std = [float(v) for v in rows[4][1:]]
        assert np.allclose(mean, data.mean(axis=0), rtol=0, atol=1e-12)
        assert np.allclose(std, data.std(axis=0), rtol=0, atol=1e-12)

    def test_missing_mate_is_data_error(self, tmp_path):
        cdir = self._contones(tmp_path, n=1)
        hdir = tmp_path / "h"
        hdir.mkdir()
        assert cli.main(["eval", "--contone-dir", cdir, "--halftone-dir",
                         str(hdir), "--output",
                         str(tmp_path / "m.csv")]) == 3

    def test_shape_mismatch_is_data_error(self, tmp_path):
        cdir = tmp_path / "c"
        hdir = tmp_path / "h"
        cdir.mkdir()
        hdir.mkdir()
        write_contone(cdir / "a.pgm", size=18)
        write_contone(hdir / "a.pgm", size=20)
        assert cli.main(["eval", "--contone-dir", str(cdir),
                         "--halftone-dir", str(hdir), "--output",
                         str(tmp_path / "m.csv")]) == 3

    def test_undersized_contone_is_data_error(self, tmp_path, capsys):
        # a 6x6 image has no pixel whose filter and SSIM windows fit inside
        cdir = self._contones(tmp_path, n=1, size=6)
        out = str(tmp_path / "m.csv")
        assert cli.main(["eval", "--contone-dir", cdir, "--method", "bayer",
                         "--output", out]) == 3
        assert "img0" in capsys.readouterr().err
        assert cli.main(["eval", "--contone-dir", cdir, "--halftone-dir",
                         cdir, "--output", out]) == 3
        assert "img0" in capsys.readouterr().err

    def test_ssim_columns_equal_the_direct_metrics(self, tmp_path):
        cdir = self._contones(tmp_path)
        out = tmp_path / "m.csv"
        assert cli.main(["eval", "--contone-dir", cdir, "--method", "fs",
                         "--output", str(out)]) == 0
        _, header, rows = parse_csv(out)
        for row in rows[:-2]:                    # before the mean and std
            c = load_pgm(os.path.join(cdir, row[0] + ".pgm"))
            h = floyd_steinberg(c)
            assert float(row[header.index("ssim")]) == ssim(h, c)[0]
            assert float(row[header.index("cssim")]) == cssim(h, c)[0]

    def test_nn_reads_checkpoint_once(self, tmp_path, monkeypatch,
                                      tiny_checkpoint):
        cdir = self._contones(tmp_path)
        reads = []
        real = cli.network_from_checkpoint
        monkeypatch.setattr(cli, "network_from_checkpoint",
                            lambda path: reads.append(path) or real(path))
        assert cli.main(["eval", "--contone-dir", cdir, "--method", "nn",
                         "--checkpoint", tiny_checkpoint, "--output",
                         str(tmp_path / "m.csv")]) == 0
        assert reads == [tiny_checkpoint]

    def test_one_network_serves_images_of_any_size(self, tmp_path,
                                                   monkeypatch):
        # a 24², a 40² and a 24² contone in that order: the one network's
        # workspace switches geometry between every two images
        net = PolicyNetwork(channels=3, blocks=2, in_channels=2)
        net.init_params(Rng(4), std=0.5)
        ck = str(tmp_path / "policy.htnn")
        save_checkpoint(ck, net)
        cdir = tmp_path / "c"
        cdir.mkdir()
        for seed, (stem, size) in enumerate((("a", 24), ("b", 40),
                                             ("c", 24))):
            write_contone(cdir / f"{stem}.pgm", size=size, seed=seed)
        calls = []
        real = cli._synthesize

        def spy(c, rng, args, policy):
            calls.append((c, real(c, rng, args, policy), policy))
            return calls[-1][1]

        monkeypatch.setattr(cli, "_synthesize", spy)
        assert cli.main(["eval", "--contone-dir", str(cdir), "--method", "nn",
                         "--checkpoint", ck, "--seed", "5", "--output",
                         str(tmp_path / "m.csv")]) == 0
        assert [c.shape for c, _, _ in calls] == [(24, 24), (40, 40),
                                                  (24, 24)]
        assert all(policy is calls[0][2] for _, _, policy in calls)
        for index, (c, h, _) in enumerate(calls):
            fresh, _ = network_from_checkpoint(ck)
            want, _ = rl.infer_halftone(fresh, c,
                                        Rng(derive_seed(5, index)))
            assert np.array_equal(h, want), index


class TestSpectra:
    @pytest.mark.parametrize("extra", [
        [],                                              # no source
        ["--gray", "0.5"],                               # gray without method
        ["--gray", "1.5", "--method", "white"],          # gray out of range
        ["--gray", "0.5", "--method", "white",
         "--realizations", "0"],                         # bad realizations
        ["--method", "nn", "--gray", "0.5"],             # nn w/o checkpoint
        ["--gray", "0.5", "--method", "white", "--size", "0"],  # empty image
        ["--gray", "0.5", "--method", "white",
         "--size", "100000"],                            # above MAX_SIZE
    ])
    def test_flag_validation(self, tmp_path, extra):
        assert cli.main(["spectra", "--output",
                         str(tmp_path / "s.csv")] + extra) == 2

    def test_realizations_above_the_bound_exit_usage(self, tmp_path):
        # under a 3 GB address-space limit: without the bound, the curves
        # of 10^9 realizations would end there in MemoryError, exit 4
        done = run_cli_limited(["spectra", "--gray", "0.5", "--method",
                                "white", "--realizations", "1000000000",
                                "--output", str(tmp_path / "s.csv")],
                               tmp_path)
        assert done.returncode == 2, done.stderr
        assert "--realizations" in done.stderr
        assert not (tmp_path / "s.csv").exists()

    def test_input_and_synthesis_are_exclusive(self, tmp_path):
        h = tmp_path / "h.pbm"
        save_pbm(np.zeros((8, 8)), str(h))
        base = ["spectra", "--output", str(tmp_path / "s.csv"),
                "--input", str(h)]
        assert cli.main(base + ["--gray", "0.5", "--method", "white"]) == 2
        assert cli.main(base + ["--realizations", "2"]) == 2

    def test_constant_halftone_has_empty_spectrum(self, tmp_path):
        h = tmp_path / "h.pbm"
        save_pbm(np.zeros((8, 8)), str(h))
        out = tmp_path / "s.csv"
        assert cli.main(["spectra", "--input", str(h), "--output",
                         str(out)]) == 0
        _, header, rows = parse_csv(out)
        assert header == ["f_rho", "power", "anisotropy", "anisotropy_db",
                          "count"]
        assert rows[0][0] == "0" and rows[0][4] == "1"   # DC row
        assert rows[0][2] == "nan" and rows[0][3] == "nan"
        for row in rows[1:]:
            assert float(row[1]) == 0.0
            assert row[2] == "nan"

    @pytest.mark.parametrize("source", ["input", "synthesis"])
    def test_one_pixel_halftone_writes_only_the_dc_row(self, tmp_path,
                                                       source):
        # a 1x1 lattice has no ring, only its DC bin
        if source == "input":
            one = tmp_path / "one.pbm"
            one.write_bytes(b"P4\n1 1\n\x00")
            extra = ["--input", str(one)]
        else:
            extra = ["--gray", "0.5", "--method", "bayer", "--size", "1"]
        out = tmp_path / "s.csv"
        assert cli.main(["spectra", "--output", str(out)] + extra) == 0
        _, header, rows = parse_csv(out)
        assert header == ["f_rho", "power", "anisotropy", "anisotropy_db",
                          "count"]
        assert rows == [["0", "1", "nan", "nan", "1"]]

    def test_zero_anisotropy_has_nan_db(self, tmp_path):
        # one dot per 8x8 tile: a flat periodogram, so every ring's
        # anisotropy is 0 and its dB value is undefined
        out = tmp_path / "s.csv"
        assert cli.main(["spectra", "--gray", "0.02", "--method", "bayer",
                         "--size", "8", "--output", str(out)]) == 0
        _, _, rows = parse_csv(out)
        assert [r[2] for r in rows[1:6]] == ["0"] * 5
        for row in rows:
            assert row[3] == "nan"

    def test_multi_realization_rerun_is_byte_identical(self, tmp_path):
        texts = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert cli.main(["spectra", "--gray", "0.5", "--method",
                             "white", "--size", "16", "--realizations", "3",
                             "--seed", "11", "--output", str(out)]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]

    def test_ring_counts_match_partition(self, tmp_path):
        out = tmp_path / "s.csv"
        assert cli.main(["spectra", "--gray", "0.5", "--method", "white",
                         "--size", "4", "--output", str(out)]) == 0
        _, _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["0", "1", "2", "3"]
        assert [r[4] for r in rows] == ["1", "8", "6", "1"]


class TestDumpKernel:
    def test_roundtrip_is_bitwise(self, tmp_path):
        out = tmp_path / "k.csv"
        assert cli.main(["dump-kernel", "--model", "gaussian", "--size",
                         "7", "--sigma", "1.3", "--output", str(out)]) == 0
        loaded = np.loadtxt(out, delimiter=",", ndmin=2)
        want = build_kernel(HvsConfig(model="gaussian", size=7, sigma=1.3))
        assert np.array_equal(loaded, want)

    def test_bad_size_is_usage(self, tmp_path):
        assert cli.main(["dump-kernel", "--size", "4", "--output",
                         str(tmp_path / "k.csv")]) == 2


class TestManifestHelpers:
    def test_missing_output_reported(self, tmp_path):
        target = tmp_path / "data.bin"
        target.write_bytes(b"payload")
        manifest = tmp_path / "m.json"
        cli.write_manifest(str(manifest), "halftone", ["x"], {}, 0,
                           [str(target)], "t0", "t1")
        assert cli.verify_manifest(str(manifest)) == []
        target.unlink()
        assert cli.verify_manifest(str(manifest)) == [str(target)]
