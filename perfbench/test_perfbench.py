"""Tests of the benchmark itself: tracing changes no result, spans nest
correctly, and every metric the runner prints is declared in BENCHMARK.json.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from htlab import classic, cli, metrics, nn, rl  # noqa: E402
from htlab.imagecore import Rng, save_pgm  # noqa: E402


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    t.begin_op(0)
    yield t
    t.end_op()
    t.uninstall()


def _layers(t):
    return {span[0] for span in t.spans if span is not None}


def test_wrappers_sit_where_names_are_looked_up(tracer):
    from htlab import hvs
    for owner, attr in [(metrics, "convolve_same"),
                        (classic, "convolve_same"), (hvs, "convolve_same"),
                        (rl, "ring_partition"),
                        (cli, "network_from_checkpoint"),
                        (cli, "load_pgm"), (Rng, "uniforms")]:
        assert hasattr(vars(owner)[attr], "__wrapped_layer__"), (owner, attr)
    tracer.uninstall()
    assert not hasattr(vars(metrics)["convolve_same"], "__wrapped_layer__")
    assert not hasattr(vars(Rng)["uniforms"], "__wrapped_layer__")


def test_traced_dbs_is_bit_identical(tracer):
    c = workloads.natural_scene(16, Rng(3))
    tracer.end_op()
    want = classic.dbs_search(c, Rng(5), max_sweeps=4)
    tracer.begin_op(1)
    got = classic.dbs_search(c, Rng(5), max_sweeps=4)
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]
    assert {"classic.dbs", "hvs.convolve_same",
            "imagecore.rng"} <= _layers(tracer)


def _tiny_training():
    cfg = rl.TrainConfig(iterations=10, batch_size=2, crop_size=8,
                         channels=2, blocks=1, w_a=0.002, seed=4,
                         hvs_model="gaussian", hvs_size=5, hvs_sigma=1.5)
    rng = Rng(cfg.seed)
    net = nn.PolicyNetwork(channels=cfg.channels, blocks=cfg.blocks)
    adam = nn.Adam(net.params())
    net.init_params(rng)
    data = [workloads.natural_scene(16, Rng(k)) for k in range(2)]
    diags = [rl.train_step(net, adam, data, cfg, rng, t) for t in range(2)]
    return diags, [p.value.copy() for p in net.params()]


def test_traced_train_step_is_bit_identical(tracer):
    tracer.end_op()
    want_diags, want_params = _tiny_training()
    tracer.begin_op(1)
    got_diags, got_params = _tiny_training()
    assert got_diags == want_diags
    assert all(np.array_equal(a, b) for a, b in zip(got_params, want_params))
    assert {"rl.train_step", "rl.make_sample", "rl.signal",
            "metrics.reward_context", "metrics.delta_map", "nn.forward",
            "nn.backward", "nn.adam", "spectral.anisotropy"} <= \
        _layers(tracer)


def test_traced_cli_is_bit_identical_and_nests_worker_spans(
        tracer, tmp_path, monkeypatch):
    monkeypatch.setenv("HTLAB_THREADS", "2")
    contone = tmp_path / "c"
    contone.mkdir()
    for k in range(2):
        save_pgm(workloads.natural_scene(24, Rng(k)),
                 str(contone / f"{k}.pgm"))
    ckpt = tmp_path / "p.htnn"
    workloads.policy_checkpoint(ckpt, seed=2, channels=2, blocks=1)

    def outputs(tag):
        argvs = [["eval", "--contone-dir", str(contone), "--method", "nn",
                  "--checkpoint", str(ckpt), "--output",
                  str(tmp_path / f"{tag}.csv")],
                 ["spectra", "--gray", "0.3", "--method", "nn",
                  "--checkpoint", str(ckpt), "--size", "24",
                  "--realizations", "2", "--output",
                  str(tmp_path / f"{tag}.spectra.csv")]]
        for argv in argvs:
            assert cli.main(argv) == 0
        return [(tmp_path / f"{tag}{ext}").read_bytes()
                for ext in (".csv", ".spectra.csv")]

    tracer.end_op()
    want = outputs("plain")
    tracer.begin_op(1)
    got = outputs("traced")
    assert got == want
    spans = [s for s in tracer.spans if s is not None]
    mains = {i for i, s in enumerate(tracer.spans)
             if s is not None and s[0] == "cli.main"}
    loads = [s for s in spans if s[0] == "imagecore.netpbm"]
    assert loads and all(s[3] >= 0 for s in loads)
    # every span on a pool thread hangs under the cli.main that started it
    main_thread = tracer.spans[min(mains)][5]
    for span in spans:
        if span[5] != main_thread and span[3] >= 0:
            parent = tracer.spans[span[3]]
            assert parent[5] == span[5] or span[3] in mains


def test_self_time_subtracts_union_of_children():
    t = tracing.Tracer()
    t.spans = [("a", 0, 100, -1, 0, 1),
               ("b", 10, 40, 0, 0, 1),
               ("c", 30, 60, 0, 0, 2),     # overlaps b on another thread
               ("d", 35, 38, 1, 0, 1)]
    assert t.self_times_ns() == [50, 27, 30, 3]


def test_metric_tables_match_benchmark_json():
    bench = _benchmark_json()
    declared = [(m["name"], m["unit"], m["better"])
                for m in bench["end_to_end"]]
    assert declared == run.E2E_METRICS
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == tracing.LAYER_METRICS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    names = set(tracing.Tracer().layer_metrics(1, 0.0))
    assert names == {m["name"] for m in bench["per_layer"]}


def test_printed_metrics_match_benchmark_json():
    bench = _benchmark_json()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "train-mini",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in bench["end_to_end"]}


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dbs-classic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
