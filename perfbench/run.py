"""htlab benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload train-mini --seed 1 --seconds 30
    python3 perfbench/run.py --workload cli-eval --seed 1 --trace 1
    python3 perfbench/run.py            # every workload, one after another

Each workload runs in child processes: two that only set up, for the
median ``setup_s``, then one that sets up and measures. With ``--trace 1``
an untraced and a traced child run instead; the traced one reports the
per-layer metrics, writes its spans under ``.perfbench/`` and must produce
the same outputs as the untraced one. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; lines before it start with ``#`` and are for people.
"""

import time

_T0 = time.perf_counter()   # setup_s counts from here: imports, inputs,
                            # warm-up

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("train-mini", "dbs-classic", "cli-eval")
SETUP_RUNS = 3              # setup_s is the median over this many set-ups
BUDGET_S = 170.0            # one workload, all of its children included

# (name, unit, better) of every end-to-end metric, on every workload
E2E_METRICS = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("hvs_psnr_db", "dB", "higher"),
    ("cssim", "ratio", "higher"),
    ("anisotropy", "ratio", "lower"),
]

# what an op and a unit of work are on each workload, for the human lines
OPS = {"train-mini": ("train_step", "train_steps_per_s"),
       "dbs-classic": ("dbs_solve", "dbs_pixel_sweeps_per_s"),
       "cli-eval": ("cli_call", "cli_images_per_s")}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# child side

def _child(args):
    if not (ROOT / "src" / "htlab" / "__init__.py").is_file():
        raise BenchError(f"no htlab sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload.setup(args.seed, workdir)
        setup_s = time.perf_counter() - _T0
        if args.child == "setup":
            return {"setup_s": setup_s}
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            latencies, work, problems = workloads.measure(
                workload, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        try:
            q, digest = workload.quality()
        except Exception as exc:              # noqa: BLE001 - reported
            q, digest = {}, None
            problems.append(f"quality guards: {exc!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ms = np.array(latencies) * 1e3
    # the highest percentile with at least ten samples beyond it
    tail = math.floor(100 * (len(ms) - 10) / len(ms)) if len(ms) >= 20 else 50
    out = {
        "setup_s": setup_s,
        "attempted": len(latencies),
        "failed": len(problems),
        "problems": problems[:5],
        "op_ms_p50": float(np.percentile(ms, 50)),
        "op_ms_tail": [tail, float(np.percentile(ms, tail))],
        "work_per_s": work / float(np.sum(latencies)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality": q,
        "digest": digest,
    }
    if tracer is not None:
        out["spans"] = len(tracer.spans)
        out["layers"] = {k: v for k, (v, _) in tracer.layer_metrics(
            len(latencies), 0.0).items()}
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path, {"provenance": provenance(args.seed),
                                 "workload": args.workload})
        out["spans_file"] = str(spans_path.relative_to(ROOT))
    return out


# ---------------------------------------------------------------------------
# parent side

def _git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas():
    try:
        import numpy as np
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{cfg.get('name')} {cfg.get('version')}"
    except Exception:                          # noqa: BLE001 - best effort
        return "unknown"


def provenance(seed):
    import platform

    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                               "unset"),
        "HTLAB_THREADS": os.environ.get("HTLAB_THREADS", "unset"),
        "git_sha": _git_sha(),
        "seed": seed,
    }


def _spawn(mode, workload, seed, seconds, trace, deadline):
    cmd = [sys.executable, str(HERE / "run.py"), "--child", mode,
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next child")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} child timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} child exited "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, deadline):
    """Returns the JSON result, the human lines and the child's report
    for one workload."""
    lines = []
    if not trace:
        setups = [_spawn("setup", workload, seed, seconds, False,
                         deadline)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        run = _spawn("measure", workload, seed, seconds, False, deadline)
        setups.append(run["setup_s"])
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["peak_rss_mb"],
            "work_per_s": run["work_per_s"],
            **run["quality"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in E2E_METRICS}
        for name, unit, _ in E2E_METRICS:
            lines.append(f"# {workload:<12} {name:<12} "
                         f"{values[name]:>14.6g} {unit}")
        op, rate = OPS[workload]
        tail, tail_ms = run["op_ms_tail"]
        tail_part = f", {op}_ms_p{tail} {tail_ms:.6g}" if tail > 50 else ""
        lines.append(
            f"# {workload:<12} {op}_ms_p50 {run['op_ms_p50']:.6g}{tail_part}"
            f" over {run['attempted']} ops; "
            f"{rate} {run['work_per_s']:.6g}; anisotropy_db "
            f"{10 * math.log10(values['anisotropy']):.4f}; setup_s median "
            f"of {len(setups)}")
        correct = run["failed"] == 0 and run["digest"] is not None
    else:
        base = _spawn("measure", workload, seed, seconds, False, deadline)
        run = _spawn("measure", workload, seed, seconds, True, deadline)
        overhead = base["work_per_s"] / run["work_per_s"] - 1.0
        layers = dict(run["layers"], trace_overhead_frac=overhead)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in tracing.LAYER_METRICS}
        for name, unit, _ in tracing.LAYER_METRICS:
            lines.append(f"# {workload:<12} {name:<36} "
                         f"{layers[name]:>14.6g} {unit}")
        same = run["digest"] == base["digest"] and run["digest"] is not None
        lines.append(f"# {workload:<12} spans {run['spans']} in "
                     f"{run['spans_file']}; traced outputs "
                     f"{'identical to' if same else 'DIFFER from'} untraced")
        correct = run["failed"] == 0 and base["failed"] == 0 and same
        run = dict(run, quality=base["quality"],
                   attempted=run["attempted"] + base["attempted"],
                   failed=run["failed"] + base["failed"],
                   problems=base["problems"] + run["problems"])
    lines.append(f"# {workload:<12} failed_frac "
                 f"{run['failed'] / run['attempted']:.6g} "
                 f"({run['failed']}/{run['attempted']})")
    for problem in run["problems"]:
        lines.append(f"# {workload:<12} FAILED {problem}")
    result = {"correct": bool(correct), "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    return result, lines, run


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = _parse(argv)
    if args.child:
        print(json.dumps(_child(args)))
        return 0
    if not (ROOT / "src" / "htlab" / "__init__.py").is_file():
        raise BenchError(f"no htlab sources under {ROOT / 'src'}")
    WORK.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print("# provenance " + json.dumps(provenance(args.seed)), flush=True)
    results, runs = {}, {}
    for name in names:
        result, lines, run = run_workload(name, args.seed, args.seconds,
                                          args.trace,
                                          time.monotonic() + BUDGET_S)
        print("\n".join(lines), flush=True)
        results[name], runs[name] = result, run
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    if args.trace:
        dbs, nn_ = runs["dbs-classic"], runs["cli-eval"]
        print(f"# paper pair: classic.dbs.s_per_mpix "
              f"{dbs['layers']['classic.dbs.s_per_mpix']:.6g} at "
              f"hvs_psnr_db {dbs['quality']['hvs_psnr_db']:.4f} "
              f"(dbs-classic); rl.infer.s_per_mpix "
              f"{nn_['layers']['rl.infer.s_per_mpix']:.6g} at hvs_psnr_db "
              f"{nn_['quality']['hvs_psnr_db']:.4f} (cli-eval)")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
