"""Command-line surface: halftone conversion, training, evaluation,
spectral reports, kernel inspection.

Exit codes: 0 success, 2 usage error, 3 data error (unreadable or
inconsistent inputs), 4 internal invariant breach.

Every command writes a JSON run manifest next to its primary output with
the resolved arguments, seed, version, timestamps and a sha256 per output
file, so a run can be replayed and its outputs audited for tampering.
Reruns with identical arguments and seed produce byte-identical outputs
(the manifest's timestamps are the one deliberate exception).
"""

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import fields
from datetime import datetime, timezone

import numpy as np

from . import __version__, rl
from .classic import (dbs_search, floyd_steinberg, ordered_dither,
                      white_noise_threshold)
from .hvs import HvsConfig, build_kernel, dump_kernel_csv
from .imagecore import (NetpbmError, Rng, constant_image, derive_seed,
                        load_pbm, load_pgm, save_pbm, save_pgm)
from .metrics import (MetricConfig, hvs_mse, psnr, region_mask,
                      ssim_and_cssim)
from .nn import CheckpointError, network_from_checkpoint, save_checkpoint
from .rl import TrainConfig
from .spectral import anisotropy_db, periodogram, rapsd


class UsageError(Exception):
    """Bad flag combination or config contents; exit 2."""


class DataError(Exception):
    """Missing, unreadable or mutually inconsistent input data; exit 3."""


def _fmt(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_csv(path, header, rows, comments=()):
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(manifest_path, command, argv, resolved, seed, outputs,
                   started, finished):
    payload = {
        "command": command,
        "argv": list(argv),
        "resolved": resolved,
        "seed": seed,
        "version": __version__,
        "started": started,
        "finished": finished,
        "outputs": {str(p): _sha256(p) for p in outputs},
    }
    with open(manifest_path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path


def verify_manifest(manifest_path):
    """Re-hash the outputs listed in a manifest; returns the paths that are
    missing or whose contents changed (empty list means intact)."""
    with open(manifest_path, "r", encoding="ascii") as fh:
        payload = json.load(fh)
    bad = []
    for path, digest in payload["outputs"].items():
        if not os.path.isfile(path) or _sha256(path) != digest:
            bad.append(path)
    return bad


def _now():
    return datetime.now(timezone.utc).isoformat()


def _load_halftone(path):
    if path.endswith(".pbm"):
        return load_pbm(path)
    return load_pgm(path)


# ---------------------------------------------------------------------------
# halftone

_METHODS = ("bayer", "white", "fs", "dbs", "nn")


def _load_policy(args):
    """The --method nn network, read once per command; None otherwise."""
    if args.method != "nn":
        return None
    net, _ = network_from_checkpoint(args.checkpoint)
    if net.in_channels != 2:
        raise DataError(f"{args.checkpoint}: the policy takes "
                        f"{net.in_channels} input channels, but --method nn "
                        f"feeds it 2 (contone and noise)")
    return net


def _synthesize(c, rng, args, policy):
    method = args.method
    if method == "bayer":
        return ordered_dither(c, args.order)
    if method == "white":
        return white_noise_threshold(c, rng)
    if method == "fs":
        return floyd_steinberg(c, serpentine=args.serpentine)
    if method == "dbs":
        h, trace = dbs_search(c, rng, max_sweeps=args.max_sweeps)
        if getattr(args, "trace", None):
            _write_csv(args.trace, ("sweep", "mse"), trace)
        return h
    if method == "nn":
        try:
            m, _ = rl.infer_halftone(policy, c, rng, level_count=args.levels)
        except FloatingPointError as exc:
            raise DataError(f"checkpoint {args.checkpoint!r} gives a "
                            f"non-finite policy output ({exc})") from exc
        except MemoryError as exc:
            # forward-only inference keeps no activations, so no fixed bound
            # fits every machine: refuse only what does not fit in this one
            raise DataError(f"a {c.shape[1]}x{c.shape[0]} image through "
                            f"{policy.channels} policy channels does not fit "
                            f"in memory ({exc!r})") from exc
        return m
    raise UsageError(f"unknown method {method!r}")


# the largest Bayer matrix (8 MiB of int64) and synthesized spectra image
# (128 MiB of float64) a command builds up front, and the most spectra
# realizations it averages (each keeps a curve of four arrays of about 2,900
# rings at MAX_SIZE, 100 MB in all at the bound)
MAX_ORDER = 1024
MAX_SIZE = 4096
MAX_REALIZATIONS = 1024


def _check_synthesis_flags(args):
    """The one check of the synthesis flags that halftone, eval and
    spectra share (see _synthesis_flags)."""
    if args.method == "nn" and not args.checkpoint:
        raise UsageError("--method nn requires --checkpoint")
    if not 2 <= args.levels <= 65536:
        raise UsageError("--levels must lie in [2, 65536], the PGM range")
    if args.levels > 2 and args.method != "nn":
        raise UsageError("--levels above 2 is only supported with "
                         "--method nn")
    if getattr(args, "trace", None) and args.method != "dbs":
        raise UsageError("--trace is only produced by --method dbs")
    if args.method == "bayer" and (
            args.order < 1 or args.order & (args.order - 1)):
        raise UsageError("--order must be a positive power of two")
    if args.method == "bayer" and args.order > MAX_ORDER:
        raise UsageError(f"--order must be at most {MAX_ORDER}")
    if args.max_sweeps < 0:
        raise UsageError("--max-sweeps must be non-negative")
    if not 1 <= getattr(args, "size", 1) <= MAX_SIZE:
        raise UsageError(f"--size must lie in [1, {MAX_SIZE}]")


def cmd_halftone(args, argv):
    started = _now()
    if not args.method:
        raise UsageError("halftone requires --method")
    _check_synthesis_flags(args)
    c = load_pgm(args.input)
    out = _synthesize(c, Rng(args.seed), args, _load_policy(args))
    outputs = [args.output]
    if args.levels > 2:
        save_pgm(out, args.output, maxval=args.levels - 1)
    else:
        save_pbm(out, args.output)
    if getattr(args, "trace", None):
        outputs.append(args.trace)
    write_manifest(args.output + ".manifest.json", "halftone", argv,
                   _resolved(args), args.seed, outputs, started, _now())


# ---------------------------------------------------------------------------
# train

_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def parse_config(text):
    """Line-based `key = value`; '#' lines are comments; unknown keys and
    unparseable values are hard errors."""
    schema = {f.name: f.type for f in fields(TrainConfig)}
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected 'key = value', "
                             f"got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in schema:
            raise UsageError(f"config line {lineno}: unknown config key "
                             f"{key!r}")
        kind = schema[key]
        try:
            if kind is bool:
                out[key] = _BOOL_WORDS[value.lower()]
            elif kind is int:
                out[key] = int(value)
            elif kind is float:
                out[key] = float(value)
                if not math.isfinite(out[key]):
                    raise ValueError(value)
            else:
                out[key] = value
        except (ValueError, KeyError):
            raise UsageError(f"config line {lineno}: bad value {value!r} "
                             f"for key {key!r}") from None
    return out


def load_train_config(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"config {path!r} is not UTF-8 text: {exc}") from None
    cfg = TrainConfig(**parse_config(text))
    try:
        cfg.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return cfg


def _pgm_names(directory, role):
    """Sorted .pgm file names in the role's directory; a missing directory
    or one without a .pgm image is a DataError."""
    if not os.path.isdir(directory):
        raise DataError(f"{role} directory {directory!r} does not exist")
    names = sorted(n for n in os.listdir(directory) if n.endswith(".pgm"))
    if not names:
        raise DataError(f"{role} directory {directory!r} holds no .pgm "
                        f"images")
    return names


def load_dataset(directory, crop_size):
    images = []
    for name in _pgm_names(directory, "dataset"):
        img = load_pgm(os.path.join(directory, name))
        if img.shape[0] < crop_size or img.shape[1] < crop_size:
            raise DataError(f"dataset image {name} is {img.shape[1]}x"
                            f"{img.shape[0]}, smaller than the "
                            f"{crop_size}-pixel crop")
        images.append(img)
    return images


def cmd_train(args, argv):
    started = _now()
    cfg = load_train_config(args.config)
    if not cfg.out_dir:
        raise UsageError("config must set out_dir")
    dataset = load_dataset(cfg.dataset_dir, cfg.crop_size)
    os.makedirs(cfg.out_dir, exist_ok=True)
    log_rows = []
    checkpoints = []

    def on_iteration(t, diag, net, adam, rng):
        done = t + 1
        if done % cfg.log_every == 0 or done == cfg.iterations:
            log_rows.append((done, diag["reward"], diag["l_as"],
                             diag["bin_gap"], diag["lr"]))
        if (cfg.checkpoint_every and done % cfg.checkpoint_every == 0
                and done < cfg.iterations):
            path = os.path.join(cfg.out_dir, f"ckpt_{done:06d}.htnn")
            save_checkpoint(path, net, adam, iteration=done,
                            rng_state=rng.state_words())
            checkpoints.append(path)

    log_path = os.path.join(cfg.out_dir, "log.csv")
    log_columns = ("iteration", "reward", "l_as", "bin_gap", "lr")
    try:
        net, adam, rng = rl.train_loop(cfg, dataset, resume_path=args.resume,
                                       on_iteration=on_iteration)
    except FloatingPointError as exc:
        # keep what the run produced before it diverged: the rows logged so
        # far and the checkpoints already written
        _write_csv(log_path, log_columns, log_rows)
        raise DataError(str(exc)) from exc
    model_path = os.path.join(cfg.out_dir, "model.htnn")
    save_checkpoint(model_path, net, adam, iteration=cfg.iterations,
                    rng_state=rng.state_words())
    _write_csv(log_path, log_columns, log_rows)
    resolved = dict(_resolved(args), config_values=vars(cfg).copy())
    write_manifest(os.path.join(cfg.out_dir, "manifest.json"), "train", argv,
                   resolved, cfg.seed,
                   [model_path, log_path] + checkpoints, started, _now())


# ---------------------------------------------------------------------------
# eval

def _find_mate(stem, halftone_dir):
    for ext in (".pbm", ".pgm"):
        cand = os.path.join(halftone_dir, stem + ext)
        if os.path.isfile(cand):
            return cand
    raise DataError(f"no halftone mate for {stem!r} in {halftone_dir!r}")


def _eval_one(stem, contone_path, args, index, policy):
    c = load_pgm(contone_path)
    nas = MetricConfig()
    gau = MetricConfig(hvs=HvsConfig(model="gaussian"))
    if not all(region_mask(c.shape, cfg, "valid").any()
               for cfg in (nas, gau)):
        raise DataError(f"contone {stem!r} is {c.shape[1]}x{c.shape[0]}, "
                        f"too small for a valid scoring region")
    if args.halftone_dir:
        h = _load_halftone(_find_mate(stem, args.halftone_dir))
        if h.shape != c.shape:
            raise DataError(f"pair {stem!r}: contone {c.shape} vs halftone "
                            f"{h.shape}")
    else:
        h = _synthesize(c, Rng(derive_seed(args.seed, index)), args, policy)
    (s, _), (cs, _) = ssim_and_cssim(h, c, nas, region="valid")
    return (stem,
            psnr(hvs_mse(h, c, nas, region="valid")),
            psnr(hvs_mse(h, c, gau, region="valid")),
            s, cs)


def cmd_eval(args, argv):
    started = _now()
    if bool(args.halftone_dir) == bool(args.method):
        raise UsageError("give exactly one of --halftone-dir or --method")
    _check_synthesis_flags(args)
    names = _pgm_names(args.contone_dir, "contone")
    policy = _load_policy(args)
    rows = [_eval_one(os.path.splitext(name)[0],
                      os.path.join(args.contone_dir, name), args, i, policy)
            for i, name in enumerate(names)]
    cols = np.array([row[1:] for row in rows], dtype=np.float64)
    # perfect reconstructions put +inf in the psnr columns; their spread is
    # then nan by design, not a numerical accident
    with np.errstate(invalid="ignore"):
        rows.append(("mean", *np.mean(cols, axis=0)))
        rows.append(("std", *np.std(cols, axis=0)))
    _write_csv(args.output,
               ("image", "psnr_nasanen", "psnr_gaussian", "ssim", "cssim"),
               rows, comments=("region = valid",))
    write_manifest(args.output + ".manifest.json", "eval", argv,
                   _resolved(args), args.seed, [args.output], started, _now())


# ---------------------------------------------------------------------------
# spectra

def _spectra_one(args, index, policy):
    if args.input:
        x = _load_halftone(args.input)
    else:
        c = constant_image(args.gray, args.size, args.size)
        x = _synthesize(c, Rng(derive_seed(args.seed, index)), args, policy)
    return rapsd(periodogram(x))


def cmd_spectra(args, argv):
    started = _now()
    if not 1 <= args.realizations <= MAX_REALIZATIONS:
        raise UsageError(f"--realizations must lie in [1, "
                         f"{MAX_REALIZATIONS}]")
    have_synth = args.gray is not None or args.method
    if bool(args.input) == bool(have_synth):
        raise UsageError("give either --input or --gray with --method")
    if have_synth and (args.gray is None or not args.method):
        raise UsageError("synthesis needs both --gray and --method")
    if args.input and args.realizations != 1:
        raise UsageError("--realizations applies only to synthesized "
                         "halftones")
    if args.gray is not None and not 0.0 <= args.gray <= 1.0:
        raise UsageError("--gray must lie in [0, 1]")
    _check_synthesis_flags(args)

    policy = _load_policy(args)
    curves = [_spectra_one(args, i, policy)
              for i in range(args.realizations)]
    power = np.mean([cv.power for cv in curves], axis=0)
    anis = np.mean([cv.anisotropy for cv in curves], axis=0)
    dc = float(np.mean([cv.dc_power for cv in curves]))
    first = curves[0]
    rows = [(0.0, dc, math.nan, math.nan, 1)]
    rows.extend(zip(first.radii, power, anis, anisotropy_db(anis),
                    first.counts))
    _write_csv(args.output,
               ("f_rho", "power", "anisotropy", "anisotropy_db", "count"),
               rows)
    write_manifest(args.output + ".manifest.json", "spectra", argv,
                   _resolved(args), args.seed, [args.output], started, _now())


# ---------------------------------------------------------------------------
# dump-kernel

def cmd_dump_kernel(args, argv):
    started = _now()
    try:
        kernel = build_kernel(HvsConfig(model=args.model, size=args.size,
                                        scale=args.scale, sigma=args.sigma))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    dump_kernel_csv(kernel, args.output)
    write_manifest(args.output + ".manifest.json", "dump-kernel", argv,
                   _resolved(args), 0, [args.output], started, _now())


# ---------------------------------------------------------------------------
# wiring

def _resolved(args):
    return {k: v for k, v in vars(args).items() if k not in ("command",
                                                             "func")}


def _synthesis_flags():
    """Flags of every command that synthesizes halftones; checked once by
    _check_synthesis_flags."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--method", choices=_METHODS,
                   help="synthesize with this method (required by halftone)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint", help="policy weights (--method nn)")
    p.add_argument("--levels", type=int, default=2,
                   help="output levels; above 2 switches to multitone PGM "
                        "(--method nn)")
    p.add_argument("--order", type=int, default=8,
                   help="threshold matrix order (--method bayer)")
    p.add_argument("--serpentine", action="store_true",
                   help="serpentine scan (--method fs)")
    p.add_argument("--max-sweeps", type=int, default=20,
                   help="search sweep cap (--method dbs)")
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="htlab",
        description="Halftoning lab: classic dithers, a trained one-step "
                    "policy, quality metrics and blue-noise spectra.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    synthesis = _synthesis_flags()
    p = sub.add_parser("halftone", parents=[synthesis],
                       help="convert one contone PGM")
    p.add_argument("--input", required=True, help="contone .pgm")
    p.add_argument("--output", required=True,
                   help="output .pbm (binary) or .pgm (multitone)")
    p.add_argument("--trace", help="write the search error trace CSV "
                                   "(--method dbs)")
    p.set_defaults(func=cmd_halftone)

    p = sub.add_parser("train", help="train the halftoning policy")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[synthesis],
                       help="score halftones against contones")
    p.add_argument("--contone-dir", required=True)
    p.add_argument("--halftone-dir",
                   help="mates matched by stem (.pbm, then .pgm)")
    p.add_argument("--output", required=True, help="metrics CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("spectra", parents=[synthesis],
                       help="radial spectrum and anisotropy CSV")
    p.add_argument("--input", help="halftone .pbm/.pgm to analyze")
    p.add_argument("--gray", type=float,
                   help="synthesize from this constant tone")
    p.add_argument("--size", type=int, default=64,
                   help="synthesized image side")
    p.add_argument("--realizations", type=int, default=1,
                   help="average this many seeded syntheses")
    p.add_argument("--output", required=True, help="spectrum CSV")
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("dump-kernel", help="write an HVS kernel as CSV")
    p.add_argument("--model", choices=("nasanen", "gaussian"),
                   default="nasanen")
    p.add_argument("--size", type=int, default=11)
    p.add_argument("--scale", type=float, default=2000.0)
    p.add_argument("--sigma", type=float, default=2.0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_dump_kernel)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args, argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, NetpbmError, CheckpointError, FileNotFoundError,
            IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:                   # noqa: BLE001
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
