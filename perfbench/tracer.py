"""In-memory span tracer for the benchmark's traced run.

The tracer wraps htlab's public functions from outside the package: every
module attribute or class attribute that holds one of the target functions
is replaced by a timing wrapper, so a name bound by ``from .hvs import
convolve_same`` in ``metrics`` and ``classic`` is traced where it is looked
up, not only where it is defined. Nothing under ``src/`` changes.

A span is (name, start_ns, end_ns, parent, op, thread). Each thread keeps
its own parent stack; a span opened on a worker thread with an empty stack
(``cli._parallel_map`` runs images in a thread pool) takes as parent the
innermost span open on the thread that began the op. Spans are recorded only
inside an op, so set-up, output checks and quality guards leave no trace.

Per-layer statistics are per op (per train step, DBS solve or CLI call):
``calls``, ``self_s`` (span time minus the union of its child spans) and
work counts computed from argument shapes and results.
"""

import functools
import os
import threading
import time
from collections import defaultdict

import numpy as np

# (name, unit, better) of every per-layer metric, in print order
LAYER_METRICS = [
    ("imagecore.rng.draws", "draws/op", "lower"),
    ("imagecore.rng.self_s", "s/op", "lower"),
    ("imagecore.netpbm.bytes", "B/op", "lower"),
    ("imagecore.netpbm.self_s", "s/op", "lower"),
    ("hvs.convolve_same.calls", "calls/op", "lower"),
    ("hvs.convolve_same.gmac", "GMAC/op", "lower"),
    ("hvs.convolve_same.self_s", "s/op", "lower"),
    ("hvs.convolve_same.ms_p50", "ms", "lower"),
    ("hvs.convolve_same.ms_p90", "ms", "lower"),
    ("metrics.reward_context.builds", "builds/op", "lower"),
    ("metrics.reward_context.self_s", "s/op", "lower"),
    ("metrics.delta_map.pixels", "pixels/op", "lower"),
    ("metrics.delta_map.self_s", "s/op", "lower"),
    ("metrics.eval_count", "evals/op", "lower"),
    ("metrics.score.calls", "calls/op", "lower"),
    ("metrics.score.self_s", "s/op", "lower"),
    ("spectral.anisotropy.self_s", "s/op", "lower"),
    ("spectral.periodogram.calls", "calls/op", "lower"),
    ("spectral.periodogram.self_s", "s/op", "lower"),
    ("spectral.rapsd.calls", "calls/op", "lower"),
    ("spectral.rapsd.self_s", "s/op", "lower"),
    ("spectral.ring_partition.calls", "calls/op", "lower"),
    ("spectral.ring_partition.self_s", "s/op", "lower"),
    ("spectral.ring_partition.reuse_frac", "ratio", "higher"),
    ("classic.dbs.pixel_sweeps", "sweeps/op", "lower"),
    ("classic.dbs.us_per_pixel_sweep", "us", "lower"),
    ("classic.dbs.productive_sweep_frac", "ratio", "higher"),
    ("classic.dbs.s_per_mpix", "s/Mpix", "lower"),
    ("classic.floyd_steinberg.self_s", "s/op", "lower"),
    ("classic.ordered_dither.self_s", "s/op", "lower"),
    ("nn.forward.calls", "calls/op", "lower"),
    ("nn.forward.gmac", "GMAC/op", "lower"),
    ("nn.forward.self_s", "s/op", "lower"),
    ("nn.backward.calls", "calls/op", "lower"),
    ("nn.backward.gmac", "GMAC/op", "lower"),
    ("nn.backward.self_s", "s/op", "lower"),
    ("nn.adam.self_s", "s/op", "lower"),
    ("nn.checkpoint.loads", "loads/op", "lower"),
    ("nn.checkpoint.loads_per_call", "loads/call", "lower"),
    ("rl.make_sample.self_s", "s/op", "lower"),
    ("rl.signal.self_s", "s/op", "lower"),
    ("rl.train_step.self_s", "s/op", "lower"),
    ("rl.infer.self_s", "s/op", "lower"),
    ("rl.infer.s_per_mpix", "s/Mpix", "lower"),
    ("multitone.infer.self_s", "s/op", "lower"),
    ("cli.main.self_s", "s/op", "lower"),
    ("cli.manifest.self_s", "s/op", "lower"),
    ("cli.manifest.bytes_hashed", "B/op", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
]


def _size(path):
    return os.path.getsize(path)


def _conv_gmac(args, kwargs, result, pre):
    weights = getattr(args[1], "weights", args[1])
    k = np.shape(weights)[0]
    return {"gmac": np.size(args[0]) * k * k / 1e9}


def _net_macs(net, batch, hgt, wid):
    ch = net.channels
    per_pixel = 9 * (net.in_channels * ch + 2 * net.blocks * ch * ch + ch)
    return batch * hgt * wid * per_pixel


def _forward_gmac(args, kwargs, result, pre):
    b, _, hgt, wid = np.shape(args[1])
    return {"gmac": _net_macs(args[0], b, hgt, wid) / 1e9}


def _backward_gmac(args, kwargs, result, pre):
    # weight gradient plus input gradient: two forward-sized contractions
    b, _, hgt, wid = np.shape(args[1])
    return {"gmac": 2 * _net_macs(args[0], b, hgt, wid) / 1e9}


def _dbs_sweeps(args, kwargs, result, pre):
    # the trace holds one row per productive sweep after row 0; a search
    # that stopped early also ran one final sweep that changed nothing
    max_sweeps = kwargs.get("max_sweeps", args[4] if len(args) > 4 else 20)
    productive = len(result[1]) - 1
    executed = productive + (1 if productive < max_sweeps else 0)
    pixels = np.size(args[0])
    return {"pixel_sweeps": pixels * executed,
            "productive_sweeps": productive, "sweeps": executed,
            "pixels": pixels}


def _eval_count_before(args, kwargs):
    return args[0].eval_count


def _eval_count_delta(args, kwargs, result, before):
    return {"pixels": args[0].h.size,
            "eval_count": args[0].eval_count - before}


def _context_built(args, kwargs, result, pre):
    return {"builds": 1, "eval_count": args[0].eval_count}


def _infer_pixels(args, kwargs, result, pre):
    return {"pixels": np.size(args[1])}


def _targets():
    """(layer, functions, work, pre) for every traced boundary."""
    from htlab import (classic, cli, hvs, imagecore, metrics, multitone, nn,
                       rl, spectral)
    rng = imagecore.Rng
    return [
        ("imagecore.rng", [rng.uniforms],
         lambda a, k, r, p: {"draws": a[1]}, None),
        ("imagecore.rng", [rng.uniform], lambda a, k, r, p: {"draws": 1},
         None),
        ("imagecore.netpbm", [imagecore.load_pgm, imagecore.load_pbm],
         lambda a, k, r, p: {"bytes": _size(a[0])}, None),
        ("imagecore.netpbm", [imagecore.save_pgm, imagecore.save_pbm],
         lambda a, k, r, p: {"bytes": _size(a[1])}, None),
        ("hvs.convolve_same", [hvs.convolve_same], _conv_gmac, None),
        ("metrics.reward_context", [metrics.RewardContext.__init__],
         _context_built, None),
        ("metrics.delta_map", [metrics.delta_map], _eval_count_delta,
         _eval_count_before),
        ("metrics.score", [metrics.hvs_mse, metrics.ssim, metrics.cssim],
         None, None),
        ("spectral.anisotropy", [spectral.anisotropy_loss,
                                 spectral.anisotropy_loss_backward],
         lambda a, k, r, p: {"uses": 1}, None),
        ("spectral.periodogram", [spectral.periodogram], None, None),
        ("spectral.rapsd", [spectral.rapsd],
         lambda a, k, r, p: {"uses": 1}, None),
        ("spectral.ring_partition", [spectral.ring_partition], None, None),
        ("classic.dbs", [classic.dbs_search], _dbs_sweeps, None),
        ("classic.floyd_steinberg", [classic.floyd_steinberg], None, None),
        ("classic.ordered_dither", [classic.ordered_dither], None, None),
        ("nn.forward", [nn.PolicyNetwork.forward], _forward_gmac, None),
        ("nn.backward", [nn.PolicyNetwork.backward], _backward_gmac, None),
        ("nn.adam", [nn.Adam.step], None, None),
        ("nn.checkpoint", [nn.read_checkpoint],
         lambda a, k, r, p: {"loads": 1}, None),
        ("nn.checkpoint", [nn.network_from_checkpoint], None, None),
        ("rl.make_sample", [rl.make_sample], None, None),
        ("rl.signal", [rl.le_signal, rl.coma_signal, rl.reinforce_signal],
         None, None),
        ("rl.train_step", [rl.train_step], None, None),
        ("rl.infer", [rl.infer_halftone], _infer_pixels, None),
        ("multitone.infer", [multitone.infer_multitone], _infer_pixels, None),
        ("cli.main", [cli.main], None, None),
        ("cli.manifest", [cli.write_manifest],
         lambda a, k, r, p: {"bytes_hashed": sum(_size(f) for f in a[5])},
         None),
    ]


def _owners():
    """Every htlab module and every class defined in one: the places a
    traced function can be looked up from."""
    from htlab import (classic, cli, hvs, imagecore, metrics, multitone, nn,
                       rl, spectral)
    modules = [imagecore, hvs, metrics, spectral, classic, nn, rl, multitone,
               cli]
    classes = [v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__ == m.__name__]
    return modules + classes


class Tracer:
    def __init__(self):
        # (name, start, end, parent, op, thread); None while still open
        self.spans = []
        self.work = defaultdict(float)      # (layer, stat) -> summed count
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op = None
        self._op_stack = None
        self._patches = []                  # (owner, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op_id):
        self._op = op_id
        self._op_stack = self._stack()

    def end_op(self):
        self._op = None
        self._op_stack = None

    def wrap(self, layer, fn, work=None, pre=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer._op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                outer = tracer._op_stack
                parent = outer[-1] if outer else -1
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(None)
            before = pre(args, kwargs) if pre else None
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans[index] = (layer, start, end, parent, op,
                                       threading.get_ident())
            if work is not None:
                counts = work(args, kwargs, result, before)
                with tracer._lock:
                    for stat, value in counts.items():
                        tracer.work[(layer, stat)] += value
            return result

        traced.__wrapped_layer__ = layer
        return traced

    def install(self):
        """Replace every binding of each target function by its wrapper."""
        owners = _owners()
        for layer, functions, work, pre in _targets():
            for fn in functions:
                wrapper = self.wrap(layer, fn, work, pre)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._patches.append((owner, attr, value))
                            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times_ns(self):
        """Span duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                children[span[3]].append((span[1], span[2]))
        out = []
        for index, span in enumerate(self.spans):
            if span is None:
                out.append(0)
                continue
            _, start, end, _, _, _ = span
            covered, reach = 0, start
            for s, e in sorted(children.get(index, ())):
                s, e = max(s, reach), min(e, end)
                if e > s:
                    covered += e - s
                    reach = e
            out.append(end - start - covered)
        return out

    def layer_metrics(self, n_ops, overhead_frac):
        """Per-layer metrics as {name: (value, unit)}, per op where the
        unit says so."""
        spans = [s for s in self.spans if s is not None]
        self_ns = [t for s, t in zip(self.spans, self.self_times_ns())
                   if s is not None]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        durations = defaultdict(list)
        ops_loading = set()
        for span, own in zip(spans, self_ns):
            layer, start, end, parent, op, _ = span
            calls[layer] += 1
            self_s[layer] += own / 1e9
            durations[layer].append((end - start) / 1e9)
            if parent < 0 or self.spans[parent][0] != layer:
                total_s[layer] += (end - start) / 1e9
            if layer == "nn.checkpoint":
                ops_loading.add(op)
        w = self.work
        n = max(n_ops, 1)

        def per_op(value):
            return value / n

        def ratio(num, den):
            return num / den if den else 0.0

        conv_ms = np.array(durations["hvs.convolve_same"] or [0.0]) * 1e3
        uses = (w[("spectral.anisotropy", "uses")]
                + w[("spectral.rapsd", "uses")])
        values = {
            "imagecore.rng.draws": per_op(w[("imagecore.rng", "draws")]),
            "imagecore.netpbm.bytes": per_op(w[("imagecore.netpbm",
                                                "bytes")]),
            "hvs.convolve_same.gmac": per_op(w[("hvs.convolve_same",
                                                "gmac")]),
            "hvs.convolve_same.ms_p50": float(np.percentile(conv_ms, 50)),
            "hvs.convolve_same.ms_p90": float(np.percentile(conv_ms, 90)),
            "metrics.reward_context.builds": per_op(
                w[("metrics.reward_context", "builds")]),
            "metrics.delta_map.pixels": per_op(w[("metrics.delta_map",
                                                  "pixels")]),
            "metrics.eval_count": per_op(
                w[("metrics.reward_context", "eval_count")]
                + w[("metrics.delta_map", "eval_count")]),
            "spectral.ring_partition.reuse_frac": max(
                0.0, 1.0 - ratio(calls["spectral.ring_partition"], uses))
            if uses else 0.0,
            "classic.dbs.pixel_sweeps": per_op(w[("classic.dbs",
                                                  "pixel_sweeps")]),
            "classic.dbs.us_per_pixel_sweep": 1e6 * ratio(
                total_s["classic.dbs"], w[("classic.dbs", "pixel_sweeps")]),
            "classic.dbs.productive_sweep_frac": ratio(
                w[("classic.dbs", "productive_sweeps")],
                w[("classic.dbs", "sweeps")]),
            "classic.dbs.s_per_mpix": ratio(
                total_s["classic.dbs"], w[("classic.dbs", "pixels")] / 1e6),
            "nn.forward.gmac": per_op(w[("nn.forward", "gmac")]),
            "nn.backward.gmac": per_op(w[("nn.backward", "gmac")]),
            "nn.checkpoint.loads": per_op(w[("nn.checkpoint", "loads")]),
            "nn.checkpoint.loads_per_call": ratio(
                w[("nn.checkpoint", "loads")], len(ops_loading)),
            "rl.infer.s_per_mpix": ratio(total_s["rl.infer"],
                                         w[("rl.infer", "pixels")] / 1e6),
            "cli.manifest.bytes_hashed": per_op(w[("cli.manifest",
                                                   "bytes_hashed")]),
            "trace_overhead_frac": overhead_frac,
        }
        out = {}
        for name, unit, _ in LAYER_METRICS:
            if name in values:
                value = values[name]
            else:
                layer, stat = name.rsplit(".", 1)
                value = per_op(calls[layer] if stat == "calls"
                               else self_s[layer])
            out[name] = (float(value), unit)
        return out

    def dump(self, path, header):
        """Write the spans as JSON lines after a header line."""
        import json
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(dict(header, fields=[
                "name", "start_ns", "end_ns", "parent", "op", "thread"]))
                + "\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
