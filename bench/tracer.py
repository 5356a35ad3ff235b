"""Span tracer that wraps spofdm's public functions from outside the package.

``install`` replaces each public function of each layer module (every
function defined there whose name has no leading underscore) with a
wrapper, at every module attribute that holds it (the names callers look
up), plus a few methods on the classes callers use. A wrapper records one
span (name, phase, start, end, parent) and, for some functions, counts taken
from the arguments or the result. ``uninstall`` puts the originals back.
``layer_metrics`` turns the spans and counts into the per-layer metrics.

Functions that do not exist are skipped, so the tracer keeps working when the
package drops or renames a helper; the metrics that depended on it read 0.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

LAYERS = ("keystream", "txchain", "channel", "jammer", "sync", "rxchain",
          "avc", "harness")

# methods wrapped on classes: (module, class, method)
METHODS = (
    ("keystream", "PhaseSequence", "plan"),
    ("keystream", "PhaseSequence", "cp_phase"),
    ("keystream", "PhaseSequence", "cp_phases"),
    ("rxchain", "LdpcEncoder", "encode"),
    ("rxchain", "LdpcEncoder", "extract_message"),
    ("rxchain", "ParityCheckCode", "syndrome"),
)

# span name -> per-layer group that owns its self time
GROUPS = {
    "sync.corr_pre_fft": "sync.pre_fft",
    "sync.pre_fft_surface": "sync.pre_fft",
    "sync.estimate_pre_fft": "sync.pre_fft",
    "rxchain.LdpcEncoder.encode": "rxchain.encode",
    "rxchain.llr_qpsk": "rxchain.llr",
    "rxchain.ldpc_bp_decode": "rxchain.bp",
    "rxchain.ParityCheckCode.syndrome": "rxchain.syndrome",
    "avc.mi_estimate": "avc.mi",
}

# every other span of the sync layer is post-FFT work
SYNC_POST_FFT = "sync.post_fft"

# phases of the BER points; their BP and syndrome metrics are reported apart
BER_POINTS = ("converging", "saturated")

SEQ_LOOKUPS = ("keystream.PhaseSequence.plan", "keystream.PhaseSequence.cp_phase")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _mixture_components(dist) -> int:
    kind = getattr(dist, "kind", "gaussian")
    if kind == "discrete":
        return len(dist.points)
    return 1


def _count_mi(tracer, args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    jamming = _arg(args, kwargs, 1, "jamming")
    n = _arg(args, kwargs, 2, "n_samples")
    order = spec.phase_order or 1
    interference = (_mixture_components(jamming) * order
                    if jamming.kind == "discrete" else 1)
    # conditional density: interference components; marginal: input x them
    components = interference * (1 + _mixture_components(spec.input_dist))
    tracer.count("avc.mi.density_evals", n * components)


def _count_bp(tracer, args, kwargs, result):
    _, converged, iters = result
    iters = np.atleast_1d(iters)
    tracer.count("rxchain.bp.frames", iters.size)
    tracer.count("rxchain.bp.frame_iters", int(iters.sum()))
    tracer.count("rxchain.bp.nonconverged",
                 int(np.count_nonzero(~np.atleast_1d(converged))))
    tracer.maximum("rxchain.bp.iters_max", int(iters.max(initial=0)))


def _count_sync(tracer, args, kwargs, result):
    est = result[0]
    tracer.sync_estimates.append((int(est.k0_hat), float(est.t0_hat)))


def _count_cells(tracer, args, kwargs, result):
    config = _arg(args, kwargs, 1, "config")
    sync_cfg = _arg(args, kwargs, 2, "sync_cfg")
    tracer.count("sync.pre_fft.cells", config.block_samples
                 * len(sync_cfg.candidates) * sync_cfg.n_blocks)


def _count_samples(key, index, name):
    def hook(tracer, args, kwargs, result):
        value = _arg(args, kwargs, index, name)
        tracer.count(key, value if isinstance(value, int)
                     else value.samples.size)
    return hook


def _count_bits(tracer, args, kwargs, result):
    tracer.count("keystream.aes_blocks",
                 -(-_arg(args, kwargs, 2, "n_bits") // 128))


def _count_encode(tracer, args, kwargs, result):
    tracer.count("rxchain.encode.codewords",
                 1 if result.ndim == 1 else result.shape[0])


# span name -> hook(tracer, args, kwargs, result) run after a successful call
HOOKS = {
    "keystream.derive_bits": _count_bits,
    "keystream.aes_encrypt_block":
        lambda t, a, k, r: t.count("keystream.aes_blocks", 1),
    "txchain.modulate_block": lambda t, a, k, r: t.count("txchain.blocks", 1),
    "channel.apply_offsets": _count_samples("channel.samples", 0, "signal"),
    "channel.apply_fading": _count_samples("channel.samples", 0, "signal"),
    "channel.add_awgn": _count_samples("channel.samples", 0, "signal"),
    "jammer.generate_jamming":
        _count_samples("jammer.samples", 2, "duration_samples"),
    "sync.pre_fft_surface": _count_cells,
    "sync.synchronize": _count_sync,
    "rxchain.LdpcEncoder.encode": _count_encode,
    "rxchain.ldpc_bp_decode": _count_bp,
    "avc.mi_estimate": _count_mi,
}


class Tracer:
    """In-memory spans and counts of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.phases: list[str] = [""]
        self.phase = 0
        self.spans: list = []          # (name_id, phase, start_ns, end_ns, parent)
        self._stack: list[int] = []
        self.counts = defaultdict(float)   # (phase, key) -> value
        self.sync_estimates: list = []     # (k0_hat, t0_hat) per synchronize call
        self.sync_records: list = []       # harness sync records, same order
        self.point_ops: dict = {}          # BER point label -> codewords
        self._patches: list = []

    def set_phase(self, label: str) -> None:
        """Attribute the spans and counts that follow to ``label``."""
        if label not in self.phases:
            self.phases.append(label)
        self.phase = self.phases.index(label)

    def count(self, key: str, value: float) -> None:
        self.counts[(self.phase, key)] += value

    def maximum(self, key: str, value: float) -> None:
        slot = (self.phase, key)
        self.counts[slot] = max(self.counts[slot], value)

    def wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name_id, self.phase, start, end, parent)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer's public functions where their callers find them."""
        modules = {name: importlib.import_module(f"spofdm.{name}")
                   for name in LAYERS}
        for layer, module in modules.items():
            for fname, original in list(vars(module).items()):
                if (fname.startswith("_") or not inspect.isfunction(original)
                        or original.__module__ != module.__name__):
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for other in modules.values():
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, attr, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name, None)
            original = getattr(cls, method, None) if cls else None
            if original is not None:
                self._patch(cls, method, self.wrap(
                    f"{layer}.{cls_name}.{method}", original))
        cipher = getattr(modules["keystream"], "Cipher", None)
        if cipher is not None:
            def counting_cipher(*args, **kwargs):
                self.count("keystream.cipher_inits", 1)
                return cipher(*args, **kwargs)
            self._patch(modules["keystream"], "Cipher", counting_cipher)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> dict:
        """Self seconds per (phase, group): span time minus child spans."""
        child = [0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name_id, phase, start, end, _) in enumerate(self.spans):
            out[(phase, group_of(self.names[name_id]))] += (
                end - start - child[i]) * 1e-9
        return out

    def seq_lookups(self) -> tuple[int, int]:
        """(lookups, misses) of PhaseSequence plans; a miss derives a plan."""
        lookup_ids = {self._name_ids[n] for n in SEQ_LOOKUPS
                      if n in self._name_ids}
        plan_id = self._name_ids.get("keystream.phase_plan")
        lookups = misses = 0
        for name_id, _, _, _, parent in self.spans:
            if name_id in lookup_ids:
                lookups += 1
            elif (name_id == plan_id and parent >= 0
                  and self.spans[parent][0] in lookup_ids):
                misses += 1
        return lookups, misses

    def total(self, key: str, phase: str | None = None) -> float:
        return sum(v for (p, k), v in self.counts.items()
                   if k == key and (phase is None or self.phases[p] == phase))

    def calls(self, name: str, phase: str | None = None) -> int:
        name_id = self._name_ids.get(name)
        return sum(1 for s in self.spans if s[0] == name_id
                   and (phase is None or self.phases[s[1]] == phase))

    def write(self, path) -> None:
        """Write the raw spans, gzip-compressed JSON."""
        payload = {"names": self.names, "phases": self.phases,
                   "fields": ["name", "phase", "start_ns", "end_ns", "parent"],
                   "spans": self.spans}
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def group_of(name: str) -> str:
    if name in GROUPS:
        return GROUPS[name]
    layer = name.split(".", 1)[0]
    return SYNC_POST_FFT if layer == "sync" else layer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics, per operation of the traced rounds.

    The BP and syndrome metrics are per BER point: per codeword of the
    phase named by their suffix, which ran ``tracer.point_ops[phase]``
    codewords.
    """
    selfs = tracer.self_times()

    def self_s(group, phase=None):
        return sum(v for (p, g), v in selfs.items() if g == group
                   and (phase is None or tracer.phases[p] == phase))

    def per_op(value):
        return _ratio(value, ops)

    lookups, misses = tracer.seq_lookups()
    m = {
        "keystream.plans": per_op(tracer.calls("keystream.phase_plan")),
        "keystream.cipher_inits": per_op(tracer.total("keystream.cipher_inits")),
        "keystream.aes_blocks": per_op(tracer.total("keystream.aes_blocks")),
        "keystream.seq_hit_ratio": _ratio(lookups - misses, lookups),
        "keystream.self_s": per_op(self_s("keystream")),
        "txchain.blocks": per_op(tracer.total("txchain.blocks")),
        "txchain.self_s": per_op(self_s("txchain")),
        "channel.samples": per_op(tracer.total("channel.samples")),
        "channel.self_s": per_op(self_s("channel")),
        "jammer.samples": per_op(tracer.total("jammer.samples")),
        "jammer.self_s": per_op(self_s("jammer")),
        "sync.pre_fft.cells": per_op(tracer.total("sync.pre_fft.cells")),
        "sync.pre_fft.self_s": per_op(self_s("sync.pre_fft")),
        "sync.post_fft.self_s": per_op(self_s(SYNC_POST_FFT)),
        "rxchain.encode.codewords": per_op(
            tracer.total("rxchain.encode.codewords")),
        "rxchain.encode.self_s": per_op(self_s("rxchain.encode")),
        "rxchain.llr.self_s": per_op(self_s("rxchain.llr")),
        "avc.mi.calls": per_op(tracer.calls("avc.mi_estimate")),
        "avc.mi.density_evals": per_op(tracer.total("avc.mi.density_evals")),
        "avc.mi.self_s": per_op(self_s("avc.mi")),
        "harness.self_s": per_op(self_s("harness")),
    }
    for label in BER_POINTS:
        point_ops = tracer.point_ops.get(label, 0)
        frames = tracer.total("rxchain.bp.frames", label)
        iters = tracer.total("rxchain.bp.frame_iters", label)
        bp_s = self_s("rxchain.bp", label)
        m.update({
            f"rxchain.bp.frame_iters.{label}": _ratio(iters, point_ops),
            f"rxchain.bp.iters_mean.{label}": _ratio(iters, frames),
            f"rxchain.bp.iters_max.{label}": tracer.total(
                "rxchain.bp.iters_max", label),
            f"rxchain.bp.nonconverged_ratio.{label}": _ratio(
                tracer.total("rxchain.bp.nonconverged", label), frames),
            f"rxchain.bp.self_s.{label}": _ratio(bp_s, point_ops),
            f"rxchain.bp.s_per_frame_iter.{label}": _ratio(bp_s, iters),
            f"rxchain.syndrome.calls.{label}": _ratio(
                tracer.calls("rxchain.ParityCheckCode.syndrome", label),
                point_ops),
            f"rxchain.syndrome.self_s.{label}": _ratio(
                self_s("rxchain.syndrome", label), point_ops),
        })
    return m
