"""Span tracing from outside the program.

A :class:`Tracer` replaces public functions as bolf's modules bind them
(``bolf.cli.forward``, ``bolf.model.matmul``, ...) with wrappers that record
one span per call: name, start, end, parent span and, for a few calls, one
integer of context. Spans stay in memory until the run ends. Removing the
wrappers restores the original bindings, so untraced code runs unwrapped.

Spans are named after the layer that defines the function, whichever module
binds it: ``bolf.cli.read_ppm`` and ``bolf.data.read_ppm`` both record
``data.read_ppm``.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from pathlib import Path

# (binding module, attribute, span name). Classes are patched on the class.
WRAPPED = [
    ("cli", "load_config", "config.load_config"),
    ("cli", "load_weights", "weights.load_weights"),
    ("cli", "save_weights", "weights.save_weights"),
    ("cli", "read_ppm", "data.read_ppm"),
    ("cli", "write_ppm", "data.write_ppm"),
    ("cli", "perturb", "data.perturb"),
    ("cli", "roc_auc", "metrics.roc_auc"),
    ("cli", "forward", "model.forward"),
    ("cli", "attention_rollout", "model.attention_rollout"),
    ("cli", "heatmap_to_image", "model.heatmap_to_image"),
    ("data", "gen_original", "data.gen_original"),
    ("data", "gen_manipulated", "data.gen_manipulated"),
    ("data", "read_ppm", "data.read_ppm"),
    ("data", "write_ppm", "data.write_ppm"),
    ("model", "embed_patches", "model.embed_patches"),
    ("model", "multi_head_attention", "model.multi_head_attention"),
    ("model", "encoder_block", "model.encoder_block"),
    ("model", "matmul", "tensor.matmul"),
    ("model", "softmax_rows", "tensor.softmax_rows"),
    ("model", "layer_norm", "tensor.layer_norm"),
    ("model", "gelu", "tensor.gelu"),
    ("model", "dropout", "tensor.dropout"),
    ("model", "narrow", "tensor.narrow"),
    ("model", "concat", "tensor.concat"),
    ("train", "forward", "model.forward"),
    ("train", "cross_entropy", "train.cross_entropy"),
    ("train", "backward", "tensor.backward"),
    ("train", "evaluate", "train.evaluate"),
    ("train", "roc_auc", "metrics.roc_auc"),
    ("model.ModelParams", "from_arrays", "model.ModelParams.from_arrays"),
    ("train.MomentumSGD", "step", "train.MomentumSGD.step"),
]


def _context(name: str, args, kwargs) -> int:
    """The one integer a span keeps: train mode for a forward pass, the
    number of tape nodes replayed for a backward pass."""
    if name == "model.forward":
        return int(bool(kwargs.get("train", args[3] if len(args) > 3 else False)))
    if name == "tensor.backward":
        return len(args[1])
    return -1


class Tracer:
    def __init__(self, bolf_modules: dict[str, object]):
        self._modules = bolf_modules
        self._saved: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.root = 0  # parent of spans opened on a thread with no open span
        self.spans: list[tuple[int, str, int, int, int, int]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        return _Span(self, name)

    def _open(self) -> tuple[int, int]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end, ctx) -> None:
        self._stack().pop()
        self.spans.append((sid, name, start, end, parent, ctx))

    def _wrap(self, fn, name: str, bound_self: bool):
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid, parent = tracer._open()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                ctx = _context(name, args[1:] if bound_self else args, kwargs)
                tracer._close(sid, parent, name, start, end, ctx)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for where, attr, name in WRAPPED:
            module, _, cls = where.partition(".")
            owner = self._modules[module]
            if cls:
                owner = getattr(owner, cls)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, bound_self=True))
                else:
                    wrapped = self._wrap(raw, name, bound_self=True)
            else:
                raw = getattr(owner, attr)
                wrapped = self._wrap(raw, name, bound_self=False)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tcontext\n")
            for sid, name, start, end, parent, ctx in self.spans:
                fh.write(f"{sid}\t{name}\t{start}\t{end}\t{parent}\t{ctx}\n")


class _Span:
    """A span the benchmark itself opens, around a CLI verb or a set-up."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.sid, self.parent = self.tracer._open()
        if not self.parent:
            self.tracer.root = self.sid
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid, self.parent, self.name, self.start,
                           time.perf_counter_ns(), -1)
        if not self.parent:
            self.tracer.root = 0
        return False


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    covered, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


class SpanStats:
    """Totals, counts and self times by span name.

    A span's self time is its duration minus the union of its children's
    intervals; children opened on worker threads overlap each other, which
    is why it is a union and not a sum."""

    def __init__(self, spans):
        children = defaultdict(list)
        for _, _, start, end, parent, _ in spans:
            children[parent].append((start, end))
        self.total = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.count = defaultdict(int)
        self.ctx_total = defaultdict(int)
        self.train_fwd = [0, 0]  # (ns, count) of train-mode forward passes
        for sid, name, start, end, parent, ctx in spans:
            self.total[name] += end - start
            self.self_ns[name] += end - start - _union_ns(children.get(sid, []))
            self.count[name] += 1
            self.ctx_total[name] += max(ctx, 0)
            if name == "model.forward" and ctx == 1:
                self.train_fwd[0] += end - start
                self.train_fwd[1] += 1

    def ms(self, name: str) -> float:
        return self.total[name] / 1e6


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(stats: SpanStats, ops: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each as (value, unit). ``ops`` are the span names
    of the workload's operations (``cli.train``, ...). A layer the workload
    never calls reads 0."""
    n, ms = stats.count, stats.ms

    def per_call(*names: str) -> float:
        """ms per call of the first name, summing the time of all names."""
        return _per(sum(ms(k) for k in names), n[names[0]])

    fwd = n["model.forward"]
    gen = n["data.gen_original"] + n["data.gen_manipulated"]
    out = {
        "data.gen_ms_per_frame": (_per(ms("data.gen_original") + ms("data.gen_manipulated"), gen), "ms"),
        "data.perturb_ms_per_frame": (per_call("data.perturb"), "ms"),
        "data.read_ms_per_image": (per_call("data.read_ppm"), "ms"),
        "data.write_ms_per_image": (per_call("data.write_ppm"), "ms"),
        "tensor.backward_ms_per_sample": (per_call("tensor.backward"), "ms"),
        "tensor.tape_nodes_per_sample": (_per(stats.ctx_total["tensor.backward"],
                                              n["tensor.backward"]), "count"),
    }
    for op, names in (("matmul", ["matmul"]), ("softmax_rows", ["softmax_rows"]),
                      ("layer_norm", ["layer_norm"]), ("gelu", ["gelu"]),
                      ("dropout", ["dropout"]), ("narrow_concat", ["narrow", "concat"])):
        out[f"tensor.{op}_ms"] = (_per(sum(ms(f"tensor.{k}") for k in names), fwd), "ms")
        out[f"tensor.{op}_calls"] = (_per(sum(n[f"tensor.{k}"] for k in names), fwd), "count")
    train_ns, train_n = stats.train_fwd
    out.update({
        "model.forward_train_ms_per_sample": (_per(train_ns / 1e6, train_n), "ms"),
        "model.forward_eval_ms_per_frame": (_per(ms("model.forward") - train_ns / 1e6,
                                                 fwd - train_n), "ms"),
        "model.embed_ms": (_per(ms("model.embed_patches"), fwd), "ms"),
        "model.attention_ms": (_per(ms("model.multi_head_attention"), fwd), "ms"),
        # attention runs only inside encoder blocks
        "model.block_self_ms": (_per(ms("model.encoder_block") - ms("model.multi_head_attention"),
                                     fwd), "ms"),
        "model.rollout_ms": (per_call("model.attention_rollout", "model.heatmap_to_image"), "ms"),
        "model.params_from_arrays_ms": (per_call("model.ModelParams.from_arrays"), "ms"),
        "train.optimizer_step_ms": (per_call("train.MomentumSGD.step"), "ms"),
        "train.loss_ms_per_sample": (per_call("train.cross_entropy"), "ms"),
        "train.val_eval_s_per_epoch": (per_call("train.evaluate") / 1e3, "s"),
        "metrics.auc_ms": (per_call("metrics.roc_auc"), "ms"),
        "weights.load_ms": (per_call("weights.load_weights"), "ms"),
        "weights.save_ms": (per_call("weights.save_weights"), "ms"),
        "config.load_ms": (per_call("config.load_config"), "ms"),
        "cli.self_ms_per_op": (_per(sum(stats.self_ns[o] for o in ops) / 1e6,
                                    sum(n[o] for o in ops)), "ms"),
    })
    return out
