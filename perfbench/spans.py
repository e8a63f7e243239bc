"""Span tracing of the `sst` package from outside the program.

A `Tracer` rebinds selected functions with timing wrappers, in every
`sst.*` module namespace that binds them, so a call is seen wherever its
caller looks the name up (`training.sst_forward`, `model.cnn_block_forward`,
`autodiff.conv1d`, `cli.resample`, ...). Spans are kept in memory with the
index of their parent span; self time is a span's duration minus the time
its child spans cover. Every rebinding is undone when the tracer exits. A
target the code under test does not define is recorded as missing and the
run goes on without it.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# (defining module, attribute, span name). "Class.method" targets wrap the
# method on the class itself.
TARGETS = (
    ("sst.autodiff", "conv1d", "autodiff.conv1d"),
    ("sst.autodiff", "gelu", "autodiff.gelu"),
    ("sst.autodiff", "matmul", "autodiff.matmul"),
    ("sst.autodiff", "layernorm", "autodiff.layernorm"),
    ("sst.autodiff", "softmax", "autodiff.softmax"),
    ("sst.autodiff", "backward", "autodiff.backward"),
    ("sst.model", "sst_forward", "model.forward"),
    ("sst.model", "cnn_block_forward", "model.cnn"),
    ("sst.model", "encoder_block_forward", "model.encoder"),
    ("sst.losses", "total_loss", "losses.total"),
    ("sst.optim", "clip_global_norm", "optim.clip"),
    ("sst.optim", "adam_step", "optim.adam"),
    ("sst.sampling", "draw_pair_batch", "sampling.draw"),
    ("sst.sampling", "EpochStore.__init__", "sampling.store_build"),
    ("sst.training", "validate", "training.validate"),
    ("sst.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("sst.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("sst.edf", "parse_edf", "edf.parse"),
    ("sst.edf", "parse_tal_annotations", "edf.tal"),
    ("sst.ingest", "resample", "ingest.resample"),
    ("sst.ingest", "epoch_and_label", "ingest.slice"),
)
# Tape nodes are counted, not timed: one span per node would cost more than the node.
COUNTED = (("sst.autodiff", "Node", "autodiff.nodes"),)


def _note_encoder(tracer, span, args, out):
    # Sequence blocks attend a stream to itself; cross blocks get two tensors.
    span[0] = "model.seq_attn" if args[0] is args[1] else "model.cross_attn"


def _note_store(tracer, span, args, out):
    store = args[0]
    tracer.counts["sampling.store_bytes_max"] = max(
        tracer.counts["sampling.store_bytes_max"], float(store.signals.nbytes))


def _note_draw(tracer, span, args, out):
    tracer.counts["sampling.draws"] += 1
    if out.provenance != "random":
        tracer.counts["sampling.reuse_draws"] += 1


def _note_file(key):
    def note(tracer, span, args, out):
        tracer.counts[key] += os.path.getsize(args[0])
    return note


def _note_parse(tracer, span, args, out):
    tracer.counts["edf.bytes"] += len(args[0])


def _note_slice(tracer, span, args, out):
    records, dropped = out
    tracer.counts["ingest.kept"] += len(records)
    tracer.counts["ingest.dropped"] += dropped


NOTES = {
    "model.encoder": _note_encoder,
    "sampling.store_build": _note_store,
    "sampling.draw": _note_draw,
    "checkpoint.save": _note_file("checkpoint.save_bytes"),
    "checkpoint.load": _note_file("checkpoint.load_bytes"),
    "edf.parse": _note_parse,
    "ingest.slice": _note_slice,
}


class Tracer:
    """Context manager that records spans of the TARGETS while active."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self.counts: dict = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                note(self, span, args, out)
            return out

        return traced

    def _count(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _rebind(self, module_name, attr, make):
        module = sys.modules.get(module_name)
        owner_name, _, method = attr.partition(".")
        original = getattr(module, owner_name, None) if module is not None else None
        if original is None or (method and method not in vars(original)):
            self.missing.append(f"{module_name}.{attr}")
            return
        if method:
            fn = vars(original)[method]
            self._undo.append((original, method, fn))
            setattr(original, method, make(fn))
            return
        replacement = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "sst" or name.startswith("sst.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, replacement)

    def __enter__(self):
        import sst.cli  # noqa: F401  -- loads every module a CLI call can reach

        for module_name, attr, name in TARGETS:
            self._rebind(module_name, attr, lambda fn, name=name: self._wrap(fn, name))
        for module_name, attr, key in COUNTED:
            self._rebind(module_name, attr, lambda fn, key=key: self._count(fn, key))
        return self

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()
        return False

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, and the same
        restricted to spans outside `training.validate` (the training steps)."""
        n = len(self.spans)
        child = [0.0] * n
        in_val = [False] * n
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                in_val[i] = in_val[parent]
            if name == "training.validate":
                in_val[i] = True
        table: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "step_calls": 0, "step_total_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
            if not in_val[i]:
                row["step_calls"] += 1
                row["step_total_s"] += end - start
        return table

    def step_times(self) -> list[float]:
        """One training step: from a batch draw to the end of the next Adam update."""
        draws = [s for s in self.spans if s[0] == "sampling.draw"]
        adams = [s for s in self.spans if s[0] == "optim.adam"]
        return [a[2] - d[1] for d, a in zip(draws, adams)]

