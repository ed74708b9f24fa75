"""Span tracer for the benchmark's traced runs.

The tracer wraps prunekit's public functions at the names their callers look
them up by (`prunekit.engine.compute_scores`, `prunekit.model.matmul_t`, ...)
and restores the originals on exit. Each call becomes a span: name, start,
end, parent index and an optional info dict. Spans stay in memory; the
worker turns them into per-layer metrics and can write them to a file.

Tensor ops inside `task_forward` get a name `tensor.<scope>.<class>`:
scope is `forward` (untaped) or `scoring` (taped), and a matmul's class
comes from the stored tensor it reads, found through `named_tensors`.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import prunekit.checkpoint
import prunekit.data
import prunekit.engine
import prunekit.model
import prunekit.scoring
import prunekit.vocab
from prunekit.model import named_tensors

MIB = float(1 << 20)
TENSOR_CLASSES = ("qkv_proj", "attn_core", "out_proj", "ffn_matmul", "gelu",
                  "layer_norm", "elementwise", "other")
SCOPES = ("forward", "scoring")
_OP_CLASS = {"softmax_rows": "attn_core", "gelu": "gelu", "layer_norm": "layer_norm",
             "add": "elementwise", "mul": "elementwise", "scale": "elementwise",
             "embedding_lookup": "other", "select_first": "other"}
_MATMULS = ("matmul", "matmul_t")
SURGERY = ("remove_heads", "remove_ffn_neurons", "remove_vocab_rows")

# per-layer metrics: name -> (unit, better); the traced run reports all of them
PER_LAYER = {
    "checkpoint.load_s": ("s", "lower"),
    "checkpoint.load_mb": ("MiB", "lower"),
    "checkpoint.load_rss_delta_mb": ("MiB", "lower"),
    "checkpoint.save_s": ("s", "lower"),
    "checkpoint.save_mb": ("MiB", "lower"),
    "data.load_dataset_s": ("s", "lower"),
    "data.real_token_frac": ("ratio", "higher"),
    "vocab.count_s": ("s", "lower"),
    "vocab.words_per_s": ("words/s", "higher"),
    "vocab.unk_frac": ("ratio", "lower"),
    "model.forward_s": ("s", "lower"),
    "model.forward_calls": ("count", "lower"),
    "model.surgery_s": ("s", "lower"),
    "model.surgery_calls": ("count", "lower"),
    "scoring.compute_scores_s": ("s", "lower"),
    "scoring.units": ("count", "lower"),
    "scoring.taped_forward_s": ("s", "lower"),
    "scoring.backward_s": ("s", "lower"),
    "scoring.tape_records_per_unit": ("count", "lower"),
    "engine.select_s": ("s", "lower"),
    "engine.save_outputs_s": ("s", "lower"),
    **{f"tensor.{scope}.{cls}{suffix}": (unit, "lower")
       for scope in SCOPES for cls in TENSOR_CLASSES
       for suffix, unit in (("_s", "s"), ("_calls", "count"))},
    **{f"tensor.{scope}.matmul_gflop": ("GFLOP", "lower") for scope in SCOPES},
    "trace.overhead_frac": ("ratio", "lower"),
}


def _matmul_class(name: str) -> str:
    field = name.rsplit(".", 1)[-1]
    if ".heads." in name:
        return "out_proj" if field == "wo" else "qkv_proj"
    if ".ffn." in name:
        return "ffn_matmul"
    return "other"


def current_rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Tracer:
    """Records spans around prunekit calls while `installed()` is active."""

    def __init__(self, pad_id: int = 0, corpus_words: int = 0):
        self.pad_id = pad_id              # [PAD] is id 0 in every benchmark vocab
        self.corpus_words = corpus_words  # whitespace words per corpus count
        self.spans: list[list] = []       # [name, start, end, parent, info]
        self._stack: list[int] = []
        self._scope = ["other"]
        self._stored: dict[int, str] = {}
        self._loaded_once = False

    # -- spans -----------------------------------------------------------

    def open(self, name: str, info: dict | None = None) -> int:
        self.spans.append([name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, info])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # -- wrappers ----------------------------------------------------------

    def _plain(self, name: str, after=None):
        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = self.open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                if after is not None:
                    self.spans[idx][4] = after(args, kwargs, out)
                return out
            return wrapper
        return factory

    def _load(self, fn):
        @functools.wraps(fn)
        def wrapper(directory, *args, **kwargs):
            first, before = not self._loaded_once, current_rss_bytes()
            idx = self.open("checkpoint.load")
            try:
                out = fn(directory, *args, **kwargs)
            finally:
                self.close(idx)
            self._loaded_once = True
            info = {"bytes": _checkpoint_bytes(directory)}
            if first:   # the process peak is only informative on its first load
                info["rss_delta"] = peak_rss_bytes() - before
            self.spans[idx][4] = info
            return out
        return wrapper

    def _task_forward(self, fn):
        @functools.wraps(fn)
        def wrapper(model, token_ids, *args, **kwargs):
            tape = kwargs.get("tape", args[2] if len(args) > 2 else None)
            scope = "forward" if tape is None else "scoring"
            self._stored = {id(t): _matmul_class(n) for n, t in named_tensors(model)}
            real = int((token_ids != self.pad_id).sum())
            idx = self.open("model.forward" if tape is None else "scoring.taped_forward",
                            {"positions": int(token_ids.size), "real": real})
            self._scope.append(scope)
            try:
                return fn(model, token_ids, *args, **kwargs)
            finally:
                self._scope.pop()
                self.close(idx)
        return wrapper

    def _tensor_op(self, op: str):
        def factory(fn):
            matmul = op in _MATMULS

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if matmul:
                    a, b = args[0], args[1]
                    cls = self._stored.get(id(b)) or self._stored.get(id(a)) or "attn_core"
                else:
                    cls = _OP_CLASS[op]
                idx = self.open(f"tensor.{self._scope[-1]}.{cls}")
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                if matmul:
                    inner = b.shape[-2] if op == "matmul_t" else b.shape[-1]
                    self.spans[idx][4] = {"flop": 2 * a.size * inner}
                return out
            return wrapper
        return factory

    def _targets(self):
        ck, eng, mdl, sc, vc, dt = (prunekit.checkpoint, prunekit.engine, prunekit.model,
                                    prunekit.scoring, prunekit.vocab, prunekit.data)
        yield ck, "load_model", self._load
        yield eng, "save_model", self._plain(
            "checkpoint.save", lambda a, k, out: {"bytes": _checkpoint_bytes(a[1])})
        yield dt, "load_dataset", self._plain("data.load_dataset")
        yield vc.Vocabulary, "from_file", self._plain("vocab.from_file")
        yield eng, "count_corpus_tokens", self._plain("vocab.count", self._count_info)
        yield eng, "reindex", self._plain("vocab.reindex")
        for name in SURGERY:
            yield eng, name, self._plain(f"model.{name}")
        yield eng, "pipeline_prune", self._plain("engine.pipeline_prune")
        yield eng, "transformer_prune", self._plain("engine.transformer_prune")
        yield eng, "vocabulary_prune", self._plain("engine.vocabulary_prune")
        yield eng, "select_targets", self._plain("engine.select_targets")
        yield eng, "save_pruned_outputs", self._plain("engine.save_outputs")
        yield eng, "compute_scores", self._plain(
            "scoring.compute_scores", lambda a, k, out: {"units": out.units_averaged})
        yield sc, "backward", self._plain(
            "scoring.backward", lambda a, k, out: {"records": len(a[0])})
        yield sc, "task_forward", self._task_forward
        yield mdl, "task_forward", self._task_forward
        for op in (*_MATMULS, *_OP_CLASS):
            yield mdl, op, self._tensor_op(op)

    def _count_info(self, args, kwargs, counts) -> dict:
        vocab = args[0]
        return {"words": self.corpus_words, "unk": int(counts[vocab.unk_id]),
                "tokens": int(counts.sum())}

    @contextmanager
    def installed(self):
        """Swap every wrapper in; restore the originals even on error."""
        saved = []
        try:
            for owner, attr, factory in self._targets():
                original = owner.__dict__[attr]
                wrapped = factory(getattr(owner, attr))
                setattr(owner, attr, staticmethod(wrapped) if isinstance(owner, type) else wrapped)
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[2] - s[1]) - child[i] for i, s in enumerate(self.spans)]

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            row = out.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span[2] - span[1]
            row["self_s"] += self_s
        return out

    def dump(self, path: Path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p, "self_s": st, "info": i}
                for (n, s, e, p, i), st in zip(self.spans, self.self_times())]
        Path(path).write_text(json.dumps({"spans": rows}) + "\n")

    def layer_metrics(self, cycles: int, traced_walls: list[float],
                      untraced_walls: list[float]) -> dict[str, float]:
        """Per-layer metrics, as totals per traced cycle (ratios are pooled)."""
        summ = self.summary()

        def total(name):
            return summ.get(name, {}).get("total_s", 0.0)

        def calls(name):
            return summ.get(name, {}).get("calls", 0)

        sums: dict[tuple[str, str], float] = defaultdict(float)
        for name, _, _, _, extra in self.spans:
            for key, value in (extra or {}).items():
                sums[name, key] += value

        def info(name, key):
            return sums.get((name, key), 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        fwd = ("model.forward", "scoring.taped_forward")
        units = info("scoring.compute_scores", "units")
        m = {
            "checkpoint.load_s": total("checkpoint.load"),
            "checkpoint.load_mb": info("checkpoint.load", "bytes") / MIB,
            "checkpoint.save_s": total("checkpoint.save"),
            "checkpoint.save_mb": info("checkpoint.save", "bytes") / MIB,
            "data.load_dataset_s": total("data.load_dataset"),
            "vocab.count_s": total("vocab.count"),
            "model.forward_s": total("model.forward"),
            "model.forward_calls": calls("model.forward"),
            "model.surgery_s": sum(total(f"model.{n}") for n in SURGERY),
            "model.surgery_calls": sum(calls(f"model.{n}") for n in SURGERY),
            "scoring.compute_scores_s": total("scoring.compute_scores"),
            "scoring.units": units,
            "scoring.taped_forward_s": total("scoring.taped_forward"),
            "scoring.backward_s": total("scoring.backward"),
            "engine.select_s": total("engine.select_targets"),
            "engine.save_outputs_s": total("engine.save_outputs"),
        }
        for scope in SCOPES:
            for cls in TENSOR_CLASSES:
                m[f"tensor.{scope}.{cls}_s"] = total(f"tensor.{scope}.{cls}")
                m[f"tensor.{scope}.{cls}_calls"] = calls(f"tensor.{scope}.{cls}")
            m[f"tensor.{scope}.matmul_gflop"] = sum(
                info(f"tensor.{scope}.{cls}", "flop") for cls in TENSOR_CLASSES) / 1e9
        m = {k: v / cycles for k, v in m.items()}
        # once-per-process and pooled quantities are not divided by cycles
        m["checkpoint.load_rss_delta_mb"] = info("checkpoint.load", "rss_delta") / MIB
        m["data.real_token_frac"] = ratio(sum(info(n, "real") for n in fwd),
                                          sum(info(n, "positions") for n in fwd))
        m["vocab.words_per_s"] = ratio(info("vocab.count", "words"), total("vocab.count"))
        m["vocab.unk_frac"] = ratio(info("vocab.count", "unk"), info("vocab.count", "tokens"))
        m["scoring.tape_records_per_unit"] = ratio(info("scoring.backward", "records"), units)
        m["trace.overhead_frac"] = (statistics.median(traced_walls)
                                    / statistics.median(untraced_walls) - 1.0
                                    if traced_walls and untraced_walls else 0.0)
        return {k: float(m[k]) for k in PER_LAYER}


def _checkpoint_bytes(directory) -> int:
    directory = Path(directory)
    return sum((directory / f).stat().st_size
               for f in (prunekit.checkpoint.CONFIG_FILE, prunekit.checkpoint.WEIGHTS_FILE,
                         prunekit.checkpoint.MANIFEST_FILE))
