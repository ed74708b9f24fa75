"""The benchmark's workloads: seeded inputs, the timed operations, the checks.

Each workload is a class whose steps the worker drives:

    generate(spec, seed, work)  write every input under `work`; returns meta
    setup()                     load_model + Vocabulary.from_file + load_dataset
    operate(state)              the timed operation; returns seconds per op
    release(state)              drop a finished cycle's outputs
    output_bytes(state)         size of the pruned checkpoint written or served
    check(state, checks)        output checks, run after the timed loop

Every call into prunekit goes through a module attribute (`checkpoint.load_model`,
`engine.pipeline_prune`, ...), so the tracer's wrappers see it. Inputs come
from the seed only; nothing is downloaded.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from prunekit import checkpoint, data, engine, vocab as pk_vocab
from prunekit import model as pk_model
from prunekit.configs import GeneralConfig, TransformerPruningConfig, VocabularyPruningConfig
from prunekit.engine import PruneReport, PruningMask
from prunekit.model import ModelConfig, assemble_model, expected_tensor_shapes, named_tensors
from prunekit.tensor import Tensor

LETTERS = "abcdefghijklmnopqrstuvwxyz"
_LETTER_BYTES = np.frombuffer(LETTERS.encode(), dtype="S1")
GATE_TOLERANCE = 1e-8  # gate-vs-surgery, as in acceptance criterion 03


# ----------------------------------------------------------------------------
# seeded generators shared by the workloads
# ----------------------------------------------------------------------------

def random_words(rng: np.random.Generator, count: int, lo: int, hi: int,
                 taken: set[str]) -> list[str]:
    """`count` distinct lowercase strings of lo..hi letters, none in `taken`."""
    out: list[str] = []
    while len(out) < count:
        need = count - len(out)
        lens = rng.integers(lo, hi + 1, size=need)
        mat = _LETTER_BYTES[rng.integers(0, 26, size=(need, hi))].view(f"S{hi}").ravel()
        for raw, n in zip(mat.tolist(), lens.tolist()):
            word = raw[:n].decode()
            if word not in taken:
                taken.add(word)
                out.append(word)
    return out[:count]


def build_vocab_tokens(rng: np.random.Generator, size: int) -> tuple[list[str], list[str], list[str]]:
    """BERT-like token list: specials, letters, ##letters, words, ##pieces.

    Returns (tokens, words, pieces). Single letters and ##letters make every
    lowercase word tokenizable, so only non-letters produce [UNK].
    """
    tokens = list(pk_vocab.SPECIAL_TOKENS) + list(LETTERS) + ["##" + c for c in LETTERS]
    n_pieces = (size - len(tokens)) // 3
    n_words = size - len(tokens) - n_pieces
    words = random_words(rng, n_words, 3, 9, set(LETTERS))
    pieces = random_words(rng, n_pieces, 2, 4, set(LETTERS))
    tokens += words + ["##" + p for p in pieces]
    return tokens, words, pieces


def zipf_probs(n: int, exponent: float = 1.0, shift: float = 2.7) -> np.ndarray:
    p = 1.0 / (np.arange(n) + shift) ** exponent
    return p / p.sum()


def random_model(cfg: ModelConfig, rng: np.random.Generator) -> pk_model.Model:
    """BERT-style init: uniform weights with std 0.02, layer norms at identity."""
    half_width = 0.02 * np.sqrt(3.0)
    arrays = {}
    for name, shape in expected_tensor_shapes(cfg):
        if name.endswith(".gain"):
            arrays[name] = np.ones(shape)
        elif ".ln" in name:
            arrays[name] = np.zeros(shape)
        else:
            arrays[name] = rng.random(shape) * (2 * half_width) - half_width
    return assemble_model(cfg, arrays, requires_grad=True)


def spread_units(rng: np.random.Generator, total: int, caps: np.ndarray) -> np.ndarray:
    """Random per-layer counts in [1, cap] (0 where cap is 0) that sum to total."""
    counts = np.minimum(caps, 1)
    while counts.sum() < total:
        counts[rng.choice(np.flatnonzero(counts < caps))] += 1
    return counts


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in Path(path).iterdir() if f.is_file())


def save_model_dir(model: pk_model.Model, tokens: list[str], directory: Path) -> None:
    checkpoint.save_model(model, directory)
    pk_vocab.Vocabulary(tokens).save(directory / "vocab.txt")


def gates_from_mask(mask: PruningMask) -> tuple[list[list[Tensor]], list[Tensor]]:
    """Zero gates at dropped units, one gates at kept ones."""
    head_gates = [[Tensor(1.0 if k else 0.0) for k in keep] for keep in mask.head_keep]
    ffn_gates = [Tensor(keep.astype(np.float64)) for keep in mask.ffn_keep]
    return head_gates, ffn_gates


def same_tensors(a: pk_model.Model, b: pk_model.Model) -> bool:
    ta, tb = list(named_tensors(a)), list(named_tensors(b))
    return len(ta) == len(tb) and all(na == nb and np.array_equal(x.data, y.data)
                                      for (na, x), (nb, y) in zip(ta, tb))


class Checks:
    """Collects named pass/fail results; a check that raises counts as failed."""

    def __init__(self):
        self.results: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})


# ----------------------------------------------------------------------------
# pipeline-kl
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineSpec:
    layers: int = 6
    hidden: int = 384
    heads: int = 12
    head_size: int = 32
    ffn: int = 1536
    vocab: int = 8000
    max_seq_len: int = 128
    rows: int = 16
    batch_size: int = 8
    min_words: int = 16
    max_words: int = 48
    corpus_lines: int = 2000
    target_heads: int = 6
    target_ffn: int = 768
    multiple_of: int = 64
    n_iters: int = 2


class PipelineKL:
    """Self-supervised (KL) pipeline_prune, then vocab pruning and atomic save."""

    name = "pipeline-kl"
    full = PipelineSpec()
    tiny = PipelineSpec(layers=2, hidden=32, heads=4, head_size=8, ffn=64, vocab=300,
                        rows=8, batch_size=4, min_words=4, max_words=12,
                        corpus_lines=40, target_heads=2, target_ffn=32, multiple_of=8)

    @staticmethod
    def generate(spec: PipelineSpec, seed: int, work: Path) -> dict:
        rng = np.random.default_rng(seed)
        tokens, words, _ = build_vocab_tokens(rng, spec.vocab)
        cfg = ModelConfig(num_layers=spec.layers, hidden_size=spec.hidden,
                          head_size=spec.head_size, num_heads=spec.heads,
                          ffn_size=spec.ffn, vocab_size=spec.vocab,
                          max_seq_len=spec.max_seq_len, num_labels=2)
        save_model_dir(random_model(cfg, rng), tokens, work / "model")

        # a fixed multiset of row lengths, dealt to batches by rank and shuffled
        # within each: every seed pads each batch to the same width, so the
        # work barely moves with the seed while the contents do
        ranked = np.linspace(spec.max_words, spec.min_words, spec.rows).round().astype(int)
        n_batches = -(-spec.rows // spec.batch_size)
        lengths = np.concatenate([rng.permutation(ranked[b::n_batches])
                                  for b in range(n_batches)])
        common = np.array(words[:max(50, len(words) // 4)])
        rows = [" ".join(rng.choice(common, size=int(n)).tolist()) for n in lengths]
        write_lines(work / "dataset.txt", rows)

        drawn = np.array(words)[rng.choice(len(words), size=spec.corpus_lines * 10,
                                           p=zipf_probs(len(words)))].tolist()
        corpus = [" ".join(drawn[i:i + 10]) for i in range(0, len(drawn), 10)]
        write_lines(work / "corpus.txt", rows + corpus)
        return {"spec": asdict(spec),
                "corpus_words": sum(len(line.split()) for line in rows + corpus)}

    def __init__(self, work: Path, meta: dict):
        self.work = work
        self.spec = PipelineSpec(**meta["spec"])
        self.tcfg = TransformerPruningConfig(
            target_num_of_heads=self.spec.target_heads, target_ffn_size=self.spec.target_ffn,
            n_iters=self.spec.n_iters, head_even_masking=False, ffn_even_masking=False,
            multiple_of=self.spec.multiple_of, use_logits=True)
        self.vcfg = VocabularyPruningConfig(min_count=1)
        self.cycle = 0

    def setup(self) -> dict:
        model = checkpoint.load_model(self.work / "model")
        vocab = pk_vocab.Vocabulary.from_file(self.work / "model" / "vocab.txt")
        dataset = data.load_dataset(self.work / "dataset.txt", vocab,
                                    batch_size=self.spec.batch_size,
                                    max_len=self.spec.max_seq_len, labeled=False)
        return {"model": model, "vocab": vocab, "dataset": dataset}

    def operate(self, state: dict) -> list[float]:
        self.cycle += 1
        out = self.work / f"pruned-{self.cycle}"
        t0 = time.perf_counter()
        model, vocab, report = engine.pipeline_prune(
            state["model"], state["vocab"], self.work / "corpus.txt", state["dataset"],
            GeneralConfig(output_dir=str(out)), self.vcfg, self.tcfg)
        elapsed = time.perf_counter() - t0
        state.update(pruned=model, pruned_vocab=vocab, report=report, out=out)
        return [elapsed]

    def release(self, state: dict) -> None:
        if "out" in state:
            shutil.rmtree(state["out"], ignore_errors=True)

    def output_bytes(self, state: dict) -> int:
        return dir_bytes(state["out"])

    def check(self, state: dict, checks: Checks) -> None:
        spec, model, report = self.spec, state["pruned"], state["report"]
        heads, ffn = model.config.num_heads, model.config.ffn_size
        checks.add("targets met",
                   sum(heads) == spec.layers * spec.target_heads
                   and sum(ffn) == spec.layers * spec.target_ffn
                   and all(f % spec.multiple_of == 0 for f in ffn),
                   f"heads {heads}, ffn {ffn}")

        reloaded = checkpoint.load_model(state["out"])
        new_vocab = pk_vocab.Vocabulary.from_file(state["out"] / "vocab.txt")
        checks.add("output reloads", same_tensors(model, reloaded)
                   and new_vocab.tokens == state["pruned_vocab"].tokens
                   and len(new_vocab) == reloaded.config.vocab_size)

        original = checkpoint.load_model(self.work / "model")
        old_vocab = state["vocab"]
        head_gates, ffn_gates = gates_from_mask(report.mask)
        gap = 0.0
        # old id -> new id; every dataset token is in the corpus, so it survives
        id_map = np.array([new_vocab.id_of(t) if t in new_vocab else -1
                           for t in old_vocab.tokens])
        for batch in state["dataset"]:
            mapped = id_map[batch.token_ids]
            gated = pk_model.task_forward(original, batch.token_ids, head_gates, ffn_gates).data
            pruned = pk_model.task_forward(reloaded, mapped).data
            gap = max(gap, float(np.abs(gated - pruned).max()))
        checks.add("gate-vs-surgery", gap <= GATE_TOLERANCE, f"max gap {gap:.3e}")


# ----------------------------------------------------------------------------
# infer-pruned
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class InferSpec:
    layers: int = 12
    hidden: int = 768
    heads: int = 12
    head_size: int = 64
    ffn: int = 3072
    vocab: int = 30522
    max_seq_len: int = 128
    mean_heads: int = 6
    mean_ffn: int = 1536
    ffn_block: int = 64
    texts: int = 16
    min_tokens: int = 16
    check_texts: int = 3


class InferPruned:
    """Batch-1 task_forward over a seeded-mask pruned BERT-base-shaped checkpoint."""

    name = "infer-pruned"
    full = InferSpec()
    tiny = InferSpec(layers=3, hidden=32, heads=4, head_size=8, ffn=64, vocab=400,
                     max_seq_len=32, mean_heads=2, mean_ffn=32, ffn_block=8, texts=6)

    @staticmethod
    def seeded_mask(spec: InferSpec, rng: np.random.Generator) -> PruningMask:
        """Uneven widths with fixed totals; one layer keeps no heads at all."""
        L = spec.layers
        head_caps = np.full(L, spec.heads)
        head_caps[rng.integers(L)] = 0
        heads = spread_units(rng, L * spec.mean_heads, head_caps)
        blocks = spread_units(rng, L * spec.mean_ffn // spec.ffn_block,
                              np.full(L, spec.ffn // spec.ffn_block))
        head_keep, ffn_keep = [], []
        for l in range(L):
            keep = np.zeros(spec.heads, dtype=bool)
            keep[rng.choice(spec.heads, size=int(heads[l]), replace=False)] = True
            head_keep.append(keep)
            keep = np.zeros(spec.ffn, dtype=bool)
            keep[rng.choice(spec.ffn, size=int(blocks[l]) * spec.ffn_block, replace=False)] = True
            ffn_keep.append(keep)
        return PruningMask(head_keep, ffn_keep)

    @classmethod
    def generate(cls, spec: InferSpec, seed: int, work: Path) -> dict:
        rng = np.random.default_rng(seed)
        tokens, words, _ = build_vocab_tokens(rng, spec.vocab)
        # a fixed set of lengths (with [CLS] and [SEP]) in seeded order
        lengths = rng.permutation(np.linspace(spec.min_tokens, spec.max_seq_len,
                                              spec.texts).round().astype(int))
        common = np.array(words[:len(words) // 2])
        texts = [" ".join(rng.choice(common, size=int(n) - 2).tolist()) for n in lengths]
        write_lines(work / "texts.txt", texts)

        cfg = ModelConfig(num_layers=spec.layers, hidden_size=spec.hidden,
                          head_size=spec.head_size, num_heads=spec.heads, ffn_size=spec.ffn,
                          vocab_size=spec.vocab, max_seq_len=spec.max_seq_len, num_labels=2)
        model = random_model(cfg, rng)
        mask = cls.seeded_mask(spec, rng)

        # reference logits: the unpruned model with the mask as zero gates
        vocab = pk_vocab.Vocabulary(tokens)
        dataset = data.load_dataset(work / "texts.txt", vocab, batch_size=1,
                                    max_len=spec.max_seq_len, labeled=False)
        picks = sorted(rng.choice(len(texts), size=spec.check_texts, replace=False).tolist())
        head_gates, ffn_gates = gates_from_mask(mask)
        gated = [pk_model.task_forward(model, dataset.batches[i].token_ids,
                                       head_gates, ffn_gates).data for i in picks]
        np.savez(work / "reference.npz", picks=np.array(picks), logits=np.stack(gated))

        tcfg = TransformerPruningConfig(target_num_of_heads=1, target_ffn_size=1,
                                        pruning_method="mask")
        engine.transformer_prune(model, None, tcfg, mask=mask)
        save_model_dir(model, tokens, work / "model")
        return {"spec": asdict(spec)}

    def __init__(self, work: Path, meta: dict):
        self.work = work
        self.spec = InferSpec(**meta["spec"])
        self.finite = True   # every logit of every forward so far

    def setup(self) -> dict:
        model = checkpoint.load_model(self.work / "model", requires_grad=False)
        vocab = pk_vocab.Vocabulary.from_file(self.work / "model" / "vocab.txt")
        dataset = data.load_dataset(self.work / "texts.txt", vocab, batch_size=1,
                                    max_len=self.spec.max_seq_len, labeled=False)
        return {"model": model, "dataset": dataset,
                "tokens": sum(b.token_ids.size for b in dataset)}

    def operate(self, state: dict) -> list[float]:
        model, times = state["model"], []
        for batch in state["dataset"]:
            t0 = time.perf_counter()
            logits = pk_model.task_forward(model, batch.token_ids)
            times.append(time.perf_counter() - t0)
            self.finite = self.finite and bool(np.isfinite(logits.data).all())
        return times

    def release(self, state: dict) -> None:
        pass

    def output_bytes(self, state: dict) -> int:
        return dir_bytes(self.work / "model")

    def check(self, state: dict, checks: Checks) -> None:
        checks.add("logits finite", self.finite)
        ref = np.load(self.work / "reference.npz")
        batches = state["dataset"].batches
        gap = max(float(np.abs(pk_model.task_forward(state["model"], batches[int(i)].token_ids).data
                               - expected).max())
                  for i, expected in zip(ref["picks"], ref["logits"]))
        checks.add("gate-vs-surgery", gap <= GATE_TOLERANCE, f"max gap {gap:.3e}")


# ----------------------------------------------------------------------------
# vocab-corpus
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class VocabSpec:
    layers: int = 2
    hidden: int = 768
    heads: int = 12
    head_size: int = 64
    ffn: int = 3072
    vocab: int = 30522
    max_seq_len: int = 128
    corpus_words: int = 1_500_000
    min_count: int = 13
    check_lines: int = 64


class VocabCorpus:
    """What `prunekit prune-vocab` runs: count a corpus, drop rare rows, save."""

    name = "vocab-corpus"
    full = VocabSpec()
    tiny = VocabSpec(hidden=32, heads=4, head_size=8, ffn=64, vocab=2000,
                     max_seq_len=64, corpus_words=20_000, min_count=3, check_lines=16)

    @staticmethod
    def corpus_lines(spec: VocabSpec, words: list[str], pieces: list[str],
                     rng: np.random.Generator) -> list[str]:
        """Zipf words, with composites (multi-piece), OOV words and long words.

        OOV words carry a digit, which no piece matches, so WordPiece backtracks
        down to one character and emits [UNK]. Long words of 30-60 letters
        backtrack at every position; a tenth of them exceed MAX_WORD_CHARS.
        """
        n = spec.corpus_words
        words_arr, pieces_arr = np.array(words), np.array(pieces)
        out = words_arr[rng.choice(len(words), size=n, p=zipf_probs(len(words)))].astype(object)
        kind = rng.random(n)
        comp = np.flatnonzero(kind < 0.06)
        out[comp] = np.char.add(
            words_arr[rng.choice(len(words), size=comp.size, p=zipf_probs(len(words)))],
            pieces_arr[rng.choice(len(pieces), size=comp.size, p=zipf_probs(len(pieces)))])
        oov = np.flatnonzero((kind >= 0.06) & (kind < 0.09))
        out[oov] = np.char.add(np.char.add(words_arr[rng.integers(len(words), size=oov.size)],
                                           rng.integers(10, size=oov.size).astype(str)),
                               words_arr[rng.integers(len(words), size=oov.size)])
        long_ = np.flatnonzero(kind >= 0.997)
        lens = np.where(rng.random(long_.size) < 0.1, rng.integers(101, 141, size=long_.size),
                        rng.integers(30, 61, size=long_.size))
        mat = _LETTER_BYTES[rng.integers(0, 26, size=(long_.size, 140))].view("S140").ravel()
        out[long_] = [raw[:k].decode() for raw, k in zip(mat.tolist(), lens.tolist())]
        cuts = np.cumsum(rng.integers(8, 33, size=n // 8 + 1))
        cuts = cuts[cuts < n]
        flat = out.tolist()
        return [" ".join(flat[a:b]) for a, b in zip(np.r_[0, cuts], np.r_[cuts, n])]

    @classmethod
    def generate(cls, spec: VocabSpec, seed: int, work: Path) -> dict:
        rng = np.random.default_rng(seed)
        tokens, words, pieces = build_vocab_tokens(rng, spec.vocab)
        lines = cls.corpus_lines(spec, words, pieces, rng)
        write_lines(work / "corpus.txt", lines)
        picks = rng.choice(len(lines), size=spec.check_lines, replace=False)
        write_lines(work / "check.txt", [lines[i] for i in sorted(picks.tolist())])
        cfg = ModelConfig(num_layers=spec.layers, hidden_size=spec.hidden,
                          head_size=spec.head_size, num_heads=spec.heads, ffn_size=spec.ffn,
                          vocab_size=spec.vocab, max_seq_len=spec.max_seq_len, num_labels=2)
        save_model_dir(random_model(cfg, rng), tokens, work / "model")
        return {"spec": asdict(spec), "corpus_words": spec.corpus_words}

    def __init__(self, work: Path, meta: dict):
        self.work = work
        self.spec = VocabSpec(**meta["spec"])
        self.vcfg = VocabularyPruningConfig(min_count=self.spec.min_count)
        self.cycle = 0

    def setup(self) -> dict:
        model = checkpoint.load_model(self.work / "model")
        vocab = pk_vocab.Vocabulary.from_file(self.work / "model" / "vocab.txt")
        dataset = data.load_dataset(self.work / "check.txt", vocab, batch_size=8,
                                    max_len=self.spec.max_seq_len, labeled=False)
        return {"model": model, "vocab": vocab, "dataset": dataset}

    def operate(self, state: dict) -> list[float]:
        self.cycle += 1
        out = self.work / f"pruned-{self.cycle}"
        model, vocab = state["model"], state["vocab"]
        t0 = time.perf_counter()
        initial = pk_model.count_parameters(model)
        heads, ffn = list(model.config.num_heads), list(model.config.ffn_size)
        model, new_vocab, vreport = engine.vocabulary_prune(
            model, vocab, self.work / "corpus.txt", self.vcfg)
        report = PruneReport(
            method="vocabulary", initial_parameters=initial,
            final_parameters=pk_model.count_parameters(model),
            original_num_heads=heads, original_ffn_size=ffn,
            final_num_heads=heads, final_ffn_size=ffn, iterations=[], mask=None,
            elapsed_seconds=time.perf_counter() - t0, vocabulary=vreport)
        engine.save_pruned_outputs(out, model, new_vocab, report)
        elapsed = time.perf_counter() - t0
        state.update(pruned=model, pruned_vocab=new_vocab, out=out, report=vreport)
        return [elapsed]

    def release(self, state: dict) -> None:
        if "out" in state:
            shutil.rmtree(state["out"], ignore_errors=True)

    def output_bytes(self, state: dict) -> int:
        return dir_bytes(state["out"])

    def check(self, state: dict, checks: Checks) -> None:
        new_vocab = pk_vocab.Vocabulary.from_file(state["out"] / "vocab.txt")
        checks.add("vocab.txt reloads", new_vocab.tokens == state["pruned_vocab"].tokens)
        checks.add("specials survive",
                   all(s in new_vocab for s in pk_vocab.SPECIAL_TOKENS))

        original = checkpoint.load_model(self.work / "model")
        old_vocab = state["vocab"]
        lines = (self.work / "check.txt").read_text(encoding="utf-8").splitlines()
        def framed(vocab, line):
            ids = pk_vocab.tokenize(vocab, line)[:self.spec.max_seq_len - 2]
            return np.array([[vocab.cls_id, *ids, vocab.sep_id]], dtype=np.int64)

        compared = identical = 0
        for line in lines:
            old_ids = framed(old_vocab, line)
            if not all(old_vocab.token_of(int(i)) in new_vocab for i in old_ids[0]):
                continue
            before = pk_model.task_forward(original, old_ids).data
            after = pk_model.task_forward(state["pruned"], framed(new_vocab, line)).data
            compared += 1
            identical += int(np.array_equal(before, after))
        checks.add("surviving logits bit-identical", compared >= 4 and identical == compared,
                   f"{identical}/{compared} sampled lines identical")


WORKLOADS = {cls.name: cls for cls in (PipelineKL, InferPruned, VocabCorpus)}


def spec_for(workload: str, tiny: bool):
    cls = WORKLOADS[workload]
    return cls.tiny if tiny else cls.full
