"""Command line interface.

A model directory is a checkpoint (config.json, weights.bin, manifest.json)
plus the matching vocab.txt. Pruning subcommands write the same layout,
plus prune_report.json, to the output directory; outputs are staged and
renamed into place so a failed run leaves nothing behind.

Exit codes: 0 success, 1 runtime failure, 2 flag or config errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .checkpoint import load_model
from .configs import (GeneralConfig, TransformerPruningConfig, VocabularyPruningConfig,
                      load_config, read_json)
from .data import load_dataset
from .diagnostics import inference_time, summary
from .engine import (PruneReport, PruningMask, pipeline_prune, save_pruned_outputs,
                     transformer_prune, vocabulary_prune)
from .errors import ConfigError, PrunekitError
from .fixtures import FixtureSpec, make_fixture
from .model import count_parameters
from .vocab import Vocabulary

_MODE_ALIAS = {"vocabulary": "prune-vocab", "transformer": "prune-transformer",
               "pipeline": "prune-pipeline"}


def _resolve_mode_alias(argv: list[str]) -> list[str]:
    """Translate the legacy --pruning_mode flag into a subcommand."""
    out = list(argv)
    for i, arg in enumerate(out):
        if arg == "--pruning_mode" and i + 1 < len(out):
            mode, rest = out[i + 1], out[:i] + out[i + 2:]
        elif arg.startswith("--pruning_mode="):
            mode, rest = arg.split("=", 1)[1], out[:i] + out[i + 1:]
        else:
            continue
        if mode not in _MODE_ALIAS:
            raise ConfigError(f"--pruning_mode must be one of {sorted(_MODE_ALIAS)}, got {mode!r}")
        return [_MODE_ALIAS[mode]] + rest
    return out


def _checked(convert, ok, expected: str):
    """argparse type: convert(text) if ok accepts it; else a flag error (exit 2)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


def _int_at_least(low: int):
    return _checked(int, lambda v: v >= low, f"an integer >= {low}")


_fraction = _checked(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model-dir", required=True, help="checkpoint directory with vocab.txt")
    p.add_argument("--output-dir", help="where to write the pruned model (overrides general config)")
    p.add_argument("--general-config", help="general config JSON (device, output_dir)")
    p.add_argument("--report-json", help="also write the prune report to this path")


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", help="TSV (labeled) or plain text (unlabeled) file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--labeled", action="store_true", default=True,
                       help="dataset rows are label<TAB>text (default)")
    group.add_argument("--unlabeled", dest="labeled", action="store_false",
                       help="dataset rows are raw text")
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="subsampling seed")
    p.add_argument("--subsample", type=_fraction, default=1.0, help="fraction of examples to keep")
    p.add_argument("--batch-size", type=_int_at_least(1), default=8)
    p.add_argument("--max-len", type=_int_at_least(2),
                   help="max sequence length (default: model limit, capped at 128)")


def _add_vocab_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True, help="one document per line")
    p.add_argument("--vocab-config", help="vocabulary pruning config JSON")
    p.add_argument("--pre-tokenized", action="store_true",
                   help="corpus is whitespace-separated vocabulary tokens")


def _add_transformer_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--transformer-config", required=True, help="transformer pruning config JSON")
    p.add_argument("--mask-json", help="externally supplied pruning mask (method 'mask')")
    p.add_argument("--scores-json", help="write final-iteration importance scores here")
    p.add_argument("--threads", type=_int_at_least(1), default=1, help="scoring threads")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prunekit", description="Structured pruning for transformer encoder checkpoints")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prune-vocab", help="drop rare vocabulary entries and their embeddings")
    _add_common(p)
    _add_vocab_args(p)
    p.set_defaults(func=_cmd_prune_vocab)

    p = sub.add_parser("prune-transformer", help="prune attention heads and FFN neurons")
    _add_common(p)
    _add_dataset_args(p)
    _add_transformer_args(p)
    p.set_defaults(func=_cmd_prune_transformer)

    p = sub.add_parser("prune-pipeline", help="transformer pruning then vocabulary pruning")
    _add_common(p)
    _add_dataset_args(p)
    _add_vocab_args(p)
    _add_transformer_args(p)
    p.set_defaults(func=_cmd_prune_pipeline)

    p = sub.add_parser("summary", help="print the parameter table of a checkpoint")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--reference-dir", help="print sizes as percentages of this checkpoint")
    p.set_defaults(func=_cmd_summary)

    p = sub.add_parser("bench", help="measure forward-pass latency")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--reference-dir", help="also time this checkpoint and print the speedup")
    p.add_argument("--batch-size", type=_int_at_least(1), default=8)
    p.add_argument("--seq-len", type=_int_at_least(1), default=64)
    p.add_argument("--warmup", type=_int_at_least(0), default=1)
    p.add_argument("--rounds", type=_int_at_least(1), default=5)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_bench)

    # defaults live in FixtureSpec: a flag that is not given sets nothing
    p = sub.add_parser("make-fixture", help="generate a random model, vocab, corpus and dataset",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    p.add_argument("--layers", dest="num_layers", type=int)
    p.add_argument("--hidden", dest="hidden_size", type=int)
    p.add_argument("--heads", dest="num_heads", type=int)
    p.add_argument("--ffn", dest="ffn_size", type=int)
    p.add_argument("--vocab-size", type=int)
    p.add_argument("--max-seq-len", type=int)
    p.add_argument("--labels", dest="num_labels", type=int)
    p.add_argument("--lm-head", dest="has_lm_head", action="store_true")
    p.add_argument("--seed", type=_int_at_least(0))
    p.add_argument("--corpus-lines", type=int)
    p.add_argument("--dataset-rows", type=int)
    p.set_defaults(func=_cmd_make_fixture)
    return parser


def _load_model_dir(path: str):
    model_dir = Path(path)
    if not (model_dir / "config.json").exists():
        raise ConfigError(f"{model_dir} is not a model directory (no config.json)")
    if not (model_dir / "vocab.txt").exists():
        raise ConfigError(f"{model_dir} has no vocab.txt")
    return load_model(model_dir), Vocabulary.from_file(model_dir / "vocab.txt")


def _config(path: str | None, cls):
    """The config in path, or cls's defaults when no file is given."""
    return load_config(path, cls) if path else cls()


def _general_config(args) -> GeneralConfig:
    cfg = _config(args.general_config, GeneralConfig)
    if args.output_dir:
        cfg = dataclasses.replace(cfg, output_dir=args.output_dir)
    return cfg


def _prune_inputs(args, model, vocab):
    """The transformer config, the mask and the dataset of a transformer prune."""
    tcfg = load_config(args.transformer_config, TransformerPruningConfig)
    mask = PruningMask.from_dict(read_json(args.mask_json)) if args.mask_json else None
    dataset = None
    if args.dataset:
        max_len = args.max_len or min(model.config.max_seq_len, 128)
        dataset = load_dataset(args.dataset, vocab, batch_size=args.batch_size,
                               max_len=max_len, labeled=args.labeled,
                               subsample=args.subsample, seed=args.seed)
    elif tcfg.pruning_method == "iterative":
        raise ConfigError("iterative pruning requires --dataset")
    return tcfg, mask, dataset


def _progress(iteration: int, total: int, heads: int, ffn: int) -> None:
    print(f"iteration {iteration}/{total}: pruned {heads} heads, {ffn} ffn neurons",
          file=sys.stderr)


def _finish(args, output_dir: str, model, vocab, report: PruneReport) -> int:
    """Save the pruned model, then print what the report says was pruned."""
    save_pruned_outputs(output_dir, model, vocab, report)
    if report.method != "vocabulary":
        print(f"heads per layer: {report.final_num_heads}")
        print(f"ffn width per layer: {report.final_ffn_size}")
    if report.vocabulary is not None:
        print(f"vocabulary: {report.vocabulary['initial_size']} -> "
              f"{report.vocabulary['final_size']} tokens")
    if args.report_json:
        report.save(args.report_json)
    if getattr(args, "scores_json", None):
        if report.last_scores is None:
            print("note: no scores were computed, skipping --scores-json", file=sys.stderr)
        else:
            Path(args.scores_json).write_text(
                json.dumps(report.last_scores.to_dict(), indent=2) + "\n")
    before = report.initial_parameters["total"]
    after = report.final_parameters["total"]
    print(f"pruned model written to {output_dir}")
    print(f"parameters: {before:,} -> {after:,} ({100.0 * after / before:.1f}%)")
    return 0


def _cmd_prune_vocab(args) -> int:
    general = _general_config(args)
    model, vocab = _load_model_dir(args.model_dir)
    vcfg = _config(args.vocab_config, VocabularyPruningConfig)
    start = time.perf_counter()
    initial = count_parameters(model)
    model, vocab, vreport = vocabulary_prune(model, vocab, args.corpus, vcfg,
                                             pre_tokenized=args.pre_tokenized)
    heads, ffn = list(model.config.num_heads), list(model.config.ffn_size)
    report = PruneReport(
        method="vocabulary", initial_parameters=initial,
        final_parameters=count_parameters(model), original_num_heads=heads,
        original_ffn_size=ffn, final_num_heads=heads, final_ffn_size=ffn, iterations=[],
        mask=None, elapsed_seconds=time.perf_counter() - start, vocabulary=vreport)
    return _finish(args, general.output_dir, model, vocab, report)


def _cmd_prune_transformer(args) -> int:
    general = _general_config(args)
    model, vocab = _load_model_dir(args.model_dir)
    tcfg, mask, dataset = _prune_inputs(args, model, vocab)
    report = transformer_prune(model, dataset, tcfg, mask=mask,
                               threads=args.threads, progress=_progress)
    return _finish(args, general.output_dir, model, vocab, report)


def _cmd_prune_pipeline(args) -> int:
    general = _general_config(args)
    model, vocab = _load_model_dir(args.model_dir)
    vcfg = _config(args.vocab_config, VocabularyPruningConfig)
    tcfg, mask, dataset = _prune_inputs(args, model, vocab)
    model, vocab, report = pipeline_prune(
        model, vocab, args.corpus, dataset, general, vcfg, tcfg, mask=mask,
        threads=args.threads, progress=_progress, pre_tokenized=args.pre_tokenized,
        save=False)
    return _finish(args, general.output_dir, model, vocab, report)


def _cmd_summary(args) -> int:
    model, _ = _load_model_dir(args.model_dir)
    reference = None
    if args.reference_dir:
        reference, _ = _load_model_dir(args.reference_dir)
    print(summary(model, reference))
    return 0


def _cmd_bench(args) -> int:
    model, _ = _load_model_dir(args.model_dir)
    result = inference_time(model, args.batch_size, args.seq_len,
                            warmup_rounds=args.warmup, measure_rounds=args.rounds,
                            seed=args.seed)
    print(f"batch {args.batch_size} x seq {args.seq_len}: "
          f"mean {result.mean:.4f}s  std {result.std:.4f}s  median {result.median:.4f}s")
    if args.reference_dir:
        ref_model, _ = _load_model_dir(args.reference_dir)
        ref = inference_time(ref_model, args.batch_size, args.seq_len,
                             warmup_rounds=args.warmup, measure_rounds=args.rounds,
                             seed=args.seed)
        print(f"reference: mean {ref.mean:.4f}s  median {ref.median:.4f}s")
        print(f"speedup: {ref.median / result.median:.2f}x")
    return 0


def _cmd_make_fixture(args) -> int:
    given = vars(args)
    spec = FixtureSpec(**{f.name: given[f.name] for f in dataclasses.fields(FixtureSpec)
                          if f.name in given})
    paths = make_fixture(args.out, spec)
    for key, path in paths.items():
        print(f"{key}: {path}")
    return 0


def run_cli(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(_resolve_mode_alias(list(argv)))
        return args.func(args)
    except SystemExit as exc:  # argparse has already printed its message
        return int(exc.code or 0)
    except (PrunekitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
