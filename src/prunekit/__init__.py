"""prunekit: structured post-training pruning for transformer encoders."""

from .checkpoint import atomic_dir, load_model, save_model
from .configs import (GeneralConfig, TransformerPruningConfig, VocabularyPruningConfig,
                      config_to_dict, load_config)
from .data import Batch, Dataset, load_dataset
from .diagnostics import BenchResult, inference_time, summarize, summary
from .engine import (PruneReport, PruningMask, front_load, pipeline_prune,
                     save_pruned_outputs, select_targets, transformer_prune,
                     vocabulary_prune)
from .errors import (ConfigError, ContractError, CorruptionError, DataError,
                     InvalidIndexError, NumericError, PrunekitError, ShapeError,
                     VocabularyError)
from .experiments import subsample_score_stability
from .fixtures import FixtureSpec, build_model, build_vocab, make_fixture
from .model import (Attention, EncoderLayer, Model, ModelConfig, build_gates,
                    count_parameters, count_parameters_from_config, encoder_forward,
                    lm_forward, named_tensors, remove_ffn_neurons, remove_heads,
                    remove_vocab_rows, task_forward)
from .scoring import (LossSpec, ScoreTable, compute_scores, cross_entropy, kl_loss,
                      reference_logits)
from .tensor import Tape, Tensor, backward
from .vocab import (SPECIAL_TOKENS, Vocabulary, count_corpus_tokens, reindex,
                    tokenize)

__version__ = "0.1.0"
