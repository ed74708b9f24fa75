"""Engine behavior: schedules, selection oracles (including a brute-force
check of the multiple_of allocator), iterative/mask/vocabulary/pipeline
pruning, and atomic output saving."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from conftest import gates_from_drops, toy
from prunekit.checkpoint import load_model
from prunekit.configs import (GeneralConfig, TransformerPruningConfig,
                              VocabularyPruningConfig)
from prunekit.data import load_dataset
from prunekit.engine import (PruneReport, PruningMask, _apply_mask_delta,
                             _quota_schedules, front_load, pipeline_prune,
                             save_pruned_outputs, select_targets,
                             transformer_prune, vocabulary_prune)
from prunekit.errors import ConfigError, ContractError, ShapeError
from prunekit.fixtures import build_corpus_lines, build_dataset_rows
from prunekit.model import count_parameters, lm_forward, named_tensors, task_forward
from prunekit.scoring import LossSpec, ScoreTable, compute_scores
from prunekit.vocab import Vocabulary, tokenize


def tiny_dataset(tmp_path, vocab, spec, *, rows=8, batch_size=4, max_len=16,
                 labeled=True):
    path = tmp_path / ("d.tsv" if labeled else "d.txt")
    if labeled:
        path.write_text("".join(r + "\n" for r in build_dataset_rows(spec)[:rows]))
    else:
        path.write_text("".join(l + "\n" for l in build_corpus_lines(spec)[:rows]))
    return load_dataset(path, vocab, batch_size=batch_size, max_len=max_len,
                        labeled=labeled)


def table(head_scores, ffn_scores):
    return ScoreTable(head_scores=[np.asarray(s, dtype=np.float64) for s in head_scores],
                      ffn_scores=[np.asarray(s, dtype=np.float64) for s in ffn_scores],
                      loss_kind="cross_entropy", granularity="batch",
                      num_examples=1, units_averaged=1)


def cfg(**kw):
    base = dict(target_num_of_heads=1, target_ffn_size=1)
    base.update(kw)
    return TransformerPruningConfig(**base)


class TestFrontLoad:
    @pytest.mark.parametrize("total,parts,expect", [
        (7, 3, [3, 2, 2]), (6, 3, [2, 2, 2]), (0, 4, [0, 0, 0, 0]),
        (5, 1, [5]), (2, 5, [1, 1, 0, 0, 0]),
    ])
    def test_oracles(self, total, parts, expect):
        assert front_load(total, parts) == expect

    def test_properties(self):
        for total in range(0, 40):
            for parts in range(1, 9):
                out = front_load(total, parts)
                assert sum(out) == total and len(out) == parts
                assert out == sorted(out, reverse=True)
                assert max(out) - min(out) <= 1

    def test_validation(self):
        with pytest.raises(ContractError):
            front_load(-1, 2)
        with pytest.raises(ContractError):
            front_load(3, 0)


class TestSelectTargets:
    def test_per_layer_drops_lowest(self):
        mask = PruningMask.all_keep([4, 4], [4, 4])
        t = table([[0.3, 0.1, 0.4, 0.2], [0.5, 0.6, 0.05, 0.7]],
                  [[1, 2, 3, 4], [4, 3, 2, 1]])
        # int quotas are global budgets: 4 drops split evenly -> 2 per layer
        new = select_targets(t, mask, 4, 4, cfg(head_even_masking=True,
                                                ffn_even_masking=True))
        assert new.head_keep[0].tolist() == [True, False, True, False]
        assert new.head_keep[1].tolist() == [False, True, False, True]
        assert new.ffn_keep[0].tolist() == [False, False, True, True]
        assert new.ffn_keep[1].tolist() == [True, True, False, False]
        # input mask untouched
        assert all(k.all() for k in mask.head_keep)

    def test_tie_break_lower_index_first(self):
        mask = PruningMask.all_keep([4], [4])
        t = table([[0.5, 0.5, 0.5, 0.5]], [[1.0, 0.2, 0.2, 0.2]])
        new = select_targets(t, mask, [2], [2], cfg())
        assert new.head_keep[0].tolist() == [False, False, True, True]
        assert new.ffn_keep[0].tolist() == [True, False, False, True]

    def test_global_quota_crosses_layers(self):
        mask = PruningMask.all_keep([3, 3], [3, 3])
        t = table([[0.1, 0.2, 0.9], [0.8, 0.85, 0.95]],
                  [[0.5, 0.6, 0.7], [0.01, 0.02, 0.9]])
        new = select_targets(t, mask, 2, 2,
                             cfg(head_even_masking=False, ffn_even_masking=False))
        # both head drops come from layer 0, both ffn drops from layer 1
        assert new.head_keep[0].tolist() == [False, False, True]
        assert new.head_keep[1].tolist() == [True, True, True]
        assert new.ffn_keep[0].tolist() == [True, True, True]
        assert new.ffn_keep[1].tolist() == [False, False, True]

    def test_scores_indexed_against_kept_units(self):
        # layer already lost unit 1; scores arrive at the current width
        mask = PruningMask.all_keep([4], [4])
        mask.head_keep[0][1] = False
        mask.ffn_keep[0][2] = False
        t = table([[0.9, 0.1, 0.8]], [[0.7, 0.6, 0.05]])
        new = select_targets(t, mask, [1], [1], cfg())
        # lowest kept head score 0.1 sits at original index 2 (kept: 0,2,3)
        assert new.head_keep[0].tolist() == [True, False, False, True]
        # lowest kept neuron score 0.05 is original index 3 (kept: 0,1,3)
        assert new.ffn_keep[0].tolist() == [True, True, False, False]

    def test_global_head_ties_across_layers_drop_lower_layer_first(self):
        # every layer scores [0.3, 0.1, 0.2, 0.1]: the four 0.1s tie across
        # layers and within them; layer 0 gives up its two, then layer 1
        mask = PruningMask.all_keep([4, 4, 4], [1, 1, 1])
        t = table([[0.3, 0.1, 0.2, 0.1]] * 3, [[1.0]] * 3)
        new = select_targets(t, mask, 4, [0, 0, 0], cfg(head_even_masking=False))
        assert [k.tolist() for k in new.head_keep] == [[True, False, True, False],
                                                       [True, False, True, False],
                                                       [True, True, True, True]]

    def test_global_ffn_block_ties_across_layers_drop_lower_layer_first(self):
        # m = 4: each layer's blocks sum to 10 and 4, identical across layers;
        # keeping 8 units keeps the tied 10-blocks of the two higher layers
        mask = PruningMask.all_keep([1, 1, 1], [8, 8, 8])
        t = table([[1.0]] * 3, [[3, 1, 2, 1, 3, 1, 2, 1]] * 3)
        new = select_targets(t, mask, [0, 0, 0], 16,
                             cfg(ffn_even_masking=False, multiple_of=4))
        assert [k.tolist() for k in new.ffn_keep] == [[False] * 8,
                                                      [True, False] * 4,
                                                      [True, False] * 4]

    def test_global_head_quota_matches_sort_oracle(self):
        rng = np.random.default_rng(3)
        pools = [lambda: rng.random(3), lambda: np.array([0.0, -0.0, 1e-17]),
                 lambda: rng.random(64)]
        for trial in range(300):
            L = int(rng.integers(1, 5))
            mask = PruningMask.all_keep([int(rng.integers(0, 7)) for _ in range(L)], [1] * L)
            for k in mask.head_keep:
                k[rng.random(k.size) < 0.3] = False
            kepts = [np.flatnonzero(k) for k in mask.head_keep]
            pool = pools[trial % len(pools)]()
            scores = [rng.choice(pool, size=kept.size) for kept in kepts]
            quota = int(rng.integers(0, sum(k.size for k in kepts) + 1))
            new = select_targets(table(scores, [[1.0]] * L), mask, quota, [0] * L,
                                 cfg(head_even_masking=False))
            # oracle: drop the quota lowest units by (score, layer, original index)
            cands = sorted((float(scores[l][j]), l, int(kept[j]))
                           for l, kept in enumerate(kepts) for j in range(kept.size))
            expect = [k.copy() for k in mask.head_keep]
            for _, l, orig in cands[:quota]:
                expect[l][orig] = False
            assert [k.tolist() for k in new.head_keep] == [k.tolist() for k in expect], \
                f"trial {trial}"

    def test_multiple_of_matches_brute_force(self):
        rng = np.random.default_rng(11)
        m = 2
        for trial in range(30):
            widths = [int(rng.integers(2, 7)) for _ in range(3)]
            scores = [rng.random(w) for w in widths]
            total = sum(widths)
            feasible_total = sum(m * (w // m) for w in widths)
            targets = [t for t in range(m, feasible_total + 1, m) if t <= total]
            if not targets:
                continue
            target_total = int(rng.choice(targets))
            mask = PruningMask.all_keep([1] * 3, widths)
            c = cfg(ffn_even_masking=False, multiple_of=m)
            new = select_targets(table([[1.0]] * 3, scores), mask,
                                 [0, 0, 0], total - target_total, c)
            kept_mass = sum(scores[l][new.ffn_keep[l]].sum() for l in range(3))
            # brute force over all per-layer multiples of m
            best = -1.0
            choices = [range(0, m * (w // m) + 1, m) for w in widths]
            for alloc in itertools.product(*choices):
                if sum(alloc) != target_total:
                    continue
                mass = sum(np.sort(scores[l])[::-1][:alloc[l]].sum() for l in range(3))
                best = max(best, mass)
            assert best >= 0.0, "trial generated no feasible allocation"
            assert abs(kept_mass - best) < 1e-9, f"trial {trial}"
            for l in range(3):
                assert int(new.ffn_keep[l].sum()) % m == 0

    def test_validation(self):
        mask = PruningMask.all_keep([4], [4])
        good = table([[1, 2, 3, 4]], [[1, 2, 3, 4]])
        with pytest.raises(ShapeError):
            select_targets(table([[1, 2, 3]], [[1, 2, 3, 4]]), mask, [1], [1], cfg())
        with pytest.raises(ShapeError):
            select_targets(good, PruningMask.all_keep([4, 4], [4, 4]), [1, 1], [1, 1], cfg())
        with pytest.raises(ConfigError):
            select_targets(good, mask, [5], [0], cfg())
        mask2 = PruningMask.all_keep([4, 4], [4, 4])
        t2 = table([[1, 2, 3, 4]] * 2, [[1, 2, 3, 4]] * 2)
        with pytest.raises(ConfigError, match="divisible"):
            select_targets(t2, mask2, 3, 0, cfg(head_even_masking=True))
        with pytest.raises(ConfigError, match="multiple"):
            select_targets(t2, mask2, [0, 0], 3,
                           cfg(ffn_even_masking=False, multiple_of=2))
        # feasibility: widths [3, 3, 3, 3] cannot keep 8 in multiples of 4
        mask3 = PruningMask.all_keep([1] * 4, [3] * 4)
        t3 = table([[1.0]] * 4, [[1, 2, 3]] * 4)
        with pytest.raises(ConfigError, match="multiples"):
            select_targets(t3, mask3, [0] * 4, 4,
                           cfg(ffn_even_masking=False, multiple_of=4))

    @pytest.mark.parametrize("heads,ffn,what,given", [
        ([1], [0, 0], "head", 1), ([1, 1, 1], [0, 0], "head", 3),
        ([0, 0], [1], "ffn", 1), ([0, 0], [1, 1, 1], "ffn", 3),
    ])
    def test_sequence_quota_length_must_match_layers(self, heads, ffn, what, given):
        mask = PruningMask.all_keep([4, 4], [4, 4])
        t = table([[1, 2, 3, 4]] * 2, [[1, 2, 3, 4]] * 2)
        with pytest.raises(ConfigError, match=f"{what} quota lists {given} layers, "
                                              f"the model has 2"):
            select_targets(t, mask, heads, ffn, cfg())


class TestQuotaSchedules:
    def test_even_homogeneous(self):
        c = cfg(target_num_of_heads=6, n_iters=4)
        assert _quota_schedules(c, [12, 12], "head") == \
            [[2, 2], [2, 2], [1, 1], [1, 1]]

    def test_even_heterogeneous_widths(self):
        c = cfg(target_num_of_heads=2, n_iters=3)
        assert _quota_schedules(c, [8, 4], "head") == [[2, 1], [2, 1], [2, 0]]

    def test_uneven_global(self):
        c = cfg(target_num_of_heads=4, head_even_masking=False, n_iters=2)
        assert _quota_schedules(c, [8, 4], "head") == [2, 2]

    def test_multiple_of_blocks_with_remainder_in_first(self):
        c = cfg(target_ffn_size=4, ffn_even_masking=False, multiple_of=4, n_iters=2)
        sched = _quota_schedules(c, [12, 6], "ffn")
        assert sched == [6, 4]
        # every intermediate kept total stays a multiple of 4
        total = 18
        for q in sched:
            total -= q
            assert total % 4 == 0
        assert total == 8

    def test_target_above_width_rejected(self):
        with pytest.raises(ConfigError, match="exceeds"):
            _quota_schedules(cfg(target_num_of_heads=5), [4, 8], "head")
        with pytest.raises(ConfigError, match="exceeds"):
            _quota_schedules(cfg(target_num_of_heads=5, head_even_masking=False),
                             [4, 4], "head")

    def test_multiple_of_goal_must_divide(self):
        c = cfg(target_ffn_size=3, ffn_even_masking=False, multiple_of=4)
        with pytest.raises(ConfigError, match="multiple_of"):
            _quota_schedules(c, [8, 8], "ffn")


class TestTransformerPruneIterative:
    @pytest.mark.parametrize("n_iters", [1, 2, 3])
    def test_reaches_even_targets(self, tmp_path, n_iters):
        model, vocab, spec = toy()
        ds = tiny_dataset(tmp_path, vocab, spec)
        c = cfg(target_num_of_heads=2, target_ffn_size=32, n_iters=n_iters)
        report = transformer_prune(model, ds, c)
        assert model.config.num_heads == [2, 2]
        assert model.config.ffn_size == [32, 32]
        assert report.final_num_heads == [2, 2]
        assert report.final_ffn_size == [32, 32]
        assert report.mask.kept_heads() == [2, 2]
        assert report.mask.kept_ffn() == [32, 32]
        assert len(report.iterations) == n_iters
        assert report.final_parameters == count_parameters(model)
        assert report.final_parameters["total"] < report.initial_parameters["total"]

    def test_iteration_quotas_followed_exactly(self, tmp_path):
        model, vocab, spec = toy()
        ds = tiny_dataset(tmp_path, vocab, spec)
        c = cfg(target_num_of_heads=2, target_ffn_size=32, n_iters=3)
        report = transformer_prune(model, ds, c)
        heads_per_iter = [len(it["heads_pruned"]) for it in report.iterations]
        ffn_per_iter = [len(it["ffn_pruned"]) for it in report.iterations]
        assert heads_per_iter == [2, 2, 0]       # per layer: [1, 1, 0]
        assert ffn_per_iter == [22, 22, 20]      # per layer: [11, 11, 10]

    def test_dropped_units_disjoint_across_iterations(self, tmp_path):
        model, vocab, spec = toy()
        ds = tiny_dataset(tmp_path, vocab, spec)
        c = cfg(target_num_of_heads=1, target_ffn_size=16, n_iters=4)
        report = transformer_prune(model, ds, c)
        seen_heads, seen_ffn = set(), set()
        for it in report.iterations:
            for l, i in it["heads_pruned"]:
                assert (l, i) not in seen_heads
                seen_heads.add((l, i))
            for l, i in it["ffn_pruned"]:
                assert (l, i) not in seen_ffn
                seen_ffn.add((l, i))
        assert len(seen_heads) == 2 * 3 and len(seen_ffn) == 2 * 48
        # dropped indices refer to original widths
        for l, i in seen_ffn:
            assert 0 <= i < 64

    def test_zero_quota_iterations_do_nothing(self, tmp_path):
        model, vocab, spec = toy()
        before = {n: t.data.copy() for n, t in named_tensors(model)}
        ds = tiny_dataset(tmp_path, vocab, spec)
        c = cfg(target_num_of_heads=4, target_ffn_size=64, n_iters=2)
        report = transformer_prune(model, ds, c)
        assert [it["heads_pruned"] for it in report.iterations] == [[], []]
        assert [it["ffn_pruned"] for it in report.iterations] == [[], []]
        for n, t in named_tensors(model):
            np.testing.assert_array_equal(t.data, before[n])

    def test_deterministic(self, tmp_path):
        outs = []
        for _ in range(2):
            model, vocab, spec = toy(seed=5)
            ds = tiny_dataset(tmp_path, vocab, spec)
            report = transformer_prune(model, ds, cfg(target_num_of_heads=2,
                                                      target_ffn_size=24, n_iters=2))
            outs.append((report.mask.to_dict(),
                         {n: t.data.copy() for n, t in named_tensors(model)}))
        assert outs[0][0] == outs[1][0]
        for n in outs[0][1]:
            np.testing.assert_array_equal(outs[0][1][n], outs[1][1][n])

    def test_uneven_head_budget(self, tmp_path):
        model, vocab, spec = toy()
        ds = tiny_dataset(tmp_path, vocab, spec)
        c = cfg(target_num_of_heads=2, target_ffn_size=32,
                head_even_masking=False)
        transformer_prune(model, ds, c)
        assert sum(model.config.num_heads) == 4
        assert model.config.ffn_size == [32, 32]

    def test_multiple_of_intermediate_and_final_totals(self, tmp_path):
        model, vocab, spec = toy()
        ds = tiny_dataset(tmp_path, vocab, spec)
        c = cfg(target_num_of_heads=2, target_ffn_size=32,
                ffn_even_masking=False, multiple_of=8, n_iters=2)
        report = transformer_prune(model, ds, c)
        assert sum(model.config.ffn_size) == 64
        assert all(f % 8 == 0 for f in model.config.ffn_size)
        kept = 128
        for it in report.iterations:
            kept -= len(it["ffn_pruned"])
            assert kept % 8 == 0

    def test_self_supervised_on_unlabeled_data(self, tmp_path):
        model, vocab, spec = toy()
        ds = tiny_dataset(tmp_path, vocab, spec, labeled=False)
        c = cfg(target_num_of_heads=2, target_ffn_size=32, n_iters=2,
                use_logits=True)
        report = transformer_prune(model, ds, c)
        assert model.config.num_heads == [2, 2]
        assert report.config["use_logits"] is True

    def test_kl_prune_runs_no_untaped_forward(self, tmp_path, monkeypatch):
        # the first scoring pass is its own KL reference; every iteration
        # after it scores against the logits of the model as it entered
        import prunekit.engine as engine
        import prunekit.scoring as scoring
        model, vocab, spec = toy()
        ds = tiny_dataset(tmp_path, vocab, spec, labeled=False)
        entry_reference = scoring.reference_logits(model.clone(), ds)
        forwards = {"untaped": 0, "taped": 0}
        real_forward = scoring.task_forward

        def counting_forward(model, token_ids, head_gates=None, ffn_gates=None, tape=None):
            forwards["untaped" if tape is None else "taped"] += 1
            return real_forward(model, token_ids, head_gates, ffn_gates, tape)

        specs = []
        real_scores = engine.compute_scores

        def recording_scores(model, dataset, loss_spec, **kw):
            specs.append(loss_spec.reference_logits)
            return real_scores(model, dataset, loss_spec, **kw)

        monkeypatch.setattr(scoring, "task_forward", counting_forward)
        monkeypatch.setattr(engine, "compute_scores", recording_scores)
        transformer_prune(model, ds, cfg(target_num_of_heads=2, target_ffn_size=32,
                                         n_iters=3, use_logits=True))
        assert forwards == {"untaped": 0, "taped": 3 * len(ds)}
        assert specs[0] is None
        for later in specs[1:]:
            assert [r.tobytes() for r in later] == [r.tobytes() for r in entry_reference]

    def test_supervised_needs_labels(self, tmp_path):
        model, vocab, spec = toy()
        ds = tiny_dataset(tmp_path, vocab, spec, labeled=False)
        with pytest.raises(ContractError):
            transformer_prune(model, ds, cfg(target_num_of_heads=2, target_ffn_size=32))

    def test_missing_dataset_rejected(self):
        model, _, _ = toy()
        with pytest.raises(ContractError):
            transformer_prune(model, None, cfg(target_num_of_heads=2, target_ffn_size=32))

    def test_infeasible_target_rejected(self, tmp_path):
        model, vocab, spec = toy()
        ds = tiny_dataset(tmp_path, vocab, spec)
        with pytest.raises(ConfigError):
            transformer_prune(model, ds, cfg(target_num_of_heads=8, target_ffn_size=32))


class TestTransformerPruneMask:
    def test_all_keep_is_noop(self):
        model, _, _ = toy()
        before = {n: t.data.copy() for n, t in named_tensors(model)}
        mask = PruningMask.from_model(model)
        report = transformer_prune(model, None, cfg(pruning_method="mask"), mask=mask)
        assert report.iterations == [{"iteration": 1, "heads_pruned": [], "ffn_pruned": []}]
        for n, t in named_tensors(model):
            np.testing.assert_array_equal(t.data, before[n])

    def test_surgery_matches_gating(self):
        model, vocab, spec = toy(seed=7)
        reference = model.clone()
        head_drops = {0: [1, 3], 1: [0]}
        ffn_drops = {0: list(range(0, 64, 2)), 1: [5, 6, 7]}
        mask = PruningMask.from_model(model)
        for l, idx in head_drops.items():
            mask.head_keep[l][idx] = False
        for l, idx in ffn_drops.items():
            mask.ffn_keep[l][idx] = False
        transformer_prune(model, None, cfg(pruning_method="mask"), mask=mask)
        assert model.config.num_heads == [2, 3]
        assert model.config.ffn_size == [32, 61]

        rng = np.random.default_rng(0)
        ids = rng.integers(0, spec.vocab_size, size=(3, 10))
        pruned = task_forward(model, ids).data
        hg, fg = gates_from_drops(reference, head_drops, ffn_drops)
        gated = task_forward(reference, ids, hg, fg).data
        assert np.abs(pruned - gated).max() <= 1e-8

    def test_mask_validation(self):
        model, _, _ = toy()
        with pytest.raises(ConfigError):
            transformer_prune(model, None, cfg(pruning_method="mask"))
        bad = PruningMask.all_keep([4], [64])
        with pytest.raises(ShapeError):
            transformer_prune(model, None, cfg(pruning_method="mask"), mask=bad)
        bad2 = PruningMask.all_keep([4, 4], [64, 32])
        with pytest.raises(ShapeError):
            transformer_prune(model, None, cfg(pruning_method="mask"), mask=bad2)

    def test_mask_with_iterative_method_rejected(self, tmp_path):
        model, vocab, spec = toy()
        ds = tiny_dataset(tmp_path, vocab, spec)
        before = {n: t.data.copy() for n, t in named_tensors(model)}
        with pytest.raises(ConfigError, match="pruning_method 'mask'"):
            transformer_prune(model, ds, cfg(target_num_of_heads=2, target_ffn_size=32),
                              mask=PruningMask.from_model(model))
        for n, t in named_tensors(model):
            np.testing.assert_array_equal(t.data, before[n])

    def test_mask_monotonicity_enforced(self):
        model, _, _ = toy()
        old = PruningMask.from_model(model)
        old.head_keep[0][0] = False
        new = PruningMask.from_model(model)  # resurrects head (0, 0)
        with pytest.raises(ContractError, match="grow"):
            _apply_mask_delta(model, old, new)

    def test_mask_dict_roundtrip(self):
        mask = PruningMask.all_keep([4, 4], [8, 8])
        mask.head_keep[0][2] = False
        mask.ffn_keep[1][[1, 3]] = False
        back = PruningMask.from_dict(mask.to_dict())
        for a, b in zip(mask.head_keep + mask.ffn_keep, back.head_keep + back.ffn_keep):
            np.testing.assert_array_equal(a, b)
        with pytest.raises(ConfigError):
            PruningMask.from_dict({"head_keep": [[True]]})


class TestVocabularyPrune:
    def corpus(self, tmp_path, text):
        path = tmp_path / "corpus.txt"
        path.write_text(text)
        return path

    def test_min_count_threshold(self, tmp_path):
        model, vocab, spec = toy()
        path = self.corpus(tmp_path, "the cat the dog\nthe cat\n")
        new_model, new_vocab, report = vocabulary_prune(
            model, vocab, path, VocabularyPruningConfig(min_count=2))
        survivors = set(new_vocab.tokens)
        assert {"[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "the", "cat"} == survivors
        assert new_model.config.vocab_size == len(new_vocab) == 7
        assert report["final_size"] == 7
        assert report["dropped"] == spec.vocab_size - 7
        assert count_parameters(new_model)["total"] > 0

    def test_min_count_one_keeps_all_corpus_tokens(self, tmp_path):
        model, vocab, spec = toy()
        path = self.corpus(tmp_path, "the cat sat\nunbreakable dog\n")
        _, new_vocab, _ = vocabulary_prune(model, vocab, path,
                                           VocabularyPruningConfig(min_count=1))
        for tok in ["the", "cat", "sat", "dog", "un", "##break", "##able"]:
            assert tok in new_vocab.tokens

    def test_surviving_token_logits_unchanged(self, tmp_path):
        model, vocab, spec = toy(has_lm_head=True)
        reference = model.clone()
        sentence = "the cat sat on the mat"
        path = self.corpus(tmp_path, sentence + "\ndog ran fast\n")
        _, new_vocab, _ = vocabulary_prune(model, vocab, path,
                                           VocabularyPruningConfig(min_count=1))
        old_ids = np.array([[vocab.cls_id, *tokenize(vocab, sentence), vocab.sep_id]])
        new_ids = np.array([[new_vocab.cls_id, *tokenize(new_vocab, sentence),
                             new_vocab.sep_id]])
        kept_old_ids = [vocab.id_of(t) for t in new_vocab.tokens]
        np.testing.assert_array_equal(task_forward(model, new_ids).data,
                                      task_forward(reference, old_ids).data)
        pruned_lm = lm_forward(model, new_ids).data
        full_lm = lm_forward(reference, old_ids).data
        assert np.abs(pruned_lm - full_lm[:, :, kept_old_ids]).max() <= 1e-10

    def test_untied_lm_head_exempt(self, tmp_path):
        model, vocab, spec = toy(has_lm_head=True, lm_head_tied=False)
        path = self.corpus(tmp_path, "the cat\n")
        new_model, new_vocab, _ = vocabulary_prune(
            model, vocab, path, VocabularyPruningConfig(prune_lm_head=False))
        assert new_model.config.vocab_size == len(new_vocab)
        assert new_model.config.lm_vocab_size == spec.vocab_size
        assert new_model.lm_head.shape[0] == spec.vocab_size
        assert lm_forward(new_model, np.array([[new_vocab.cls_id]])).shape[-1] == \
            spec.vocab_size

    def test_only_specials_warns(self, tmp_path):
        model, vocab, spec = toy()
        path = self.corpus(tmp_path, "qqqq zzzz\n")
        with pytest.warns(UserWarning, match="special"):
            _, new_vocab, _ = vocabulary_prune(
                model, vocab, path, VocabularyPruningConfig(min_count=99))
        assert list(new_vocab.tokens) == ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]


class TestPipelineAndSaving:
    def setup_inputs(self, tmp_path, **toy_kw):
        model, vocab, spec = toy(**toy_kw)
        ds = tiny_dataset(tmp_path, vocab, spec)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("".join(l + "\n" for l in build_corpus_lines(spec)))
        return model, vocab, spec, ds, corpus

    def test_end_to_end(self, tmp_path):
        model, vocab, spec, ds, corpus = self.setup_inputs(tmp_path)
        out = tmp_path / "out"
        general = GeneralConfig(output_dir=str(out))
        trm = cfg(target_num_of_heads=2, target_ffn_size=32, n_iters=2)
        model, vocab, report = pipeline_prune(
            model, vocab, corpus, ds, general, VocabularyPruningConfig(), trm)
        assert model.config.num_heads == [2, 2]
        assert report.vocabulary is not None
        assert report.final_parameters == count_parameters(model)
        for name in ["config.json", "weights.bin", "manifest.json",
                     "vocab.txt", "prune_report.json"]:
            assert (out / name).exists(), name
        loaded = load_model(out)
        np.testing.assert_array_equal(loaded.embedding.data, model.embedding.data)
        saved_vocab = Vocabulary.from_file(out / "vocab.txt")
        assert saved_vocab.tokens == vocab.tokens
        on_disk = json.loads((out / "prune_report.json").read_text())
        assert on_disk["final_num_heads"] == [2, 2]
        assert on_disk["vocabulary"]["final_size"] == len(vocab)

    def test_matches_constituent_stages(self, tmp_path):
        a, vocab_a, spec, ds, corpus = self.setup_inputs(tmp_path)
        b = a.clone()
        vocab_b = Vocabulary(list(vocab_a.tokens))
        trm = cfg(target_num_of_heads=2, target_ffn_size=32, n_iters=2)
        vcfg = VocabularyPruningConfig(min_count=1)
        a, vocab_a, _ = pipeline_prune(a, vocab_a, corpus, ds,
                                       GeneralConfig(output_dir=str(tmp_path / "o")),
                                       vcfg, trm, save=False)
        transformer_prune(b, ds, trm)
        b, vocab_b, _ = vocabulary_prune(b, vocab_b, corpus, vcfg)
        assert vocab_a.tokens == vocab_b.tokens
        for (na, ta), (nb, tb) in zip(named_tensors(a), named_tensors(b)):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_save_false_writes_nothing(self, tmp_path):
        model, vocab, spec, ds, corpus = self.setup_inputs(tmp_path)
        out = tmp_path / "never"
        pipeline_prune(model, vocab, corpus, ds, GeneralConfig(output_dir=str(out)),
                       VocabularyPruningConfig(), cfg(target_num_of_heads=2,
                                                      target_ffn_size=32), save=False)
        assert not out.exists()

    def test_rejects_unrunnable_device(self):
        # an unrunnable device never reaches pipeline_prune: the config rejects it
        with pytest.raises(ConfigError, match="cpu"):
            GeneralConfig(device="cuda")

    def test_save_refuses_nonempty_target(self, tmp_path):
        model, vocab, spec = toy()
        out = tmp_path / "occupied"
        out.mkdir()
        (out / "keep.txt").write_text("precious")
        report = transformer_prune(model, None, cfg(pruning_method="mask"),
                                   mask=PruningMask.from_model(model))
        with pytest.raises(ContractError):
            save_pruned_outputs(out, model, vocab, report)
        assert (out / "keep.txt").read_text() == "precious"
        assert not (out / "config.json").exists()

    def test_report_json_roundtrip(self, tmp_path):
        model, vocab, spec = toy()
        report = transformer_prune(model, None, cfg(pruning_method="mask"),
                                   mask=PruningMask.from_model(model))
        path = tmp_path / "r.json"
        report.save(path)
        data = json.loads(path.read_text())
        assert data["method"] == "mask"
        mask = PruningMask.from_dict(data["mask"])
        assert mask.kept_heads() == [4, 4]
        assert "last_scores" not in data
