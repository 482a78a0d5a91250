"""Self-training loop tests: determinism, degenerate gates, resume."""

import dataclasses
import gc
import hashlib
import json
import os
import re
import tempfile
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sciner
from sciner import dataset, selftrain, synth, tag_schema, tagger
from sciner.autoannotate import GateConfig, GateStats, annotate_corpus
from sciner.errors import FormatError
from sciner.selftrain import IterationRecord, LoopConfig, run_iteration, run_loop
from sciner.tagger import TrainConfig

from kernel_oracles import dense_weights


def with_gate_stats(**changes):
    """A corruption of an iteration record: its gate_stats with `changes`."""
    return lambda data: json.dumps({**data, "gate_stats": {**data["gate_stats"], **changes}})


def leaf_paths(obj, prefix=()):
    """The field path of every non-dataclass field of `obj`, depth first."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from leaf_paths(value, (*prefix, f.name))
        else:
            yield (*prefix, f.name)


def set_leaf(obj, path, value):
    name, *rest = path
    if rest:
        value = set_leaf(getattr(obj, name), rest, value)
    return replace(obj, **{name: value})


def get_leaf(obj, path):
    for name in path:
        obj = getattr(obj, name)
    return obj


STEP_SEEDS = {("step1", "seed"), ("step3", "seed")}

# a valid config that differs from LoopConfig() in every field but the step seeds
EVERY_FIELD_CHANGED = LoopConfig(
    iterations=3,
    step1=TrainConfig(epochs=7, learning_rate=0.5, batch_size=4),
    step3=TrainConfig(epochs=2, learning_rate=2.0, batch_size=16),
    gate=GateConfig(0.9),
    amb_policy="drop_paragraph",
    seed=11,
    hash_dim=1 << 12,
    carry_forward=True,
)


def small_corpus(seed=5):
    return synth.make_corpus(n_manual=40, n_auto=80, n_test=30, seed=seed)


def fast_config(**overrides):
    defaults = dict(
        iterations=2,
        step1=TrainConfig(epochs=8, learning_rate=16.0, batch_size=8),
        step3=TrainConfig(epochs=3, learning_rate=16.0, batch_size=8),
        gate=GateConfig(0.98),
        seed=13,
        hash_dim=1 << 14,
    )
    defaults.update(overrides)
    return LoopConfig(**defaults)


class TestLoopConfig:
    def test_paper_defaults(self):
        cfg = LoopConfig()
        assert cfg.iterations == 2
        assert (cfg.step1.epochs, cfg.step1.learning_rate, cfg.step1.batch_size) == (20, 1e-4, 8)
        assert (cfg.step3.epochs, cfg.step3.learning_rate, cfg.step3.batch_size) == (5, 1e-4, 8)
        assert cfg.gate.gamma == 0.98

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            LoopConfig(iterations=0)

    @pytest.mark.parametrize("dim", [0, -4, 1, 2**33])
    def test_hash_dim_outside_range_rejected(self, dim):
        with pytest.raises(ValueError, match=r"^hash dimension must lie in \[2, 2\*\*32\]$"):
            LoopConfig(hash_dim=dim)

    @pytest.mark.parametrize("dim", [2, 2**32])
    def test_hash_dim_range_is_inclusive(self, dim):
        assert LoopConfig(hash_dim=dim).hash_dim == dim

    def test_config_hash_stable_and_sensitive(self):
        assert fast_config().config_hash() == fast_config().config_hash()
        assert fast_config().config_hash() != fast_config(seed=14).config_hash()

    def test_config_hash_literals(self):
        # the hashes, and so the default run directory names, of earlier releases
        assert LoopConfig().config_hash() == "526372a798f6"
        assert EVERY_FIELD_CHANGED.config_hash() == "b988f0575303"

    def test_config_hash_covers_every_field(self):
        default = LoopConfig()
        hashes = {default.config_hash()}
        for path in set(leaf_paths(default)) - STEP_SEEDS:
            value = get_leaf(EVERY_FIELD_CHANGED, path)
            assert value != get_leaf(default, path), path
            changed = set_leaf(default, path, value)
            assert changed.config_hash() not in hashes, path
            hashes.add(changed.config_hash())

    def test_negative_seed_rejected(self):
        # np.random.SeedSequence would reject it only once training starts
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            LoopConfig(seed=-1)
        assert LoopConfig(seed=0).config_hash() == "526372a798f6"

    @pytest.mark.parametrize("step", ["step1", "step3"])
    def test_step_seed_rejected(self, step):
        # run_iteration draws each step's seed; one set here would only rename the run
        with pytest.raises(ValueError, match=rf"^{step}\.seed must be 0, got 5; "):
            LoopConfig(**{step: TrainConfig(epochs=20, learning_rate=1e-4, batch_size=8,
                                            seed=5)})


class TestRunIteration:
    def test_empty_manual_rejected(self):
        corpus = small_corpus()
        with pytest.raises(ValueError, match="manual"):
            run_iteration([], corpus.auto_inputs, fast_config())

    def test_returns_model_record_and_annotations(self):
        corpus = small_corpus()
        model, record, auto = run_iteration(
            corpus.manual, corpus.auto_inputs, fast_config(), iteration=1,
            test_set=corpus.test,
        )
        assert record.iteration == 1
        assert record.gate_stats.total_words == sum(len(p.words) for p in corpus.auto_inputs)
        assert len(auto) == len(corpus.auto_inputs)
        assert set(record.metrics) == {"step1", "step3"}
        assert model.epochs_run == 8 + 3

    def test_all_amb_gate_degrades_to_manual_training(self):
        corpus = small_corpus()
        # gamma=1.0 with a model whose probabilities are strictly below 1
        cfg = fast_config(
            gate=GateConfig(1.0),
            step1=TrainConfig(epochs=1, learning_rate=1e-4, batch_size=8),
            step3=TrainConfig(epochs=1, learning_rate=1e-4, batch_size=8),
        )
        model, record, auto = run_iteration(corpus.manual, corpus.auto_inputs, cfg)
        assert record.gate_stats.amb_fraction == 1.0
        assert record.warnings and "manual" in record.warnings[0]
        assert model is not None

    def test_identical_seeds_identical_records(self):
        corpus = small_corpus()
        cfg = fast_config()
        model_a, rec_a, auto_a = run_iteration(
            corpus.manual, corpus.auto_inputs, cfg, iteration=1, test_set=corpus.test
        )
        model_b, rec_b, auto_b = run_iteration(
            corpus.manual, corpus.auto_inputs, cfg, iteration=1, test_set=corpus.test
        )
        assert np.array_equal(dense_weights(model_a), dense_weights(model_b))
        assert rec_a.metrics == rec_b.metrics
        assert rec_a.gate_stats.to_dict() == rec_b.gate_stats.to_dict()
        assert [p.labels for p in auto_a] == [p.labels for p in auto_b]

    def test_step3_not_worse_than_step1_by_much(self):
        corpus = small_corpus(7)
        _, record, _ = run_iteration(
            corpus.manual, corpus.auto_inputs, fast_config(), test_set=corpus.test
        )
        f1_step1 = record.metrics["step1"]["span_f1"]
        f1_step3 = record.metrics["step3"]["span_f1"]
        assert f1_step3 >= f1_step1 - 0.02


    def test_drop_paragraph_trains_on_the_kept_rows(self):
        # step 3 takes the manual rows and the kept auto rows of the run's
        # tables: the same model as featurizing the merged examples anew
        corpus = small_corpus()
        cfg = fast_config(gate=GateConfig(0.8), amb_policy="drop_paragraph")
        model, _, auto = run_iteration(corpus.manual, corpus.auto_inputs, cfg)
        merged = dataset.merge_for_retraining(corpus.manual, auto, "drop_paragraph")
        assert len(corpus.manual) < len(merged) < len(corpus.manual) + len(auto)
        step1 = tagger.train(
            dataset.merge_for_retraining(corpus.manual, []),
            replace(cfg.step1, seed=selftrain._step_seed(cfg.seed, 1, 1)),
            hash_dim=cfg.hash_dim,
        )
        step3 = tagger.train(
            merged, replace(cfg.step3, seed=selftrain._step_seed(cfg.seed, 1, 3)), init=step1
        )
        assert np.array_equal(step3.rows, model.rows)
        assert np.array_equal(step3.values, model.values)


class TestRunLoop:
    def test_each_paragraph_featurized_once(self, monkeypatch):
        corpus = small_corpus()
        compiled = []
        real = tagger.featurize

        def counting(word_lists, dim):
            compiled.extend(tuple(words) for words in word_lists)
            return real(word_lists, dim)

        monkeypatch.setattr(tagger, "featurize", counting)
        records, _ = run_loop(
            corpus.manual, corpus.auto_inputs, fast_config(iterations=2), test_set=corpus.test
        )
        assert len(records) == 2
        slices = corpus.manual + corpus.auto_inputs + corpus.test
        assert sorted(compiled) == sorted(tuple(p.words) for p in slices)

    def test_single_iteration_single_record(self):
        corpus = small_corpus()
        records, model = run_loop(
            corpus.manual, corpus.auto_inputs, fast_config(iterations=1)
        )
        assert len(records) == 1
        assert model is not None

    def test_manual_labels_never_overwritten(self):
        corpus = small_corpus()
        before = [list(p.labels) for p in corpus.manual]
        run_loop(corpus.manual, corpus.auto_inputs, fast_config())
        assert [list(p.labels) for p in corpus.manual] == before

    def test_amb_fraction_does_not_grow_much(self):
        corpus = small_corpus(9)
        records, _ = run_loop(corpus.manual, corpus.auto_inputs, fast_config())
        amb = [r.gate_stats.amb_fraction for r in records]
        assert amb[1] <= amb[0] + 0.05

    def test_records_monotonically_indexed(self):
        corpus = small_corpus()
        records, _ = run_loop(corpus.manual, corpus.auto_inputs, fast_config(iterations=3))
        assert [r.iteration for r in records] == [1, 2, 3]

    def test_persistence_and_resume_equivalence(self, tmp_path):
        corpus = small_corpus(11)
        cfg = fast_config()
        full_dir = tmp_path / "full"
        records_full, model_full = run_loop(
            corpus.manual, corpus.auto_inputs, cfg, test_set=corpus.test,
            run_dir=full_dir,
        )

        # simulate an interrupted run: iteration 1 artifacts only
        resumed_dir = tmp_path / "resumed"
        run_loop(
            corpus.manual, corpus.auto_inputs,
            LoopConfig(**{**cfg.__dict__, "iterations": 1}),
            test_set=corpus.test, run_dir=resumed_dir,
        )
        assert (resumed_dir / "iteration_01.json").exists()
        assert not (resumed_dir / "iteration_02.json").exists()

        records_resumed, model_resumed = run_loop(
            corpus.manual, corpus.auto_inputs, cfg, test_set=corpus.test,
            run_dir=resumed_dir, resume=True,
        )
        assert len(records_resumed) == len(records_full) == 2
        for a, b in zip(records_full, records_resumed):
            assert a.metrics == b.metrics
            assert a.gate_stats.to_dict() == b.gate_stats.to_dict()
        assert np.array_equal(dense_weights(model_full), dense_weights(model_resumed))

    def test_resume_with_other_config_rejected(self, tmp_path):
        corpus = small_corpus()
        run_loop(corpus.manual, corpus.auto_inputs, fast_config(iterations=1),
                 run_dir=tmp_path)
        other = fast_config(iterations=1, hash_dim=1 << 10)
        with pytest.raises(ValueError, match="iteration_01.json.*iteration config hash"):
            run_loop(corpus.manual, corpus.auto_inputs, other,
                     run_dir=tmp_path, resume=True)

    def test_resume_without_stored_config_hash_rejected(self, tmp_path):
        corpus = small_corpus()
        cfg = fast_config(iterations=1)
        run_loop(corpus.manual, corpus.auto_inputs, cfg, run_dir=tmp_path)
        record = tmp_path / "iteration_01.json"
        data = json.loads(record.read_text(encoding="utf-8"))
        assert "iteration_config_hash" in data
        del data["iteration_config_hash"]
        record.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValueError, match="iteration_01.json"):
            run_loop(corpus.manual, corpus.auto_inputs, cfg, run_dir=tmp_path, resume=True)

    def test_resume_on_other_inputs_rejected(self, tmp_path):
        cfg = fast_config(iterations=1)
        first = synth.make_corpus(n_manual=40, n_auto=80, n_test=30, seed=1)
        run_loop(first.manual, first.auto_inputs, cfg, test_set=first.test, run_dir=tmp_path)
        other = synth.make_corpus(n_manual=40, n_auto=80, n_test=30, seed=2)
        with pytest.raises(ValueError, match="iteration_01.json.*inputs"):
            run_loop(other.manual, other.auto_inputs, cfg, test_set=other.test,
                     run_dir=tmp_path, resume=True)

    def test_resume_with_other_test_set_or_label_rejected(self, tmp_path):
        corpus = small_corpus()
        cfg = fast_config(iterations=1)
        run_loop(corpus.manual, corpus.auto_inputs, cfg, test_set=corpus.test,
                 run_dir=tmp_path)
        with pytest.raises(ValueError, match="iteration_01.json.*inputs"):
            run_loop(corpus.manual, corpus.auto_inputs, cfg, test_set=corpus.test[1:],
                     run_dir=tmp_path, resume=True)
        relabelled = [replace(p) for p in corpus.manual]
        relabelled[0].labels = ["O"] * len(relabelled[0].words)
        with pytest.raises(ValueError, match="iteration_01.json.*inputs"):
            run_loop(relabelled, corpus.auto_inputs, cfg, test_set=corpus.test,
                     run_dir=tmp_path, resume=True)
        _, model = run_loop(corpus.manual, corpus.auto_inputs, cfg, test_set=corpus.test,
                            run_dir=tmp_path, resume=True)
        assert model is not None

    def test_resume_without_stored_inputs_hash_rejected(self, tmp_path):
        corpus = small_corpus()
        cfg = fast_config(iterations=1)
        run_loop(corpus.manual, corpus.auto_inputs, cfg, run_dir=tmp_path)
        record = tmp_path / "iteration_01.json"
        data = json.loads(record.read_text(encoding="utf-8"))
        assert len(data["inputs_sha256"]) == 64
        del data["inputs_sha256"]
        record.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValueError, match="iteration_01.json.*inputs"):
            run_loop(corpus.manual, corpus.auto_inputs, cfg, run_dir=tmp_path, resume=True)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda data: "{not json", "not a JSON file"),
        (lambda data: "[1, 2]", "expected a JSON object, got list"),
        (lambda data: json.dumps({k: v for k, v in data.items() if k != "gate_stats"}),
         "record lacks 'gate_stats'"),
        (lambda data: json.dumps({**data, "gate_stats": [1, 2]}),
         "gate_stats is not a JSON object"),
        (lambda data: json.dumps({**data, "iteration": 2}), "iteration is 2, expected 1"),
        (lambda data: json.dumps({**data, "iteration": True}), "iteration is True, expected 1"),
        (with_gate_stats(total_words="lots"), "gate_stats total_words and amb_words"),
        (with_gate_stats(amb_words=-1), "gate_stats total_words and amb_words"),
        (with_gate_stats(amb_words=2.0), "gate_stats total_words and amb_words"),
        (lambda data: with_gate_stats(amb_words=data["gate_stats"]["total_words"] + 1)(data),
         "gate_stats total_words and amb_words"),
        (with_gate_stats(accepted=[1, 2]), "gate_stats accepted must map labels"),
        (with_gate_stats(accepted={"O": -1}), "gate_stats accepted must map labels"),
        (with_gate_stats(accepted={"O": True}), "gate_stats accepted must map labels"),
        (with_gate_stats(accepted={"B-Nothing": 3}), "gate_stats accepted must map labels"),
        (lambda data: json.dumps({**data, "metrics": "x"}), "metrics must be null or hold"),
        (lambda data: json.dumps({**data, "metrics": {"step1": {"span_f1": 0.5}}}),
         "metrics must be null or hold"),
        (lambda data: json.dumps({**data, "metrics": {
            "step1": {"span_f1": 0.5}, "step3": {"span_f1": "0.5"}}}),
         "metrics must be null or hold"),
        (lambda data: json.dumps({**data, "metrics": {"step1": [], "step3": {}}}),
         "metrics must be null or hold"),
        (lambda data: json.dumps({**data, "warnings": "one"}),
         "warnings must be a list of strings"),
    ])
    def test_unreadable_record_is_format_error_naming_it(self, tmp_path, corrupt, message):
        corpus = small_corpus()
        cfg = fast_config(iterations=1)
        run_loop(corpus.manual, corpus.auto_inputs, cfg, run_dir=tmp_path)
        record = tmp_path / "iteration_01.json"
        data = json.loads(record.read_text(encoding="utf-8"))
        record.write_text(corrupt(data), encoding="utf-8")
        with pytest.raises(FormatError, match="^" + re.escape(f"{record}: {message}")):
            run_loop(corpus.manual, corpus.auto_inputs, cfg, run_dir=tmp_path, resume=True)

    def test_record_files_json_roundtrip(self, tmp_path):
        corpus = small_corpus()
        records, _ = run_loop(
            corpus.manual, corpus.auto_inputs, fast_config(iterations=1),
            test_set=corpus.test, run_dir=tmp_path,
        )
        with open(tmp_path / "iteration_01.json", encoding="utf-8") as handle:
            data = json.load(handle)
        assert data["iteration"] == 1
        assert data["gate_stats"]["total_words"] == records[0].gate_stats.total_words
        assert data["model_path"].endswith("model_iter01.npz")

    def test_record_files_carry_unchecked_package_version(self, tmp_path):
        corpus = small_corpus()
        cfg = fast_config(iterations=1)
        run_loop(corpus.manual, corpus.auto_inputs, cfg, run_dir=tmp_path)
        record = tmp_path / "iteration_01.json"
        data = json.loads(record.read_text(encoding="utf-8"))
        assert data["package_version"] == sciner.__version__
        data["package_version"] = "0.0.0-elsewhere"
        record.write_text(json.dumps(data), encoding="utf-8")
        records, model = run_loop(corpus.manual, corpus.auto_inputs, cfg, run_dir=tmp_path,
                                  resume=True)
        assert model is not None and records[0].iteration == 1

    def test_record_files_carry_unchecked_numpy_version(self, tmp_path):
        corpus = small_corpus()
        cfg = fast_config(iterations=1)
        run_loop(corpus.manual, corpus.auto_inputs, cfg, run_dir=tmp_path)
        record = tmp_path / "iteration_01.json"
        data = json.loads(record.read_text(encoding="utf-8"))
        assert data["numpy_version"] == np.__version__
        data["numpy_version"] = "0.0.0-elsewhere"
        record.write_text(json.dumps(data), encoding="utf-8")
        records, model = run_loop(corpus.manual, corpus.auto_inputs, cfg, run_dir=tmp_path,
                                  resume=True)
        assert model is not None and records[0].iteration == 1

    def test_records_carry_step3_test_predictions(self, tmp_path):
        corpus = small_corpus()
        cfg = fast_config()
        fresh, model = run_loop(corpus.manual, corpus.auto_inputs, cfg,
                                test_set=corpus.test, run_dir=tmp_path)
        assert fresh[-1].test_predictions == annotate_corpus(model, corpus.test, cfg.gate)[0]
        resumed, _ = run_loop(corpus.manual, corpus.auto_inputs, cfg,
                              test_set=corpus.test, run_dir=tmp_path, resume=True)
        for a, b in zip(fresh, resumed):
            assert a.test_predictions and a.test_predictions == b.test_predictions
        untested, _ = run_loop(corpus.manual, corpus.auto_inputs, cfg)
        assert all(r.test_predictions is None for r in untested)

    def test_records_carry_per_epoch_train_loss_through_resume(self, tmp_path):
        corpus = small_corpus()
        cfg = fast_config()
        fresh, _ = run_loop(corpus.manual, corpus.auto_inputs, cfg, run_dir=tmp_path)
        for record in fresh:
            assert len(record.train_loss["step1"]) == cfg.step1.epochs
            assert len(record.train_loss["step3"]) == cfg.step3.epochs
            assert np.isfinite(record.train_loss["step1"] + record.train_loss["step3"]).all()
        data = json.loads((tmp_path / "iteration_02.json").read_text(encoding="utf-8"))
        assert data["train_loss"] == fresh[1].train_loss
        resumed, _ = run_loop(corpus.manual, corpus.auto_inputs, cfg, run_dir=tmp_path,
                              resume=True)
        assert [r.to_dict() for r in resumed] == [r.to_dict() for r in fresh]

    def test_records_carry_phase_seconds_through_resume(self, tmp_path):
        corpus = small_corpus()
        cfg = fast_config()
        fresh, _ = run_loop(corpus.manual, corpus.auto_inputs, cfg,
                            test_set=corpus.test, run_dir=tmp_path)
        for record in fresh:
            phases = record.phase_seconds
            assert list(phases) == ["train_step1", "annotate_auto", "train_step3",
                                    "evaluate_test"]
            assert all(type(v) is float and v >= 0.0 for v in phases.values())
            assert sum(phases.values()) <= record.duration_seconds
        data = json.loads((tmp_path / "iteration_01.json").read_text(encoding="utf-8"))
        assert data["phase_seconds"] == fresh[0].phase_seconds
        resumed, _ = run_loop(corpus.manual, corpus.auto_inputs, cfg,
                              test_set=corpus.test, run_dir=tmp_path, resume=True)
        assert [r.phase_seconds for r in resumed] == [r.phase_seconds for r in fresh]
        untested, _ = run_loop(corpus.manual, corpus.auto_inputs, cfg)
        assert all("evaluate_test" not in r.phase_seconds for r in untested)

    def test_carry_forward_differs_from_fresh(self):
        corpus = small_corpus(13)
        fresh_records, fresh_model = run_loop(
            corpus.manual, corpus.auto_inputs, fast_config()
        )
        carry_records, carry_model = run_loop(
            corpus.manual, corpus.auto_inputs, fast_config(carry_forward=True)
        )
        assert not np.array_equal(dense_weights(fresh_model), dense_weights(carry_model))
        assert carry_model.epochs_run > fresh_model.epochs_run

    @staticmethod
    def _track_models(monkeypatch):
        """Wrap run_iteration; return (weakrefs to the models it returned,
        per call: whether each earlier model was alive after gc.collect() and
        whether `init` was the model of the call before)."""
        returned, calls = [], []
        real = selftrain.run_iteration

        def tracked(*args, init=None, **kwargs):
            gc.collect()
            calls.append((
                [ref() is not None for ref in returned],
                init is not None and init is returned[-1](),
            ))
            model, record, annotated = real(*args, init=init, **kwargs)
            returned.append(weakref.ref(model))
            return model, record, annotated

        monkeypatch.setattr(selftrain, "run_iteration", tracked)
        return returned, calls

    def test_previous_model_freed_before_next_iteration(self, monkeypatch):
        corpus = small_corpus()
        returned, calls = self._track_models(monkeypatch)
        run_loop(corpus.manual, corpus.auto_inputs, fast_config())
        assert len(returned) == 2
        alive, init_is_previous = calls[1]
        assert alive == [False]
        assert not init_is_previous

    def test_carry_forward_keeps_previous_model_as_init(self, monkeypatch):
        corpus = small_corpus()
        returned, calls = self._track_models(monkeypatch)
        run_loop(corpus.manual, corpus.auto_inputs, fast_config(carry_forward=True))
        assert len(returned) == 2
        alive, init_is_previous = calls[1]
        assert alive == [True]
        assert init_is_previous

    def test_iteration_error_names_iteration(self):
        corpus = small_corpus()
        bad = [
            p for p in corpus.auto_inputs
        ]
        bad[0] = type(bad[0])(
            paper_id=bad[0].paper_id, paragraph_index=0, words=[],
            provenance="unannotated",
        )
        with pytest.raises(ValueError, match="iteration 1"):
            run_loop(corpus.manual, bad, fast_config())


class TestIterationRecord:
    def test_to_dict_fields(self):
        from sciner.autoannotate import GateStats

        record = IterationRecord(
            iteration=2, gate_stats=GateStats(total_words=5, amb_words=1),
            metrics=None, model_path="m.npz", duration_seconds=1.5,
        )
        data = record.to_dict()
        assert data["iteration"] == 2
        assert data["gate_stats"]["amb_fraction"] == 0.2

    @staticmethod
    def written_record(tmp_path):
        """A one-iteration run in `tmp_path`: (config, corpus, record path, its JSON)."""
        corpus = small_corpus()
        cfg = fast_config(iterations=1)
        run_loop(corpus.manual, corpus.auto_inputs, cfg, run_dir=tmp_path)
        path = tmp_path / "iteration_01.json"
        return cfg, corpus, path, json.loads(path.read_text(encoding="utf-8"))

    def test_every_persisted_field_survives_resume(self, tmp_path):
        cfg, corpus, path, data = self.written_record(tmp_path)
        record = IterationRecord(
            iteration=1,
            gate_stats=GateStats(total_words=9, amb_words=4, accepted={"B-TaskName": 3, "O": 2}),
            metrics={"step1": {"span_f1": 0.25}, "step3": {"span_f1": 0.5, "extra": [1]}},
            model_path="elsewhere/model.npz",
            duration_seconds=12.5,
            warnings=["iteration 1: a warning"],
            train_loss={"step1": [0.75, 0.5], "step3": [0.25]},
            phase_seconds={"train_step1": 1.25, "annotate_auto": 0.5},
        )
        stored = record.to_dict()
        persisted = [f for f in dataclasses.fields(IterationRecord)
                     if f.name != "test_predictions"]
        assert sorted(stored) == sorted(f.name for f in persisted)
        for f in persisted:
            if f.name != "iteration":
                assert stored[f.name] != data[f.name], f.name
            if f.default_factory is not dataclasses.MISSING:
                assert stored[f.name] != f.default_factory(), f.name
            elif f.default is not dataclasses.MISSING:
                assert stored[f.name] != f.default, f.name
        path.write_text(json.dumps({**data, **stored}), encoding="utf-8")
        records, _ = run_loop(corpus.manual, corpus.auto_inputs, cfg, run_dir=tmp_path,
                              resume=True)
        assert records == [record]
        assert records[0].to_dict() == stored

    @pytest.mark.parametrize("name", ["iteration", "gate_stats", "metrics", "model_path",
                                      "duration_seconds"])
    def test_record_lacking_a_required_field_rejected(self, tmp_path, name):
        cfg, corpus, path, data = self.written_record(tmp_path)
        del data[name]
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(FormatError, match="^" + re.escape(f"{path}: record lacks {name!r}")):
            run_loop(corpus.manual, corpus.auto_inputs, cfg, run_dir=tmp_path, resume=True)

    @pytest.mark.parametrize("name", ["total_words", "amb_words", "accepted"])
    def test_gate_stats_lacking_a_count_rejected(self, tmp_path, name):
        # GateStats defaults to an empty tally, but a stored count is never implied
        cfg, corpus, path, data = self.written_record(tmp_path)
        del data["gate_stats"][name]
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(FormatError, match="^" + re.escape(f"{path}: record lacks {name!r}")):
            run_loop(corpus.manual, corpus.auto_inputs, cfg, run_dir=tmp_path, resume=True)

    def test_record_without_the_optional_fields_loads_their_defaults(self, tmp_path):
        cfg, corpus, path, data = self.written_record(tmp_path)
        for name in ("warnings", "train_loss", "phase_seconds"):
            del data[name]
        path.write_text(json.dumps(data), encoding="utf-8")
        records, _ = run_loop(corpus.manual, corpus.auto_inputs, cfg, run_dir=tmp_path,
                              resume=True)
        assert (records[0].warnings, records[0].train_loss, records[0].phase_seconds) == (
            [], None, None)


class TestNumpyEnvironment:
    written_record = staticmethod(TestIterationRecord.written_record)

    def test_level_is_named_for_exp_and_log(self):
        env = selftrain.numpy_environment()
        assert env["numpy_version"] == np.__version__
        assert list(env["numpy_dispatch"]) == ["exp", "log"]
        for level in env["numpy_dispatch"].values():
            if hasattr(np.lib, "introspect"):
                assert type(level) is str and level  # such as "X86_V4" or "baseline"
            else:  # numpy before 2.0 cannot tell
                assert level is None

    def test_record_files_carry_the_environment(self, tmp_path):
        _, _, _, data = self.written_record(tmp_path)
        assert {key: data[key] for key in ("numpy_version", "numpy_dispatch")} == (
            selftrain.numpy_environment())

    @pytest.mark.parametrize("key, stored", [
        ("numpy_version", "0.0.0-elsewhere"),
        ("numpy_dispatch", {"exp": "X86_V3", "log": None}),
    ])
    def test_resume_under_another_environment_warns(self, tmp_path, key, stored):
        cfg, corpus, path, data = self.written_record(tmp_path)
        current = data[key]
        path.write_text(json.dumps({**data, key: stored}), encoding="utf-8")
        records, model = run_loop(corpus.manual, corpus.auto_inputs, cfg, run_dir=tmp_path,
                                  resume=True)
        assert model is not None
        assert records[0].warnings == [
            f"iteration 1: resumed from a record written under {key} {stored!r}, but this "
            f"run has {current!r}; its model's bits may differ from those of an "
            "uninterrupted run"
        ]

    def test_record_without_the_environment_resumes_without_warning(self, tmp_path):
        cfg, corpus, path, data = self.written_record(tmp_path)
        for key in ("numpy_version", "numpy_dispatch"):
            del data[key]
        path.write_text(json.dumps(data), encoding="utf-8")
        records, model = run_loop(corpus.manual, corpus.auto_inputs, cfg, run_dir=tmp_path,
                                  resume=True)
        assert model is not None and records[0].warnings == []


_FLOATS = st.floats(allow_nan=False)  # NaN reads back, but equals nothing


@st.composite
def iteration_records(draw):
    """Any record `_record_problem` passes, with JSON values in every field."""
    total = draw(st.integers(0, 10**12))
    step = st.fixed_dictionaries({"span_f1": _FLOATS | st.integers()},
                                 optional={"extra": st.lists(_FLOATS | st.text())})
    return IterationRecord(
        iteration=draw(st.integers(1, 99)),
        gate_stats=GateStats(
            total_words=total, amb_words=draw(st.integers(0, total)),
            accepted=draw(st.dictionaries(st.sampled_from(tag_schema.MODEL_LABELS),
                                          st.integers(0, 10**12))),
        ),
        metrics=draw(st.none() | st.fixed_dictionaries({"step1": step, "step3": step})),
        model_path=draw(st.none() | st.text()),
        duration_seconds=draw(_FLOATS),
        warnings=draw(st.lists(st.text(), max_size=3)),
        train_loss=draw(st.none() | st.fixed_dictionaries(
            {"step1": st.lists(_FLOATS, max_size=4), "step3": st.lists(_FLOATS, max_size=4)})),
        phase_seconds=draw(st.none() | st.dictionaries(st.text(max_size=12), _FLOATS,
                                                       max_size=4)),
    )


class TestRecordRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(record=iteration_records())
    def test_every_record_written_reads_back(self, record):
        """What `run_loop` writes for a record, `_load_record` reads back as
        that record, without a warning of its own."""
        stamp = {"iteration_config_hash": "0123456789ab", "inputs_sha256": "f" * 64,
                 **selftrain.numpy_environment()}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "iteration_01.json")
            selftrain._write_record(path, record, stamp)
            loaded = selftrain._load_record(path, record.iteration, **stamp)
        assert loaded == record
        # and each float's sign, which == does not see in -0.0
        assert (json.dumps(loaded.to_dict(), sort_keys=True)
                == json.dumps(record.to_dict(), sort_keys=True))


def inputs_sha256_ref(manual, auto, test):
    """The inputs digest as first defined: one JSON string of everything."""
    def canon(paragraphs):
        return [[p.paper_id, p.paragraph_index, p.words, p.labels, p.provenance]
                for p in paragraphs]

    payload = json.dumps({"manual": canon(manual), "auto": canon(auto),
                          "test": None if test is None else canon(test)},
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_PARAGRAPHS = st.lists(st.builds(
    SimpleNamespace, paper_id=st.text(), paragraph_index=st.integers(0, 10**6),
    words=st.lists(st.text(), max_size=4), labels=st.lists(st.text(max_size=6), max_size=4),
    provenance=st.sampled_from(["manual", "auto"]),
), max_size=4)


class TestInputsSha256:
    @settings(max_examples=300, deadline=None)
    @given(manual=_PARAGRAPHS, auto=_PARAGRAPHS, test=st.none() | _PARAGRAPHS)
    def test_streamed_digest_is_the_one_string_digest(self, manual, auto, test):
        assert selftrain._inputs_sha256(manual, auto, test) == inputs_sha256_ref(manual, auto, test)

    def test_digests_of_earlier_runs_still_match(self):
        # written by the one-string version; a run directory made then still resumes
        corpus = small_corpus()
        assert selftrain._inputs_sha256(corpus.manual, corpus.auto_inputs, corpus.test) == (
            "b404d5d740bc31ee5ae51f4c8511fd54115799b2ec2db41cb214f6daa017815d")
        assert selftrain._inputs_sha256(corpus.manual, corpus.auto_inputs, None) == (
            "b11425a5d342ed9f714f6ff473de81e0578a88d044fc82c1e9156e67e1e3d431")
