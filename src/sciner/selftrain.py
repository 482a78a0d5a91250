"""The iterative train / auto-annotate / merge / retrain loop.

Each iteration trains a fresh model on the manual data, labels the auto
corpus under the confidence gate, then continues training that same model on
the manual+auto union.  Iterations regenerate the auto labels from scratch
with the newer model rather than accumulating stale ones.  All randomness
flows from one master seed split per (iteration, step), so an interrupted run
resumed from persisted records finishes identically.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__, dataset, evaluation, tag_schema, tagger
from .autoannotate import GateConfig, GateStats, annotate_corpus
from .errors import FormatError
from .tagger import DEFAULT_HASH_DIM, TaggerModel, TrainConfig, train
from .util import atomic_write, sha256_hex


@dataclass(frozen=True)
class LoopConfig:
    iterations: int = 2
    step1: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=20, learning_rate=1e-4, batch_size=8))
    step3: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=5, learning_rate=1e-4, batch_size=8))
    gate: GateConfig = field(default_factory=GateConfig)
    amb_policy: str = "ignore_positions"
    seed: int = 0
    hash_dim: int = DEFAULT_HASH_DIM
    carry_forward: bool = False  # start step 1 from the previous iteration's model

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.seed < 0:  # np.random.SeedSequence takes no negative seed
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        tagger.check_hash_dim(self.hash_dim)  # before any paragraph is featurized
        if self.amb_policy not in dataset.AMB_POLICIES:
            raise ValueError(f"unknown amb policy {self.amb_policy!r}")
        for step in ("step1", "step3"):
            if getattr(self, step).seed:
                raise ValueError(
                    f"{step}.seed must be 0, got {getattr(self, step).seed}; the loop "
                    "derives each step's seed from seed, the iteration and the step"
                )

    def config_hash(self) -> str:
        """12 hex digits of the sha256 of every field as sorted JSON."""
        payload = asdict(self)
        payload.update(payload.pop("gate"))  # a flat gamma, as earlier hashes have it
        text = json.dumps(payload, sort_keys=True)
        return sha256_hex(text)[:12]


@dataclass
class IterationRecord:
    iteration: int
    gate_stats: GateStats
    metrics: dict | None
    model_path: str | None
    duration_seconds: float
    warnings: list[str] = field(default_factory=list)
    # mean training loss per epoch: {"step1": [...], "step3": [...]}
    train_loss: dict | None = None
    # wall seconds per phase: see `run_iteration`
    phase_seconds: dict | None = None
    # the step-3 model's annotation of the test set; not persisted
    test_predictions: list | None = field(default=None, repr=False, compare=False,
                                          metadata={"persisted": False})

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in _PERSISTED_FIELDS}
        data["gate_stats"] = self.gate_stats.to_dict()
        return data


_PERSISTED_FIELDS = [f for f in fields(IterationRecord) if f.metadata.get("persisted", True)]


def compile_features(manual_train, auto_corpus, test_set, dim: int):
    """A run's (training, test) feature tables: the words of the manual then
    the auto paragraphs, and of the test paragraphs (None without a test set).
    Each is compacted once, so that every `train` and `annotate_corpus` call
    of the run maps only its distinct hashed ids to weight rows."""
    train_table = tagger.featurize([p.words for p in [*manual_train, *auto_corpus]], dim)
    if test_set is None:
        return train_table.compact(), None
    return train_table.compact(), tagger.featurize([p.words for p in test_set], dim).compact()


def _step_seed(master: int, iteration: int, step: int) -> int:
    seq = np.random.SeedSequence(entropy=(master, iteration, step))
    return int(seq.generate_state(1, dtype=np.uint64)[0] % (2**31))


def run_iteration(manual_train, auto_corpus, config: LoopConfig, iteration: int = 1,
                  init: TaggerModel | None = None, test_set=None, features=None):
    """One pass of steps 1-3.  Returns (model, IterationRecord, auto annotations).

    `features` are the run's (training, test) tables from `compile_features`,
    at `config.hash_dim`; without them they are compiled here.  The record's
    `phase_seconds` holds the wall seconds of the step-1 training
    (`train_step1`), the annotation of the auto corpus (`annotate_auto`), the
    step-3 merge and training (`train_step3`) and the test-set annotation and
    scoring (`evaluate_test`, only with a test set).
    """
    manual_train = list(manual_train)
    if not manual_train:
        raise ValueError("manual training set is empty")
    auto_corpus = list(auto_corpus)
    test_set = None if test_set is None else list(test_set)
    started = time.monotonic()
    warnings: list[str] = []
    phases: dict[str, float] = {}
    if features is None:
        features = compile_features(manual_train, auto_corpus, test_set, config.hash_dim)
    train_table, test_table = features
    manual_rows = range(len(manual_train))
    auto_rows = range(len(manual_train), len(train_table))

    manual_examples = dataset.merge_for_retraining(manual_train, [], config.amb_policy)
    step1_cfg = replace(config.step1, seed=_step_seed(config.seed, iteration, 1))
    clock = time.monotonic()
    step1_model = train(manual_examples, step1_cfg, init=init, hash_dim=config.hash_dim,
                        features=train_table.select(manual_rows))
    phases["train_step1"] = time.monotonic() - clock

    clock = time.monotonic()
    auto_annotated, gate_stats = annotate_corpus(step1_model, auto_corpus, config.gate,
                                                 features=train_table.select(auto_rows))
    phases["annotate_auto"] = time.monotonic() - clock

    if gate_stats.total_words and gate_stats.amb_words == gate_stats.total_words:
        message = (
            f"iteration {iteration}: gate rejected all {gate_stats.total_words} words; "
            "step 3 trains on manual data only"
        )
        warnings.append(message)

    clock = time.monotonic()
    merged = dataset.merge_for_retraining(manual_train, auto_annotated, config.amb_policy)
    kept = dataset.retained_auto(auto_annotated, config.amb_policy)
    step3_cfg = replace(config.step3, seed=_step_seed(config.seed, iteration, 3))
    # under ignore_positions every row is kept: the training table itself
    model = train(merged, step3_cfg, init=step1_model,
                  features=train_table.select([*manual_rows, *(auto_rows[i] for i in kept)]))
    phases["train_step3"] = time.monotonic() - clock

    metrics = test_predictions = None
    if test_set is not None:
        clock = time.monotonic()
        step1_predictions, _ = annotate_corpus(step1_model, test_set, config.gate,
                                               features=test_table)
        test_predictions, _ = annotate_corpus(model, test_set, config.gate,
                                              features=test_table)
        metrics = {
            "step1": evaluation.score(test_set, step1_predictions).to_dict(),
            "step3": evaluation.score(test_set, test_predictions).to_dict(),
        }
        phases["evaluate_test"] = time.monotonic() - clock

    record = IterationRecord(
        iteration=iteration,
        gate_stats=gate_stats,
        metrics=metrics,
        model_path=None,
        duration_seconds=time.monotonic() - started,
        warnings=warnings,
        train_loss={"step1": step1_model.epoch_loss, "step3": model.epoch_loss},
        phase_seconds=phases,
        test_predictions=test_predictions,
    )
    return model, record, auto_annotated


def _record_path(run_dir: str, iteration: int) -> str:
    return os.path.join(run_dir, f"iteration_{iteration:02d}.json")


def _model_path(run_dir: str, iteration: int) -> str:
    return os.path.join(run_dir, f"model_iter{iteration:02d}.npz")


def _iteration_hash(config: LoopConfig) -> str:
    """`config_hash` without `iterations`: iteration k's artifacts do not depend
    on how many iterations follow, so a run may be resumed with a larger count."""
    return replace(config, iterations=1).config_hash()


def _inputs_sha256(manual_train, auto_corpus, test_set) -> str:
    """sha256 of the JSON of every manual, auto and test paragraph, each as
    [paper_id, paragraph_index, words, labels, provenance].  The training
    mask is derived from the labels, so they cover it."""

    def canon(paragraphs):
        return [
            [p.paper_id, p.paragraph_index, p.words, p.labels, p.provenance]
            for p in paragraphs
        ]

    payload = json.dumps(
        {
            "manual": canon(manual_train),
            "auto": canon(auto_corpus),
            "test": None if test_set is None else canon(test_set),
        },
        separators=(",", ":"),
    )
    return sha256_hex(payload)


def _load_record(path: str, iteration: int, iteration_config_hash: str,
                 inputs_sha256: str) -> IterationRecord:
    """Read iteration `iteration`'s persisted record; it must have been
    written under `iteration_config_hash` from inputs hashing to
    `inputs_sha256`.  A file that is not such a record is a FormatError
    naming `path`."""
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise FormatError(f"{path}: not a JSON file: {exc}") from None
    if type(data) is not dict:
        raise FormatError(f"{path}: expected a JSON object, got {type(data).__name__}")
    stored = data.get("iteration_config_hash")
    if stored != iteration_config_hash:
        raise ValueError(
            f"{path}: written with iteration config hash {stored!r}, but this run's "
            f"is {iteration_config_hash!r}; resume only with the config that made the "
            "run directory, or use a fresh one"
        )
    stored = data.get("inputs_sha256")
    if stored != inputs_sha256:
        raise ValueError(
            f"{path}: written from inputs with sha256 {stored!r}, but this run's "
            f"inputs hash to {inputs_sha256!r}; resume only with the manual, auto "
            "and test data that made the run directory, or use a fresh one"
        )
    try:
        values = {f.name: data[f.name] for f in _PERSISTED_FIELDS
                  if f.name in data or (f.default is MISSING and f.default_factory is MISSING)}
        if type(values["gate_stats"]) is not dict:
            raise FormatError(f"{path}: gate_stats is not a JSON object")
        # every count is required: a missing one is not zero
        values["gate_stats"] = GateStats(**{f.name: values["gate_stats"][f.name]
                                            for f in fields(GateStats)})
    except KeyError as exc:
        raise FormatError(f"{path}: record lacks {exc.args[0]!r}") from None
    record = IterationRecord(**values)
    problem = _record_problem(record, iteration)
    if problem:
        raise FormatError(f"{path}: {problem}")
    return record


def _is_count(value) -> bool:
    return type(value) is int and value >= 0  # bool is not a count


def _record_problem(record: IterationRecord, iteration: int) -> str | None:
    """What sets a loaded record apart from one that iteration `iteration`
    writes, or None; the fields resume reads are checked."""
    stats, metrics = record.gate_stats, record.metrics
    if not (type(record.iteration) is int and record.iteration == iteration):
        return f"iteration is {record.iteration!r}, expected {iteration}"
    if not (_is_count(stats.total_words) and _is_count(stats.amb_words)
            and stats.amb_words <= stats.total_words):
        return (
            "gate_stats total_words and amb_words must be non-negative integers with "
            f"amb_words <= total_words, got {stats.total_words!r} and {stats.amb_words!r}"
        )
    if not (type(stats.accepted) is dict and all(
            label in tag_schema.MODEL_LABELS and _is_count(n)
            for label, n in stats.accepted.items())):
        return "gate_stats accepted must map labels to non-negative integers"
    if metrics is not None and not (type(metrics) is dict and all(
            type(metrics.get(step)) is dict
            and type(metrics[step].get("span_f1")) in (int, float)
            for step in ("step1", "step3"))):
        return "metrics must be null or hold step1 and step3 objects with a numeric span_f1"
    return None


def run_loop(manual_train, auto_corpus, config: LoopConfig, test_set=None,
             run_dir=None, resume: bool = False):
    """Run `config.iterations` iterations; returns (records, final model).

    With `run_dir`, each iteration's model and record are persisted and
    `resume=True` skips iterations whose artifacts already exist.  The final
    model is the last iteration's step-3 output.  With `test_set`, every
    record carries that model's `test_predictions`; a resumed iteration's are
    made from its loaded model.
    """
    manual_train = list(manual_train)
    auto_corpus = list(auto_corpus)
    test_set = None if test_set is None else list(test_set)
    if run_dir is not None:
        run_dir = os.fspath(run_dir)
        os.makedirs(run_dir, exist_ok=True)
        stamp = {
            "iteration_config_hash": _iteration_hash(config),
            "inputs_sha256": _inputs_sha256(manual_train, auto_corpus, test_set),
        }

    # every iteration reads the same words: featurize them once
    features = compile_features(manual_train, auto_corpus, test_set, config.hash_dim)
    records: list[IterationRecord] = []
    model: TaggerModel | None = None
    for iteration in range(1, config.iterations + 1):
        if run_dir is not None and resume:
            rec_path = _record_path(run_dir, iteration)
            model_path = _model_path(run_dir, iteration)
            if os.path.exists(rec_path) and os.path.exists(model_path):
                record = _load_record(rec_path, iteration, **stamp)
                model = TaggerModel.load(model_path)
                if test_set is not None:
                    record.test_predictions, _ = annotate_corpus(
                        model, test_set, config.gate, features=features[1]
                    )
                records.append(record)
                continue
        # hold one finished model at a time: the last one only if it seeds this one
        init, model = (model if config.carry_forward else None), None
        try:
            model, record, _ = run_iteration(
                manual_train, auto_corpus, config, iteration=iteration,
                init=init, test_set=test_set, features=features,
            )
        except ValueError as exc:
            raise ValueError(f"iteration {iteration}: {exc}") from exc
        if run_dir is not None:
            model_path = _model_path(run_dir, iteration)
            model.save(model_path)
            record.model_path = model_path
            # recorded, but resume checks neither: the weight bits also
            # depend on numpy's complex subtract.at, its outer-axis sum
            # order, exp and log
            payload = {**record.to_dict(), **stamp, "package_version": __version__,
                       "numpy_version": np.__version__}
            with atomic_write(_record_path(run_dir, iteration)) as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
        records.append(record)
    return records, model
