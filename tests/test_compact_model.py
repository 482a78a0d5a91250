"""The compact model (only the hashed rows training touched) against dense training."""

import tracemalloc

import numpy as np
import pytest

from sciner import kernels, synth
from sciner import tag_schema as ts
from sciner import tagger
from sciner.autoannotate import GateConfig, annotate_corpus
from sciner.dataset import merge_for_retraining
from sciner.errors import FormatError

from kernel_oracles import dense_weights, train_dense_ref

STEP1 = tagger.TrainConfig(epochs=4, learning_rate=16.0, batch_size=8, seed=5)
STEP3 = tagger.TrainConfig(epochs=2, learning_rate=16.0, batch_size=8, seed=6)


def assert_same_model(compact, dense):
    assert np.array_equal(
        dense_weights(compact).view(np.int64), dense_weights(dense).view(np.int64)
    )
    assert (compact.hash_dim, compact.epochs_run, compact.learning_rate, compact.seed) == (
        dense.hash_dim, dense.epochs_run, dense.learning_rate, dense.seed
    )
    assert compact.epoch_loss == dense.epoch_loss


# 2^10 makes feature ids collide, so rows are shared between features
@pytest.mark.parametrize("dim", [1 << 10, 1 << 16])
def test_self_training_steps_match_dense_oracle(tmp_path, dim):
    corpus = synth.make_corpus(n_manual=30, n_auto=60, n_test=0, seed=3)
    manual = merge_for_retraining(corpus.manual, [])

    step1 = tagger.train(manual, STEP1, hash_dim=dim)
    step1_ref = train_dense_ref(manual, STEP1, hash_dim=dim)
    assert_same_model(step1, step1_ref)

    auto, stats = annotate_corpus(step1, corpus.auto_inputs, GateConfig(0.98))
    auto_ref, stats_ref = annotate_corpus(step1_ref, corpus.auto_inputs, GateConfig(0.98))
    assert [(p.labels, p.confidence) for p in auto] == [
        (p.labels, p.confidence) for p in auto_ref
    ]
    assert stats.to_dict() == stats_ref.to_dict()

    merged = merge_for_retraining(corpus.manual, auto)
    step3 = tagger.train(merged, STEP3, init=step1)
    step3_ref = train_dense_ref(merged, STEP3, init=step1_ref)
    assert_same_model(step3, step3_ref)

    # carry_forward: the next iteration's step 1 starts from this step 3
    carried = tagger.train(manual, STEP1, init=step3)
    carried_ref = train_dense_ref(manual, STEP1, init=step3_ref)
    assert_same_model(carried, carried_ref)

    for name, model in (("compact", step3), ("dense", step3_ref)):
        model.save(tmp_path / name)
    assert (tmp_path / "compact.npz").read_bytes() == (tmp_path / "dense.npz").read_bytes()


def test_train_leaves_init_unchanged():
    corpus = synth.make_corpus(n_manual=10, n_auto=0, n_test=0, seed=8)
    manual = merge_for_retraining(corpus.manual, [])
    init = tagger.train(manual, STEP1, hash_dim=1 << 12)
    before = init.values.copy()
    tagger.train(manual, STEP3, init=init)
    assert np.array_equal(init.values.view(np.int64), before.view(np.int64))


def test_scoring_unseen_ids_and_negative_zero_rows_matches_dense():
    dim = 1 << 12
    corpus = synth.make_corpus(n_manual=10, n_auto=0, n_test=0, seed=9)
    model = tagger.train(merge_for_retraining(corpus.manual, []), STEP1, hash_dim=dim)
    unseen = ["Qzxv", "wubbalubba", "ÆØÅ", "x9x9x9x9x9"]
    feat, offsets, _ = tagger.Featurizer(dim).paragraph_arrays(unseen)
    assert not np.isin(feat, model.rows).all()
    assert np.array_equal(
        model.subword_probs(feat, offsets).view(np.int64),
        kernels.score_subwords(dense_weights(model), feat, offsets).view(np.int64),
    )

    # a row of -0.0 is a row the model holds, not the shared zero row
    rows = np.unique(feat)[::2]
    values = np.random.default_rng(0).normal(size=(len(rows), ts.NUM_CLASSES))
    values[0] = -0.0
    signed = tagger.TaggerModel(values, dim, rows=rows)
    assert np.array_equal(
        signed.subword_probs(feat, offsets).view(np.int64),
        kernels.score_subwords(dense_weights(signed), feat, offsets).view(np.int64),
    )


def test_v1_file_rejected_with_path_and_format(tmp_path):
    path = tmp_path / "v1.npz"
    np.savez_compressed(
        path, format="sciner-tagger-v1", weights=np.zeros((16, ts.NUM_CLASSES)),
        hash_dim=16, epochs_run=1, learning_rate=0.5, seed=0,
    )
    with pytest.raises(FormatError, match="sciner-tagger-v1") as info:
        tagger.TaggerModel.load(path)
    assert str(path) in str(info.value)


def test_nonfinite_values_in_v2_file_rejected_with_path(tmp_path):
    path = tmp_path / "inf.npz"
    values = np.zeros((1, ts.NUM_CLASSES))
    values[0, 4] = np.inf
    np.savez_compressed(
        path, format=tagger.MODEL_FORMAT, rows=np.array([3]), values=values, hash_dim=16,
        epochs_run=1, learning_rate=0.5, seed=0,
    )
    with pytest.raises(FormatError, match="finite") as info:
        tagger.TaggerModel.load(path)
    assert str(path) in str(info.value)


def write_unreadable_model(path, kind):
    """A model file that `TaggerModel.load` cannot read, of the given kind."""
    if kind == "truncated":
        tagger.TaggerModel.fresh(16).save(path)
        path.write_bytes(path.read_bytes()[:100])
    elif kind == "not_npz":
        path.write_text("this is not a model\n", encoding="utf-8")
    elif kind == "unknown_method":  # the first member's compression method is 99
        tagger.TaggerModel.fresh(16).save(path)
        data = bytearray(path.read_bytes())
        at = data.index(b"PK\x01\x02") + 10  # method field of its central directory entry
        data[at:at + 2] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(data))
    elif kind == "npy":
        with open(path, "wb") as handle:
            np.save(handle, np.zeros(3))
    else:  # a v2 file with no rows whose hash_dim is out of range or not a scalar
        hash_dim = {"hash_dim_1": 1, "hash_dim_2_62": 2**62, "hash_dim_pair": [16, 16]}[kind]
        np.savez_compressed(
            path, format=tagger.MODEL_FORMAT, rows=np.zeros(0, np.int64),
            values=np.zeros((0, ts.NUM_CLASSES)), hash_dim=hash_dim, epochs_run=0,
            learning_rate=0.0, seed=0,
        )
    return path


UNREADABLE_KINDS = ["truncated", "not_npz", "unknown_method", "npy", "hash_dim_1",
                    "hash_dim_2_62", "hash_dim_pair"]


@pytest.mark.parametrize("kind", UNREADABLE_KINDS)
def test_unreadable_model_file_rejected_with_path(tmp_path, kind):
    path = write_unreadable_model(tmp_path / "model.npz", kind)
    with pytest.raises(FormatError) as info:
        tagger.TaggerModel.load(path)
    assert str(path) in str(info.value)


def test_fresh_model_is_empty_and_saves_like_the_dense_zero_model(tmp_path):
    tracemalloc.start()
    try:
        fresh = tagger.TaggerModel.fresh(1 << 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fresh.rows) == 0 and fresh.hash_dim == 1 << 20
    assert peak < 2**20, f"traced peak {peak / 2**20:.1f} MB"
    dim = 1 << 12
    tagger.TaggerModel.fresh(dim).save(tmp_path / "fresh.npz")
    tagger.TaggerModel(np.zeros((dim, ts.NUM_CLASSES)), dim, rows=np.arange(dim)).save(
        tmp_path / "dense.npz"
    )
    assert (tmp_path / "fresh.npz").read_bytes() == (tmp_path / "dense.npz").read_bytes()


def test_epoch_loss_is_finite_and_one_per_epoch():
    corpus = synth.make_corpus(n_manual=10, n_auto=0, n_test=0, seed=2)
    model = tagger.train(merge_for_retraining(corpus.manual, []), STEP1, hash_dim=1 << 12)
    assert len(model.epoch_loss) == STEP1.epochs
    assert np.isfinite(model.epoch_loss).all()


def test_default_hash_dim_pipeline_never_holds_the_dense_matrix(tmp_path):
    """Train, annotate, retrain, save and load at 2^20 rows: the dense matrix
    alone would be 126 MB."""
    corpus = synth.make_corpus(n_manual=20, n_auto=30, n_test=0, seed=4)
    manual = merge_for_retraining(corpus.manual, [])
    tracemalloc.start()  # numpy reports its array buffers to tracemalloc
    try:
        step1 = tagger.train(manual, STEP1)
        auto, _ = annotate_corpus(step1, corpus.auto_inputs)
        step3 = tagger.train(merge_for_retraining(corpus.manual, auto), STEP3, init=step1)
        step3.save(tmp_path / "model.npz")
        loaded = tagger.TaggerModel.load(tmp_path / "model.npz")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.hash_dim == tagger.DEFAULT_HASH_DIM
    assert len(loaded.rows) <= len(step3.rows) < 20_000
    assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.1f} MB"
