"""Feature tables as codes into a vocabulary, against the hashed-id paths.

A table's features are int32 codes into its `vocab` of hashed ids.
`featurize`, `select` and `compact` must keep `vocab[code]` equal to
`featurize_ref`'s ids; `train` and `annotate_corpus`, which map the
vocabulary to weight rows once, must give bit for bit what they give
without a table; scoring through `vocab_rows` must match the dense weight
matrix; and nothing may build an array of `hash_dim` entries at the
largest dimension.
"""

import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sciner import autoannotate, kernels, synth, tagger
from sciner import tag_schema as ts
from sciner.autoannotate import GateConfig, annotate_corpus
from sciner.dataset import TrainingExample, merge_for_retraining
from kernel_oracles import dense_weights
from test_autoannotate import carrier
from test_tagger import HASH_DIMS, WORD, assert_table_matches_ref

# words from a small alphabet repeat across paragraphs, so the tables'
# vocabularies hold repeats; WORD adds words no model has seen
SMALL_WORD = st.text(alphabet="abAB1.-", min_size=1, max_size=9)
ANY_WORD = st.one_of(SMALL_WORD, WORD)
PARAGRAPHS = st.lists(st.lists(ANY_WORD, max_size=5), max_size=6)
TRAIN_DIM = 1 << 8  # small, so that ids collide


def assert_compact(table):
    vocab = table.vocab
    assert vocab.dtype == np.uint32 and table.code.dtype == np.int32
    assert (vocab[1:] > vocab[:-1]).all()  # sorted, no repeats


class TestTables:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), paragraphs=PARAGRAPHS, dim=st.sampled_from(HASH_DIMS))
    def test_featurize_select_and_compact_keep_the_ids(self, data, paragraphs, dim):
        table = tagger.featurize(paragraphs, dim)
        assert table.code.dtype == np.int32
        assert_table_matches_ref(table, paragraphs, dim)
        compact = table.compact()
        assert_compact(compact)
        assert_table_matches_ref(compact, paragraphs, dim)
        rows = data.draw(st.lists(st.integers(0, len(paragraphs) - 1), max_size=8)
                         if paragraphs else st.just([]))
        for source in (table, compact):
            got = source.select(rows)
            assert got.vocab is source.vocab
            assert_table_matches_ref(got, [paragraphs[r] for r in rows], dim)

    def test_views_are_read_only(self):
        table = tagger.featurize([["a", "b"], ["c"]], 1 << 10).compact()
        for name in ("vocab", "code"):
            with pytest.raises(ValueError):
                getattr(table, name)[0] = 1
        prepared = tagger.prepare_examples(
            [TrainingExample(["a"], ["O"], [True])], tagger.Featurizer(1 << 10))
        with pytest.raises(ValueError):
            prepared.feat[0] = 1

    def test_paragraphs_gather_any_lookup(self):
        table = tagger.featurize([["x", "yy"], [], ["zzzzz"]], 1 << 10).compact()
        lookup = np.arange(len(table.vocab)) * 3
        for (ids, offsets, w, n), (codes, offsets2, w2, n2) in zip(
                table.paragraphs(), table.paragraphs(lookup=lookup)):
            assert np.array_equal(offsets, offsets2) and np.array_equal(w, w2) and n == n2
            assert np.array_equal(ids, table.vocab[codes // 3])


def examples_of(paragraphs, seed):
    """Training examples with random labels and masks on `paragraphs`."""
    rng = np.random.default_rng(seed)
    labels = ["O", "B-MethodName", "I-MethodName", "B-TaskName", ts.AMB]
    return [TrainingExample(list(words), [labels[i] for i in rng.integers(0, 5, len(words))],
                            (rng.random(len(words)) < 0.8).tolist()) for words in paragraphs]


def train_or_error(examples, init, features):
    cfg = tagger.TrainConfig(epochs=2, learning_rate=4.0, batch_size=2, seed=3)
    try:
        return tagger.train(examples, cfg, init=init, hash_dim=TRAIN_DIM, features=features)
    except ValueError as exc:
        return str(exc)


def model_bits(model):
    if isinstance(model, str):
        return model
    return (model.rows.tolist(), model.values.tobytes(),
            np.array(model.epoch_loss).tobytes(), model.epochs_run)


class TestTrain:
    @settings(max_examples=60, deadline=None)
    @given(paragraphs=st.lists(st.lists(ANY_WORD, max_size=5), min_size=1, max_size=6),
           others=st.lists(st.lists(ANY_WORD, min_size=1, max_size=4), max_size=3),
           seed=st.integers(0, 2**16), with_init=st.booleans())
    def test_compacted_uncompacted_and_no_table_agree(self, paragraphs, others, seed,
                                                      with_init):
        # the table holds other paragraphs too, as a run's does: the
        # training rows are a selection of it
        examples = examples_of(paragraphs, seed)
        init = None
        if with_init:
            init = train_or_error(examples_of([*others, *paragraphs[:1]], seed + 1), None, None)
            if isinstance(init, str):
                init = tagger.TaggerModel.fresh(TRAIN_DIM)
        run_table = tagger.featurize([*others, *paragraphs], TRAIN_DIM)
        rows = range(len(others), len(others) + len(paragraphs))
        expected = model_bits(train_or_error(examples, init, None))
        for table in (run_table, run_table.compact()):
            assert model_bits(train_or_error(examples, init, table.select(rows))) == expected

    def test_rows_are_the_ids_the_examples_use(self):
        examples = examples_of([["shared", "left"], ["right"]], 0)
        run_table = tagger.featurize([["unused", "words"], *(e.words for e in examples)],
                                     1 << 20).compact()
        model = tagger.train(examples, tagger.TrainConfig(epochs=1), hash_dim=1 << 20,
                             features=run_table.select([1, 2]))
        assert model.rows.tolist() == np.unique(run_table.select([1, 2]).feat).tolist()


def annotation_bits(model, paragraphs, features):
    try:
        annotated, stats = annotate_corpus(model, paragraphs, GateConfig(0.6),
                                           features=features)
    except ValueError as exc:
        return str(exc)
    return ([(p.labels, np.array(p.confidence).tobytes()) for p in annotated],
            stats.to_dict())


@pytest.fixture(scope="module")
def trained():
    corpus = synth.make_corpus(n_manual=20, n_auto=1, n_test=0, seed=2)
    cfg = tagger.TrainConfig(epochs=4, learning_rate=16.0, batch_size=4, seed=1)
    return tagger.train(merge_for_retraining(corpus.manual, []), cfg, hash_dim=1 << 12)


class TestAnnotate:
    @settings(max_examples=60, deadline=None)
    @given(paragraphs=st.lists(st.lists(ANY_WORD, min_size=1, max_size=6), max_size=9),
           before=st.lists(st.lists(ANY_WORD, min_size=1, max_size=3), max_size=2),
           empty=st.booleans(), chunk=st.integers(1, 4))
    def test_run_table_matches_no_table(self, trained, paragraphs, before, empty, chunk):
        # a selection of a run table, compacted as the loop hands it over,
        # and not compacted
        words = [*paragraphs, []] if empty else paragraphs
        pars = [carrier(w, index=k) for k, w in enumerate(words)]
        run_table = tagger.featurize([*before, *words], trained.hash_dim)
        rows = range(len(before), len(run_table))
        with mock.patch.object(autoannotate, "CHUNK_PARAGRAPHS", chunk):
            expected = annotation_bits(trained, pars, None)
            for table in (run_table.compact(), run_table):
                assert annotation_bits(trained, pars, table.select(rows)) == expected

    def test_largest_hash_dim_under_a_2_gb_cap(self):
        # an array of hash_dim entries would take 4 GiB or more at 2**32;
        # training, annotation with and without a table, and predict_probs
        # run in a child process whose address space is capped at 2 GB
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))\n"
            "from sciner import tagger\n"
            "from sciner.autoannotate import GateConfig, annotate_corpus\n"
            "from sciner.dataset import AnnotatedParagraph, TrainingExample\n"
            "dim = 1 << 32\n"
            "words = [['Alpha', 'beta'], ['gamma', 'Alpha', 'delta']]\n"
            "examples = [TrainingExample(w, ['B-MethodName', 'O', 'O'][:len(w)], [True] * len(w))\n"
            "            for w in words]\n"
            "table = tagger.featurize(words, dim).compact()\n"
            "model = tagger.train(examples, tagger.TrainConfig(epochs=2, learning_rate=16.0),\n"
            "                     hash_dim=dim, features=table)\n"
            "pars = [AnnotatedParagraph(paper_id='p', paragraph_index=k, words=w,\n"
            "                           provenance='unannotated') for k, w in enumerate(words)]\n"
            "got = [annotate_corpus(model, pars, GateConfig(0.6), features=f)[0]\n"
            "       for f in (table, None)]\n"
            "assert [p.labels for p in got[0]] == [p.labels for p in got[1]]\n"
            "print(len(model.rows), len(tagger.predict_probs(model, words[1])))\n"
        )
        src = os.path.dirname(os.path.dirname(tagger.__file__))
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=pythonpath))
        assert out.returncode == 0, out.stderr[-500:]
        n_rows, n_subwords = map(int, out.stdout.split())
        assert n_rows > 0 and n_subwords >= 3


def random_model(data, dim):
    rows = sorted(data.draw(st.sets(st.integers(0, dim - 1), max_size=dim)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    return tagger.TaggerModel(rng.normal(scale=3.0, size=(len(rows), ts.NUM_CLASSES)), dim,
                              rows=np.array(rows, np.int64))


class TestVocabRows:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), paragraphs=PARAGRAPHS, dim=st.sampled_from([2, 16, 1 << 10]),
           fresh=st.booleans(), compact=st.booleans())
    def test_scores_as_the_dense_matrix(self, data, paragraphs, dim, fresh, compact):
        # small dims put ids on both sides of every row, 0 and dim - 1 included
        model = tagger.TaggerModel.fresh(dim) if fresh else random_model(data, dim)
        dense = dense_weights(model)
        table = tagger.featurize(paragraphs, dim)
        table = table.compact() if compact else table
        rows = model.vocab_rows(table.vocab)
        expected = kernels.score_subwords(dense, table.feat, table.offsets)
        assert model.row_probs(rows[table.code], table.offsets).tobytes() == expected.tobytes()
        assert model.subword_probs(table.feat, table.offsets).tobytes() == expected.tobytes()
        for (ids, offsets, _, _), (feat_rows, _, _, _) in zip(
                table.paragraphs(), table.paragraphs(lookup=rows)):
            assert (model.row_probs(feat_rows, offsets).tobytes()
                    == kernels.score_subwords(dense, ids, offsets).tobytes())

    def test_misses_take_the_zero_row(self):
        model = tagger.TaggerModel(np.ones((3, ts.NUM_CLASSES)), 100, rows=[0, 50, 99])
        rows = model.vocab_rows(np.array([0, 1, 49, 50, 51, 98, 99], np.uint32))
        assert rows.tolist() == [0, 3, 3, 1, 3, 3, 2]
        assert tagger.TaggerModel.fresh(8).vocab_rows(np.arange(8, dtype=np.uint32)).tolist() \
            == [0] * 8
