"""Segmentation, featurization, training, prediction, and model file tests."""

import io
import json
import os
import random
import string
import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sciner import synth
from sciner import tag_schema as ts
from sciner import tagger
from sciner.autoannotate import annotate_corpus
from sciner.dataset import AnnotatedParagraph, TrainingExample, merge_for_retraining
from sciner.errors import AlignmentError, FormatError
from kernel_oracles import (
    chunk,
    dense_weights,
    featurize_ref,
    predict_probs_ref,
    segment_paragraph,
    training_loss,
    training_loss_gradient,
)


class TestSegmentation:
    def test_short_word_single_subword(self):
        subs = tagger.segment_word("BERT")
        assert len(subs) == 1
        assert subs[0].text == "BERT"
        assert not subs[0].is_continuation

    def test_14_char_word_chunked_4_4_4_2(self):
        subs = tagger.segment_word("Hyperparameter")
        assert [chunk(s) for s in subs] == ["Hype", "rpar", "amet", "er"]
        assert [s.is_continuation for s in subs] == [False, True, True, True]
        assert subs[1].text == "##rpar"

    def test_concatenation_reconstructs_word(self):
        rng = random.Random(2)
        alphabet = string.ascii_letters + string.digits + "-.,%"
        for _ in range(1000):
            word = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 20)))
            subs = tagger.segment_word(word, word_index=3)
            assert "".join(chunk(s) for s in subs) == word
            assert all(s.word_index == 3 for s in subs)

    def test_paragraph_segmentation_indices(self):
        subs = segment_paragraph(["short", "lengthier"])
        assert [s.word_index for s in subs] == [0, 0, 1, 1, 1]

    def test_whitespace_rejected(self):
        with pytest.raises(ValueError):
            tagger.segment_word("a b")
        with pytest.raises(ValueError):
            tagger.segment_word("")


class TestFeaturize:
    def test_deterministic(self):
        words = ["We", "evaluate", "GateFormer", "."]
        sub = tagger.segment_word("GateFormer", 2)[1]
        a = featurize_ref(sub, words)
        b = featurize_ref(sub, words)
        assert np.array_equal(a, b)

    def test_digit_shape_feature_present(self):
        f = tagger.Featurizer(1 << 16)
        feats = featurize_ref(tagger.segment_word("2022", 0)[0], ["2022"], f.dim)
        assert tagger._hash("shape=dddd", f.dim) in feats

    def test_context_changes_features(self):
        sub = tagger.segment_word("target", 1)[0]
        a = featurize_ref(sub, ["left", "target", "right"])
        b = featurize_ref(sub, ["other", "target", "right"])
        assert not np.array_equal(np.sort(a), np.sort(b))

    def test_word_shape(self):
        assert tagger.word_shape("BERT-2x") == "XXXX_dx"

    def test_paragraph_arrays_match_featurize(self):
        f = tagger.Featurizer(1 << 16)
        words = ["The", "learning", "rate", "was", "0.1", "."]
        feat, offsets, word_idx = f.paragraph_arrays(words)
        subs = segment_paragraph(words)
        assert len(offsets) == len(subs) + 1
        for s, sub in enumerate(subs):
            expected = np.sort(featurize_ref(sub, words, f.dim))
            got = np.sort(feat[offsets[s] : offsets[s + 1]])
            assert np.array_equal(got, expected)
            assert word_idx[s] == sub.word_index


# Words of 1-13 characters (one to four subwords) from any non-space,
# non-control characters: letters, digits, punctuation and non-ASCII.
WORD = st.text(
    alphabet=st.characters(exclude_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
    min_size=1, max_size=13,
)
HASH_DIMS = [2, 1 << 10, 1 << 20]
FIXED_PARAGRAPHS = [
    ["a"],
    ["ab", "7"],
    ["abc", "0.1", "%"],
    ["Hyperparamete"],
    ["naïve", "β-VAE", "(2019)"],
    ["数据集", "F1", "."],
    ["x", "x", "x"],
    ["GPT-3.5", "<s>"],
]


class TestFeaturizeExactOrder:
    """paragraph_arrays against featurize_ref, id by id and in order."""

    def assert_matches_ref(self, featurizer, words):
        feat, offsets, word_idx = featurizer.paragraph_arrays(words)
        assert feat.dtype == offsets.dtype == word_idx.dtype == np.int64
        subs = segment_paragraph(words)
        assert len(offsets) == len(subs) + 1
        assert offsets[0] == 0 and offsets[-1] == len(feat)
        for s, sub in enumerate(subs):
            expected = featurize_ref(sub, words, featurizer.dim)
            assert feat[offsets[s] : offsets[s + 1]].tolist() == expected.tolist(), (s, sub)
            assert word_idx[s] == sub.word_index

    @pytest.mark.parametrize("dim", HASH_DIMS)
    def test_fixed_paragraphs_share_one_featurizer(self, dim):
        featurizer = tagger.Featurizer(dim)
        for _ in range(2):  # the second pass reads the caches
            for words in FIXED_PARAGRAPHS:
                self.assert_matches_ref(featurizer, words)

    @settings(max_examples=300, deadline=None)
    @given(words=st.lists(WORD, min_size=1, max_size=3), dim=st.sampled_from(HASH_DIMS))
    def test_arbitrary_paragraphs(self, words, dim):
        featurizer = tagger.Featurizer(dim)
        self.assert_matches_ref(featurizer, words)
        self.assert_matches_ref(featurizer, words)


class TestGoldenFeaturizerIds:
    """Literal ids of one paragraph, so a featurizer rewrite that moves any
    id fails here.  CRC32 does not depend on the platform."""

    WORDS = ["A", "β-VAE", "7"]
    OFFSETS = [0, 12, 28, 44, 56]
    WORD_IDX = [0, 1, 1, 2]
    IDS = {
        1 << 20: [
            [485979, 827007, 196141, 44771, 110515, 72538,
             434915, 335582, 353294, 361220, 201699, 492387],
            [485979, 739704, 292788, 957125, 813994, 127373, 296677, 276101, 336290, 766777,
             434915, 335582, 196557, 594813, 81210, 606989],
            [485979, 739704, 292788, 957125, 813994, 127373, 296677, 276101, 336290, 309036,
             349777, 335582, 196557, 594813, 81210, 606989],
            [485979, 674422, 885418, 424682, 490426, 511827,
             434915, 278932, 91194, 218893, 864675, 606989],
        ],
        # collides: 56 ids in 34 buckets here, 36 at 2**20
        1 << 10: [
            [603, 639, 557, 739, 947, 858, 739, 734, 14, 772, 995, 867],
            [603, 376, 948, 709, 938, 397, 741, 645, 418, 825, 739, 734, 973, 893, 314, 781],
            [603, 376, 948, 709, 938, 397, 741, 645, 418, 812, 593, 734, 973, 893, 314, 781],
            [603, 630, 682, 746, 954, 851, 739, 404, 58, 781, 419, 781],
        ],
    }

    @pytest.mark.parametrize("dim", sorted(IDS))
    def test_paragraph_arrays(self, dim):
        feat, offsets, word_idx = tagger.Featurizer(dim).paragraph_arrays(self.WORDS)
        assert offsets.tolist() == self.OFFSETS
        assert word_idx.tolist() == self.WORD_IDX
        assert [feat[a:b].tolist() for a, b in zip(offsets[:-1], offsets[1:])] == self.IDS[dim]

    @pytest.mark.parametrize("dim", sorted(IDS))
    def test_inside_a_table(self, dim):
        # the paragraph between two others keeps its ids
        table = tagger.featurize([["x", "y"], self.WORDS, ["z"]], dim)
        feat, offsets, word_idx, n_words = list(table.paragraphs())[1]
        assert (offsets.tolist(), word_idx.tolist(), n_words) == (self.OFFSETS, self.WORD_IDX, 3)
        assert feat.tolist() == [i for ids in self.IDS[dim] for i in ids]

    def test_collisions_at_small_dim(self):
        flat = [[i for ids in self.IDS[dim] for i in ids] for dim in (1 << 20, 1 << 10)]
        assert len(set(flat[1])) < len(set(flat[0]))


def assert_table_matches_ref(table, paragraphs, dim):
    """Every subword of `table` against featurize_ref on its own paragraph."""
    assert table.dim == dim and len(table) == len(paragraphs)
    assert table.feat.dtype == np.uint32
    assert table.word_counts() == [len(words) for words in paragraphs]
    subs = [segment_paragraph(words) for words in paragraphs]
    assert table.sub_at.tolist() == np.cumsum([0] + [len(s) for s in subs]).tolist()
    assert table.offsets[0] == 0 and table.offsets[-1] == len(table.feat)
    s = 0
    for words, par_subs in zip(paragraphs, subs):
        for sub in par_subs:
            got = table.feat[table.offsets[s] : table.offsets[s + 1]]
            assert got.tolist() == featurize_ref(sub, words, dim).tolist(), (words, sub)
            assert table.word_idx[s] == sub.word_index
            s += 1
    assert s == len(table.offsets) - 1


class TestFeatureTable:
    PARAGRAPHS = [
        ["one"],
        ["two", "words"],
        ["The", "learning", "rate", "was", "0.1", "."],
        ["Hyperparameter"],
        ["<s>", "</s>", "x"],
        ["a", "b", "c", "d", "e"],
    ]

    @pytest.mark.parametrize("dim", [0, -4, 1, 2**33])
    def test_hash_dim_outside_range_rejected(self, dim):
        with pytest.raises(ValueError, match=r"^hash dimension must lie in \[2, 2\*\*32\]$"):
            tagger.featurize([["a"]], dim)

    @pytest.mark.parametrize("dim", [1, 1 << 33])
    def test_featurizer_rejects_hash_dim_at_construction(self, dim):
        with pytest.raises(ValueError, match=r"^hash dimension must lie in \[2, 2\*\*32\]$"):
            tagger.Featurizer(dim)

    @pytest.mark.parametrize("dim", HASH_DIMS)
    def test_slice_matches_ref(self, dim):
        assert_table_matches_ref(
            tagger.featurize(self.PARAGRAPHS, dim), self.PARAGRAPHS, dim
        )

    def test_ends_see_padding_not_the_neighbour_paragraph(self):
        dim = 1 << 20
        table = tagger.featurize(self.PARAGRAPHS, dim)
        h = lambda text: tagger._hash(text, dim)  # noqa: E731
        for p, (feat, offsets, word_idx, n_words) in enumerate(table.paragraphs()):
            contexts = [feat[b - 5 : b].tolist() for b in offsets[1:]]
            first, last = contexts[0], contexts[-1]
            assert first[:2] == [h("n-2=<s>"), h("n-1=<s>")]
            assert last[3:] == [h("n1=</s>"), h("n2=</s>")]
            if n_words >= 2:
                second = contexts[int(np.searchsorted(word_idx, 1))]
                before_last = contexts[int(np.searchsorted(word_idx, n_words - 2))]
                assert second[0] == h("n-2=<s>")
                assert before_last[4] == h("n2=</s>")

    def test_word_shared_by_two_slices(self):
        dim = 1 << 12
        a = tagger.featurize([["shared", "left"]], dim)
        b = tagger.featurize([["right", "more", "shared"], ["shared"]], dim)
        # "shared" is 2 subwords: the first one's own ids, in each place
        own = a.feat[: a.offsets[1] - 5]
        assert np.array_equal(b.feat[b.offsets[3] : b.offsets[4] - 5], own)
        assert np.array_equal(b.feat[b.offsets[5] : b.offsets[6] - 5], own)
        assert_table_matches_ref(b, [["right", "more", "shared"], ["shared"]], dim)

    def test_empty_slice_and_empty_paragraph(self):
        empty = tagger.featurize([], 1 << 10)
        assert len(empty) == 0 and len(empty.feat) == 0
        assert empty.offsets.tolist() == empty.sub_at.tolist() == empty.word_at.tolist() == [0]
        table = tagger.featurize([["a"], [], ["b", "c"]], 1 << 10)
        assert table.word_counts() == [1, 0, 2]
        assert_table_matches_ref(table, [["a"], [], ["b", "c"]], 1 << 10)

    def test_read_only(self):
        table = tagger.featurize(self.PARAGRAPHS, 1 << 10)
        with pytest.raises(ValueError):
            table.feat[0] = 1
        with pytest.raises(ValueError):
            table.offsets[0] = 1

    def test_select_equals_a_fresh_compile(self):
        dim = 1 << 10
        table = tagger.featurize(self.PARAGRAPHS, dim)
        assert table.select(range(len(self.PARAGRAPHS))) is table
        for rows in ([], [3], [5, 0, 2], [1, 1]):
            expected = tagger.featurize([self.PARAGRAPHS[r] for r in rows], dim)
            got = table.select(rows)
            for name in ("feat", "offsets", "word_idx", "sub_at", "word_at"):
                assert np.array_equal(getattr(got, name), getattr(expected, name)), (rows, name)
        rows = [*range(6), 0, 4]
        assert_table_matches_ref(table.select(rows), [self.PARAGRAPHS[i] for i in rows], dim)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), paragraphs=st.lists(st.lists(WORD, max_size=4), max_size=5))
    def test_select_arbitrary_rows(self, data, paragraphs):
        dim = 1 << 10
        table = tagger.featurize(paragraphs, dim)
        rows = data.draw(st.lists(st.integers(0, len(paragraphs) - 1), max_size=8)
                         if paragraphs else st.just([]))
        if data.draw(st.booleans()):
            rows = rows[::-1]
        expected = tagger.featurize([paragraphs[r] for r in rows], dim)
        got = table.select(rows)
        assert got.dim == dim
        for name in ("feat", "offsets", "word_idx", "sub_at", "word_at"):
            actual = getattr(got, name)
            assert actual.dtype == getattr(expected, name).dtype, name
            assert np.array_equal(actual, getattr(expected, name)), (rows, name)

    def test_check_matches(self):
        table = tagger.featurize([["a", "b"], ["c"]], 1 << 10)
        table.check_matches(1 << 10, [["x", "y"], ["z"]])
        with pytest.raises(ValueError, match="hash dimension"):
            table.check_matches(1 << 11, [["a", "b"], ["c"]])
        with pytest.raises(ValueError, match="does not match"):
            table.check_matches(1 << 10, [["a"], ["b", "c"]])

    @settings(max_examples=150, deadline=None)
    @given(paragraphs=st.lists(st.lists(WORD, max_size=4), max_size=4),
           dim=st.sampled_from(HASH_DIMS))
    def test_arbitrary_slices(self, paragraphs, dim):
        assert_table_matches_ref(tagger.featurize(paragraphs, dim), paragraphs, dim)


class TestFeaturizerMemo:
    # words that no other test featurizes, so the first pass must hash them
    WORDS = ["memoOnlyHere", "ζmemo-7", "mq"]

    def test_second_pass_hashes_nothing(self, monkeypatch):
        calls = []
        real_crc32 = zlib.crc32

        def counting_crc32(*args):
            calls.append(args[0])
            return real_crc32(*args)

        monkeypatch.setattr(zlib, "crc32", counting_crc32)
        dim = 1 << 12
        model = tagger.TaggerModel.fresh(dim)
        first = tagger.Featurizer(dim).paragraph_arrays(self.WORDS)
        assert calls
        calls.clear()
        again = tagger.Featurizer(dim).paragraph_arrays(self.WORDS)
        probs = tagger.predict_probs(model, self.WORDS)
        paragraph = AnnotatedParagraph(
            paper_id="m", paragraph_index=0, words=list(self.WORDS), provenance="unannotated"
        )
        annotated, _ = annotate_corpus(model, [paragraph])
        assert calls == []
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
        assert len(probs) == len(first[2]) and len(annotated[0].labels) == len(self.WORDS)


def tiny_examples():
    """Two-class toy problem: Alpha is always B-MethodName, beta always O."""
    examples = []
    for k in range(20):
        words = ["beta", "Alpha", "beta"] if k % 2 else ["Alpha", "beta", "beta"]
        labels = (
            ["O", "B-MethodName", "O"] if k % 2 else ["B-MethodName", "O", "O"]
        )
        examples.append(TrainingExample(words, labels, [True] * 3))
    return examples


class TestTrainConfig:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            tagger.TrainConfig(epochs=0)

    def test_bad_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            tagger.TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize("rate", [float("inf"), float("nan")])
    def test_non_finite_learning_rate_rejected(self, rate):
        with pytest.raises(ValueError, match=rf"^learning_rate must be finite, got {rate}$"):
            tagger.TrainConfig(learning_rate=rate)

    def test_negative_infinite_learning_rate_is_not_positive(self):
        with pytest.raises(ValueError, match=r"^learning_rate must be > 0$"):
            tagger.TrainConfig(learning_rate=float("-inf"))

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError):
            tagger.TrainConfig(batch_size=0)

    def test_paper_defaults(self):
        cfg = tagger.TrainConfig()
        assert (cfg.epochs, cfg.learning_rate, cfg.batch_size) == (20, 1e-4, 8)


def separable_fixture(seed=0, n=20):
    """A linearly separable synthetic set plus an independent solver check.

    Words are type-exclusive dictionary entries; scipy's L-BFGS on the full
    batch cross-entropy must reach ~100% training accuracy, which certifies
    separability independently of the SGD path under test.
    """
    rng = random.Random(seed)
    methods = ["AlphaNet", "BetaTag", "GammaNet"]
    fillers = ["we", "use", "the", "system", "for", "tests"]
    examples = []
    for _ in range(n):
        words, labels = [], []
        for _ in range(rng.randrange(3, 7)):
            if rng.random() < 0.4:
                words.append(rng.choice(methods))
                labels.append("B-MethodName")
            else:
                words.append(rng.choice(fillers))
                labels.append("O")
        examples.append(TrainingExample(words, labels, [True] * len(words)))
    return examples


def solver_accuracy(examples, dim=1 << 12):
    """Independent full-batch solver (scipy L-BFGS) training accuracy."""
    from scipy.optimize import minimize

    featurizer = tagger.Featurizer(dim)
    prepared = tagger.prepare_examples(examples, featurizer)
    n_sub = len(prepared.labels)
    rows = []
    for t in range(n_sub):
        x = np.zeros(dim)
        for f in prepared.feat[prepared.offsets[t] : prepared.offsets[t + 1]]:
            x[f] += 1.0
        rows.append(x)
    X = np.vstack(rows)
    y = prepared.labels
    n_classes = ts.NUM_CLASSES

    def loss_grad(w_flat):
        W = w_flat.reshape(dim, n_classes)
        z = X @ W
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        loss = -np.log(p[np.arange(n_sub), y]).mean()
        g = p
        g[np.arange(n_sub), y] -= 1.0
        grad = X.T @ g / n_sub
        return loss, grad.ravel()

    result = minimize(loss_grad, np.zeros(dim * n_classes), jac=True,
                      method="L-BFGS-B", options={"maxiter": 200})
    W = result.x.reshape(dim, n_classes)
    pred = (X @ W).argmax(axis=1)
    return float((pred == y).mean())


class TestTrain:
    def test_empty_training_data_rejected(self):
        with pytest.raises(ValueError):
            tagger.train([], tagger.TrainConfig())

    def test_all_masked_rejected(self):
        example = TrainingExample(["a"], ["O"], [False])
        with pytest.raises(ValueError):
            tagger.train([example], tagger.TrainConfig())

    def test_reaches_99pct_on_separable_set(self):
        examples = separable_fixture()
        assert solver_accuracy(examples) == 1.0  # oracle: the set is separable
        cfg = tagger.TrainConfig(epochs=20, learning_rate=16.0, batch_size=8, seed=0)
        model = tagger.train(examples, cfg, hash_dim=1 << 12)
        correct = total = 0
        for example in examples:
            probs = tagger.predict_probs(model, example.words)
            for tp in probs:
                total += 1
                correct += int(
                    int(tp.distribution.argmax())
                    == ts.label_index(example.labels[tp.word_index])
                )
        assert correct / total >= 0.99

    def test_bit_identical_reruns(self):
        examples = separable_fixture(3)
        cfg = tagger.TrainConfig(epochs=5, learning_rate=1.0, batch_size=4, seed=7)
        a = tagger.train(examples, cfg, hash_dim=1 << 10)
        b = tagger.train(examples, cfg, hash_dim=1 << 10)
        assert np.array_equal(dense_weights(a), dense_weights(b))
        assert a.epochs_run == b.epochs_run == 5

    def test_masked_positions_contribute_nothing(self):
        base = TrainingExample(["Alpha", "beta"], ["B-MethodName", "O"], [True, True])
        cfg = tagger.TrainConfig(epochs=3, learning_rate=1.0, batch_size=8, seed=0)

        masked_extra = [
            base,
            TrainingExample(["Alpha", "beta"], ["O", "amb"], [False, False]),
        ]
        a = tagger.train([base], cfg, hash_dim=1 << 10)
        b = tagger.train(masked_extra, cfg, hash_dim=1 << 10)
        # an all-masked paragraph changes the shuffle but not any update;
        # with a single effective paragraph per batch the weights must agree
        assert np.allclose(dense_weights(a), dense_weights(b))

    def test_init_continues_training(self):
        examples = separable_fixture(5)
        cfg = tagger.TrainConfig(epochs=2, learning_rate=0.5, batch_size=8, seed=1)
        first = tagger.train(examples, cfg, hash_dim=1 << 10)
        second = tagger.train(examples, cfg, init=first)
        assert second.epochs_run == 4
        assert second.hash_dim == first.hash_dim
        assert not np.array_equal(dense_weights(first), dense_weights(second))

    def test_loss_non_increasing_with_small_lr(self):
        examples = separable_fixture(9, n=8)
        losses = []
        model = None
        for _ in range(6):
            cfg = tagger.TrainConfig(epochs=1, learning_rate=1e-4, batch_size=8, seed=2)
            model = tagger.train(examples, cfg, init=model, hash_dim=1 << 10)
            losses.append(training_loss(model, examples))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_one_sgd_step_equals_analytic_gradient(self):
        examples = separable_fixture(11, n=4)
        model = tagger.TaggerModel.fresh(1 << 10)
        cfg = tagger.TrainConfig(epochs=1, learning_rate=0.3, batch_size=len(examples), seed=0)
        stepped = tagger.train(examples, cfg, init=model)
        grad = training_loss_gradient(model, examples)
        assert np.allclose(dense_weights(stepped), dense_weights(model) - 0.3 * grad, atol=1e-12)

    def test_train_does_not_import_numpy_ma(self):
        """numpy.ma costs every `sciner loop` process its import; np.union1d
        and a plain np.unique import it."""
        code = (
            "import sys\n"
            "import numpy\n"
            "if 'numpy.ma' in sys.modules:\n"
            "    print('loaded by numpy')\n"
            "    raise SystemExit\n"
            "from sciner import tagger\n"
            "from sciner.dataset import TrainingExample\n"
            "examples = [TrainingExample(['Alpha', 'beta'], ['B-MethodName', 'O'], [True, True])]\n"
            "cfg = tagger.TrainConfig(epochs=2, learning_rate=1.0, batch_size=8, seed=0)\n"
            "model = tagger.train(examples, cfg, hash_dim=1 << 10)\n"
            "tagger.train(examples, cfg, init=model)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(tagger.__file__))
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=pythonpath))
        assert out.returncode == 0, out.stderr[-2000:]
        if out.stdout.strip() == "loaded by numpy":
            pytest.skip("this numpy loads numpy.ma on import")
        assert out.stdout.strip() == "False"


class TestGradient:
    def test_matches_central_finite_differences(self):
        examples = separable_fixture(13, n=6)
        rng = np.random.default_rng(5)
        dim = 1 << 8
        model = tagger.TaggerModel(
            rng.normal(scale=0.5, size=(dim, ts.NUM_CLASSES)), dim, rows=np.arange(dim)
        )
        grad = training_loss_gradient(model, examples)
        h = 1e-5  # loss is smooth; smaller steps are roundoff-dominated
        # probe coordinates that actually carry features, plus a few that do not
        featurizer = tagger.Featurizer(dim)
        prepared = tagger.prepare_examples(examples, featurizer)
        active_rows = np.unique(prepared.feat)
        coords = [(int(r), int(c)) for r, c in zip(
            rng.choice(active_rows, 20), rng.integers(0, ts.NUM_CLASSES, 20)
        )]
        for row, col in coords:
            w_plus = model.values.copy()
            w_plus[row, col] += h
            w_minus = model.values.copy()
            w_minus[row, col] -= h
            loss_plus = training_loss(
                tagger.TaggerModel(w_plus, dim, rows=np.arange(dim)), examples
            )
            loss_minus = training_loss(
                tagger.TaggerModel(w_minus, dim, rows=np.arange(dim)), examples
            )
            fd = (loss_plus - loss_minus) / (2 * h)
            denom = max(abs(fd), abs(grad[row, col]), 1e-8)
            assert abs(fd - grad[row, col]) / denom < 1e-5, (row, col)


class TestPrepareExamples:
    def test_matches_per_subword_labels(self):
        corpus = synth.make_corpus(n_manual=20, n_auto=0, n_test=0, seed=4)
        examples = merge_for_retraining(corpus.manual, [])
        examples.append(TrainingExample(
            ["Alpha", "convolutional", "amb-word", "x"],
            ["B-MethodName", "I-MethodName", "amb", "not-a-label"],
            [True, True, True, False],
        ))
        examples.append(TrainingExample([], [], []))
        featurizer = tagger.Featurizer(1 << 12)
        prepared = tagger.prepare_examples(examples, featurizer)
        labels, mask = [], []
        for example in examples:
            _, _, word_idx = featurizer.paragraph_arrays(example.words)
            for wi in word_idx.tolist():
                live = example.mask[wi] and example.labels[wi] != ts.AMB
                labels.append(ts.label_index(example.labels[wi]) if live else 0)
                mask.append(live)
        assert prepared.labels.dtype == np.int64 and prepared.mask.dtype == np.uint8
        assert np.array_equal(prepared.labels, labels)
        assert np.array_equal(prepared.mask, mask)
        assert prepared.n_effective == sum(mask)
        assert prepared.n_paragraphs == len(examples)

    def test_table_rows_give_the_same_arrays(self):
        corpus = synth.make_corpus(n_manual=12, n_auto=0, n_test=0, seed=4)
        examples = merge_for_retraining(corpus.manual, [])
        featurizer = tagger.Featurizer(1 << 12)
        table = tagger.featurize([p.words for p in corpus.manual], featurizer.dim)
        fresh = tagger.prepare_examples(examples, featurizer)
        from_table = tagger.prepare_examples(examples, featurizer, table)
        assert vars(fresh).keys() == vars(from_table).keys()
        for name, value in vars(fresh).items():
            assert np.array_equal(value, getattr(from_table, name)), name
        with pytest.raises(ValueError, match="does not match"):
            tagger.prepare_examples(examples[1:], featurizer, table)
        with pytest.raises(ValueError, match="hash dimension"):
            tagger.prepare_examples(examples, tagger.Featurizer(1 << 10), table)

    def test_short_labels_rejected(self):
        example = TrainingExample(["a", "b"], ["O"], [True, True])
        with pytest.raises(ValueError, match="a label and a mask entry per word"):
            tagger.prepare_examples([example], tagger.Featurizer(1 << 10))

    @pytest.mark.parametrize("labels, mask", [
        (["O", "B-TaskName", "I-TaskName"], [True] * 3),
        (["O", "B-TaskName", "I-TaskName"], [True] * 2),
        (["O", "B-TaskName"], [True] * 3),
    ])
    def test_extra_labels_or_mask_entries_rejected(self, labels, mask):
        example = TrainingExample(["a", "b"], labels, mask)
        with pytest.raises(ValueError, match="a label and a mask entry per word"):
            tagger.prepare_examples([example], tagger.Featurizer(1 << 10))

    def test_unmasked_unknown_label_rejected(self):
        example = TrainingExample(["a", "b"], ["O", "B-Nonsense"], [True, True])
        with pytest.raises(ValueError, match="unmasked label 'B-Nonsense' is not a model class"):
            tagger.prepare_examples([example], tagger.Featurizer(1 << 10))

    def test_empty(self):
        prepared = tagger.prepare_examples([], tagger.Featurizer(1 << 10))
        assert (len(prepared.feat), len(prepared.labels), len(prepared.mask)) == (0, 0, 0)
        assert prepared.offsets.tolist() == [0] and prepared.par_offsets.tolist() == [0]


class TestPredict:
    def test_zero_weights_uniform(self):
        model = tagger.TaggerModel.fresh(1 << 10)
        probs = tagger.predict_probs(model, ["some", "words", "here"])
        for tp in probs:
            assert np.allclose(tp.distribution, 1.0 / 15, atol=1e-12)

    def test_empty_paragraph(self):
        model = tagger.TaggerModel.fresh(1 << 10)
        assert tagger.predict_probs(model, []) == []

    def test_distributions_sum_to_one(self):
        rng = np.random.default_rng(8)
        dim = 1 << 10
        model = tagger.TaggerModel(rng.normal(size=(dim, ts.NUM_CLASSES)), dim, rows=np.arange(dim))
        probs = tagger.predict_probs(model, ["alpha", "bravo", "charlie", "2024"])
        for tp in probs:
            assert abs(tp.distribution.sum() - 1.0) <= 1e-9
            assert (tp.distribution >= 0).all()

    def test_raising_active_weight_raises_probability(self):
        dim = 1 << 10
        model = tagger.TaggerModel(np.zeros((dim, ts.NUM_CLASSES)), dim, rows=np.arange(dim))
        featurizer = tagger.Featurizer(dim)
        words = ["target"]
        before = tagger.predict_probs(model, words)[0].distribution[3]
        feats = featurize_ref(tagger.segment_word("target", 0)[0], words, featurizer.dim)
        model.values[feats[0], 3] += 1.0
        after = tagger.predict_probs(model, words)[0].distribution[3]
        assert after > before

    def test_word_alignment(self):
        model = tagger.TaggerModel.fresh(1 << 10)
        probs = tagger.predict_probs(model, ["tiny", "elaborate"])
        assert [tp.word_index for tp in probs] == [0, 1, 1, 1]

    def test_token_probs_reject_nan(self):
        dist = np.full(ts.NUM_CLASSES, 1.0 / ts.NUM_CLASSES)
        dist[2] = np.nan
        with pytest.raises(ValueError, match="sums to nan"):
            tagger.TokenProbs(0, dist)


LONG_WORD = st.text(
    alphabet=st.characters(exclude_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
    min_size=13, max_size=40,
)


def model_for(words, dim, seed=0):
    """A model whose rows are every id the paragraph's features hash to,
    with random weights, so that no distribution is uniform."""
    rows = np.unique(tagger.featurize([words], dim).feat).astype(np.int64)
    rng = np.random.default_rng(seed)
    return tagger.TaggerModel(rng.normal(scale=3.0, size=(len(rows), ts.NUM_CLASSES)),
                              dim, rows=rows)


class TestPredictProbsOracle:
    """predict_probs against predict_probs_ref, which builds one checked
    TokenProbs per row of paragraph_arrays' scores."""

    @staticmethod
    def assert_same(got, expected):
        assert [tp.word_index for tp in got] == [tp.word_index for tp in expected]
        for a, b in zip(got, expected):
            assert a.distribution.dtype == np.float64
            assert a.distribution.tobytes() == b.distribution.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(words=st.lists(st.one_of(WORD, LONG_WORD), min_size=1, max_size=6),
           dim=st.integers(2, 1 << 20), seed=st.integers(0, 2**32 - 1))
    @example(words=["a"], dim=1 << 20, seed=0)
    @example(words=["Hyperparameterization"], dim=1 << 10, seed=1)
    @example(words=["x", "verylongwordindeed", "x"], dim=2, seed=2)
    def test_arbitrary_paragraphs(self, words, dim, seed):
        model = model_for(words, dim, seed)
        self.assert_same(tagger.predict_probs(model, words), predict_probs_ref(model, words))

    def test_rows_view_one_matrix_without_row_checks(self, monkeypatch):
        words = ["Hyperparameterization", "of", "BERT-large"]
        model = model_for(words, 1 << 12)
        calls = []
        real = tagger.TokenProbs.__post_init__
        monkeypatch.setattr(tagger.TokenProbs, "__post_init__",
                            lambda self: (calls.append(1), real(self)))
        probs = tagger.predict_probs(model, words)
        assert calls == []
        base = probs[0].distribution.base
        assert base is not None and base.shape == (len(probs), ts.NUM_CLASSES)
        assert all(tp.distribution.base is base for tp in probs)


class TestPredictProbsErrors:
    """A matrix with a bad row raises what TokenProbs raises on its first bad row."""

    WORDS = ["Hyperparameterization", "of", "BERT-large", "models"]

    def scores(self):
        model = model_for(self.WORDS, 1 << 12)
        return model, model.subword_probs(*tagger.Featurizer(1 << 12).paragraph_arrays(self.WORDS)[:2])

    def patched(self, monkeypatch, model, matrix):
        monkeypatch.setattr(tagger.TaggerModel, "subword_probs", lambda self, feat, offsets: matrix)
        return tagger.predict_probs(model, self.WORDS)

    @staticmethod
    def negative(row):
        row[0] = -row[0]

    @staticmethod
    def nan(row):
        row[3] = np.nan

    @staticmethod
    def over(row):
        row[1] += 2e-9

    @pytest.mark.parametrize("spoil", ["negative", "nan", "over"])
    @pytest.mark.parametrize("bad", [0, 2, -1])
    def test_bad_row_raises_its_error(self, monkeypatch, spoil, bad):
        model, probs = self.scores()
        matrix = probs.copy()
        getattr(self, spoil)(matrix[bad])
        with pytest.raises(ValueError) as expected:
            tagger.TokenProbs(0, matrix[bad])
        with pytest.raises(ValueError) as got:
            self.patched(monkeypatch, model, matrix)
        assert str(got.value) == str(expected.value)

    def test_first_bad_row_wins(self, monkeypatch):
        model, probs = self.scores()
        matrix = probs.copy()
        self.over(matrix[1])
        self.negative(matrix[3])
        with pytest.raises(ValueError) as expected:
            tagger.TokenProbs(1, matrix[1])
        with pytest.raises(ValueError) as got:
            self.patched(monkeypatch, model, matrix)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith("distribution sums to 1.0000000")

    def test_fourteen_columns(self, monkeypatch):
        model, probs = self.scores()
        matrix = np.ascontiguousarray(probs[:, :14])
        with pytest.raises(ValueError) as expected:
            tagger.TokenProbs(0, matrix[0])
        with pytest.raises(ValueError) as got:
            self.patched(monkeypatch, model, matrix)
        assert str(got.value) == str(expected.value) == (
            "distribution must have 15 entries, got (14,)")

    @pytest.mark.parametrize("off", [1e-9 - 1e-12, -(1e-9 - 1e-12)])
    def test_row_off_by_at_most_1e_9_passes(self, monkeypatch, off):
        model, probs = self.scores()
        matrix = probs.copy()
        matrix[2, matrix[2].argmax()] += off
        assert 5e-10 < abs(matrix[2].sum() - 1.0) <= 1e-9
        tagger.TokenProbs(0, matrix[2])
        out = self.patched(monkeypatch, model, matrix)
        assert out[2].distribution.tobytes() == matrix[2].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 15, 16, 17, 129, 1000])
    def test_matrix_row_sums_equal_row_sums_bitwise(self, n):
        # the one-matrix check rests on this: each entry of sum(axis=1) has
        # the bits of its row's own sum()
        rng = np.random.default_rng(n)
        for matrix in (rng.dirichlet(np.ones(ts.NUM_CLASSES), size=n),
                       rng.random((n, ts.NUM_CLASSES))
                       * 10.0 ** rng.integers(-20, 3, (n, ts.NUM_CLASSES))):
            sums = matrix.sum(axis=1)
            assert sums.tobytes() == np.array([row.sum() for row in matrix]).tobytes()


class TestModelFile:
    def test_roundtrip_bit_identical_predictions(self, tmp_path):
        examples = separable_fixture(21)
        cfg = tagger.TrainConfig(epochs=3, learning_rate=2.0, batch_size=8, seed=3)
        model = tagger.train(examples, cfg, hash_dim=1 << 12)
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = tagger.TaggerModel.load(path)
        assert np.array_equal(dense_weights(loaded), dense_weights(model))
        assert loaded.hash_dim == model.hash_dim
        assert loaded.epochs_run == model.epochs_run
        words = ["AlphaNet", "is", "here"]
        original = tagger.predict_probs(model, words)
        reloaded = tagger.predict_probs(loaded, words)
        for a, b in zip(original, reloaded):
            assert np.array_equal(a.distribution, b.distribution)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, format="other-format", weights=np.zeros((4, 15)))
        with pytest.raises(FormatError):
            tagger.TaggerModel.load(path)

    def test_nonfinite_weights_rejected(self):
        weights = np.zeros((16, 15))
        weights[3, 2] = np.inf
        with pytest.raises(ValueError):
            tagger.TaggerModel(weights, 16, rows=np.arange(16))

    def test_rows_are_required(self):
        with pytest.raises(TypeError, match="rows"):
            tagger.TaggerModel(np.zeros((16, 15)), 16)

    def test_save_appends_npz_suffix(self, tmp_path):
        model = tagger.TaggerModel.fresh(16)
        model.save(tmp_path / "model")
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
        assert tagger.TaggerModel.load(tmp_path / "model.npz").hash_dim == 16

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.npz"
        old = tagger.TaggerModel.fresh(16)
        old.save(path)
        before = path.read_bytes()

        def crash_part_way(file, **arrays):
            if not hasattr(file, "write"):
                file = open(file, "wb")
            file.write(before[: len(before) // 2])
            file.flush()
            raise OSError("disk full")

        monkeypatch.setattr(tagger.np, "savez_compressed", crash_part_way)
        with pytest.raises(OSError, match="disk full"):
            tagger.TaggerModel(np.ones((16, 15)), 16, rows=np.arange(16)).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]

    def test_roundtrip_bit_exact_signed_zero_and_denormals(self, tmp_path):
        weights = np.zeros((64, 15))
        weights[3, 4] = -0.0  # a row holding only -0.0 must not come back as +0.0
        weights[10] = np.linspace(-1.0, 1.0, 15)
        weights[11, 0] = 5e-324  # smallest denormal
        weights[11, 14] = -np.finfo(np.float64).tiny / 3
        weights[63, 7] = 1e300
        model = tagger.TaggerModel(weights, 64, epochs_run=7, learning_rate=0.25, seed=9,
                                   rows=np.arange(64))
        model.save(tmp_path / "m.npz")
        loaded = tagger.TaggerModel.load(tmp_path / "m.npz")
        assert np.array_equal(dense_weights(loaded).view(np.int64), weights.view(np.int64))
        assert (loaded.hash_dim, loaded.epochs_run, loaded.learning_rate, loaded.seed) == (
            64, 7, 0.25, 9
        )
        with np.load(tmp_path / "m.npz") as data:
            assert str(data["format"]) == tagger.MODEL_FORMAT
            assert list(data["rows"]) == [3, 10, 11, 63]

    def test_fresh_full_size_model_is_small_and_roundtrips(self, tmp_path):
        tagger.TaggerModel.fresh(1 << 20).save(tmp_path / "fresh.npz")
        assert (tmp_path / "fresh.npz").stat().st_size < 64 * 1024
        loaded = tagger.TaggerModel.load(tmp_path / "fresh.npz")
        assert loaded.hash_dim == 1 << 20
        assert not dense_weights(loaded).view(np.int64).any()

    @pytest.mark.parametrize(
        "rows, values_shape",
        [
            ([4, 2], (2, 15)),  # unsorted
            ([2, 2], (2, 15)),  # duplicate
            ([1, 16], (2, 15)),  # row >= hash_dim
            ([-1, 3], (2, 15)),  # negative row
            ([1, 3], (3, 15)),  # one values row too many
            ([1, 3], (2, 14)),  # wrong class count
            ([[1, 3]], (2, 15)),  # not 1-D
            ([1.0, 3.0], (2, 15)),  # not integer
        ],
    )
    def test_malformed_v2_file_rejected_with_path(self, tmp_path, rows, values_shape):
        path = tmp_path / "bad_v2.npz"
        np.savez_compressed(
            path, format=tagger.MODEL_FORMAT, rows=np.asarray(rows),
            values=np.ones(values_shape), hash_dim=16, epochs_run=1,
            learning_rate=0.1, seed=0,
        )
        with pytest.raises(FormatError) as info:
            tagger.TaggerModel.load(path)
        assert str(path) in str(info.value)

    def test_v2_file_missing_key_rejected_with_path(self, tmp_path):
        path = tmp_path / "no_values.npz"
        np.savez_compressed(
            path, format=tagger.MODEL_FORMAT, rows=np.arange(2), hash_dim=16,
            epochs_run=1, learning_rate=0.1, seed=0,
        )
        with pytest.raises(FormatError, match="values") as info:
            tagger.TaggerModel.load(path)
        assert str(path) in str(info.value)


def probs_line(paper_id="p", paragraph=0, word_index=0, subword_index=0, probs=None):
    if probs is None:
        probs = [1.0 / 15] * 15
    return json.dumps(
        {
            "paper_id": paper_id,
            "paragraph": paragraph,
            "word_index": word_index,
            "subword_index": subword_index,
            "probs": probs,
        }
    )


class TestExternalProbs:
    def test_well_formed_records(self):
        text = probs_line(word_index=0) + "\n" + probs_line(word_index=1) + "\n"
        table = tagger.load_external_probs(io.StringIO(text))
        assert len(table.word_index) == 2
        assert table.word_index[1] == 1
        assert abs(table.probs[0].sum() - 1.0) < 1e-12

    def test_wrong_class_count_rejected(self):
        text = probs_line(probs=[1.0 / 14] * 14)
        with pytest.raises(FormatError, match="record 1"):
            tagger.load_external_probs(io.StringIO(text))

    def test_negative_probability_rejected(self):
        probs = [1.0 / 15] * 15
        probs[0] = -probs[0]
        probs[1] += 2.0 / 15
        text = probs_line(probs=probs)
        with pytest.raises(FormatError, match="negative"):
            tagger.load_external_probs(io.StringIO(text))

    def test_small_deviation_renormalized(self):
        probs = [1.0 / 15] * 15
        probs[0] += 5e-7
        table = tagger.load_external_probs(io.StringIO(probs_line(probs=probs)))
        assert abs(table.probs[0].sum() - 1.0) < 1e-12

    def test_large_deviation_rejected_with_record_number(self):
        good = probs_line()
        probs = [1.0 / 15] * 15
        probs[0] += 5e-5
        bad = probs_line(probs=probs)
        with pytest.raises(FormatError, match="record 2"):
            tagger.load_external_probs(io.StringIO(good + "\n" + bad))

    def test_grouping_by_paragraph(self):
        lines = [
            probs_line(paragraph=0, word_index=0),
            probs_line(paragraph=0, word_index=1),
            probs_line(paragraph=1, word_index=0),
        ]
        grouped = tagger.group_external_probs(
            tagger.load_external_probs(io.StringIO("\n".join(lines)))
        )
        assert set(grouped) == {("p", 0), ("p", 1)}
        idx, matrix = grouped[("p", 0)]
        assert list(idx) == [0, 1]
        assert matrix.shape == (2, 15)

    def test_grouping_keeps_multi_subword_words(self):
        lines = [
            probs_line(word_index=0, subword_index=0),
            probs_line(word_index=0, subword_index=1),
            probs_line(word_index=1, subword_index=0),
        ]
        grouped = tagger.group_external_probs(
            tagger.load_external_probs(io.StringIO("\n".join(lines)))
        )
        assert list(grouped[("p", 0)][0]) == [0, 0, 1]

    def test_duplicate_subword_rejected(self):
        lines = [
            probs_line(word_index=0, subword_index=0),
            probs_line(word_index=0, subword_index=0),
            probs_line(word_index=1, subword_index=0),
        ]
        with pytest.raises(AlignmentError, match="p paragraph 0"):
            tagger.group_external_probs(
                tagger.load_external_probs(io.StringIO("\n".join(lines)))
            )

    def test_out_of_order_subwords_rejected(self):
        lines = [
            probs_line(paragraph=3, word_index=0, subword_index=0),
            probs_line(paragraph=3, word_index=1, subword_index=1),
            probs_line(paragraph=3, word_index=1, subword_index=0),
        ]
        with pytest.raises(AlignmentError, match="p paragraph 3"):
            tagger.group_external_probs(
                tagger.load_external_probs(io.StringIO("\n".join(lines)))
            )


class TestExternalProbsMalformed:
    """Every malformed record is a FormatError naming its record number."""

    def load(self, *lines):
        return tagger.load_external_probs(io.StringIO("\n".join(lines)))

    def test_nan_probability_rejected(self):
        probs = [1.0 / 15] * 15
        probs[3] = float("nan")
        with pytest.raises(FormatError, match="record 2: probabilities sum to nan"):
            self.load(probs_line(), probs_line(word_index=1, probs=probs))

    @pytest.mark.parametrize("line", ["[1, 2]", "3", '"text"', "null", "true"])
    def test_line_that_is_not_an_object_rejected(self, line):
        with pytest.raises(FormatError, match="record 2: expected a JSON object"):
            self.load(probs_line(), line)

    @pytest.mark.parametrize("key", ["paragraph", "word_index", "subword_index"])
    @pytest.mark.parametrize("value", ["one", "1.5", "2"])
    def test_index_string_rejected(self, key, value):
        with pytest.raises(FormatError, match=f"record 2: {key} must be"):
            self.load(probs_line(), probs_line(**{key: value}))

    @pytest.mark.parametrize("probs", [["x"] * 15, [[0.5], [0.5, 0.5]], {"a": 1},
                                       [True] * 15, ["0.5"] * 15])
    def test_non_numeric_probs_rejected(self, probs):
        with pytest.raises(FormatError, match="record 2: probs are not numbers"):
            self.load(probs_line(), probs_line(word_index=1, probs=probs))

    @pytest.mark.parametrize("value", [1.7, 1.0, True, None])
    def test_non_integer_index_rejected(self, value):
        with pytest.raises(FormatError, match="record 2: word_index must be"):
            self.load(probs_line(), probs_line(word_index=value))

    @pytest.mark.parametrize("key", ["paragraph", "word_index", "subword_index"])
    def test_negative_index_rejected(self, key):
        with pytest.raises(FormatError, match=f"record 2: {key} must be a non-negative"):
            self.load(probs_line(), probs_line(**{key: -1}))

    @pytest.mark.parametrize("key", ["word_index", "subword_index"])
    @pytest.mark.parametrize("value", [2**63, 10**30])
    def test_index_past_int64_rejected(self, key, value):
        with pytest.raises(FormatError, match=rf"record 2: {key} must be below 2\*\*63"):
            self.load(probs_line(), probs_line(**{key: value}))

    def test_earlier_bad_probabilities_win_over_index_past_int64(self):
        with pytest.raises(FormatError, match="record 1: probabilities sum to"):
            self.load(probs_line(probs=[0.1] * 15), probs_line(word_index=2**63))

    def test_probability_past_float64_rejected(self):
        probs = [0.0] * 15
        probs[0] = 10**400  # 401 digits: no float64 holds it
        with pytest.raises(
            FormatError, match="^probability record 3: a probability is out of float64 range$"
        ):
            self.load(probs_line(), probs_line(word_index=1), probs_line(word_index=2, probs=probs))
