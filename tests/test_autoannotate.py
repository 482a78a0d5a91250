"""Word-probability aggregation, gating, and constrained decoding tests."""

import collections
import concurrent.futures
import math
import random
import threading
import tracemalloc

import numpy as np
import pytest

import json

from sciner import autoannotate, dataset, kernels, synth, tagger
from sciner import tag_schema as ts
from sciner.autoannotate import (
    GateConfig,
    GateStats,
    WordProbs,
    aggregate_word_probs,
    annotate_corpus,
    constrained_decode,
    gate_label,
)
from sciner.dataset import AnnotatedParagraph
from sciner.errors import AlignmentError
from sciner.tagger import (
    ExternalProbsTable,
    Featurizer,
    TaggerModel,
    TokenProbs,
    TrainConfig,
    load_external_probs,
    predict_probs,
    train,
)

from kernel_oracles import dense_weights, gate_label_ref, gate_stats_ref


def random_distribution(rng):
    raw = [rng.random() for _ in range(15)]
    total = sum(raw)
    return np.array([v / total for v in raw])


def peaked_distribution(class_index, peak):
    dist = np.full(15, (1.0 - peak) / 14)
    dist[class_index] = peak
    return dist


class TestAggregate:
    def test_single_subword_unchanged(self):
        dist = peaked_distribution(3, 0.7)
        wp = aggregate_word_probs([TokenProbs(0, dist)])
        assert np.array_equal(wp.scores, dist)

    def test_two_subword_product(self):
        a = peaked_distribution(2, 0.9)
        b = peaked_distribution(2, 0.8)
        wp = aggregate_word_probs([TokenProbs(0, a), TokenProbs(0, b)])
        assert math.isclose(wp.scores[2], 0.72, abs_tol=1e-12)

    def test_against_bruteforce_product(self):
        # independent oracle: multiply per class with plain Python floats
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randrange(1, 6)
            dists = [random_distribution(rng) for _ in range(n)]
            wp = aggregate_word_probs([TokenProbs(0, d) for d in dists])
            for c in range(15):
                expected = 1.0
                for d in dists:
                    expected *= float(d[c])
                assert abs(wp.scores[c] - expected) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_word_probs([])

    def test_zero_probability_propagates(self):
        a = np.zeros(15)
        a[0] = 1.0
        b = peaked_distribution(1, 0.9)
        wp = aggregate_word_probs([TokenProbs(0, a), TokenProbs(0, b)])
        assert wp.scores[5] == 0.0  # exp(log 0) must come back as exactly 0
        assert abs(wp.scores[0] - a[0] * b[0]) < 1e-12


class TestGate:
    def test_above_threshold_returns_argmax(self):
        wp = WordProbs(peaked_distribution(4, 0.99))
        assert gate_label(wp, GateConfig(0.98)) == ts.index_label(4)

    def test_boundary_inclusive(self):
        scores = np.zeros(15)
        scores[7] = 0.98
        assert gate_label(WordProbs(scores), GateConfig(0.98)) == ts.index_label(7)

    def test_just_below_boundary_is_amb(self):
        scores = np.zeros(15)
        scores[7] = 0.98 - 1e-9
        assert gate_label(WordProbs(scores), GateConfig(0.98)) == ts.AMB

    def test_below_threshold_is_amb(self):
        wp = WordProbs(peaked_distribution(4, 0.97))
        assert gate_label(wp, GateConfig(0.98)) == ts.AMB

    def test_never_a_non_argmax_class(self):
        rng = random.Random(41)
        for _ in range(2000):
            scores = np.array([rng.random() for _ in range(15)])
            label = gate_label(WordProbs(scores), GateConfig(rng.random() or 0.5))
            if label != ts.AMB:
                assert ts.label_index(label) == int(scores.argmax())

    def test_tie_breaks_to_lowest_index(self):
        scores = np.zeros(15)
        scores[3] = scores[9] = 0.99
        assert gate_label(WordProbs(scores), GateConfig(0.98)) == ts.index_label(3)

    def test_raising_gamma_only_converts_to_amb(self):
        rng = random.Random(43)
        for _ in range(500):
            scores = np.array([rng.random() for _ in range(15)])
            lo = gate_label(WordProbs(scores), GateConfig(0.3))
            hi = gate_label(WordProbs(scores), GateConfig(0.8))
            if hi != ts.AMB:
                assert hi == lo

    def test_gamma_bounds(self):
        with pytest.raises(ValueError):
            GateConfig(0.0)
        with pytest.raises(ValueError):
            GateConfig(1.01)
        GateConfig(1.0)


class TestConstrainedDecode:
    def test_rule_masks_higher_scoring_illegal_class(self):
        o = ts.label_index("O")
        b_method = ts.label_index("B-MethodName")
        i_method = ts.label_index("I-MethodName")
        word1 = np.zeros(15)
        word1[o] = 0.99
        word2 = np.zeros(15)
        word2[i_method] = 0.99  # unrestricted argmax, but illegal after O
        word2[b_method] = 0.985
        labels = constrained_decode(
            [WordProbs(word1), WordProbs(word2)], GateConfig(0.98)
        )
        # hand-computed: word 1 emits O; word 2's legal argmax is B-MethodName
        assert labels == ["O", "B-MethodName"]

    def test_gate_applies_to_restricted_argmax(self):
        o = ts.label_index("O")
        word1 = np.zeros(15)
        word1[o] = 0.99
        word2 = np.zeros(15)
        word2[ts.label_index("I-MethodName")] = 0.99
        word2[ts.label_index("B-MethodName")] = 0.97  # best legal, below gamma
        labels = constrained_decode(
            [WordProbs(word1), WordProbs(word2)], GateConfig(0.98)
        )
        assert labels == ["O", ts.AMB]

    def test_empty_paragraph(self):
        assert constrained_decode([], GateConfig()) == []

    def test_start_rule_blocks_inside(self):
        word = np.zeros(15)
        word[ts.label_index("I-TaskName")] = 1.0
        word[ts.label_index("B-TaskName")] = 0.99
        labels = constrained_decode([WordProbs(word)], GateConfig(0.98))
        assert labels == ["B-TaskName"]

    def test_amb_is_wildcard_for_following_word(self):
        # after an amb word, I-X becomes reachable again
        word1 = np.zeros(15)
        word1[ts.label_index("B-TaskName")] = 0.5  # gated out -> amb
        word2 = np.zeros(15)
        word2[ts.label_index("I-TaskName")] = 0.99
        labels = constrained_decode(
            [WordProbs(word1), WordProbs(word2)], GateConfig(0.98)
        )
        assert labels == [ts.AMB, "I-TaskName"]

    def test_output_always_validates(self):
        rng = random.Random(47)
        for _ in range(1000):
            n = rng.randrange(0, 12)
            probs = [WordProbs(random_distribution(rng)) for _ in range(n)]
            gamma = rng.choice([0.05, 0.2, 0.5, 0.9, 0.98])
            labels = constrained_decode(probs, GateConfig(gamma))
            assert ts.validate_sequence(labels) == []

    def test_multi_subword_amb_rate_grows_with_subword_count(self):
        # product bound: a word's best aggregated score is capped by the
        # smallest per-subword max, so amb gets more likely with more subwords
        rng = random.Random(53)
        amb_rate = []
        for n_sub in (1, 3, 5):
            amb = 0
            trials = 400
            for _ in range(trials):
                dists = [random_distribution(rng) for _ in range(n_sub)]
                wp = aggregate_word_probs([TokenProbs(0, d) for d in dists])
                best = wp.scores.max()
                assert best <= min(d.max() for d in dists) + 1e-12
                amb += best < 0.5
            amb_rate.append(amb / trials)
        assert amb_rate[0] <= amb_rate[1] <= amb_rate[2]


def carrier(words, paper="c" * 64, index=0):
    return AnnotatedParagraph(
        paper_id=paper, paragraph_index=index, words=words, provenance="unannotated"
    )


def prob_line(dist, word_index=0, paper="c" * 64, paragraph=0, subword_index=0):
    import json

    return json.dumps(
        {
            "paper_id": paper,
            "paragraph": paragraph,
            "word_index": word_index,
            "subword_index": subword_index,
            "probs": [float(x) for x in dist],
        }
    )


class TestAnnotateCorpus:
    def test_uniform_model_all_amb(self):
        model = TaggerModel.fresh(1 << 10)  # zero weights -> uniform 1/15
        paragraphs = [carrier(["alpha", "beta", "gamma"], index=i) for i in range(3)]
        annotated, stats = annotate_corpus(model, paragraphs, GateConfig(0.98))
        assert stats.total_words == 9
        assert stats.amb_words == 9
        assert stats.amb_fraction == 1.0
        for p in annotated:
            assert p.labels == [ts.AMB] * 3
            assert p.provenance == "auto"

    def test_confident_stream_zero_amb(self):
        # single-subword words, one class at 0.999 each, in a legal pattern
        pattern = ["O", "B-TaskName", "I-TaskName", "O"]
        lines = [
            prob_line(peaked_distribution(ts.label_index(label), 0.999), word_index=w)
            for w, label in enumerate(pattern)
        ]
        records = load_external_probs(iter(lines))
        paragraphs = [carrier(["one", "two", "three", "four"])]
        annotated, stats = annotate_corpus(records, paragraphs, GateConfig(0.98))
        assert stats.amb_words == 0
        assert annotated[0].labels == pattern
        assert all(c >= 0.99 for c in annotated[0].confidence)

    def test_word_totals_conserve(self):
        model = TaggerModel.fresh(1 << 10)
        rng = random.Random(3)
        paragraphs = [
            carrier([f"w{rng.randrange(40)}" for _ in range(rng.randrange(1, 9))], index=i)
            for i in range(40)
        ]
        _, stats = annotate_corpus(model, paragraphs, GateConfig())
        assert stats.total_words == sum(len(p.words) for p in paragraphs)
        assert stats.amb_words + sum(stats.accepted.values()) == stats.total_words

    def test_misaligned_stream_names_paragraph(self):
        lines = [prob_line(peaked_distribution(0, 0.999))]
        paragraphs = [carrier(["one", "two"])]  # stream covers 1 of 2 words
        with pytest.raises(AlignmentError, match="paragraph 0"):
            annotate_corpus(load_external_probs(iter(lines)), paragraphs, GateConfig())

    @pytest.mark.parametrize("covered", [[0, 2], [1, 2]])
    def test_stream_missing_a_word_names_count(self, covered):
        lines = [prob_line(peaked_distribution(0, 0.999), word_index=w) for w in covered]
        paragraphs = [carrier(["one", "two", "three"])]
        with pytest.raises(AlignmentError, match="paragraph 0 cover 2 of 3 words"):
            annotate_corpus(load_external_probs(iter(lines)), paragraphs, GateConfig())

    def test_missing_paragraph_in_stream(self):
        paragraphs = [carrier(["one"])]
        with pytest.raises(AlignmentError, match=r"no probability records"):
            annotate_corpus(load_external_probs(iter([])), paragraphs, GateConfig())

    def test_records_outside_corpus_rejected(self):
        dist = peaked_distribution(0, 0.999)
        lines = [
            prob_line(dist, paper="a", paragraph=0),
            prob_line(dist, paper="a", paragraph=7),
            prob_line(dist, paper="zz", paragraph=2**70),
        ]
        paragraphs = [carrier(["one"], paper="a", index=0)]
        with pytest.raises(
            AlignmentError,
            match=r"^probability records for 2 paragraph\(s\) not in the corpus, "
                  r"first a paragraph 7$",
        ):
            annotate_corpus(load_external_probs(iter(lines)), iter(paragraphs), GateConfig())

    def test_confidence_is_best_legal_score(self):
        o = ts.label_index("O")
        lines = [prob_line(peaked_distribution(o, 0.6))]  # below gamma -> amb
        annotated, _ = annotate_corpus(
            load_external_probs(iter(lines)), [carrier(["one"])], GateConfig(0.98)
        )
        assert annotated[0].labels == [ts.AMB]
        assert math.isclose(annotated[0].confidence[0], 0.6, abs_tol=1e-12)


class TestGateStats:
    def test_render_mentions_amb_fraction(self):
        stats = gate_stats_ref(["O", "amb", "B-TaskName", "amb"])
        text = stats.render()
        assert "50.0%" in text
        assert "B-TaskName" in text
        assert stats.to_dict()["amb_fraction"] == 0.5


    def test_from_indices_matches_gate_stats_ref(self):
        rng = random.Random(21)
        labels = [*ts.MODEL_LABELS, ts.AMB]
        for n in [0, 1, 5, 300]:
            seq = [rng.choice(labels[: rng.randrange(1, 17)]) for _ in range(n)]
            merged = gate_stats_ref(seq)
            tallied = GateStats.from_indices(np.array([ts.label_index(l) for l in seq], int))
            assert tallied == merged
            assert json.dumps(tallied.to_dict(), indent=2, sort_keys=True) == json.dumps(
                merged.to_dict(), indent=2, sort_keys=True
            )
            assert tallied.render() == merged.render()


@pytest.fixture(scope="module")
def trained():
    """A model trained on a small synthetic manual set, and that corpus's test set."""
    corpus = synth.make_corpus(n_manual=40, n_auto=1, n_test=30, seed=5)
    examples = dataset.merge_for_retraining(corpus.manual, [], "ignore_positions")
    cfg = TrainConfig(epochs=8, learning_rate=16.0, batch_size=8, seed=1)
    return train(examples, cfg, hash_dim=1 << 14), corpus.test


class TestWordApiIsPipeline:
    """The word-level API runs the kernels annotate_corpus runs, so the
    acceptance criteria on it certify the production path."""

    # 1, 2, 3 and 5 subwords of at most 4 characters
    EXTRA_WORDS = ["BERT", "dataset", "transformer", "regularisationterm"]

    def paragraphs(self, test_set):
        out = []
        for k, p in enumerate(test_set):
            words = list(p.words)
            words.insert(k % (len(words) + 1), self.EXTRA_WORDS[k % 4])
            out.append(carrier(words, index=k))
        return out

    @pytest.mark.parametrize("gamma", [0.5, 0.98])
    def test_word_api_reproduces_annotate_corpus(self, trained, gamma):
        model, test_set = trained
        paragraphs = self.paragraphs(test_set)
        config = GateConfig(gamma)
        annotated, stats = annotate_corpus(model, paragraphs, config)
        featurizer = Featurizer(model.hash_dim)
        subword_counts = set()
        for p, got in zip(paragraphs, annotated):
            feat, offsets, word_idx = featurizer.paragraph_arrays(p.words)
            kernel_rows = kernels.aggregate_words(
                kernels.score_subwords(dense_weights(model), feat, offsets), word_idx, len(p.words)
            )
            by_word = collections.defaultdict(list)
            for tp in predict_probs(model, p.words):
                by_word[tp.word_index].append(tp)
            subword_counts.update(len(v) for v in by_word.values())
            word_probs = [aggregate_word_probs(by_word[w]) for w in range(len(p.words))]
            for w, wp in enumerate(word_probs):
                assert np.array_equal(wp.scores, kernel_rows[w])
            assert constrained_decode(word_probs, config) == got.labels
        assert {1, 2, 3, 5} <= subword_counts
        assert 0 < sum(stats.accepted.values()) and stats.total_words > 0

    def test_gate_label_matches_argmax_then_gate(self):
        # thirds: uniform scores; a 1/4 grid (argmax ties, scores equal to gamma);
        # uniform scores with 1-3 entries set to exactly gamma
        rng = np.random.default_rng(53)
        mismatches = ties = at_gamma = 0
        for i in range(20_000):
            kind = i % 3
            if kind == 1:
                scores = rng.integers(0, 5, 15) / 4.0
                gamma = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
            else:
                scores = rng.random(15)
                gamma = float(rng.uniform(0.05, 1.0))
                if kind == 2:
                    scores[rng.choice(15, size=rng.integers(1, 4), replace=False)] = gamma
            top = scores.max()
            ties += int((scores == top).sum() > 1)
            at_gamma += int(top == gamma)
            label = gate_label(WordProbs(scores), GateConfig(gamma))
            mismatches += int(ts.label_index(label) != gate_label_ref(scores, gamma))
        assert mismatches == 0
        assert ties > 1000 and at_gamma > 1000

    def test_word_probs_reject_nan(self):
        scores = np.full(15, 0.01)
        scores[4] = np.nan
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            WordProbs(scores)


class TestSerialAnnotation:
    def test_annotation_starts_no_thread(self, trained, monkeypatch):
        model, test_set = trained
        paragraphs = [carrier(p.words, index=k) for k, p in enumerate(test_set)]
        serial, stats_a = annotate_corpus(model, paragraphs, GateConfig())

        def refuse(*args, **kwargs):
            raise AssertionError("annotation started a thread")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        parallel, stats_b = annotate_corpus(model, paragraphs, GateConfig())
        assert [(p.labels, p.confidence) for p in parallel] == [
            (p.labels, p.confidence) for p in serial
        ]
        assert stats_a.to_dict() == stats_b.to_dict()


class TestFeatureTables:
    """annotate_corpus scores from a compiled table, or compiles its own in
    chunks; the annotations are the same either way."""

    @staticmethod
    def outputs(result):
        annotated, stats = result
        return [(p.labels, p.confidence) for p in annotated], stats.to_dict()

    def test_table_chunks_and_whole_agree(self, trained, monkeypatch):
        model, test_set = trained
        paragraphs = [carrier(p.words, index=k) for k, p in enumerate(test_set)]
        table = tagger.featurize([p.words for p in paragraphs], model.hash_dim)
        expected = self.outputs(annotate_corpus(model, paragraphs, GateConfig(0.9)))
        assert self.outputs(
            annotate_corpus(model, paragraphs, GateConfig(0.9), features=table)
        ) == expected
        compiled = []
        real = tagger.featurize

        def counting(word_lists, dim):
            compiled.append(len(word_lists))
            return real(word_lists, dim)

        monkeypatch.setattr(tagger, "featurize", counting)
        monkeypatch.setattr(autoannotate, "CHUNK_PARAGRAPHS", 7)
        assert self.outputs(annotate_corpus(model, paragraphs, GateConfig(0.9))) == expected
        assert compiled == [7] * (len(paragraphs) // 7) + [len(paragraphs) % 7]
        compiled.clear()
        annotate_corpus(model, paragraphs, GateConfig(0.9), features=table)
        assert compiled == []

    def test_table_must_match(self, trained):
        model, test_set = trained
        paragraphs = [carrier(p.words, index=k) for k, p in enumerate(test_set[:3])]
        words = [p.words for p in paragraphs]
        with pytest.raises(ValueError, match="does not match"):
            annotate_corpus(model, paragraphs[:2], features=tagger.featurize(words, model.hash_dim))
        with pytest.raises(ValueError, match="hash dimension"):
            annotate_corpus(model, paragraphs, features=tagger.featurize(words, 1 << 10))
        lines = [prob_line(np.full(15, 1 / 15))]
        with pytest.raises(ValueError, match="applies to a model"):
            annotate_corpus(load_external_probs(iter(lines)), [carrier(["one"])],
                            features=tagger.featurize([["one"]], 1 << 10))


def probability_table(model, paragraphs):
    """The ExternalProbsTable of `model`'s subword probabilities on `paragraphs`."""
    table = tagger.featurize([p.words for p in paragraphs], model.hash_dim)
    n_sub = np.diff(table.sub_at)
    word = table.word_idx + np.repeat(table.word_at[:-1], n_sub)  # slice-global
    first = np.searchsorted(word, word)  # each subword's word's first subword
    return ExternalProbsTable(
        keys=[(p.paper_id, p.paragraph_index) for p in paragraphs],
        key_id=np.repeat(np.arange(len(paragraphs)), n_sub),
        word_index=table.word_idx.copy(),
        subword_index=np.arange(len(word)) - first,
        probs=model.subword_probs(table.feat, table.offsets),
    )


DEFAULT_CHUNK = autoannotate.CHUNK_PARAGRAPHS


class TestChunks:
    """annotate_corpus aggregates and decodes CHUNK_PARAGRAPHS paragraphs per
    call; the annotations do not depend on the chunk size, and a bad
    paragraph in a later chunk is still the first one named."""

    @pytest.fixture(scope="class")
    def corpus(self, trained):
        model, _ = trained
        paragraphs = synth.make_corpus(n_manual=0, n_auto=300, n_test=0, seed=9).auto_inputs
        return model, paragraphs, probability_table(model, paragraphs)

    @pytest.mark.parametrize("source", ["model", "model with features", "probability table"])
    def test_same_annotations_for_any_chunk_size(self, corpus, source, monkeypatch):
        model, paragraphs, table = corpus
        features = tagger.featurize([p.words for p in paragraphs], model.hash_dim)
        results = []
        for size in (1, 7, DEFAULT_CHUNK):
            monkeypatch.setattr(autoannotate, "CHUNK_PARAGRAPHS", size)
            if source == "probability table":
                annotated, stats = annotate_corpus(table, paragraphs, GateConfig(0.9))
            else:
                annotated, stats = annotate_corpus(
                    model, paragraphs, GateConfig(0.9),
                    features=features if source == "model with features" else None,
                )
            results.append((
                [(p.paper_id, p.paragraph_index, p.words, p.labels, p.confidence)
                 for p in annotated],
                stats.to_dict(),
            ))
        assert results[0] == results[1] == results[2]
        assert len(paragraphs) > DEFAULT_CHUNK
        assert 0 < stats.amb_words < stats.total_words

    @staticmethod
    def lines(paragraphs, covered):
        """Probability lines for `paragraphs`, each paragraph's words
        `covered.get(index, all of them)`."""
        dist = peaked_distribution(0, 0.999)
        return [
            prob_line(dist, word_index=w, paragraph=p.paragraph_index)
            for p in paragraphs
            for w in covered.get(p.paragraph_index, range(len(p.words)))
        ]

    @pytest.mark.parametrize("covered, error, message", [
        ({9: [0, 2], 12: []}, AlignmentError,
         "probability records for {c} paragraph 9 cover 2 of 3 words"),
        ({9: [], 10: [0, 1]}, AlignmentError, "no probability records for {c} paragraph 9"),
        ({16: [1, 2]}, AlignmentError,
         "probability records for {c} paragraph 16 cover 2 of 3 words"),
        # the step from paragraph 9's last word (2) to 10's first (4) is no gap in 9
        ({10: [4]}, AlignmentError,
         "probability records for {c} paragraph 10 cover 0 of 3 words; "
         "word_index 4 is past its last word"),
        ({8: None, 12: [0]}, ValueError, "{c} paragraph 8 has no words"),
    ])
    def test_first_bad_paragraph_named_across_chunks(self, monkeypatch, covered, error, message):
        monkeypatch.setattr(autoannotate, "CHUNK_PARAGRAPHS", 7)
        paragraphs = [
            carrier([] if covered.get(k, ...) is None else ["one", "two", "three"], index=k)
            for k in range(20)
        ]
        covered = {k: v for k, v in covered.items() if v is not None}
        records = load_external_probs(iter(self.lines(paragraphs, covered)))
        with pytest.raises(error, match="^" + message.format(c="c" * 64) + "$"):
            annotate_corpus(records, paragraphs, GateConfig())

    @pytest.mark.parametrize("empty", [(9, 12), (13, 15)])
    @pytest.mark.parametrize("with_features", [False, True])
    def test_model_names_the_first_empty_paragraph_across_chunks(self, corpus, monkeypatch,
                                                                 empty, with_features):
        model, _, _ = corpus
        monkeypatch.setattr(autoannotate, "CHUNK_PARAGRAPHS", 7)
        paragraphs = [
            carrier([] if k in empty else ["one", "two", "three"], index=k) for k in range(20)
        ]
        features = (tagger.featurize([p.words for p in paragraphs], model.hash_dim)
                    if with_features else None)
        with pytest.raises(ValueError) as raised:
            annotate_corpus(model, paragraphs, GateConfig(), features=features)
        assert type(raised.value) is ValueError
        assert str(raised.value) == f"{'c' * 64} paragraph {empty[0]} has no words"

    @pytest.mark.parametrize("covered, n_words, counted", [
        ([1, 2], 2, "cover 1 of 2 words"),
        ([0, 1, 2, 3], 2, "cover 2 of 2 words"),
        ([0, 5], 3, "cover 1 of 3 words"),
    ])
    def test_records_past_the_last_word_are_not_counted(self, covered, n_words, counted):
        lines = [prob_line(peaked_distribution(0, 0.999), word_index=w) for w in covered]
        first_past = min(w for w in covered if w >= n_words)
        with pytest.raises(
            AlignmentError,
            match=f"^probability records for {'c' * 64} paragraph 0 {counted}; "
                  f"word_index {first_past} is past its last word$",
        ):
            annotate_corpus(load_external_probs(iter(lines)),
                            [carrier(["w"] * n_words)], GateConfig())


# what annotate_corpus may allocate beyond the annotations it returns: a few
# chunks' arrays, not the corpus's (the 2,000-paragraph table below holds
# ~13 MB of probabilities, and one chunk of 128 paragraphs ~0.8 MB)
TRANSIENT_BOUND = 5 * 2**20


def test_annotation_memory_is_bounded_by_the_chunk():
    rng = np.random.default_rng(0)
    n_words = rng.integers(10, 45, size=2000)
    paragraphs = [carrier(["w"] * int(n), index=k) for k, n in enumerate(n_words)]
    n_sub = rng.integers(1, 4, size=int(n_words.sum()))  # subwords per word
    word_at = np.concatenate(([0], np.cumsum(n_words)))
    word = np.repeat(np.arange(len(n_sub)), n_sub)  # corpus-global word of each subword
    paragraph = np.searchsorted(word_at, word, side="right") - 1
    table = ExternalProbsTable(
        keys=[(p.paper_id, p.paragraph_index) for p in paragraphs],
        key_id=paragraph,
        word_index=word - word_at[paragraph],
        subword_index=np.arange(len(word)) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub),
        probs=rng.dirichlet(np.full(15, 0.05), size=len(word)),
    )
    tracemalloc.start()  # numpy reports its array buffers to tracemalloc
    try:
        annotated, stats = annotate_corpus(table, paragraphs, GateConfig())
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(annotated) == 2000 and stats.total_words == n_words.sum()
    assert table.probs.nbytes > 2 * TRANSIENT_BOUND
    assert peak - held < TRANSIENT_BOUND, f"transient peak {(peak - held) / 2**20:.1f} MB"
