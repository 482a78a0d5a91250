"""Scoring, bootstrap, label counts, and diff report tests."""

import io
import random
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sciner import evaluation as ev
from sciner import tag_schema as ts
from sciner.dataset import AnnotatedParagraph
from sciner.errors import AlignmentError

from kernel_oracles import score_ref
from test_tag_schema import FEW_LABELS, random_legal_sequence


def para(labels, words=None, paper="e" * 64, index=0, provenance="manual"):
    words = words or [f"w{i}" for i in range(len(labels))]
    confidence = [1.0] * len(labels) if provenance == "auto" else None
    return AnnotatedParagraph(
        paper_id=paper, paragraph_index=index, words=words,
        labels=labels, provenance=provenance, confidence=confidence,
    )


def random_pair(rng, n_paragraphs, allow_amb=True):
    gold, pred = [], []
    for k in range(n_paragraphs):
        length = rng.randrange(1, 10)
        g = random_legal_sequence(rng, length)
        p = random_legal_sequence(rng, length, allow_amb=allow_amb)
        gold.append(para(g, index=k))
        pred.append(para(p, index=k, provenance="auto"))
    return gold, pred


class TestScore:
    def test_identity_is_all_ones(self):
        gold = [para(["O", "B-TaskName", "I-TaskName", "O"])]
        metrics = ev.score(gold, gold)
        assert metrics.token_accuracy == 1.0
        assert metrics.precision == metrics.recall == metrics.f1 == 1.0
        assert metrics.span_precision == metrics.span_recall == metrics.span_f1 == 1.0

    def test_boundary_mismatch_hand_counted(self):
        gold = [para(["O", "B-TaskName", "I-TaskName"])]
        pred = [para(["O", "B-TaskName", "O"], provenance="auto")]
        metrics = ev.score(gold, pred)
        assert metrics.token_accuracy == pytest.approx(2 / 3)
        # predicted span (TaskName,1,2) vs gold (TaskName,1,3): no exact match
        assert metrics.span_precision == 0.0
        assert metrics.span_recall == 0.0
        assert metrics.n_gold_spans == 1
        assert metrics.n_pred_spans == 1

    def test_all_o_prediction(self):
        gold = [para(["B-MetricName", "O", "B-MetricValue", "O"])]
        pred = [para(["O", "O", "O", "O"], provenance="auto")]
        metrics = ev.score(gold, pred)
        assert metrics.token_accuracy == pytest.approx(2 / 4)
        assert metrics.recall == 0.0
        for label in ev.NON_O_LABELS:
            assert metrics.per_class[label][1] == 0.0
        assert metrics.n_pred_spans == 0

    def test_amb_prediction_is_a_miss(self):
        gold = [para(["B-TaskName", "O"])]
        pred = [para(["amb", "O"], provenance="auto")]
        metrics = ev.score(gold, pred)
        assert metrics.token_accuracy == 0.5
        assert metrics.recall == 0.0
        assert metrics.precision == 0.0  # no non-O predictions at all
        assert metrics.n_pred_spans == 0  # amb opens no span

    def test_micro_f1_against_bruteforce_confusion(self):
        rng = random.Random(61)
        for _ in range(40):
            gold, pred = random_pair(rng, rng.randrange(1, 6))
            metrics = ev.score(gold, pred)
            # independent oracle: raw double loop over label pairs
            tp = fp = fn = 0
            correct = total = 0
            for g, p in zip(gold, pred):
                for gl, pl in zip(g.labels, p.labels):
                    total += 1
                    correct += gl == pl
                    if gl != "O" and gl != "amb" and pl == gl:
                        tp += 1
                    if pl != "O" and pl != "amb" and pl != gl:
                        fp += 1
                    if gl != "O" and gl != "amb" and pl != gl:
                        fn += 1
            assert metrics.token_accuracy == pytest.approx(correct / total)
            p_or_zero = tp / (tp + fp) if tp + fp else 0.0
            r_or_zero = tp / (tp + fn) if tp + fn else 0.0
            f_or_zero = (
                2 * p_or_zero * r_or_zero / (p_or_zero + r_or_zero)
                if p_or_zero + r_or_zero else 0.0
            )
            assert metrics.precision == pytest.approx(p_or_zero)
            assert metrics.recall == pytest.approx(r_or_zero)
            assert metrics.f1 == pytest.approx(f_or_zero)

    def test_span_tp_bounded_by_span_counts(self):
        rng = random.Random(67)
        for _ in range(40):
            gold, pred = random_pair(rng, rng.randrange(1, 6))
            metrics = ev.score(gold, pred)
            span_tp = sum(metrics.span_tp_by_type.values())
            assert span_tp <= min(metrics.n_gold_spans, metrics.n_pred_spans)

    def test_paragraph_permutation_invariant(self):
        rng = random.Random(71)
        gold, pred = random_pair(rng, 8)
        metrics = ev.score(gold, pred)
        order = list(range(8))
        rng.shuffle(order)
        shuffled = ev.score([gold[i] for i in order], [pred[i] for i in order])
        assert shuffled == metrics

    def test_length_mismatch_names_location(self):
        gold = [para(["O", "O"])]
        pred = [para(["O"], provenance="auto")]
        with pytest.raises(AlignmentError, match="paragraph 0"):
            ev.score(gold, pred)

    def test_missing_labels_name_the_paragraph(self):
        unlabeled = AnnotatedParagraph("e" * 64, 0, ["w0"], provenance="unannotated")
        with pytest.raises(AlignmentError, match="^" + "e" * 64 + " paragraph 0: missing labels$"):
            ev.score([para(["O"])], [unlabeled])

    def test_paragraph_count_mismatch(self):
        gold = [para(["O"])]
        with pytest.raises(AlignmentError):
            ev.score(gold, [])


class TestBootstrap:
    @staticmethod
    def fixture(n=300, seed=5):
        rng = random.Random(seed)
        gold, pred_a = random_pair(rng, n)
        pred_b = [
            para(
                random_legal_sequence(rng, len(g.words), allow_amb=True),
                words=g.words, index=g.paragraph_index, provenance="auto",
            )
            for g in gold
        ]
        return gold, pred_a, pred_b

    def test_identical_predictions_zero_difference(self):
        gold, pred_a, _ = self.fixture(60)
        result = ev.bootstrap_compare(gold, pred_a, pred_a, draws=5, draw_size=20, seed=3)
        assert result.mean_a == result.mean_b
        assert result.std_a == result.std_b
        for a, b in zip(result.per_draw_a, result.per_draw_b):
            assert a == b

    def test_bit_identical_reruns(self):
        gold, pred_a, pred_b = self.fixture(300)
        first = ev.bootstrap_compare(gold, pred_a, pred_b, draws=12, draw_size=50, seed=9)
        second = ev.bootstrap_compare(gold, pred_a, pred_b, draws=12, draw_size=50, seed=9)
        assert first == second

    def test_full_size_draws_equal_full_score(self):
        gold, pred_a, pred_b = self.fixture(40)
        full = ev.score(gold, pred_a)
        result = ev.bootstrap_compare(
            gold, pred_a, pred_b, draws=12, draw_size=len(gold), seed=2
        )
        for draw in result.per_draw_a:
            assert draw == full
        # mean/std of 12 identical values carry float-summation residue only
        for name in ev.METRIC_NAMES:
            assert result.std_a[name] == pytest.approx(0.0, abs=1e-12)
            assert result.mean_a[name] == pytest.approx(getattr(full, name), abs=1e-12)

    def test_mean_within_min_max(self):
        gold, pred_a, pred_b = self.fixture(120)
        result = ev.bootstrap_compare(gold, pred_a, pred_b, draws=12, draw_size=50, seed=4)
        for name in ev.METRIC_NAMES:
            values = [getattr(ms, name) for ms in result.per_draw_a]
            assert min(values) <= result.mean_a[name] <= max(values)

    def test_oversized_draw_rejected(self):
        gold, pred_a, pred_b = self.fixture(20)
        with pytest.raises(ValueError, match="draw_size"):
            ev.bootstrap_compare(gold, pred_a, pred_b, draws=2, draw_size=21)

    def test_negative_seed_rejected(self):
        gold, pred_a, pred_b = self.fixture(20)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            ev.bootstrap_compare(gold, pred_a, pred_b, draws=2, draw_size=10, seed=-1)

    def test_draws_use_identical_subsets_for_both_models(self):
        gold, pred_a, _ = self.fixture(80)
        # when model B IS model A, per-draw metrics must agree draw by draw,
        # which can only happen if both saw the same subsets
        result = ev.bootstrap_compare(gold, pred_a, list(pred_a), draws=6, draw_size=30, seed=8)
        assert result.per_draw_a == result.per_draw_b


class TestLabelCounts:
    def test_empty(self):
        counts = ev.label_counts([])
        assert set(counts) == set(ev.NON_O_LABELS)
        assert all(v == 0 for v in counts.values())

    def test_o_omitted(self):
        counts = ev.label_counts([para(["O", "B-TaskName", "I-TaskName"])])
        assert counts["B-TaskName"] == 1
        assert counts["I-TaskName"] == 1
        assert "O" not in counts

    def test_total_equals_non_o_tokens(self):
        rng = random.Random(73)
        paragraphs = []
        expected = 0
        for k in range(30):
            labels = random_legal_sequence(rng, rng.randrange(1, 12), allow_amb=True)
            provenance = "auto" if ts.AMB in labels else "manual"
            paragraphs.append(para(labels, index=k, provenance=provenance))
            expected += sum(1 for l in labels if l != "O")
        counts = ev.label_counts(paragraphs)
        assert sum(counts.values()) == expected

    def test_amb_counted_when_present(self):
        paragraphs = [para(["amb", "O"], provenance="auto")]
        counts = ev.label_counts(paragraphs)
        assert counts["amb"] == 1

    def test_render_sorted(self):
        counts = {"B-TaskName": 3, "I-TaskName": 1, "B-MetricName": 5}
        text = ev.render_label_counts(counts)
        lines = text.splitlines()
        assert lines[1].startswith("B-MetricName")
        assert lines[2].startswith("B-TaskName")


class TestDiffReport:
    def test_perfect_prediction_no_incorrect_marks(self):
        gold = [para(["O", "B-TaskName", "I-TaskName"])]
        text = ev.diff_report(gold, gold)
        assert "[-" not in text
        assert text.count("[+") == 2  # only the labeled words are marked

    def test_single_error_single_mark(self):
        gold = [para(["O", "B-TaskName", "O"])]
        pred = [para(["O", "B-MetricName", "O"], provenance="auto")]
        text = ev.diff_report(gold, pred)
        assert text.count("[-") == 1

    def test_markup_roundtrip_recovers_bitmap(self):
        rng = random.Random(79)
        gold, pred = random_pair(rng, 6)
        text = ev.diff_report(gold, pred)
        bitmaps = ev.parse_diff_markup(text)
        assert len(bitmaps) == len(gold)
        for g, p, bits in zip(gold, pred, bitmaps):
            assert len(bits) == len(g.words)
            for gl, pl, bit in zip(g.labels, p.labels, bits):
                if gl == "O" and pl == "O":
                    assert bit is None
                else:
                    assert bit == (gl == pl)

    def test_markup_of_an_unmarked_chunk_is_none(self):
        assert ev.parse_diff_markup("# header\n[+a] b [-c]\n\n") == [[True, None, False]]

    def test_ansi_colors_on_terminal(self):
        class Tty(io.StringIO):
            def isatty(self):
                return True

        gold = [para(["B-TaskName"])]
        pred = [para(["B-MetricName"], provenance="auto")]
        sink = Tty()
        ev.diff_report(gold, pred, sink=sink)
        assert "\x1b[31m" in sink.getvalue()
        assert "[-" not in sink.getvalue()

    def test_alignment_checked(self):
        gold = [para(["O", "O"])]
        pred = [para(["O"], provenance="auto")]
        with pytest.raises(AlignmentError):
            ev.diff_report(gold, pred)


class TestRendering:
    def test_metrics_json_parses(self):
        import json

        gold = [para(["O", "B-TaskName"])]
        metrics = ev.score(gold, gold)
        data = json.loads(ev.metrics_json(metrics))
        assert data["token_accuracy"] == 1.0
        assert data["per_class"]["B-TaskName"]["f1"] == 1.0

    def test_bootstrap_render_contains_parameters(self):
        gold, pred_a, pred_b = TestBootstrap.fixture(60)
        result = ev.bootstrap_compare(gold, pred_a, pred_b, draws=12, draw_size=50, seed=1)
        text = result.render()
        assert "12 draws of 50" in text
        assert "span_f1" in text


class Scored(NamedTuple):
    """What scoring reads of a paragraph, with no check that its labels
    follow the BIO rules."""

    paper_id: str
    paragraph_index: int
    words: list
    labels: list


ANY_LABEL = st.sampled_from([*ts.MODEL_LABELS, ts.AMB])


@st.composite
def scored_sets(draw, sides=2, max_paragraphs=8, label=ANY_LABEL):
    """Gold and predicted paragraphs (`sides` lists in all) of the same
    lengths (empty ones too), any sequence of `label`'s labels, amb included
    on every side."""
    out = [[] for _ in range(sides)]
    for k in range(draw(st.integers(0, max_paragraphs))):
        n = draw(st.integers(0, 12))
        words = [f"w{i}" for i in range(n)]
        for side in out:
            labels = draw(st.lists(label, min_size=n, max_size=n))
            side.append(Scored("s" * 64, k, words, labels))
    return out


@settings(max_examples=300, deadline=None)
@given(scored_sets())
def test_score_matches_word_by_word_reference(sets):
    gold, pred = sets
    assert ev.score(gold, pred) == score_ref(gold, pred)


@settings(max_examples=50, deadline=None)
@given(scored_sets(sides=3, max_paragraphs=20), st.integers(0, 2**32 - 1))
def test_each_bootstrap_draw_is_scored_as_the_reference_scores_it(sets, seed):
    gold, pred_a, pred_b = sets
    if not gold:
        return
    draw_size = 1 + seed % len(gold)
    result = ev.bootstrap_compare(gold, pred_a, pred_b, draws=4, draw_size=draw_size, seed=seed)
    rng = np.random.default_rng(seed)
    for a, b in zip(result.per_draw_a, result.per_draw_b):
        idx = rng.choice(len(gold), size=draw_size, replace=False)
        g = [gold[i] for i in idx]
        assert a == score_ref(g, [pred_a[i] for i in idx])
        assert b == score_ref(g, [pred_b[i] for i in idx])


def test_count_rows_sum_to_the_score():
    rng = random.Random(73)
    gold, pred = random_pair(rng, 30)
    rows = ev.count_rows(gold, pred)
    assert rows.dtype == np.int64 and rows.shape == (30, len(ev.COUNT_COLUMNS))
    assert ev.MetricSet.from_counts(rows.sum(axis=0)) == ev.score(gold, pred)
    for k in range(30):
        assert ev.MetricSet.from_counts(rows[k]) == score_ref([gold[k]], [pred[k]])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([ANY_LABEL, st.sampled_from(FEW_LABELS)]).flatmap(
    lambda label: scored_sets(max_paragraphs=10, label=label)))
def test_count_rows_match_the_reference_paragraph_by_paragraph(sets):
    # spans that end at a paragraph's last word, then an I-X opening the next
    # paragraph, and empty paragraphs: each row is its paragraph's alone
    gold, pred = sets
    rows = ev.count_rows(gold, pred)
    assert rows.dtype == np.int64 and rows.shape == (len(gold), len(ev.COUNT_COLUMNS))
    for k, row in enumerate(rows):
        assert ev.MetricSet.from_counts(row) == score_ref([gold[k]], [pred[k]])


def test_span_ending_at_a_paragraph_boundary_stays_in_its_paragraph():
    gold = [Scored("s" * 64, 0, ["a", "b"], ["B-TaskName", "I-TaskName"]),
            Scored("s" * 64, 1, [], []),
            Scored("s" * 64, 2, ["c", "d"], ["I-TaskName", "O"])]
    pred = [gold[0], gold[1], Scored("s" * 64, 2, ["c", "d"], ["I-TaskName", "I-TaskName"])]
    rows = ev.count_rows(gold, pred)
    gold_spans, pred_spans = (ev.COUNT_COLUMNS.index(c) for c in ("gold spans", "pred spans"))
    assert rows[:, gold_spans].tolist() == [1, 0, 1]
    assert rows[:, pred_spans].tolist() == [1, 0, 1]
    assert rows[:, ev.COUNT_COLUMNS.index("span tp TaskName")].tolist() == [1, 0, 0]


@pytest.mark.parametrize("side", ["gold", "predicted"])
def test_unknown_label_is_a_value_error(side):
    gold = [Scored("s" * 64, 0, ["a", "b"], ["O", "B-TaskName"])]
    bad = [Scored("s" * 64, 0, ["a", "b"], ["O", "X"])]
    pair = (bad, gold) if side == "gold" else (gold, bad)
    with pytest.raises(ValueError, match="^unknown label 'X'$"):
        ev.count_rows(*pair)
    with pytest.raises(ValueError, match="^unknown label 'X'$"):
        score_ref(*pair)
    with pytest.raises(ValueError, match="^unknown label 'X'$"):
        ev.label_counts(bad)


@settings(max_examples=200, deadline=None)
@given(scored_sets(sides=1, max_paragraphs=10))
def test_label_counts_match_a_counter(sets):
    paragraphs = [*sets[0], Scored("s" * 64, 99, ["w"], None)]  # no labels: skipped
    counts = Counter(label for p in sets[0] for label in p.labels)
    expected = {label: counts[label] for label in ev.NON_O_LABELS}
    if counts[ts.AMB]:
        expected[ts.AMB] = counts[ts.AMB]
    assert list(ev.label_counts(paragraphs).items()) == list(expected.items())
