"""Label space, transition legality, and span conversion tests."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sciner import tag_schema as ts
from kernel_oracles import spans_from_labels_ref, validate_sequence_ref


class TestLabelSpace:
    def test_exactly_15_model_classes(self):
        assert len(ts.MODEL_LABELS) == 15
        assert len(set(ts.MODEL_LABELS)) == 15

    def test_seven_entity_types(self):
        assert len(ts.ENTITY_TYPES) == 7

    def test_index_map_layout(self):
        assert ts.label_index("O") == 0
        for i, t in enumerate(ts.ENTITY_TYPES):
            assert ts.label_index(f"B-{t}") == 1 + i
            assert ts.label_index(f"I-{t}") == 8 + i

    def test_index_roundtrip_bijection(self):
        seen = set()
        for i in range(15):
            label = ts.index_label(i)
            assert ts.label_index(label) == i
            seen.add(label)
        assert seen == set(ts.MODEL_LABELS)

    def test_amb_is_not_a_model_class(self):
        assert ts.AMB == "amb"
        assert ts.label_index(ts.AMB) == 15
        assert not ts.is_model_label(ts.AMB)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            ts.label_index("I-Foo")
        with pytest.raises(ValueError):
            ts.index_label(16)


class TestTransitions:
    def test_o_cannot_precede_inside(self):
        assert ts.is_legal_transition("O", "I-MethodName") is False

    def test_inside_cannot_switch_type(self):
        assert ts.is_legal_transition("I-TaskName", "I-DatasetName") is False

    def test_begin_continues_same_type(self):
        assert ts.is_legal_transition("B-MetricName", "I-MetricName") is True

    def test_start_forbids_inside(self):
        for t in ts.ENTITY_TYPES:
            assert ts.is_legal_transition(None, f"I-{t}") is False
            assert ts.is_legal_transition(None, f"B-{t}") is True
        assert ts.is_legal_transition(None, "O") is True

    def test_amb_is_wildcard_on_both_sides(self):
        for label in ts.MODEL_LABELS:
            assert ts.is_legal_transition(ts.AMB, label) is True
            assert ts.is_legal_transition(label, ts.AMB) is True

    def test_full_matrix_against_rule_statement(self):
        # independent restatement of the legality rules, checked cell by cell
        def legal(prev, nxt):
            if nxt == ts.AMB or prev == ts.AMB:
                return True
            if nxt == "O" or nxt.startswith("B-"):
                return True
            # nxt is I-X
            if prev is None or prev == "O":
                return False
            return prev[2:] == nxt[2:]

        labels = list(ts.MODEL_LABELS) + [ts.AMB]
        for prev in [None] + labels:
            for nxt in labels:
                assert ts.is_legal_transition(prev, nxt) == legal(prev, nxt), (prev, nxt)


class TestValidateSequence:
    def test_legal_sequence_empty_violations(self):
        assert ts.validate_sequence(["O", "B-TaskName", "I-TaskName", "O"]) == []

    def test_inside_at_start_flagged(self):
        violations = ts.validate_sequence(["I-TaskName", "O"])
        assert len(violations) == 1
        assert violations[0].position == 0
        assert violations[0].prev is None

    def test_o_then_inside_flagged(self):
        violations = ts.validate_sequence(["O", "I-MethodName"])
        assert len(violations) == 1
        assert violations[0].position == 1

    def test_consistent_with_pairwise_legality(self):
        rng = random.Random(4)
        labels = list(ts.MODEL_LABELS) + [ts.AMB]
        for _ in range(300):
            seq = [rng.choice(labels) for _ in range(rng.randrange(0, 10))]
            pairwise_ok = all(
                ts.is_legal_transition(seq[i - 1] if i else None, seq[i])
                for i in range(len(seq))
            )
            assert (ts.validate_sequence(seq) == []) == pairwise_ok


    def test_matches_per_word_walk(self):
        # random sequences over every label, some with unknown labels: the
        # same violations, or the same error for the first unknown label
        rng = random.Random(12)
        labels = [*ts.MODEL_LABELS, ts.AMB]
        unknown = ["B-Nonsense", "o", "", "I-", "AMB"]
        violations = errors = 0
        for _ in range(3000):
            seq = [rng.choice(labels) for _ in range(rng.randrange(0, 12))]
            for _ in range(rng.choice([0, 0, 0, 1, 2])):
                seq.insert(rng.randrange(len(seq) + 1), rng.choice(unknown))
            try:
                expected = validate_sequence_ref(seq)
            except ValueError as exc:
                errors += 1
                with pytest.raises(ValueError) as got:
                    ts.validate_sequence(seq)
                assert str(got.value) == str(exc)
                continue
            got = ts.validate_sequence(iter(seq))
            assert got == expected
            assert [str(v) for v in got] == [str(v) for v in expected]
            violations += len(expected)
        assert errors > 500 and violations > 1000


def random_legal_sequence(rng, length, allow_amb=False):
    labels = list(ts.MODEL_LABELS) + ([ts.AMB] if allow_amb else [])
    seq = []
    prev = None
    for _ in range(length):
        options = [l for l in labels if ts.is_legal_transition(prev, l)]
        prev = rng.choice(options)
        seq.append(prev)
    return seq


class TestSpans:
    def test_simple_span(self):
        labels = ["O", "B-DatasetName", "I-DatasetName", "O"]
        assert ts.spans_from_labels(labels) == [ts.Span("DatasetName", 1, 3)]

    def test_empty(self):
        assert ts.spans_from_labels([]) == []

    def test_amb_closes_open_span(self):
        labels = ["B-TaskName", "amb", "O"]
        assert ts.spans_from_labels(labels) == [ts.Span("TaskName", 0, 1)]

    @pytest.mark.parametrize("labels, spans", [
        (["B-MethodName", "amb", "I-MethodName"],
         [ts.Span("MethodName", 0, 1), ts.Span("MethodName", 2, 3)]),
        (["O", "amb", "I-TaskName", "I-TaskName"], [ts.Span("TaskName", 2, 4)]),
    ])
    def test_inside_after_amb_starts_a_span(self, labels, spans):
        # I-X after amb is legal, so a decoded prediction can hold it
        assert ts.validate_sequence(labels) == []
        assert ts.spans_from_labels(labels) == spans

    def test_adjacent_spans(self):
        labels = ["B-TaskName", "B-TaskName", "I-TaskName"]
        assert ts.spans_from_labels(labels) == [
            ts.Span("TaskName", 0, 1),
            ts.Span("TaskName", 1, 3),
        ]

    def test_roundtrip_on_random_legal_sequences(self):
        rng = random.Random(11)
        for _ in range(1000):
            seq = random_legal_sequence(rng, rng.randrange(0, 14))
            spans = ts.spans_from_labels(seq)
            assert ts.labels_from_spans(spans, len(seq)) == seq
            # non-overlapping and sorted
            for a, b in zip(spans, spans[1:]):
                assert a.end <= b.start

    def test_overlapping_spans_rejected(self):
        spans = [ts.Span("TaskName", 0, 2), ts.Span("MetricName", 1, 3)]
        with pytest.raises(ValueError):
            ts.labels_from_spans(spans, 4)

    def test_span_bounds_checked(self):
        with pytest.raises(ValueError):
            ts.Span("TaskName", 3, 3)
        with pytest.raises(ValueError):
            ts.labels_from_spans([ts.Span("TaskName", 0, 5)], 4)


ALL_LABELS = [*ts.MODEL_LABELS, ts.AMB]
# two entity types, so that B-X, I-X, I-Y and amb meet often
FEW_LABELS = ["O", ts.AMB, "B-TaskName", "I-TaskName", "B-MethodName", "I-MethodName"]
UNKNOWN_LABELS = ["B-Nonsense", "o", "", "I-", "AMB", "X"]


def label_lists(max_size=16):
    """Any sequence of known labels, illegal transitions included."""
    return st.sampled_from([ALL_LABELS, FEW_LABELS]).flatmap(
        lambda alphabet: st.lists(st.sampled_from(alphabet), max_size=max_size)
    )


class TestSpanRule:
    """`spans_from_labels` and `span_bounds` against the word-by-word walk."""

    @settings(max_examples=500, deadline=None)
    @given(label_lists())
    def test_spans_match_the_walk(self, labels):
        assert ts.spans_from_labels(labels) == spans_from_labels_ref(labels)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(label_lists(max_size=6), max_size=8))
    def test_span_bounds_of_paragraphs_match_the_walk_per_paragraph(self, paragraphs):
        # empty paragraphs included; a span never runs into the next paragraph
        expected = []
        offset = 0
        for labels in paragraphs:
            expected += [(offset + s.start, offset + s.end, s.entity_type)
                         for s in spans_from_labels_ref(labels)]
            offset += len(labels)
        index = ts.label_indices(label for labels in paragraphs for label in labels)
        first = np.array([i == 0 for labels in paragraphs for i in range(len(labels))], bool)
        starts, ends, types = ts.span_bounds(index, first)
        assert starts.dtype == ends.dtype == types.dtype == np.int64
        got = [(s, e, ts.ENTITY_TYPES[t]) for s, e, t in zip(starts.tolist(), ends.tolist(),
                                                            types.tolist())]
        assert got == expected

    def test_inside_label_at_a_paragraph_start_starts_a_span(self):
        # one paragraph ends inside a TaskName span, the next starts with I-TaskName
        index = ts.label_indices(["B-TaskName", "I-TaskName", "I-TaskName", "O"])
        starts, ends, types = ts.span_bounds(index, np.array([True, False, True, False]))
        assert starts.tolist() == [0, 2]
        assert ends.tolist() == [2, 3]
        assert types.tolist() == [ts.ENTITY_TYPES.index("TaskName")] * 2

    @settings(max_examples=300, deadline=None)
    @given(label_lists(), st.lists(st.tuples(st.integers(0, 16),
                                             st.sampled_from(UNKNOWN_LABELS)), max_size=2))
    def test_unknown_label_is_the_walks_error(self, labels, inserts):
        for position, label in inserts:
            labels.insert(min(position, len(labels)), label)
        try:
            expected = spans_from_labels_ref(labels)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                ts.spans_from_labels(labels)
            assert str(got.value) == str(exc)
        else:
            assert ts.spans_from_labels(labels) == expected

    @pytest.mark.parametrize("labels, unknown", [
        (["O", "X"], "X"),
        (["B-TaskName", "o", "I-TaskName"], "o"),
        (["B-Nonsense"], "B-Nonsense"),
        (["O", "I-", "X"], "I-"),
    ])
    def test_first_unknown_label_is_a_value_error(self, labels, unknown):
        message = f"^unknown label {unknown!r}$"
        with pytest.raises(ValueError, match=message):
            ts.label_indices(labels)
        with pytest.raises(ValueError, match=message):
            ts.spans_from_labels(labels)

    def test_label_indices(self):
        index = ts.label_indices(iter(ALL_LABELS))
        assert index.dtype == np.int64
        assert index.tolist() == list(range(len(ALL_LABELS)))
        assert ts.label_indices([]).tolist() == []
