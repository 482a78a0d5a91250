"""Partitioning, train/test split, merging, and annotation file tests."""

import io
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sciner import dataset as ds
from sciner import util
from sciner.corpus_ingest import PaperRecord, hash_url, tokenize
from sciner.errors import FormatError
from sciner import tag_schema as ts

from kernel_oracles import read_annotations_ref
from test_tag_schema import random_legal_sequence


def record(url, venue_hint="", year=None):
    return PaperRecord(title="t", url=url, booktitle=venue_hint, year=year)


class TestPartition:
    def test_2022_acl_paper_is_auto(self):
        catalog = [record("https://x.test/1", "ACL 2022", 2022)]
        part = ds.partition_corpus(catalog, set())
        assert part.auto == {catalog[0].paper_id}
        assert not part.manual and not part.unannotated

    def test_manual_id_overrides_auto(self):
        catalog = [record("https://x.test/1", "ACL 2022", 2022)]
        part = ds.partition_corpus(catalog, {catalog[0].paper_id})
        assert part.manual == {catalog[0].paper_id}
        assert not part.auto

    def test_2019_emnlp_is_unannotated(self):
        catalog = [record("https://x.test/1", "EMNLP 2019", 2019)]
        part = ds.partition_corpus(catalog, set())
        assert part.unannotated == {catalog[0].paper_id}

    def test_missing_year_is_unannotated(self):
        catalog = [record("https://x.test/1", "NAACL", None)]
        part = ds.partition_corpus(catalog, set())
        assert part.unannotated == {catalog[0].paper_id}

    def test_record_without_url_is_left_out(self):
        catalog = [record("https://x.test/1", "ACL 2022", 2022), PaperRecord(title="no url")]
        part = ds.partition_corpus(catalog, set())
        assert part.auto == {catalog[0].paper_id}
        assert not part.manual and not part.unannotated

    def test_unknown_manual_id_rejected(self):
        with pytest.raises(ValueError, match="deadbeef"):
            ds.partition_corpus([record("https://x.test/1")], {"deadbeef"})

    def test_disjoint_cover_on_random_catalogs(self):
        rng = random.Random(6)
        venues = ["ACL", "EMNLP", "NAACL", "COLING", ""]
        for trial in range(50):
            catalog = [
                record(
                    f"https://x.test/{trial}/{i}",
                    f"{rng.choice(venues)} proceedings",
                    rng.choice([2019, 2021, 2022, 2023, None]),
                )
                for i in range(rng.randrange(0, 25))
            ]
            ids = [r.paper_id for r in catalog]
            manual = {pid for pid in ids if rng.random() < 0.2}
            part = ds.partition_corpus(catalog, manual)
            assert part.manual | part.auto | part.unannotated == set(ids)
            assert not part.manual & part.auto
            assert not part.manual & part.unannotated
            assert not part.auto & part.unannotated


def paragraph(paper, index, labels=None, annotator=None, provenance="manual",
              confidence=None, words=None):
    labels = labels if labels is not None else ["O", "B-TaskName", "I-TaskName"]
    words = words if words is not None else [f"w{i}" for i in range(len(labels))]
    return ds.AnnotatedParagraph(
        paper_id=hash_url(f"https://p.test/{paper}"),
        paragraph_index=index,
        words=words,
        labels=labels,
        provenance=provenance,
        annotator=annotator,
        confidence=confidence,
    )


class TestAnnotatedParagraph:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            paragraph("a", 0, labels=["O", "O"], words=["one"])

    def test_manual_amb_rejected(self):
        with pytest.raises(ValueError, match="amb"):
            paragraph("a", 0, labels=["O", "amb"])

    def test_illegal_transition_rejected(self):
        with pytest.raises(ValueError):
            paragraph("a", 0, labels=["O", "I-TaskName"])

    def test_confidence_only_with_auto(self):
        with pytest.raises(ValueError):
            paragraph("a", 0, confidence=[1.0, 1.0, 1.0])
        p = paragraph("a", 0, provenance="auto", confidence=[0.5, 0.99, 0.99])
        assert p.confidence == [0.5, 0.99, 0.99]

    def test_confidence_length_must_match_words(self):
        with pytest.raises(ValueError, match="^confidence length must match word count$"):
            paragraph("a", 0, provenance="auto", confidence=[0.5, 0.99])

    # each of these was written as a header that read_annotations rejects
    @pytest.mark.parametrize("field, value, message", [
        ("paper_id", "a b", "paper id 'a b' is empty or has whitespace"),
        ("paper_id", "", "paper id '' is empty or has whitespace"),
        ("paper_id", "a\x85", "paper id 'a\\x85' is empty or has whitespace"),
        ("paragraph_index", -1, "paragraph index must be a non-negative integer, got -1"),
        ("annotator", "", "annotator '' is empty or has a line break"),
        ("annotator", "al\nice", "annotator 'al\\nice' is empty or has a line break"),
        ("annotator", "al\rice", "annotator 'al\\rice' is empty or has a line break"),
        ("provenance", "guess", "unknown provenance 'guess'"),
    ])
    def test_header_field_no_header_carries_rejected(self, field, value, message):
        fields = dict(paper_id="a", paragraph_index=0, words=["w"], labels=["O"])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ds.AnnotatedParagraph(**{**fields, field: value})


class TestSplitTrainTest:
    @staticmethod
    def corpus(papers_per_annotator):
        paragraphs = []
        for annotator, n_papers in papers_per_annotator.items():
            for k in range(n_papers):
                for idx in range(3):
                    paragraphs.append(
                        paragraph(f"{annotator}-{k}", idx, annotator=annotator)
                    )
        return paragraphs

    def test_paper_counts_for_three_annotators(self):
        paragraphs = self.corpus({"alice": 11, "bob": 12, "carol": 12})
        train, test = ds.split_train_test(paragraphs, held_out_per_annotator=2, seed=1)
        test_papers = {p.paper_id for p in test}
        train_papers = {p.paper_id for p in train}
        assert len(test_papers) == 6
        assert len(train_papers) == 29
        assert not test_papers & train_papers
        assert len(train) + len(test) == len(paragraphs)

    def test_zero_held_out(self):
        paragraphs = self.corpus({"alice": 3})
        train, test = ds.split_train_test(paragraphs, held_out_per_annotator=0, seed=1)
        assert test == []
        assert len(train) == len(paragraphs)

    def test_same_seed_same_split(self):
        paragraphs = self.corpus({"alice": 5, "bob": 6})
        first = ds.split_train_test(paragraphs, seed=42)
        second = ds.split_train_test(paragraphs, seed=42)
        assert [p.paper_id for p in first[1]] == [p.paper_id for p in second[1]]

    def test_insufficient_papers_rejected(self):
        paragraphs = self.corpus({"alice": 2})
        with pytest.raises(ValueError, match="alice"):
            ds.split_train_test(paragraphs, held_out_per_annotator=2)

    def test_negative_held_out_rejected(self):
        with pytest.raises(ValueError, match="^held_out_per_annotator must be >= 0$"):
            ds.split_train_test(self.corpus({"alice": 3}), held_out_per_annotator=-1)

    def test_paper_with_two_annotators_rejected(self):
        paragraphs = [paragraph("x", 0, annotator="alice"), paragraph("x", 1, annotator="bob")]
        with pytest.raises(ValueError, match=f"^paper {paragraphs[0].paper_id} has multiple"):
            ds.split_train_test(paragraphs)

    def test_no_paper_straddles(self):
        paragraphs = self.corpus({"alice": 4, "bob": 5})
        train, test = ds.split_train_test(paragraphs, held_out_per_annotator=1, seed=9)
        assert not {p.paper_id for p in train} & {p.paper_id for p in test}


class TestMerge:
    def test_empty(self):
        assert ds.merge_for_retraining([], []) == []

    def test_amb_masked_not_dropped(self):
        auto = paragraph(
            "a", 0, labels=["B-TaskName", "amb", "O"], provenance="auto",
            confidence=[0.99, 0.5, 0.99],
        )
        merged = ds.merge_for_retraining([], [auto], "ignore_positions")
        assert len(merged) == 1
        assert merged[0].mask == [True, False, True]
        assert merged[0].labels == ["B-TaskName", "amb", "O"]

    def test_drop_paragraph_policy(self):
        auto = paragraph(
            "a", 0, labels=["B-TaskName", "amb", "O"], provenance="auto",
            confidence=[0.99, 0.5, 0.99],
        )
        assert ds.merge_for_retraining([], [auto], "drop_paragraph") == []

    def test_manual_first_stable_order(self):
        manual = [paragraph("m", i) for i in range(3)]
        auto = [
            paragraph("a", i, provenance="auto", confidence=[1.0, 1.0, 1.0])
            for i in range(2)
        ]
        merged = ds.merge_for_retraining(manual, auto)
        assert len(merged) == 5
        assert all(all(example.mask) for example in merged)

    def test_non_amb_labels_unchanged(self):
        rng = random.Random(3)
        for _ in range(50):
            labels = random_legal_sequence(rng, rng.randrange(1, 10), allow_amb=True)
            auto = paragraph(
                "a", 0, labels=labels, provenance="auto",
                confidence=[1.0] * len(labels),
            )
            merged = ds.merge_for_retraining([], [auto], "ignore_positions")
            assert merged[0].labels == labels
            for label, mask in zip(merged[0].labels, merged[0].mask):
                assert mask == (label != ts.AMB)

    def test_wrong_provenance_rejected(self):
        manual = paragraph("m", 0)
        with pytest.raises(ValueError, match="auto"):
            ds.merge_for_retraining([], [manual])

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ds.merge_for_retraining([], [], "whatever")


class TestAnnotationFiles:
    def test_minimal_two_word_record(self):
        text = (
            "# paper_id=abc123 paragraph=0 provenance=manual annotator=pat\n"
            "SciNER\tB-TaskName\n"
            "task\tI-TaskName\n"
            "\n"
        )
        paragraphs = ds.read_annotations(io.StringIO(text))
        assert len(paragraphs) == 1
        p = paragraphs[0]
        assert p.words == ["SciNER", "task"]
        assert p.labels == ["B-TaskName", "I-TaskName"]
        assert p.annotator == "pat"
        assert ts.spans_from_labels(p.labels) == [ts.Span("TaskName", 0, 2)]

    def test_roundtrip_random_paragraphs(self):
        rng = random.Random(17)
        paragraphs = []
        for k in range(500):
            provenance = rng.choice(["manual", "auto"])
            labels = random_legal_sequence(
                rng, rng.randrange(1, 12), allow_amb=(provenance == "auto")
            )
            paragraphs.append(
                paragraph(
                    f"p{k % 37}", k, labels=labels, provenance=provenance,
                    annotator=rng.choice([None, "alice", "bob"]),
                    confidence=[rng.random() for _ in labels] if provenance == "auto" else None,
                )
            )
        sink = io.StringIO()
        assert ds.write_annotations(paragraphs, sink) == 500
        back = ds.read_annotations(io.StringIO(sink.getvalue()))
        assert back == paragraphs

    def test_unknown_label_reports_location(self):
        text = (
            "# paper_id=abc paragraph=0 provenance=manual\n"
            "x\tB-TaskName\n"
            "y\tI-Foo\n\n"
        )
        with pytest.raises(FormatError, match=r"<annotations>:3.*I-Foo"):
            ds.read_annotations(io.StringIO(text))

    def test_illegal_transition_reports_location(self):
        text = (
            "# paper_id=abc paragraph=0 provenance=manual\n"
            "x\tO\n"
            "y\tI-TaskName\n\n"
        )
        with pytest.raises(FormatError, match="<annotations>:3"):
            ds.read_annotations(io.StringIO(text))

    def test_missing_label_column(self):
        text = "# paper_id=abc paragraph=0 provenance=manual\nx\n\n"
        with pytest.raises(FormatError, match=":2"):
            ds.read_annotations(io.StringIO(text))

    def test_filename_in_diagnostics(self):
        text = "# paper_id=abc paragraph=0 provenance=manual\nx\tI-TaskName\n\n"
        with pytest.raises(FormatError, match="gold.ann:2"):
            ds.read_annotations(io.StringIO(text), filename="gold.ann")

    def test_confidence_column_outside_auto_paragraph_rejected(self):
        text = (
            "# paper_id=abc paragraph=0 provenance=auto\n"
            "Alpha\tB-MethodName\t0.5\n\n"
            "# paper_id=abc paragraph=1 provenance=manual\n"
            "x\tO\n"
            "Alpha\tB-MethodName\t0.5\n\n"
        )
        with pytest.raises(
            FormatError, match="^gold.ann:6: confidence column in a manual paragraph$"
        ):
            ds.read_annotations(io.StringIO(text), filename="gold.ann")

    def test_amb_in_manual_paragraph_names_its_header(self):
        text = (
            "# paper_id=abc paragraph=0 provenance=auto\n"
            "x\tamb\t0.5\n\n"
            "# paper_id=abc paragraph=1 provenance=manual\n"
            "x\tO\n"
            "y\tamb\n\n"
        )
        with pytest.raises(
            FormatError, match="^gold.ann:4: manual annotations must not contain 'amb'$"
        ):
            ds.read_annotations(io.StringIO(text), filename="gold.ann")

    def test_writer_output_always_readable(self):
        rng = random.Random(23)
        for _ in range(30):
            labels = random_legal_sequence(rng, rng.randrange(1, 8))
            p = paragraph("q", 0, labels=labels)
            sink = io.StringIO()
            ds.write_annotations([p], sink)
            assert ds.read_annotations(io.StringIO(sink.getvalue())) == [p]

    def test_words_starting_with_hash(self):
        words = tokenize("#1 beats #tags and # alone")
        assert words[0] == "#1"
        p = paragraph("h", 0, labels=["O"] * len(words), words=words)
        sink = io.StringIO()
        ds.write_annotations([p], sink)
        assert ds.read_annotations(io.StringIO(sink.getvalue())) == [p]

    def test_header_without_blank_line_still_rejected(self):
        text = (
            "# paper_id=abc paragraph=0 provenance=manual\n"
            "x\tO\n"
            "# paper_id=abc paragraph=1 provenance=manual\n"
            "y\tO\n\n"
        )
        with pytest.raises(FormatError, match=":3: header inside paragraph"):
            ds.read_annotations(io.StringIO(text))

    # each rejection with the line it names and its whole message
    @pytest.mark.parametrize("text, line, message", [
        ("# paper_id=abc paragraph=0 provenance=manual\n\n", 1, "paragraph has no words"),
        ("# paper_id=abc paragraph=0 provenance=manual\nx\tO\n\n"
         "# paper_id=abc paragraph=1 provenance=manual", 4, "paragraph has no words"),
        ("x\tO\n\n# paper_id=abc paragraph=0 provenance=manual\n", 1,
         "word line before any paragraph header"),
        ("# paper_id=abc paragraph=0 provenance=auto\nx\tO\t0.5\ny\tO\n", 1,
         "auto paragraph lacks a confidence column"),
        ("# paper_id=abc paragraph=x provenance=manual\nx\tO\n", 1,
         "malformed paragraph header: '# paper_id=abc paragraph=x provenance=manual'"),
        ("# paper_id=abc paragraph=0 provenance=robot\nx\tO\n", 1,
         "unknown provenance 'robot'"),
        ("# paper_id=abc paragraph=0 provenance=manual\nx\tO\n\n\ny\tO\n", 5,
         "word line before any paragraph header"),
        ("# paper_id=abc paragraph=0 provenance=manual\nx\tO\n\tO\n", 3, "empty word"),
        ("# paper_id=abc paragraph=0 provenance=auto\nx\tO\t0.5\ny\tO\tx\n", 3,
         "bad confidence value 'x'"),
        ("# paper_id=abc paragraph=0 provenance=auto\nx\tO\t\n", 2, "bad confidence value ''"),
        ("# paper_id=abc paragraph=0 provenance=manual\nx\tO\ty\tz\n", 2,
         "expected word<TAB>label[<TAB>confidence], got 'x\\tO\\ty\\tz'"),
        ("# paper_id=abc paragraph=0 provenance=manual\nx\n", 2,
         "expected word<TAB>label[<TAB>confidence], got 'x'"),
    ])
    def test_rejection_names_line_and_message(self, text, line, message):
        with pytest.raises(FormatError, match=f"^{re.escape(f'w.ann:{line}: {message}')}$"):
            ds.read_annotations(io.StringIO(text), filename="w.ann")

    @pytest.mark.parametrize("word", ["On\u2003x", "a b", "\x1c", "x\x85", "\u00a0y", "\x0b"])
    def test_word_with_whitespace_rejected_naming_line(self, word):
        text = f"# paper_id=abc paragraph=0 provenance=manual\nx\tO\n{word}\tO\n"
        message = f"w.ann:3: word {word!r} has whitespace"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            ds.read_annotations(io.StringIO(text), filename="w.ann")

    # words no file can hold: whitespace of any kind, tabs and line breaks included, or none
    @pytest.mark.parametrize("word", ["x\ty", "", "a b", "On\u2003x", "a\n", "\r"])
    def test_writer_refuses_a_word_no_file_holds(self, word):
        good = paragraph("a", 0, labels=["O"])
        bad = paragraph("b", 3, labels=["O", "O"], words=["w", word])
        sink = io.StringIO()
        message = f"{bad.paper_id} paragraph 3: word 1 {word!r} is empty or has whitespace"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ds.write_annotations([good, bad], sink)
        # the paragraphs before it are written whole, and nothing of it
        assert ds.read_annotations(io.StringIO(sink.getvalue())) == [good]

    def test_writer_refuses_a_paragraph_with_no_labels(self):
        unlabeled = ds.AnnotatedParagraph("p", 2, ["w"], provenance="unannotated")
        with pytest.raises(ValueError, match="^p paragraph 2 has no labels$"):
            ds.write_annotations([unlabeled], io.StringIO())

    def test_writer_refuses_a_paragraph_with_no_words(self):
        # a lone header would read back as "paragraph has no words"
        sink = io.StringIO()
        with pytest.raises(ValueError, match="^p paragraph 0 has no words$"):
            ds.write_annotations([ds.AnnotatedParagraph("p", 0, [], [], "manual")], sink)
        assert sink.getvalue() == ""

    # a file with several faults reports the first one the reader meets
    @pytest.mark.parametrize("lines, expected", [
        # a label fault on an earlier line beats a format fault on a later one
        (["x\tI-Foo", "y"], "w.ann:2: unknown label 'I-Foo'"),
        # and a format fault on an earlier line beats a label fault on a later one
        (["x", "y\tI-Foo"], "w.ann:2: expected word<TAB>label[<TAB>confidence], got 'x'"),
        # a paragraph's own fault, named at its header, beats a later paragraph's
        (["x\tamb", "", "# paper_id=abc paragraph=1 provenance=manual", "y"],
         "w.ann:1: manual annotations must not contain 'amb'"),
    ])
    def test_first_fault_is_reported(self, lines, expected):
        text = "\n".join(["# paper_id=abc paragraph=0 provenance=manual", *lines]) + "\n"
        with pytest.raises(FormatError, match=f"^{re.escape(expected)}$"):
            ds.read_annotations(io.StringIO(text), filename="w.ann")


# a token: what a token file line holds between single spaces
TOKEN = st.text(min_size=1, max_size=6).filter(lambda w: w.split() == [w])


@st.composite
def auto_paragraph(draw):
    n = draw(st.integers(1, 8))
    labels, prev = [], None
    for _ in range(n):
        options = [l for l in [*ts.MODEL_LABELS, ts.AMB] if ts.is_legal_transition(prev, l)]
        prev = draw(st.sampled_from(options))
        labels.append(prev)
    return ds.AnnotatedParagraph(
        paper_id=draw(TOKEN),
        paragraph_index=draw(st.integers(0, 10**6)),
        words=draw(st.lists(TOKEN, min_size=n, max_size=n)),
        labels=labels,
        provenance="auto",
        annotator=draw(st.none() | st.lists(TOKEN, min_size=1, max_size=2).map(" ".join)),
        confidence=draw(st.lists(st.floats(allow_nan=False), min_size=n, max_size=n)),
    )


@settings(max_examples=500, deadline=None)
@given(st.text(), st.integers(-2, 10**6), st.none() | st.text())
def test_every_paragraph_constructed_reads_back(paper_id, index, annotator):
    try:
        p = ds.AnnotatedParagraph(paper_id, index, ["w"], ["O"], "manual", annotator)
    except ValueError:
        return
    sink = io.StringIO()
    ds.write_annotations([p], sink)
    # newline=None splits lines as a file opened in text mode does, "\r" too
    assert ds.read_annotations(io.StringIO(sink.getvalue(), newline=None)) == [p]


@settings(max_examples=200, deadline=None)
@given(st.lists(auto_paragraph(), max_size=6))
def test_annotation_file_round_trip(paragraphs):
    sink = io.StringIO()
    assert ds.write_annotations(paragraphs, sink) == len(paragraphs)
    text = sink.getvalue()
    back = ds.read_annotations(io.StringIO(text))
    assert back == paragraphs
    again = io.StringIO()
    ds.write_annotations(back, again)
    assert again.getvalue() == text


# annotation file lines, good and bad: headers built from good and bad
# fields, "#" lines, and word lines of one to four tab-separated columns
# drawing "#" words, unknown and illegal labels and odd confidences; no word
# holds whitespace, so a header (which has spaces) holds a tab only where it
# opens a block
WORDS = st.sampled_from(["x", "On", "#1", "#", "\u00e9"])
LABELS = st.sampled_from(["O", "O", "O", "B-TaskName", "I-TaskName", "B-MethodName", "amb"])
CONFIDENCES = st.sampled_from(["0.5", "1", "nan", "-inf", "1e-3", " 0.25", "x", ""])
GOOD_HEADER_LINE = st.builds(
    "# paper_id={} paragraph={} provenance={}{}".format,
    st.sampled_from(["abc", "p2"]),
    st.sampled_from(["0", "12", "\u0663"]),
    st.sampled_from(ds.PROVENANCES),
    st.sampled_from(["", " annotator=bob", " annotator=a\tb"]),
)
HEADER_LINE = st.builds(
    "# paper_id={} paragraph={} provenance={}{}".format,
    st.sampled_from(["abc", ""]),
    st.sampled_from(["0", "x", "", "9" * 5000]),
    st.sampled_from([*ds.PROVENANCES, "robot", ""]),
    st.sampled_from(["", " annotator=bob", " annotator=", " x=1"]),
)
ANY_WORD_LINE = st.builds(
    lambda word, columns: "\t".join([word, *columns]),
    st.one_of(WORDS, st.just("")),
    st.lists(st.one_of(LABELS, st.sampled_from(["I-Foo", "", "o"]), CONFIDENCES), max_size=3),
)
ANY_LINE = st.one_of(
    HEADER_LINE, ANY_WORD_LINE, ANY_WORD_LINE, st.just(""), st.just("x y"),
    st.sampled_from(["#", "# note", "#\tO", "#1\tO\t0.5"]),
)
ONE_IN_FIVE = st.sampled_from([False] * 4 + [True])


@st.composite
def annotation_text(draw):
    """Paragraph blocks parted by runs of blank lines, with or without a
    final newline.  A block is a header and word lines, which carry a
    confidence column if the header says auto.  One time in five, a header
    is drawn from bad ones too, the column is the other way round, or a
    block's lines are drawn from every kind of line."""
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        lines += [""] * draw(st.integers(0, 3))
        headers = HEADER_LINE if draw(ONE_IN_FIVE) else GOOD_HEADER_LINE
        if lines and lines[-1]:  # no blank line: a tab would make a word line of it
            headers = headers.filter(lambda line: "\t" not in line)
        header = draw(headers)
        confidence = ("provenance=auto" in header) != draw(ONE_IN_FIVE)
        word_line = st.builds(
            lambda *columns: "\t".join(columns),
            WORDS, LABELS, *([CONFIDENCES] if confidence else []),
        )
        if draw(ONE_IN_FIVE):
            word_line = st.one_of(word_line, ANY_LINE)
        lines += [header, *draw(st.lists(word_line, min_size=1, max_size=5))]
    lines += [""] * draw(st.integers(0, 2))
    text = "\n".join(lines)
    return text + "\n" if draw(st.booleans()) else text


def read_outcome(reader, text):
    """What `reader` makes of `text`: the paragraphs' repr (a nan confidence
    is not equal to itself), or the error's type and message."""
    try:
        return repr(reader(io.StringIO(text), filename="w.ann"))
    except Exception as exc:  # noqa: BLE001 - the outcome compared is any error
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=2000, deadline=None)
@given(annotation_text())
def test_read_annotations_matches_reference(text):
    assert read_outcome(ds.read_annotations, text) == read_outcome(read_annotations_ref, text)


def test_word_rule_is_str_isspace_on_every_code_point():
    # one rule for tokens, annotated words and paper ids: non-empty, and no
    # character that str.isspace calls whitespace
    chars = [chr(i) for i in range(0x110000)]
    assert [c for c in chars if util.is_word(c) == c.isspace()] == []
    assert not util.is_word("")


@settings(max_examples=500, deadline=None)
@given(st.lists(st.text(max_size=3), max_size=5))
def test_first_non_word_is_the_first_word_the_rule_rejects(words):
    expected = next((i for i, w in enumerate(words) if not w or any(c.isspace() for c in w)), -1)
    assert util.first_non_word(words) == expected


@settings(max_examples=500, deadline=None)
@given(st.lists(st.text(max_size=4), min_size=1, max_size=4))
def test_every_paragraph_written_reads_back(words):
    p = ds.AnnotatedParagraph("p", 0, words, ["O"] * len(words), "manual")
    sink = io.StringIO()
    try:
        ds.write_annotations([p], sink)
    except ValueError:
        assert util.first_non_word(words) >= 0 and sink.getvalue() == ""
        return
    assert ds.read_annotations(io.StringIO(sink.getvalue(), newline=None)) == [p]
