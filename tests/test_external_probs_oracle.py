"""The columnar probability-file reader and grouping against the record-at-a-time oracle.

On a well-formed file both must give the same groups, bit for bit; on a
malformed one, the same exception type with the same message.  The reader's
block size is patched down so that short files span several blocks.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sciner import tagger, util
from sciner.errors import FormatError

from kernel_oracles import group_external_probs_ref, load_external_probs_ref

N_CLASSES = 15


def distribution(rng):
    """A distribution whose sum is off by up to 5e-7, so renormalizing changes bits."""
    dist = rng.random(N_CLASSES) + 1e-3
    dist /= dist.sum()
    return (dist * (1.0 + rng.uniform(-5e-7, 5e-7))).tolist()


def valid_records(rng, n_paragraphs, max_words):
    """Records of each paragraph in strictly increasing (word, subword) order."""
    per_paragraph = []
    for k in range(n_paragraphs):
        paper_id = ["p", "q", 7][k % 3]  # a non-string id is read as str(id)
        records = []
        for w in range(int(rng.integers(1, max_words + 1))):
            for s in range(int(rng.integers(1, 4))):
                records.append({"paper_id": paper_id, "paragraph": k // 3,
                                "word_index": w, "subword_index": s,
                                "probs": distribution(rng)})
        per_paragraph.append(records)
    return per_paragraph


def interleave(rng, per_paragraph, mix):
    """File order: whole paragraphs one after another, or (mix) randomly interleaved."""
    if not mix:
        return [r for records in per_paragraph for r in records]
    queues = [list(records) for records in per_paragraph]
    out = []
    while any(queues):
        live = [q for q in queues if q]
        out.append(live[int(rng.integers(len(live)))].pop(0))
    return out


def with_probs(record, probs):
    return dict(record, probs=probs)


def with_index(key, value):
    return lambda record, rng: json.dumps(dict(record, **{key: value}))


def without(key):
    return lambda record, rng: json.dumps({k: v for k, v in record.items() if k != key})


def scaled_probs(factor):
    return lambda record, rng: json.dumps(
        with_probs(record, [p * factor for p in record["probs"]]))


def one_entry(value):
    def make(record, rng):
        probs = list(record["probs"])
        probs[int(rng.integers(N_CLASSES))] = value
        return json.dumps(with_probs(record, probs))
    return make


def negative_entry(record, rng):
    probs = list(record["probs"])
    i = int(rng.integers(N_CLASSES))
    probs[i] = -probs[i]
    return json.dumps(with_probs(record, probs))


# One entry per malformed-record kind: (record, rng) -> the line to write instead.
MALFORMED = {
    "bad_json": lambda record, rng: json.dumps(record)[:-1],
    "list": lambda record, rng: "[1, 2]",
    "number": lambda record, rng: "3",
    "string": lambda record, rng: '"text"',
    "null": lambda record, rng: "null",
    "true": lambda record, rng: "true",
    "no_paper_id": without("paper_id"),
    "no_probs": without("probs"),
    "no_subword_index": without("subword_index"),
    "paragraph_one": with_index("paragraph", "one"),
    "word_index_1.5_string": with_index("word_index", "1.5"),
    "subword_index_2_string": with_index("subword_index", "2"),
    "word_index_1.7": with_index("word_index", 1.7),
    "word_index_1.0": with_index("word_index", 1.0),
    "word_index_true": with_index("word_index", True),
    "word_index_null": with_index("word_index", None),
    "paragraph_negative": with_index("paragraph", -1),
    "word_index_negative": with_index("word_index", -1),
    "subword_index_negative": with_index("subword_index", -1),
    "probs_strings": lambda record, rng: json.dumps(with_probs(record, ["x"] * N_CLASSES)),
    "probs_ragged": lambda record, rng: json.dumps(with_probs(record, [[0.5], [0.5, 0.5]])),
    "probs_object": lambda record, rng: json.dumps(with_probs(record, {"a": 1})),
    "probs_nested": lambda record, rng: json.dumps(
        with_probs(record, [[p] for p in record["probs"]])),
    "probs_14": lambda record, rng: json.dumps(with_probs(record, record["probs"][:14])),
    "probs_string_entry": one_entry("x"),
    "probs_true_entry": one_entry(True),  # numpy alone would read 1.0
    "probs_numeric_string_entry": one_entry("0.5"),  # numpy alone would read 0.5
    # numpy alone would read these as a valid one-hot distribution
    "probs_one_hot_booleans": lambda record, rng: json.dumps(
        with_probs(record, [True] + [False] * (N_CLASSES - 1))),
    "probs_one_hot_strings": lambda record, rng: json.dumps(
        with_probs(record, ["1"] + ["0"] * (N_CLASSES - 1))),
    "probs_huge_int": one_entry(10 ** 400),  # out of float64 range: a FormatError
    "probs_nan": one_entry(float("nan")),
    "probs_negative": negative_entry,
    "probs_sum": scaled_probs(1.0 + 5e-5),
    "duplicate_pair": lambda record, rng: json.dumps(record) + "\n" + json.dumps(record),
}


def with_raw(key, text):
    """`record` with `key` set to the raw JSON `text`, added last."""
    return lambda record, rng: json.dumps(
        {k: v for k, v in record.items() if k != key})[:-1] + f', "{key}": {text}}}'


def deep_list(depth):
    return "[" * depth + "]" * depth


# Lines that orjson rejects, or reads differently from json, or that json alone
# rejects: the reader must still give json's table or json's exception.
PARSER_EDGES = {
    "probs_infinity": one_entry(float("inf")),  # json.dumps writes `Infinity`
    "paper_id_lone_surrogate": lambda record, rng: json.dumps(dict(record, paper_id="\ud800")),
    "paper_id_2**64": lambda record, rng: json.dumps(dict(record, paper_id=2**64)),
    "paper_id_10**30": lambda record, rng: json.dumps(dict(record, paper_id=10**30)),
    "paper_id_-2**63-1": lambda record, rng: json.dumps(dict(record, paper_id=-2**63 - 1)),
    "word_index_2**64": with_index("word_index", 2**64),
    "probs_entry_2**64": one_entry(2**64),
    "paragraph_twice": lambda record, rng: json.dumps(record)[:-1] + ', "paragraph": 5}',
    "sixth_key": lambda record, rng: json.dumps(dict(record, source="encoder")),
    "sixth_key_nested_1500": with_raw("source", deep_list(1500)),
    "probs_nested_1500": with_raw("probs", deep_list(1500)),
    # 1,000 `[` and `{` in all: few enough for orjson, too deep for json under pytest
    "sixth_key_nested_998": with_raw("source", deep_list(998)),
    "probs_nested_999": with_raw("probs", deep_list(999)),
}

# the edge lines that are valid records, and the key json reads each under
VALID_EDGES = {
    "paper_id_lone_surrogate": "\ud800",
    "paper_id_2**64": str(2**64),
    "paper_id_10**30": str(10**30),
    "paper_id_-2**63-1": str(-2**63 - 1),
    "paragraph_twice": None,
    "sixth_key": None,
}


def outcome(load, group, lines):
    try:
        grouped = group(load(iter(lines)))
    except Exception as exc:  # the outcome under test may be any exception
        return type(exc), str(exc)
    return grouped


def assert_same_outcome(lines):
    expected = outcome(load_external_probs_ref, group_external_probs_ref, lines)
    got = outcome(tagger.load_external_probs, tagger.group_external_probs, lines)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert isinstance(got, dict), got
    assert list(got) == list(expected)
    for key, (word_idx, probs) in expected.items():
        assert np.array_equal(got[key][0], word_idx)
        assert got[key][0].dtype == word_idx.dtype
        assert np.array_equal(got[key][1], probs)
        assert got[key][1].dtype == probs.dtype


def inject(records, bad, rng):
    """JSON lines for `records`; record number k is a malformed line of kind bad[k]."""
    lines = [json.dumps(r) for r in records]
    for recno, kind in bad.items():
        lines[recno - 1] = MALFORMED[kind](records[recno - 1], rng)
    return "\n".join(lines).split("\n")  # a duplicate_pair line is two lines


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_paragraphs=st.integers(0, 7),
    max_words=st.integers(1, 5),
    mix=st.booleans(),
    block=st.integers(1, 9),
    blank_every=st.sampled_from([0, 0, 2, 5]),
    injections=st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from(sorted(MALFORMED))), max_size=2
    ),
)
def test_reader_matches_oracle(seed, n_paragraphs, max_words, mix, block, blank_every,
                               injections):
    rng = np.random.default_rng(seed)
    records = interleave(rng, valid_records(rng, n_paragraphs, max_words), mix)
    bad = {index % len(records) + 1: kind for index, kind in injections} if records else {}
    lines = inject(records, bad, rng)
    if blank_every:
        lines = [x for i, line in enumerate(lines)
                 for x in ([line, ""] if i % blank_every == 0 else [line])]
    with mock.patch.object(tagger, "_BLOCK_RECORDS", block):
        assert_same_outcome(lines)


@pytest.mark.parametrize("mix", [False, True])
def test_out_of_order_pair_matches_oracle(mix):
    rng = np.random.default_rng(5)
    per_paragraph = valid_records(rng, 4, 4)
    records = per_paragraph[2]
    records[1], records[2] = records[2], records[1]
    lines = [json.dumps(r) for r in interleave(rng, per_paragraph, mix)]
    with mock.patch.object(tagger, "_BLOCK_RECORDS", 3):
        assert_same_outcome(lines)


class TestFirstBadRecordWins:
    """Probabilities are checked a block at a time; the file order still decides."""

    @pytest.mark.parametrize("bad, first", [
        ({3: "probs_sum", 6: "no_probs"}, 3),
        ({3: "probs_negative", 6: "bad_json"}, 3),
        ({3: "probs_nested", 6: "list"}, 3),
        ({3: "probs_strings", 6: "probs_sum"}, 3),
        ({3: "probs_sum", 6: "probs_strings"}, 3),
        ({3: "word_index_negative", 6: "probs_sum"}, 3),
        ({8: "probs_nan", 9: "null"}, 8),  # last of a block, then the next block
        ({9: "probs_nan", 16: "probs_strings"}, 9),
    ])
    def test_small_blocks(self, bad, first):
        rng = np.random.default_rng(1)
        records = [r for recs in valid_records(rng, 10, 10) for r in recs][:20]
        assert len(records) == 20
        lines = inject(records, bad, rng)
        with mock.patch.object(tagger, "_BLOCK_RECORDS", 8):
            assert_same_outcome(lines)
            with pytest.raises(Exception, match=f"record {first}:"):
                tagger.load_external_probs(iter(lines))

    @pytest.mark.parametrize("bad", [
        {},
        {tagger._BLOCK_RECORDS - 1: "probs_sum", tagger._BLOCK_RECORDS + 1: "null"},
        {tagger._BLOCK_RECORDS + 5: "probs_nan", 2 * tagger._BLOCK_RECORDS - 3: "bad_json"},
        {2 * tagger._BLOCK_RECORDS + 7: "probs_strings"},
    ])
    def test_real_block_size(self, bad):
        rng = np.random.default_rng(2)
        n = 2 * tagger._BLOCK_RECORDS + 50
        records = interleave(rng, valid_records(rng, 1000, 12), mix=True)[:n]
        assert len(records) == n
        assert_same_outcome(inject(records, bad, rng))


class TestEntriesMustBeJsonNumbers:
    """A boolean or a numeric string is not a probability, wherever its record
    falls in a block."""

    @pytest.mark.parametrize("kind", ["probs_true_entry", "probs_numeric_string_entry",
                                      "probs_one_hot_booleans", "probs_one_hot_strings"])
    @pytest.mark.parametrize("recno", [1, 4, 8, 9, 20])  # 8 and 9 straddle a block boundary
    def test_rejected_like_the_oracle(self, kind, recno):
        rng = np.random.default_rng(recno)
        records = [r for recs in valid_records(rng, 10, 10) for r in recs][:20]
        lines = inject(records, {recno: kind}, rng)
        with mock.patch.object(tagger, "_BLOCK_RECORDS", 8):
            assert_same_outcome(lines)
            with pytest.raises(FormatError,
                               match=f"^probability record {recno}: probs are not numbers$"):
                tagger.load_external_probs(iter(lines))

    def test_integers_are_numbers(self):
        rng = np.random.default_rng(4)
        records = [r for recs in valid_records(rng, 3, 3) for r in recs]
        records[2] = with_probs(records[2], [1] + [0] * (N_CLASSES - 1))
        table = tagger.load_external_probs(iter(json.dumps(r) for r in records))
        assert table.probs[2].tolist() == [1.0] + [0.0] * (N_CLASSES - 1)


class TestParserEdges:
    """orjson parses the lines it reads as json does; json parses the rest."""

    @pytest.mark.parametrize("kind", sorted(PARSER_EDGES))
    @pytest.mark.parametrize("recno", [1, 5, 8, 9])  # 8 and 9 straddle a block boundary
    def test_matches_oracle(self, kind, recno):
        rng = np.random.default_rng(recno)
        records = [r for recs in valid_records(rng, 10, 10) for r in recs][:20]
        lines = [json.dumps(r) for r in records]
        lines[recno - 1] = PARSER_EDGES[kind](records[recno - 1], rng)
        with mock.patch.object(tagger, "_BLOCK_RECORDS", 8):
            assert_same_outcome(lines)
            got = outcome(tagger.load_external_probs, tagger.group_external_probs, lines)
        if kind in VALID_EDGES:
            paper_id = VALID_EDGES[kind]
            if paper_id is not None:
                assert (paper_id, records[recno - 1]["paragraph"]) in got
        else:
            assert isinstance(got, tuple)
            assert f"record {recno}:" in got[1] or got[0] is RecursionError

    @pytest.mark.parametrize("first, second", [
        ("probs_sum", "probs_infinity"),
        ("probs_sum", "probs_entry_2**64"),
        ("probs_nested_999", "probs_sum"),
        ("probs_nested_999", "bad_json"),
        ("probs_sum", "probs_nested_1500"),
        ("probs_sum", "sixth_key_nested_1500"),
    ])
    def test_two_bad_records_in_one_block(self, first, second):
        """A block orjson parsed is parsed again by json before it raises."""
        rng = np.random.default_rng(3)
        records = [r for recs in valid_records(rng, 10, 10) for r in recs][:20]
        lines = [json.dumps(r) for r in records]
        for recno, kind in ((2, first), (5, second)):
            lines[recno - 1] = {**MALFORMED, **PARSER_EDGES}[kind](records[recno - 1], rng)
        with mock.patch.object(tagger, "_BLOCK_RECORDS", 8):
            assert_same_outcome(lines)

    @pytest.mark.parametrize("sixth_key_on", [[5], list(range(1, 21))])
    def test_json_parses_a_valid_line_once_and_no_other(self, sixth_key_on):
        """A valid line orjson does not take costs one json parse, not its
        block's, and its probabilities are checked with the block's."""
        rng = np.random.default_rng(6)
        records = [r for recs in valid_records(rng, 10, 10) for r in recs][:20]
        lines = [json.dumps(r) for r in records]
        for recno in sixth_key_on:
            lines[recno - 1] = PARSER_EDGES["sixth_key"](records[recno - 1], rng)
        with mock.patch.object(tagger, "_BLOCK_RECORDS", 8):
            assert_same_outcome(lines)
            with mock.patch.object(json, "loads", wraps=json.loads) as loads, \
                    mock.patch.object(tagger, "_record_probs") as record_probs:
                tagger.load_external_probs(iter(lines))
        assert loads.call_count == len(sixth_key_on)
        assert record_probs.call_count == 0


def test_nesting_too_deep_for_orjson_is_format_error():
    """orjson 3.8 overflows the C stack on nesting this deep; json's
    RecursionError is a FormatError naming the record."""
    code = (
        "from sciner import tagger\n"
        "from sciner.errors import FormatError\n"
        "line = '{\"probs\": ' + '[' * 1_000_000 + ']' * 1_000_000 + '}'\n"
        "try:\n"
        "    tagger.load_external_probs(iter([line]))\n"
        "except FormatError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(tagger.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=pythonpath))
    assert (out.returncode, out.stdout.strip()) == (
        0, "probability record 1: JSON nested too deeply"), out.stderr[-500:]


def test_table_columns_match_oracle_records():
    rng = np.random.default_rng(4)
    records = interleave(rng, valid_records(rng, 5, 4), mix=True)
    lines = [json.dumps(r) for r in records]
    table = tagger.load_external_probs(iter(lines))
    expected = list(load_external_probs_ref(iter(lines)))
    assert len(table.key_id) == len(expected) == len(records)
    keys = [(r.paper_id, r.paragraph) for r in expected]
    assert table.keys == list(dict.fromkeys(keys))  # numbered in order of first appearance
    assert [table.keys[k] for k in table.key_id.tolist()] == keys
    assert table.word_index.tolist() == [r.word_index for r in expected]
    assert table.subword_index.tolist() == [r.subword_index for r in expected]
    for column in (table.key_id, table.word_index, table.subword_index):
        assert column.dtype == np.int64
    assert np.array_equal(
        table.probs.view(np.int64), np.array([r.probs for r in expected]).view(np.int64)
    )


def assert_table_matches_oracle(table, lines):
    """The table holds the oracle's records bit for bit, keys numbered in
    order of first appearance."""
    expected = list(load_external_probs_ref(iter(lines)))
    keys = [(r.paper_id, r.paragraph) for r in expected]
    assert table.keys == list(dict.fromkeys(keys))
    assert [table.keys[k] for k in table.key_id.tolist()] == keys
    assert table.word_index.tolist() == [r.word_index for r in expected]
    assert table.subword_index.tolist() == [r.subword_index for r in expected]
    for column in (table.key_id, table.word_index, table.subword_index):
        assert column.dtype == np.int64 and column.shape == (len(expected),)
    assert table.probs.dtype == np.float64
    assert table.probs.shape == (len(expected), N_CLASSES)
    assert np.array_equal(
        table.probs.view(np.int64),
        np.array([r.probs for r in expected]).reshape(-1, N_CLASSES).view(np.int64),
    )


@st.composite
def probs_text(draw):
    """A valid `probs` list as JSON text: one-hot integers, or floats written
    in exponent, `%.17g` or shortest round-trip form."""
    form = draw(st.sampled_from(["one_hot", "%.17e", "%.17g", "%r"]))
    if form == "one_hot":
        hot = draw(st.integers(0, N_CLASSES - 1))
        return "[" + ", ".join("1" if k == hot else "0" for k in range(N_CLASSES)) + "]"
    weights = draw(st.lists(st.floats(0, 1), min_size=N_CLASSES, max_size=N_CLASSES)
                   .filter(lambda w: sum(w) > 0))
    scale = (1.0 + draw(st.floats(-5e-7, 5e-7))) / sum(weights)
    return "[" + ", ".join(form % (w * scale) for w in weights) + "]"


@st.composite
def probability_line(draw):
    index = st.integers(0, 2**63 - 1)
    record = {"paper_id": draw(st.text(min_size=1, max_size=6).filter(util.is_word)),
              "paragraph": draw(index), "word_index": draw(index),
              "subword_index": draw(index), "probs": "PROBS"}
    order = draw(st.permutations(list(record)))
    line = json.dumps({key: record[key] for key in order}, ensure_ascii=draw(st.booleans()))
    return line.replace('"PROBS"', draw(probs_text()))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(probability_line(), max_size=12), block=st.integers(1, 5))
def test_written_records_read_back_as_the_oracle_reads_them(lines, block):
    with mock.patch.object(tagger, "_BLOCK_RECORDS", block):
        table = tagger.load_external_probs(iter(lines))
    assert_table_matches_oracle(table, lines)


def test_reader_holds_each_value_once():
    """The traced peak is the table plus a block's transients, not the table
    twice (per-block arrays and their concatenation)."""
    rng = np.random.default_rng(8)
    n = 60_000
    line = ('{"paper_id": "p%d", "paragraph": 0, "word_index": %d, "subword_index": 0, '
            '"probs": [' + ", ".join(["%.17g"] * N_CLASSES) + ']%s}')
    lines = []
    for i, row in enumerate(rng.dirichlet(np.ones(N_CLASSES), size=n).tolist()):
        # records 20,000-21,023 carry a sixth key, so orjson passes them to json
        extra = ', "source": "encoder"' if 20_000 <= i < 20_000 + tagger._BLOCK_RECORDS else ""
        lines.append(line % (i // 1000, i % 1000, *row, extra))
        if i % 97 == 0:
            lines.append("")
    tracemalloc.start()  # numpy and array report their buffers to tracemalloc
    try:
        table = tagger.load_external_probs(iter(lines))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.probs.shape == (n, N_CLASSES) and len(table.keys) == n // 1000
    nbytes = sum(column.nbytes for column in (
        table.key_id, table.word_index, table.subword_index, table.probs))
    assert peak <= 1.15 * nbytes + 2 * 2**20, f"traced peak {peak / nbytes:.2f}x the table"


@pytest.mark.parametrize("lines", [[], ["", "  "]])
def test_empty_file_gives_empty_columns(lines):
    table = tagger.load_external_probs(iter(lines))
    assert table.keys == []
    assert table.probs.shape == (0, N_CLASSES) and table.probs.dtype == np.float64
    for column in (table.key_id, table.word_index, table.subword_index):
        assert column.shape == (0,) and column.dtype == np.int64
