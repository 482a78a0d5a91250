"""Bibliography parsing, catalog CSV, hashing, fetching, and tokenizer tests."""

import contextlib
import errno
import io
import os
import random
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sciner import corpus_ingest as ci
from sciner.errors import FormatError

from kernel_oracles import parse_bibtex_ref, tokenize_ref
from sha256_oracle import sha256_hex

# the proceedings entry from the anthology snapshot
PROCEEDINGS_BIB = """\
@proceedings{proc-2023-sanskrit,
  title = "Proceedings of the Computational (S)anskrit (V6) Digital Humanities: Selected Papers",
  editor = "Mulkarni, Amba and
  Helliwig, Oliver",
  month = jan,
  year = "2023",
  address = "Canberra, Australia (Online mode)",
  publisher = "Association for Computational Linguistics",
  url = "https://aclanthology.org/2023-wsc-csdh.e",
}
"""


class TestParseBibtex:
    def test_proceedings_entry(self):
        result = ci.parse_bibtex(io.StringIO(PROCEEDINGS_BIB))
        assert result.skipped == 0
        assert len(result.records) == 1
        r = result.records[0]
        assert r.title == (
            "Proceedings of the Computational (S)anskrit (V6) Digital Humanities: "
            "Selected Papers"
        )
        assert r.editor == "Mulkarni, Amba and Helliwig, Oliver"
        assert r.month == "Jan"
        assert r.year == 2023
        assert r.address == "Canberra, Australia (Online mode)"
        assert r.publisher == "Association for Computational Linguistics"
        assert r.url == "https://aclanthology.org/2023-wsc-csdh.e"
        assert r.author is None
        assert r.venue == "OTHER"

    def test_empty_input(self):
        result = ci.parse_bibtex(io.StringIO(""))
        assert result.records == []
        assert result.skipped == 0

    def test_bad_entry_skipped_with_count(self):
        text = (
            '@article{a1, title = "First", year = "2022",\n'
            '  url = "https://aclanthology.org/2022.acl-long.1"}\n'
            "@article{a2, title = {Broken {forever,\n"
            '@article{a3, title = "Third", year = "2023",\n'
            '  url = "https://aclanthology.org/2023.emnlp-main.9"}\n'
        )
        result = ci.parse_bibtex(io.StringIO(text))
        # hand-built expectation: entries 1 and 3 survive, entry 2 is skipped
        assert result.skipped == 1
        assert [r.title for r in result.records] == ["First", "Third"]
        assert [r.year for r in result.records] == [2022, 2023]
        assert result.errors and "line" in result.errors[0]

    def test_missing_key_is_entry_error(self):
        text = "@article{, title = {X}}\n@article{ok, title = {Y}}\n"
        result = ci.parse_bibtex(io.StringIO(text))
        assert result.skipped == 1
        assert [r.title for r in result.records] == ["Y"]

    def test_braced_values_and_bare_months(self):
        text = "@inproceedings{k, title = {A {nested} title}, month = dec, pages = \"38--49\"}"
        result = ci.parse_bibtex(io.StringIO(text))
        r = result.records[0]
        assert r.title == "A {nested} title"
        assert r.month == "Dec"
        assert r.pages == "38--49"

    def test_unparseable_year_left_absent(self):
        text = "@article{k, title = {T}, year = {forthcoming}}"
        result = ci.parse_bibtex(io.StringIO(text))
        assert result.records[0].year is None

    # "²" passes str.isdigit() but not int(), and "٣" reads as 3
    @pytest.mark.parametrize("year", ["²", "٣", "0", "-2022", "9" * 5000])
    def test_year_that_is_not_ascii_digits_above_zero_left_absent(self, year):
        result = ci.parse_bibtex(f"@article{{k, title={{T}}, year={{{year}}}}}")
        assert (result.skipped, result.records[0].title) == (0, "T")
        assert result.records[0].year is None

    def test_quoted_value_holds_braced_group(self):
        result = ci.parse_bibtex('@article{k, title = "A {B} C", note = "{a}", year = 2022}')
        assert (result.records[0].title, result.records[0].year) == ("A {B} C", 2022)

    def test_stray_brace_in_quotes_skips_to_next_entry(self):
        # after the stray '}' the brace depth is below zero, so no later '"' closes the value
        text = '@article{k, title = "a}b", year = "2022"}\n@article{j, title = {T}}\n'
        result = ci.parse_bibtex(text)
        assert [r.title for r in result.records] == ["T"]
        assert result.errors == ["line 1: unterminated quoted value"]

    def test_unicode_whitespace_and_non_ascii_entry_type(self):
        text = "@Ärtikel\u2003{k,\u2028title\u00a0=\u3000{T}\x85}"
        assert ci.parse_bibtex(text).records == [ci.PaperRecord(title="T")]

    # non-entries in any case, one holding an '@', passed over and counted apart
    @pytest.mark.parametrize("text, non_entries", [
        ('@comment{x}\n@preamble{"p"}', 2),
        ("@comment{see @misc{x}}", 1),
        ('@string{acl = "ACL"}', 1),
        ("@COMMENT{a}\n@Preamble {b {c} d}\n@sTrInG{e = {f}}", 3),
    ])
    def test_comment_preamble_and_string_bodies_passed_over(self, text, non_entries):
        result = ci.parse_bibtex(text + "\n@article{k, title = {T}}\n")
        assert result == ci.BibParseResult(
            records=[ci.PaperRecord(title="T")], skipped=0, non_entries=non_entries
        )

    def test_unterminated_comment_body_is_malformed(self):
        # parsing resumes at the next '@', here inside the body
        result = ci.parse_bibtex("@comment{a\n{b}\n@article{k, title = {T}}\n")
        assert result == ci.BibParseResult(
            records=[ci.PaperRecord(title="T")], skipped=1,
            errors=["line 1: unbalanced braces in value"],
        )


class TestVenueDerivation:
    def test_naacl_url_is_not_acl(self):
        assert ci.derive_venue(None, "https://aclanthology.org/2022.naacl-main.5") == "NAACL"

    def test_emnlp_from_url(self):
        assert ci.derive_venue(None, "https://aclanthology.org/2022.emnlp-demos.5") == "EMNLP"

    def test_acl_from_booktitle(self):
        assert ci.derive_venue("Proceedings of ACL 2022", None) == "ACL"

    def test_anthology_domain_alone_is_other(self):
        assert ci.derive_venue(None, "https://aclanthology.org/2023-wsc-csdh.e") == "OTHER"

    def test_first_match_order_on_ties(self):
        assert ci.derive_venue("Joint ACL-EMNLP volume", None) == "ACL"


class TestCatalogCsv:
    def test_header_and_empty(self):
        sink = io.StringIO()
        assert ci.write_catalog_csv([], sink) == 0
        assert sink.getvalue() == (
            "Unnamed: 0,title,editor,month,year,address,publisher,url,author,booktitle,pages\n"
        )

    def test_comma_title_quoted_and_roundtrips(self):
        record = ci.PaperRecord(title="Commas, everywhere", url="https://x.test/1")
        sink = io.StringIO()
        assert ci.write_catalog_csv([record], sink) == 1
        text = sink.getvalue()
        assert '"Commas, everywhere"' in text
        back = ci.read_catalog_csv(io.StringIO(text))
        assert back == [record]

    def test_row_index_in_first_column(self):
        records = [ci.PaperRecord(title=f"t{i}") for i in range(3)]
        sink = io.StringIO()
        ci.write_catalog_csv(records, sink)
        lines = sink.getvalue().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]

    def test_roundtrip_random_records(self):
        rng = random.Random(8)
        alphabet = string.ascii_letters + string.digits + ' ,"-:();'

        def maybe_text():
            if rng.random() < 0.3:
                return None
            return "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 30))).strip() or None

        records = []
        for _ in range(50):
            records.append(
                ci.PaperRecord(
                    title=maybe_text(),
                    editor=maybe_text(),
                    month=maybe_text(),
                    year=rng.randrange(1980, 2025) if rng.random() < 0.8 else None,
                    address=maybe_text(),
                    publisher=maybe_text(),
                    url=maybe_text(),
                    author=maybe_text(),
                    booktitle=maybe_text(),
                    pages=maybe_text(),
                )
            )
        sink = io.StringIO()
        ci.write_catalog_csv(records, sink)
        assert ci.read_catalog_csv(io.StringIO(sink.getvalue())) == records

    def test_header_only_reads_empty(self):
        assert ci.read_catalog_csv(io.StringIO(ci.CSV_HEADER + "\n")) == []

    @pytest.mark.parametrize("year", ["²", "٣", "0", "2022 ", "9" * 5000])
    def test_year_that_is_not_ascii_digits_above_zero_left_absent(self, year):
        text = f"{ci.CSV_HEADER}\n0,T,,,{year},,,,,,\n"
        assert ci.read_catalog_csv(io.StringIO(text)) == [ci.PaperRecord(title="T")]

    def test_wrong_header_names_column(self):
        bad = ci.CSV_HEADER.replace("editor", "editors")
        with pytest.raises(FormatError, match="editors"):
            ci.read_catalog_csv(io.StringIO(bad + "\n"))


class TestHashUrl:
    def test_published_vector_abc(self):
        assert ci.hash_url("abc") == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_published_vector_two_blocks(self):
        assert ci.hash_url(
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        ) == "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"

    def test_deterministic(self):
        rng = random.Random(5)
        for _ in range(20):
            url = "".join(rng.choice(string.printable) for _ in range(rng.randrange(1, 40)))
            assert ci.hash_url(url) == ci.hash_url(url)

    def test_distinct_anthology_urls_distinct_ids(self):
        a = "https://aclanthology.org/2022.acl-long.1"
        b = "https://aclanthology.org/2022.acl-long.2"
        assert ci.hash_url(a) != ci.hash_url(b)
        assert ci.hash_url(a) == sha256_hex(a.encode("utf-8"))
        assert ci.hash_url(b) == sha256_hex(b.encode("utf-8"))

    def test_against_independent_implementation(self):
        rng = random.Random(99)
        for _ in range(300):
            url = "".join(
                rng.choice(string.ascii_letters + string.digits + ":/.-_?&=%")
                for _ in range(rng.randrange(1, 120))
            )
            digest = ci.hash_url(url)
            assert len(digest) == 64
            assert digest == sha256_hex(url.encode("utf-8"))

    def test_empty_url_rejected(self):
        with pytest.raises(ValueError):
            ci.hash_url("")


class TestFetchPdfs:
    @staticmethod
    def records(n):
        return [ci.PaperRecord(title=f"p{i}", url=f"https://x.test/{i}") for i in range(n)]

    def test_failure_percentage_reporting(self, tmp_path):
        records = self.records(1000)
        failing = {r.url for r in records[::84]}  # 12 of 1000 -> 1.2%
        assert len(failing) == 12

        def fetcher(url):
            if url in failing:
                raise IOError("boom")
            return b"%PDF"

        manifest = ci.fetch_pdfs(records, fetcher, tmp_path, max_attempts=1)
        assert manifest.ok_count == 988
        assert manifest.failed_count == 12
        assert manifest.summary() == "988 (98.8%)"

    def test_thousands_separator_in_summary(self):
        entries = [ci.ManifestEntry(str(i), "", "ok", 1) for i in range(1500)]
        manifest = ci.DownloadManifest(entries)
        assert manifest.summary() == "1,500 (100.0%)"

    def test_empty_records(self, tmp_path):
        manifest = ci.fetch_pdfs([], lambda url: b"", tmp_path)
        assert manifest.entries == []

    def test_resume_refetches_only_failures(self, tmp_path):
        records = self.records(10)
        flaky = {records[2].url, records[5].url, records[6].url}
        calls = []

        def failing_fetcher(url):
            calls.append(url)
            if url in flaky:
                raise IOError("offline")
            return b"%PDF"

        first = ci.fetch_pdfs(records, failing_fetcher, tmp_path, max_attempts=1)
        assert first.failed_count == 3

        calls.clear()
        second = ci.fetch_pdfs(records, lambda url: calls.append(url) or b"%PDF", tmp_path)
        assert sorted(calls) == sorted(flaky)
        assert second.failed_count == 0
        assert second.ok_count == 10

    def test_second_run_fetches_nothing(self, tmp_path):
        records = self.records(5)
        calls = []

        def fetcher(url):
            calls.append(url)
            return b"%PDF"

        ci.fetch_pdfs(records, fetcher, tmp_path)
        calls.clear()
        manifest = ci.fetch_pdfs(records, fetcher, tmp_path)
        assert calls == []
        assert manifest.ok_count == 5

    def test_retries_with_injected_clock(self, tmp_path):
        sleeps = []
        attempts = []

        def fetcher(url):
            attempts.append(url)
            if len(attempts) < 3:
                raise IOError("transient")
            return b"%PDF"

        manifest = ci.fetch_pdfs(
            self.records(1), fetcher, tmp_path, max_attempts=3, sleep=sleeps.append
        )
        assert manifest.entries[0].status == "ok"
        assert manifest.entries[0].attempts == 3
        assert sleeps == [1, 1]

    def test_files_named_by_paper_id(self, tmp_path):
        records = self.records(2)
        ci.fetch_pdfs(records, lambda url: b"%PDF", tmp_path)
        for r in records:
            assert (tmp_path / f"{r.paper_id}.pdf").read_bytes() == b"%PDF"

    def test_failed_write_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            ci.fetch_pdfs(self.records(1), lambda url: "not bytes", tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_write_error_fails_one_entry(self, tmp_path, monkeypatch):
        records = self.records(3)
        full = os.path.join(tmp_path, f"{records[1].paper_id}.pdf")
        real_write = ci.atomic_write

        @contextlib.contextmanager
        def disk_full_for_second(path, *args, **kwargs):
            with real_write(path, *args, **kwargs) as handle:
                if path == full:
                    handle.write(b"%P")
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                yield handle

        monkeypatch.setattr(ci, "atomic_write", disk_full_for_second)
        sleeps = []
        manifest = ci.fetch_pdfs(
            records, lambda url: b"%PDF", tmp_path, max_attempts=2, sleep=sleeps.append
        )
        assert [e.status for e in manifest.entries] == ["ok", "failed", "ok"]
        assert manifest.entries[1].attempts == 2
        assert os.strerror(errno.ENOSPC) in manifest.entries[1].error_note
        assert sleeps == [1]
        assert sorted(os.listdir(tmp_path)) == sorted(
            f"{r.paper_id}.pdf" for r in (records[0], records[2])
        )

    def test_parallel_matches_serial(self, tmp_path):
        records = self.records(30)
        failing = {records[7].url, records[21].url}

        def fetcher(url):
            if url in failing:
                raise IOError("nope")
            return b"%PDF"

        serial = ci.fetch_pdfs(records, fetcher, tmp_path / "a", max_attempts=1)
        parallel = ci.fetch_pdfs(
            records, fetcher, tmp_path / "b", max_attempts=1, parallelism=8
        )
        assert [e.paper_id for e in parallel.entries] == [e.paper_id for e in serial.entries]
        assert [e.status for e in parallel.entries] == [e.status for e in serial.entries]

    def test_manifest_roundtrip(self, tmp_path):
        records = self.records(4)
        manifest = ci.fetch_pdfs(records, lambda url: b"%PDF", tmp_path)
        sink = io.StringIO()
        ci.write_manifest(manifest, sink)
        back = ci.read_manifest(io.StringIO(sink.getvalue()))
        assert [e.paper_id for e in back.entries] == [e.paper_id for e in manifest.entries]
        assert [e.status for e in back.entries] == ["ok"] * 4

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_repeated_url_fetched_once(self, tmp_path, parallelism):
        records = self.records(3)
        records.insert(2, ci.PaperRecord(title="again", url=records[0].url))
        calls = []
        manifest = ci.fetch_pdfs(records, lambda url: calls.append(url) or b"%PDF", tmp_path,
                                 parallelism=parallelism)
        assert sorted(calls) == sorted(r.url for r in self.records(3))
        assert [e.paper_id for e in manifest.entries] == [
            records[i].paper_id for i in (0, 1, 3)
        ]
        assert [e.status for e in manifest.entries] == ["ok"] * 3

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_records_without_url_share_one_entry(self, tmp_path, parallelism):
        fetched = self.records(2)
        records = [ci.PaperRecord(title="no url"), *fetched, ci.PaperRecord(title="nor this")]
        manifest = ci.fetch_pdfs(records, lambda url: b"%PDF", tmp_path, parallelism=parallelism)
        assert [(e.paper_id, e.status, e.attempts, e.error_note) for e in manifest.entries] == [
            ("", "failed", 0, "missing url"),
            (fetched[0].paper_id, "ok", 1, None),
            (fetched[1].paper_id, "ok", 1, None),
        ]

    @pytest.mark.parametrize("line3, message", [
        ("c\tok\tthree\t", "attempts must be a non-negative integer, got 'three'"),
        ("c\tok\t-3\t", "attempts must be a non-negative integer, got '-3'"),
        ("c\tok\t\t", "attempts must be a non-negative integer, got ''"),
        ("a\tfailed\t2\tnope", "duplicate paper_id 'a'"),
    ])
    def test_read_manifest_names_the_bad_line(self, line3, message):
        text = "a\tok\t1\t\nb\tfailed\t3\ttimeout\n" + line3 + "\n"
        with pytest.raises(FormatError, match="^" + re.escape(f"manifest line 3: {message}") + "$"):
            ci.read_manifest(io.StringIO(text))

    def test_bad_max_attempts(self, tmp_path):
        with pytest.raises(ValueError):
            ci.fetch_pdfs([], lambda url: b"", tmp_path, max_attempts=0)

    @pytest.mark.parametrize("parallelism", [0, -3])
    def test_bad_parallelism(self, tmp_path, parallelism):
        with pytest.raises(ValueError, match="^parallelism must be >= 1$"):
            ci.fetch_pdfs([], lambda url: b"", tmp_path, parallelism=parallelism)


class TestTokenize:
    def test_hyphenated_ordinal(self):
        assert ci.tokenize("Twenty-Fourth Conference") == ["Twenty", "-", "Fourth", "Conference"]

    def test_parens_and_colon(self):
        assert ci.tokenize("(ROCLING 2022) :") == ["(", "ROCLING", "2022", ")", ":"]

    def test_digit_comma_kept_through_hyphen_split(self):
        assert ci.tokenize("188-3,2") == ["188", "-", "3,2"]

    def test_empty(self):
        assert ci.tokenize("") == []
        assert ci.tokenize("   \t ") == []

    def test_trailing_sentence_punctuation(self):
        assert ci.tokenize("the world. About 6%") == ["the", "world", ".", "About", "6%"]
        assert ci.tokenize("one, two,") == ["one", ",", "two", ","]

    def test_line_break_hyphen_stays_attached(self):
        assert ci.tokenize("are picto- phonic.") == ["are", "picto-", "phonic", "."]

    def test_detach_set(self):
        assert ci.tokenize('he said: "go!"') == ["he", "said", ":", '"', "go", "!", '"']
        assert ci.tokenize("a[1]{2};?") == ["a", "[", "1", "]", "{", "2", "}", ";", "?"]

    def test_never_empty_tokens(self):
        rng = random.Random(13)
        alphabet = 'ab1 ()[]{}"?:;!.,-“”'
        for _ in range(500):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
            for token in ci.tokenize(text):
                assert token
                assert not any(c.isspace() for c in token)

    def test_idempotent_on_own_output(self):
        rng = random.Random(14)
        alphabet = 'abcAB12 ()"?:;!.,-'
        for _ in range(500):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
            once = ci.tokenize(text)
            again = ci.tokenize(" ".join(once))
            assert again == once


# Arbitrary text, weighted toward what the tokenizer and the BibTeX scanner
# treat specially: brackets, quotes, punctuation, hyphens, digits, whitespace.
SPECIAL_CHARACTERS = st.sampled_from(list('()[]{}"?:;!.,-%@=#\\“” \t\n\u00a0\u2028'))
ANY_TEXT = st.text(st.one_of(st.characters(exclude_categories=("Cs",)), SPECIAL_CHARACTERS))
BIB_PIECES = st.sampled_from([
    "@article{", "@inproceedings{k,", "@misc(", "title = ", "year = ", "month = dec",
    'url = "https://aclanthology.org/2022.acl-long.1"', "{", "}", '"', ",", "\n", "2022",
])
BIB_TEXT = st.lists(st.one_of(BIB_PIECES, ANY_TEXT), max_size=30).map("".join)
# BIB_TEXT with more of what the scanner tells apart: entry types, keys,
# braced and quoted values, stray braces, Unicode whitespace, years
SCANNER_PIECES = st.sampled_from([
    "@string{", "@comment{", "@Ärtikel{", "@x_-1 {", "k1", "key two", "=", "@",
    "title = {A {B} C}", '"{a}"', '"a}b"', '"a{b"', "year = {²}", "year={٣}",
    "pages = 1--2", "\u2003", "\u2028", "\x1c", "\x85", "\t", "\r\n", " ",
])
# non-entry types in any case, with bodies balanced, nested, unterminated and
# holding an '@'
NON_ENTRY_PIECES = st.sampled_from([
    "@comment{", "@COMMENT {", "@Preamble{", "@string{", "@sTrInG\u2003{", "@comments{",
    "@comment{x}", '@preamble{"p"}', "@comment{see @misc{x}}", '@string{acl = "ACL"}',
    "@article{k, title = {T}}", "{", "}", "\n",
])
SCANNER_TEXT = st.lists(
    st.one_of(BIB_PIECES, SCANNER_PIECES, ANY_TEXT), max_size=30
).map("".join)

# the same skips and errors as the reference, on inputs that each reach one rule
SCANNER_CASES = [
    '@article{k, title = "A {B} C"}',
    '@article{k, title = "{a}", year = "2022"}',
    '@article{k, title = "a}b", year = "2022"}\n@article{j, title = {T}}',
    '@article{k, title = "a}b{", year = "2022"}',
    "@comment{ free text, here }\n@article{k, title = {T}}",
    '@string{acl = "Association for Computational Linguistics"}',
    "@article\u2003{k,\u2028title\u00a0=\u3000{T}\x85}",
    "@Ärtikel{k, title={T}}",
    "@文章{k, title={T}}",
    "@²{k, title={T}}",
    "@article{k, title = {T} year = 2022}",
    "@article{k, title = {A {B, year = 2022}\n@article{j, title = {T}}",
    '@article{k, title = "open, year = 2022}\n\n@article{j, title = {T}}',
    "@article{k, title = ",
    "@article{k, = {T}}",
    "@article{k, title = , year = 2022}",
    "@article{k, title = {T},",
    "@article{k, title",
    "@ {k}",
    "@article k}",
    "@article{k",
    "@article{k=1, title = {T}}",
]


# every character the tokenizer treats specially, digits, ASCII and other
# letters, and ASCII and Unicode whitespace
TOKENIZER_ALPHABET = (
    '()[]{}"“”:;!?-.,' + string.digits + "azAZéß"
    + " \t\n\r\x0b\x0c\x1c\x85\u00a0\u1680\u2003\u2028\u2029\u202f\u3000"
)
TOKENIZER_TEXT = st.text(st.one_of(
    st.sampled_from(TOKENIZER_ALPHABET), st.characters(exclude_categories=("Cs",)),
))


class TestIngestProperties:
    @settings(max_examples=500, deadline=None)
    @given(ANY_TEXT)
    def test_tokenize_idempotent(self, text):
        once = ci.tokenize(text)
        assert ci.tokenize(" ".join(once)) == once

    @settings(max_examples=2000, deadline=None)
    @given(TOKENIZER_TEXT)
    def test_tokenize_matches_reference(self, text):
        assert ci.tokenize(text) == tokenize_ref(text)

    @settings(max_examples=500, deadline=None)
    @given(BIB_TEXT)
    def test_parse_bibtex_never_raises(self, text):
        result = ci.parse_bibtex(text)
        assert result.skipped == len(result.errors)

    @settings(max_examples=2000, deadline=None)
    @given(SCANNER_TEXT)
    def test_parse_bibtex_matches_reference(self, text):
        assert ci.parse_bibtex(text) == parse_bibtex_ref(text)

    @pytest.mark.parametrize("text", SCANNER_CASES)
    def test_parse_bibtex_matches_reference_on_each_rule(self, text):
        assert ci.parse_bibtex(text) == parse_bibtex_ref(text)

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.one_of(SCANNER_PIECES, NON_ENTRY_PIECES), max_size=30).map("".join))
    def test_parse_bibtex_matches_reference_on_non_entries(self, text):
        assert ci.parse_bibtex(text) == parse_bibtex_ref(text)

    def test_scanner_character_classes_are_the_str_predicates(self):
        # the reference scans with str.isspace and str.isalnum; the regular
        # expressions must agree with them on every code point
        chars = [chr(i) for i in range(0x110000)]
        assert [c for c in chars if bool(ci._SPACE.fullmatch(c)) != c.isspace()] == []
        assert [c for c in chars
                if bool(ci._ENTRY_TYPE.fullmatch(c)) != (c.isalnum() or c in "_-")] == []


class TestTokenFiles:
    def test_two_paragraphs_two_lines(self):
        doc = ci.TokenizedDocument("x" * 64, [["a", "b", "c"], ["d", "e", "f"]])
        sink = io.StringIO()
        ci.write_token_file(doc, sink)
        assert sink.getvalue() == "a b c\nd e f\n"

    def test_empty_document_empty_file(self):
        doc = ci.TokenizedDocument("x" * 64, [])
        sink = io.StringIO()
        ci.write_token_file(doc, sink)
        assert sink.getvalue() == ""

    def test_roundtrip_random_documents(self):
        rng = random.Random(21)
        alphabet = string.ascii_letters + string.digits + "-.,()"
        for _ in range(100):
            paragraphs = [
                ["".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 8)))
                 for _ in range(rng.randrange(1, 12))]
                for _ in range(rng.randrange(0, 6))
            ]
            doc = ci.TokenizedDocument("y" * 64, paragraphs)
            sink = io.StringIO()
            ci.write_token_file(doc, sink)
            back = ci.read_token_file(io.StringIO(sink.getvalue()), paper_id=doc.paper_id)
            assert back == doc

    def test_whitespace_token_rejected(self):
        with pytest.raises(ValueError):
            ci.TokenizedDocument("z" * 64, [["a b"]])

    @pytest.mark.parametrize("char", ["\t", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"])
    def test_unicode_whitespace_token_rejected_by_name(self, char):
        token = "a" + char
        with pytest.raises(ValueError, match=re.escape(
                f"paragraph 1: token {token!r} is empty or has whitespace")):
            ci.TokenizedDocument("z" * 64, [["a"], ["b", token, "c"]])

    def test_empty_paragraph_rejected(self):
        with pytest.raises(ValueError):
            ci.TokenizedDocument("z" * 64, [[]])


class TestExtraction:
    def test_title_becomes_first_paragraph(self, tmp_path):
        doc = {
            "paper_id": "a" * 64,
            "title": "The Design of Systems",
            "paragraphs": ["Twenty-Fourth Conference (ROCLING 2022) :", "   "],
        }
        tokenized = ci.tokenize_extraction(doc)
        assert tokenized.paragraphs[0] == ["The", "Design", "of", "Systems"]
        assert tokenized.paragraphs[1] == [
            "Twenty", "-", "Fourth", "Conference", "(", "ROCLING", "2022", ")", ":",
        ]
        assert len(tokenized.paragraphs) == 2  # blank paragraph dropped

    def test_read_extraction_validates_keys(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"paper_id": "x", "title": "t"}')
        with pytest.raises(FormatError, match="paragraphs"):
            ci.read_extraction(path)

    @pytest.mark.parametrize("text, message", [
        ('{"paper_id": "x",', "not a JSON file"),
        ('["x", "t", []]', "extraction document must be a JSON object, got list"),
        ('{"paper_id": "x", "title": "t"}', "extraction document missing key 'paragraphs'"),
    ])
    def test_read_extraction_error_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "doc.json"
        path.write_text(text)
        with pytest.raises(FormatError, match="^" + re.escape(f"{path}: {message}")):
            ci.read_extraction(path)
