"""Bibliography parsing, PDF acquisition by hashed identity, and tokenization.

A bibliography is parsed into PaperRecords and written as the canonical
catalog CSV.  Papers are identified everywhere by the SHA256 of their URL.
Extracted paragraph text (one JSON document per paper) is tokenized with a
fixed rule tokenizer into one-paragraph-per-line token files.
"""

from __future__ import annotations

import csv
import json
import os
import re
import time
from dataclasses import dataclass, field, fields

from .errors import FormatError
from .util import atomic_write, first_non_word, sha256_hex

VENUES = ("ACL", "EMNLP", "NAACL")

_MONTHS = {
    "jan": "Jan", "feb": "Feb", "mar": "Mar", "apr": "Apr",
    "may": "May", "jun": "Jun", "jul": "Jul", "aug": "Aug",
    "sep": "Sep", "oct": "Oct", "nov": "Nov", "dec": "Dec",
}


def hash_url(url: str) -> str:
    """Lowercase hex SHA256 of the URL's UTF-8 bytes."""
    if not url:
        raise ValueError("url must be non-empty")
    return sha256_hex(url)


def _alnum_tokens(text: str) -> set[str]:
    return set(re.findall(r"[a-z0-9]+", text.lower()))


def derive_venue(booktitle: str | None, url: str | None) -> str:
    """ACL/EMNLP/NAACL when the booktitle or url contains that token, else OTHER.

    Matching is on whole alphanumeric runs, so "aclanthology.org" does not
    count as ACL while ".../2022.naacl-main.5" counts as NAACL.  First match
    in VENUES order wins when several venues are named.
    """
    tokens = _alnum_tokens(booktitle or "") | _alnum_tokens(url or "")
    for venue in VENUES:
        if venue.lower() in tokens:
            return venue
    return "OTHER"


@dataclass
class PaperRecord:
    """One bibliography entry.  Absent fields are None."""

    title: str | None = None
    editor: str | None = None
    month: str | None = None
    year: int | None = None
    address: str | None = None
    publisher: str | None = None
    url: str | None = None
    author: str | None = None
    booktitle: str | None = None
    pages: str | None = None

    @property
    def venue(self) -> str:
        return derive_venue(self.booktitle, self.url)

    @property
    def paper_id(self) -> str:
        if not self.url:
            raise ValueError("record has no url, so no paper id")
        return hash_url(self.url)


_RECORD_FIELDS = tuple(f.name for f in fields(PaperRecord))
# a pandas-style index column, then the fields of a PaperRecord
CSV_COLUMNS = ("Unnamed: 0", *_RECORD_FIELDS)
CSV_HEADER = ",".join(CSV_COLUMNS)


@dataclass
class BibParseResult:
    records: list[PaperRecord]
    skipped: int
    errors: list[str] = field(default_factory=list)
    non_entries: int = 0  # @comment, @preamble and @string bodies passed over


def _year(text: str) -> int | None:
    """A year is ASCII digits with a value above 0; anything else, too many
    digits for int() included, leaves the year absent."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text) or None
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return None


# the pieces of an entry, each matched at a position: `\s` is str.isspace and
# `[\w-]` is str.isalnum plus "_" and "-", on every code point
_SPACE = re.compile(r"\s*")
_ENTRY_TYPE = re.compile(r"[\w-]+")
_ENTRY_KEY = re.compile(r"[^,}]*")
_FIELD_NAME = re.compile(r"[^\s=,}]*")
_BARE_VALUE = re.compile(r"[^,}\n]*")
_BRACE_OR_QUOTE = re.compile(r'[{}"]')
# entry types, in any case, whose body is no record
_NON_ENTRY_TYPES = ("comment", "preamble", "string")


def _entry_error(text: str, pos: int, message: str) -> FormatError:
    line = text.count("\n", 0, pos) + 1
    return FormatError(f"line {line}: {message}")


def _parse_value(text: str, pos: int) -> tuple[str, int]:
    """The field value after `pos` and the position past it: {balanced
    braces}, "quoted" (ends at the first '"' outside braces), or a bare
    word/number up to a comma, closing brace or line end."""
    pos = _SPACE.match(text, pos).end()
    if pos == len(text):
        raise _entry_error(text, pos, "unexpected end of entry")
    opener = text[pos]
    if opener in '{"':
        # the value ends at the first closer met at brace depth 0
        closer = "}" if opener == "{" else '"'
        depth = 0
        for m in _BRACE_OR_QUOTE.finditer(text, pos + 1):
            c = m.group()
            if c == closer and depth == 0:
                return text[pos + 1 : m.start()], m.end()
            if c != '"':
                depth += 1 if c == "{" else -1
        problem = "unbalanced braces in value" if opener == "{" else "unterminated quoted value"
        raise _entry_error(text, pos, problem)
    end = _BARE_VALUE.match(text, pos).end()
    value = text[pos:end].strip()
    if not value:
        raise _entry_error(text, pos, "empty field value")
    return value, end


_WS_RE = re.compile(r"\s+")


def _clean(value: str) -> str:
    return _WS_RE.sub(" ", value).strip()


def _parse_entry(text: str, at: int) -> tuple[PaperRecord | None, int]:
    """The @type{key, ...} entry whose '@' is at `at`, and the position past
    it; no record for a non-entry, whose balanced body is passed over."""
    m = _ENTRY_TYPE.match(text, at + 1)
    if not m:
        raise _entry_error(text, at + 1, "missing entry type after '@'")
    pos = _SPACE.match(text, m.end()).end()
    if not text.startswith("{", pos):
        raise _entry_error(text, pos, "expected '{' after entry type")
    if m.group().lower() in _NON_ENTRY_TYPES:
        return None, _parse_value(text, pos)[1]
    key_start = pos + 1
    pos = _ENTRY_KEY.match(text, key_start).end()
    if pos == len(text):
        raise _entry_error(text, key_start, "unterminated entry")
    key = text[key_start:pos].strip()
    if not key:
        raise _entry_error(text, key_start, "missing entry key")
    if "=" in key or _WS_RE.search(key):
        raise _entry_error(text, key_start, "missing or invalid entry key")
    values: dict[str, str] = {}
    while text[pos] == ",":  # else the entry's closing '}'
        pos = _SPACE.match(text, pos + 1).end()
        if pos == len(text):
            raise _entry_error(text, pos, f"unterminated entry {key!r}")
        if text[pos] == "}":
            break
        name_start = pos
        pos = _FIELD_NAME.match(text, pos).end()
        name = text[name_start:pos].lower()
        pos = _SPACE.match(text, pos).end()
        if not text.startswith("=", pos):
            raise _entry_error(text, name_start, f"expected '=' after field name {name!r}")
        values[name], pos = _parse_value(text, pos + 1)
        pos = _SPACE.match(text, pos).end()
        if pos == len(text):
            raise _entry_error(text, pos, f"unterminated entry {key!r}")
        if text[pos] not in ",}":
            raise _entry_error(text, pos, f"expected ',' or '}}' after field {name!r}")

    record = PaperRecord()
    for name in _RECORD_FIELDS:
        value = _clean(values.get(name, ""))
        if name == "year":
            value = _year(value)
        elif name == "month":
            value = _MONTHS.get(value.lower(), value)
        setattr(record, name, value or None)
    return record, pos + 1


def parse_bibtex(source) -> BibParseResult:
    """Parse BibTeX entries; skips malformed entries, counting and noting them.

    `source` is a text stream or string.  Record order follows entry order.
    After a malformed entry, parsing resumes at the next '@'.  The bodies of
    @comment, @preamble and @string are passed over and counted apart.
    """
    text = source if isinstance(source, str) else source.read()
    result = BibParseResult(records=[], skipped=0)
    at = text.find("@")
    while at >= 0:
        try:
            record, end = _parse_entry(text, at)
            if record is None:
                result.non_entries += 1
            else:
                result.records.append(record)
        except FormatError as exc:
            result.skipped += 1
            result.errors.append(str(exc))
            end = at + 1
        at = text.find("@", end)
    return result


def write_catalog_csv(records, sink) -> int:
    """Write the canonical catalog CSV; returns the number of data rows.

    A record that `read_catalog_csv` could not read back is a ValueError
    naming its row and field, raised before its row is written: a field
    holding a carriage return (a reader with universal newlines turns it
    into a line feed) or a NUL (which csv before Python 3.11 neither writes
    nor reads), a field longer than `csv.field_size_limit()`, or a year that
    is not an integer above 0 (read back as no year).
    """
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    limit = csv.field_size_limit()
    count = 0
    for i, record in enumerate(records):
        row = [str(i)]
        for name in _RECORD_FIELDS:
            value = getattr(record, name)
            if name == "year" and value is not None and not (type(value) is int and value > 0):
                raise ValueError(f"catalog row {i}: year must be an integer above 0, got {value!r}")
            text = "" if value is None else str(value)
            if "\r" in text:
                raise ValueError(f"catalog row {i}: {name} holds a carriage return")
            if "\0" in text:
                raise ValueError(f"catalog row {i}: {name} holds a NUL")
            if len(text) > limit:
                raise ValueError(
                    f"catalog row {i}: {name} has {len(text):,} characters, more than "
                    f"the csv field limit ({limit:,})"
                )
            row.append(text)
        writer.writerow(row)
        count += 1
    return count


def read_catalog_csv(source) -> list[PaperRecord]:
    """Inverse of :func:`write_catalog_csv`.  A row that the csv module
    cannot read (a field over its size limit, say) is a FormatError naming
    the row."""
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("empty catalog: missing header") from None
    except csv.Error as exc:
        raise FormatError(f"catalog header: {exc}") from None
    if tuple(header) != CSV_COLUMNS:
        for got, want in zip(header, CSV_COLUMNS):
            if got != want:
                raise FormatError(f"unexpected catalog column {got!r} (want {want!r})")
        raise FormatError(
            f"catalog header has {len(header)} columns, expected {len(CSV_COLUMNS)}"
        )
    records = []
    try:
        for row in reader:
            if len(row) != len(CSV_COLUMNS):
                raise FormatError(
                    f"catalog row {len(records)}: {len(row)} columns, expected {len(CSV_COLUMNS)}"
                )
            record = PaperRecord(*(value or None for value in row[1:]))
            record.year = _year(row[CSV_COLUMNS.index("year")])
            records.append(record)
    except csv.Error as exc:
        raise FormatError(f"catalog row {len(records)}: {exc}") from None
    return records


# ---------------------------------------------------------------------------
# PDF acquisition
# ---------------------------------------------------------------------------

@dataclass
class ManifestEntry:
    paper_id: str
    url: str
    status: str  # pending | ok | failed
    attempts: int = 0
    error_note: str | None = None


@dataclass
class DownloadManifest:
    entries: list[ManifestEntry] = field(default_factory=list)

    def __post_init__(self):
        ids = [e.paper_id for e in self.entries]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate paper_id in manifest")

    @property
    def ok_count(self) -> int:
        return sum(1 for e in self.entries if e.status == "ok")

    @property
    def failed_count(self) -> int:
        return sum(1 for e in self.entries if e.status == "failed")

    def summary(self) -> str:
        from .util import count_with_pct

        return count_with_pct(self.ok_count, len(self.entries))


_STATUSES = ("pending", "ok", "failed")
_TAB_OR_LINE_BREAK = re.compile(r"[\t\n\r]")


def write_manifest(manifest: DownloadManifest, sink) -> None:
    """One `paper_id<TAB>status<TAB>attempts<TAB>note` line per entry.

    An entry that `read_manifest` could not read back is a ValueError naming
    it and the field, raised before its line is written: an unknown status,
    attempts that are not a non-negative integer, or a tab, `\\n` or `\\r`
    in the paper id or the note.
    """
    for i, e in enumerate(manifest.entries):
        if e.status not in _STATUSES:
            raise ValueError(f"manifest entry {i}: unknown status {e.status!r}")
        if type(e.attempts) is not int or e.attempts < 0:
            raise ValueError(
                f"manifest entry {i}: attempts must be a non-negative integer, got {e.attempts!r}"
            )
        note = e.error_note or ""
        for name, text in (("paper_id", e.paper_id), ("error_note", note)):
            if _TAB_OR_LINE_BREAK.search(text):
                raise ValueError(f"manifest entry {i}: {name} {text!r} holds a tab or line break")
        sink.write(f"{e.paper_id}\t{e.status}\t{e.attempts}\t{note}\n")


def read_manifest(source) -> DownloadManifest:
    entries = []
    seen = set()
    for lineno, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise FormatError(f"manifest line {lineno}: expected 4 tab-separated fields")
        paper_id, status, attempts, note = parts
        if status not in _STATUSES:
            raise FormatError(f"manifest line {lineno}: unknown status {status!r}")
        if not (attempts.isascii() and attempts.isdigit()):
            raise FormatError(
                f"manifest line {lineno}: attempts must be a non-negative integer, "
                f"got {attempts!r}"
            )
        if paper_id in seen:
            raise FormatError(f"manifest line {lineno}: duplicate paper_id {paper_id!r}")
        seen.add(paper_id)
        entries.append(
            ManifestEntry(paper_id, "", status, int(attempts), note or None)
        )
    return DownloadManifest(entries)


def fetch_pdfs(records, fetcher, out_dir, max_attempts: int = 3,
               parallelism: int = 1, sleep=time.sleep) -> DownloadManifest:
    """Download `<paper_id>.pdf` for every record with a URL.

    `fetcher(url)` returns the PDF bytes or raises.  Files already present in
    `out_dir` are not refetched, so a rerun resumes where the last one failed.
    A fetch error or an OSError while writing (a full disk) fails the attempt;
    a fetcher that returns no bytes raises TypeError.  Failures are retried up
    to `max_attempts` with 1-second spacing (`sleep` is injectable for tests).
    Entries keep input order even when fetches run on `parallelism` > 1 workers.
    There is one entry per paper id, in order of first appearance: a repeated
    URL is fetched once, and records without a URL share one "missing url"
    entry, whose paper id is "".
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    if not os.access(out_dir, os.W_OK):
        raise OSError(f"output directory not writable: {out_dir}")

    jobs: dict[str, ManifestEntry] = {}  # by paper id
    for record in records:
        if not record.url:
            jobs.setdefault("", ManifestEntry("", "", "failed", 0, "missing url"))
        else:
            paper_id = record.paper_id
            jobs.setdefault(paper_id, ManifestEntry(paper_id, record.url, "pending"))

    def run(entry: ManifestEntry) -> ManifestEntry:
        if entry.status == "failed":
            return entry
        path = os.path.join(out_dir, f"{entry.paper_id}.pdf")
        if os.path.exists(path):
            return ManifestEntry(entry.paper_id, entry.url, "ok", 1, "already present")
        for attempt in range(1, max_attempts + 1):
            try:
                data = fetcher(entry.url)
            except Exception as exc:
                error = exc
            else:
                try:
                    with atomic_write(path, "wb", encoding=None) as handle:
                        handle.write(data)
                    return ManifestEntry(entry.paper_id, entry.url, "ok", attempt)
                except OSError as exc:
                    error = exc
            if attempt < max_attempts:
                sleep(1)
        # one line in the manifest: each run of whitespace becomes one space
        note = _WS_RE.sub(" ", str(error)) or type(error).__name__
        return ManifestEntry(entry.paper_id, entry.url, "failed", max_attempts, note)

    if parallelism > 1 and jobs:
        import concurrent.futures  # here: only a parallel fetch needs it, and it loads logging

        with concurrent.futures.ThreadPoolExecutor(max_workers=parallelism) as pool:
            done = list(pool.map(run, jobs.values()))
    else:
        done = [run(j) for j in jobs.values()]
    return DownloadManifest(done)


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

# a piece is one character always detached as its own token, or a run of
# anything else up to whitespace or such a character
_PIECE = re.compile(r'[()\[\]{}"“”:;!?]|[^\s()\[\]{}"“”:;!?]+')
# a piece all of hyphens stays whole; otherwise each hyphen inside it is a
# token, and hyphens at its edges stay on the core next to them ("picto-")
_HYPHEN_PART = re.compile(r"^-+\Z|(?:^-*)?[^-]+(?:-*\Z)?|-")


def tokenize(paragraph: str) -> list[str]:
    """Deterministic rule tokenization of one paragraph.

    Splits on whitespace; detaches brackets, quotes, and :;!? anywhere;
    detaches word-final '.' and ','; splits internal hyphens into standalone
    '-' tokens.  Commas between digits ("3,2") are kept intact.  Never emits
    an empty token, and re-tokenizing its own space-joined output is a no-op.
    """
    tokens: list[str] = []
    for piece in _PIECE.findall(paragraph):
        for part in _HYPHEN_PART.findall(piece):
            # each trailing '.' and ',' is a token; a part of only those keeps its first
            head = part.rstrip(".,") or part[0]
            tokens.append(head)
            tokens.extend(part[len(head):])
    return tokens


@dataclass
class TokenizedDocument:
    paper_id: str
    paragraphs: list[list[str]]

    def __post_init__(self):
        for i, paragraph in enumerate(self.paragraphs):
            if not paragraph:
                raise ValueError(f"paragraph {i} is empty")
            bad = first_non_word(paragraph)
            if bad >= 0:
                raise ValueError(
                    f"paragraph {i}: token {paragraph[bad]!r} is empty or has whitespace"
                )


def write_token_file(doc: TokenizedDocument, sink) -> None:
    """One paragraph per line, tokens joined by single spaces."""
    for paragraph in doc.paragraphs:
        sink.write(" ".join(paragraph))
        sink.write("\n")


def read_token_file(source, paper_id: str = "") -> TokenizedDocument:
    paragraphs = []
    for lineno, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line:
            raise FormatError(f"token file line {lineno}: empty paragraph")
        paragraphs.append(line.split(" "))
    return TokenizedDocument(paper_id, paragraphs)


def read_extraction(source) -> dict:
    """One extracted-text document: {"paper_id": ..., "title": ..., "paragraphs": [...]}.

    A document that is not such a JSON object is a FormatError naming the
    path (a stream's `name`, if it has one).
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, encoding="utf-8") as handle:
            return read_extraction(handle)
    name = getattr(source, "name", "extraction stream")
    try:
        doc = json.load(source)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise FormatError(f"{name}: not a JSON file: {exc}") from None
    if type(doc) is not dict:
        raise FormatError(
            f"{name}: extraction document must be a JSON object, got {type(doc).__name__}"
        )
    for key in ("paper_id", "title", "paragraphs"):
        if key not in doc:
            raise FormatError(f"{name}: extraction document missing key {key!r}")
    return doc


def tokenize_extraction(doc: dict) -> TokenizedDocument:
    """Tokenize an extraction document; the title becomes the first paragraph."""
    paragraphs = []
    for text in [doc["title"], *doc["paragraphs"]]:
        tokens = tokenize(text)
        if tokens:
            paragraphs.append(tokens)
    return TokenizedDocument(doc["paper_id"], paragraphs)
