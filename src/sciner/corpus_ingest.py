"""Bibliography parsing, PDF acquisition by hashed identity, and tokenization.

A bibliography is parsed into PaperRecords and written as the canonical
catalog CSV.  Papers are identified everywhere by the SHA256 of their URL.
Extracted paragraph text (one JSON document per paper) is tokenized with a
fixed rule tokenizer into one-paragraph-per-line token files.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import json
import os
import re
import time
from dataclasses import dataclass, field, fields

from .errors import FormatError
from .util import atomic_write

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
    return hashlib.sha256(url.encode("utf-8")).hexdigest()


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


class _BibScanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def line(self, pos: int | None = None) -> int:
        return self.text.count("\n", 0, self.pos if pos is None else pos) + 1

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1


def _parse_value(sc: _BibScanner) -> str:
    """One field value: {balanced braces}, "quoted", or a bare word/number."""
    sc.skip_ws()
    text, n = sc.text, len(sc.text)
    if sc.pos >= n:
        raise FormatError(f"line {sc.line()}: unexpected end of entry")
    ch = text[sc.pos]
    if ch == "{":
        depth = 0
        start = sc.pos
        while sc.pos < n:
            c = text[sc.pos]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    sc.pos += 1
                    return text[start + 1 : sc.pos - 1]
            sc.pos += 1
        raise FormatError(f"line {sc.line(start)}: unbalanced braces in value")
    if ch == '"':
        sc.pos += 1
        start = sc.pos
        depth = 0
        while sc.pos < n:
            c = text[sc.pos]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
            elif c == '"' and depth == 0:
                sc.pos += 1
                return text[start : sc.pos - 1]
            sc.pos += 1
        raise FormatError(f"line {sc.line(start)}: unterminated quoted value")
    # bare token (month macro, number); ends at comma or closing brace
    start = sc.pos
    while sc.pos < n and text[sc.pos] not in ",}\n":
        sc.pos += 1
    value = text[start : sc.pos].strip()
    if not value:
        raise FormatError(f"line {sc.line(start)}: empty field value")
    return value


_WS_RE = re.compile(r"\s+")


def _clean(value: str) -> str:
    return _WS_RE.sub(" ", value).strip()


def _parse_entry(sc: _BibScanner) -> PaperRecord:
    """Parse one @type{key, ...} entry starting at sc.pos (at the '@')."""
    text, n = sc.text, len(sc.text)
    sc.pos += 1  # consume '@'
    start = sc.pos
    while sc.pos < n and (text[sc.pos].isalnum() or text[sc.pos] in "_-"):
        sc.pos += 1
    if sc.pos == start:
        raise FormatError(f"line {sc.line()}: missing entry type after '@'")
    sc.skip_ws()
    if sc.eof() or text[sc.pos] != "{":
        raise FormatError(f"line {sc.line()}: expected '{{' after entry type")
    sc.pos += 1
    key_start = sc.pos
    while sc.pos < n and text[sc.pos] not in ",}":
        sc.pos += 1
    if sc.eof():
        raise FormatError(f"line {sc.line(key_start)}: unterminated entry")
    key = text[key_start : sc.pos].strip()
    if not key:
        raise FormatError(f"line {sc.line(key_start)}: missing entry key")
    if "=" in key or any(c.isspace() for c in key):
        raise FormatError(f"line {sc.line(key_start)}: missing or invalid entry key")
    values: dict[str, str] = {}
    while True:
        if sc.eof():
            raise FormatError(f"line {sc.line()}: unterminated entry {key!r}")
        if text[sc.pos] == "}":
            sc.pos += 1
            break
        assert text[sc.pos] == ","
        sc.pos += 1
        sc.skip_ws()
        if sc.eof():
            raise FormatError(f"line {sc.line()}: unterminated entry {key!r}")
        if text[sc.pos] == "}":
            sc.pos += 1
            break
        name_start = sc.pos
        while sc.pos < n and text[sc.pos] not in "=,}" and not text[sc.pos].isspace():
            sc.pos += 1
        name = text[name_start : sc.pos].strip().lower()
        sc.skip_ws()
        if sc.eof() or text[sc.pos] != "=":
            raise FormatError(f"line {sc.line(name_start)}: expected '=' after field name {name!r}")
        sc.pos += 1
        raw = _parse_value(sc)
        values[name] = raw
        sc.skip_ws()
        if sc.eof():
            raise FormatError(f"line {sc.line()}: unterminated entry {key!r}")
        if text[sc.pos] not in ",}":
            raise FormatError(f"line {sc.line()}: expected ',' or '}}' after field {name!r}")

    record = PaperRecord()
    for name, raw in values.items():
        if name not in _RECORD_FIELDS or name == "year":
            continue
        value = _clean(raw)
        if name == "month":
            value = _MONTHS.get(value.lower(), value)
        if value:
            setattr(record, name, value)
    if "year" in values:
        year_text = _clean(values["year"])
        if year_text.isdigit() and int(year_text) > 0:
            record.year = int(year_text)
    return record


def parse_bibtex(source) -> BibParseResult:
    """Parse BibTeX entries; skips malformed entries, counting and noting them.

    `source` is a text stream or string.  Record order follows entry order.
    """
    text = source if isinstance(source, str) else source.read()
    sc = _BibScanner(text)
    result = BibParseResult(records=[], skipped=0)
    while True:
        at = text.find("@", sc.pos)
        if at < 0:
            break
        sc.pos = at
        try:
            result.records.append(_parse_entry(sc))
        except FormatError as exc:
            result.skipped += 1
            result.errors.append(str(exc))
            # resume at the next entry marker
            nxt = text.find("@", at + 1)
            sc.pos = len(text) if nxt < 0 else nxt
    return result


def write_catalog_csv(records, sink) -> int:
    """Write the canonical catalog CSV; returns the number of data rows."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    count = 0
    for i, record in enumerate(records):
        row = [str(i)]
        for name in CSV_COLUMNS[1:]:
            value = getattr(record, name)
            row.append("" if value is None else str(value))
        writer.writerow(row)
        count += 1
    return count


def read_catalog_csv(source) -> list[PaperRecord]:
    """Inverse of :func:`write_catalog_csv`."""
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("empty catalog: missing header") from None
    if tuple(header) != CSV_COLUMNS:
        for got, want in zip(header, CSV_COLUMNS):
            if got != want:
                raise FormatError(f"unexpected catalog column {got!r} (want {want!r})")
        raise FormatError(
            f"catalog header has {len(header)} columns, expected {len(CSV_COLUMNS)}"
        )
    records = []
    for row in reader:
        if len(row) != len(CSV_COLUMNS):
            raise FormatError(
                f"catalog row {len(records)}: {len(row)} columns, expected {len(CSV_COLUMNS)}"
            )
        record = PaperRecord()
        for name, value in zip(CSV_COLUMNS[1:], row[1:]):
            if value == "":
                continue
            if name == "year":
                if value.isdigit() and int(value) > 0:
                    record.year = int(value)
            else:
                setattr(record, name, value)
        records.append(record)
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


def write_manifest(manifest: DownloadManifest, sink) -> None:
    for e in manifest.entries:
        note = e.error_note or ""
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
        if status not in ("pending", "ok", "failed"):
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
        note = str(error) or type(error).__name__
        return ManifestEntry(entry.paper_id, entry.url, "failed", max_attempts, note)

    if parallelism > 1 and jobs:
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
            try:
                # str.split and str.isspace share one definition of whitespace,
                # so this gives the tokens back iff none is empty or has any
                if " ".join(paragraph).split() == paragraph:
                    continue
            except TypeError:  # a token that is not a str
                pass
            for token in paragraph:  # find the token to name
                if not token or any(c.isspace() for c in token):
                    raise ValueError(
                        f"paragraph {i}: token {token!r} is empty or has whitespace"
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
