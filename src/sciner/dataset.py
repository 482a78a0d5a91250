"""Annotated paragraphs, corpus partitioning, train/test split, and merging.

The on-disk annotation format is CoNLL-style: a comment header per paragraph,
one `word<TAB>label` line per word (auto-annotated words carry a third
confidence column), and a blank line between paragraphs:

    # paper_id=<64-hex> paragraph=<n> provenance=manual annotator=alice
    SciNER<TAB>B-TaskName
    task<TAB>I-TaskName
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, field

from . import tag_schema
from .errors import FormatError
from .util import WORD_RE, first_non_word, is_word

PROVENANCES = ("manual", "auto", "unannotated")

AUTO_VENUES = ("ACL", "EMNLP", "NAACL")
AUTO_YEARS = (2022, 2023)


# the header fields that `_HEADER_RE` reads back: a paper id (a word), the
# "<paper id> <paragraph index>" pair that a paragraph checks in one match,
# and an annotator
_ID_AND_INDEX_RE = re.compile(WORD_RE.pattern + " [0-9]+")
_ANNOTATOR_RE = re.compile(r"[^\n\r]+")


def check_paper_id(paper_id: str) -> None:
    """ValueError unless an annotation header can carry `paper_id`."""
    if not is_word(paper_id):
        raise ValueError(f"paper id {paper_id!r} is empty or has whitespace")


@dataclass
class AnnotatedParagraph:
    paper_id: str
    paragraph_index: int
    words: list[str]
    labels: list[str] | None = None
    provenance: str = "unannotated"
    annotator: str | None = None
    confidence: list[float] | None = None

    def __post_init__(self):
        if not _ID_AND_INDEX_RE.fullmatch(f"{self.paper_id} {self.paragraph_index}"):
            check_paper_id(self.paper_id)  # if the id passes, the index is at fault
            raise ValueError(
                f"paragraph index must be a non-negative integer, got {self.paragraph_index!r}"
            )
        if self.annotator is not None and not _ANNOTATOR_RE.fullmatch(self.annotator):
            raise ValueError(f"annotator {self.annotator!r} is empty or has a line break")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.labels is not None:
            if len(self.labels) != len(self.words):
                raise ValueError(
                    f"{self.paper_id} paragraph {self.paragraph_index}: "
                    f"{len(self.words)} words but {len(self.labels)} labels"
                )
            if self.provenance == "manual" and tag_schema.AMB in self.labels:
                raise ValueError("manual annotations must not contain 'amb'")
            violations = tag_schema.validate_sequence(self.labels)
            if violations:
                raise ValueError(
                    f"{self.paper_id} paragraph {self.paragraph_index}: {violations[0]}"
                )
        if (self.confidence is not None) != (self.provenance == "auto"):
            raise ValueError("confidence is present iff provenance is 'auto'")
        if self.confidence is not None and len(self.confidence) != len(self.words):
            raise ValueError("confidence length must match word count")


@dataclass
class CorpusPartition:
    manual: set[str] = field(default_factory=set)
    auto: set[str] = field(default_factory=set)
    unannotated: set[str] = field(default_factory=set)


def partition_corpus(catalog, manual_ids) -> CorpusPartition:
    """Split catalog ids into manual / auto / unannotated.

    Auto-annotation candidates are ACL, EMNLP, or NAACL papers from 2022-2023
    that were not manually annotated; everything else is unannotated.
    """
    catalog_ids = {r.paper_id for r in catalog if r.url}
    manual_ids = set(manual_ids)
    for pid in sorted(manual_ids):
        if pid not in catalog_ids:
            raise ValueError(f"manual id not in catalog: {pid}")
    part = CorpusPartition(manual=set(manual_ids))
    for record in catalog:
        if not record.url:
            continue
        pid = record.paper_id
        if pid in manual_ids:
            continue
        if record.venue in AUTO_VENUES and record.year in AUTO_YEARS:
            part.auto.add(pid)
        else:
            part.unannotated.add(pid)
    return part


def split_train_test(paragraphs, held_out_per_annotator: int = 2, seed: int = 0):
    """Hold out whole papers per annotator for the test set, seeded draw.

    Returns (train, test) paragraph lists.  No paper straddles the split.
    """
    if held_out_per_annotator < 0:
        raise ValueError("held_out_per_annotator must be >= 0")
    papers: dict[str, str] = {}  # paper_id -> annotator
    for p in paragraphs:
        annotator = p.annotator or ""
        if papers.setdefault(p.paper_id, annotator) != annotator:
            raise ValueError(f"paper {p.paper_id} has multiple annotators")
    by_annotator: dict[str, list[str]] = {}
    for pid, annotator in papers.items():
        by_annotator.setdefault(annotator, []).append(pid)

    rng = random.Random(seed)
    test_ids: set[str] = set()
    for annotator in sorted(by_annotator):
        pool = sorted(by_annotator[annotator])
        if len(pool) <= held_out_per_annotator:
            raise ValueError(
                f"annotator {annotator!r} has {len(pool)} papers, needs more than "
                f"{held_out_per_annotator}"
            )
        test_ids.update(rng.sample(pool, held_out_per_annotator))
    train = [p for p in paragraphs if p.paper_id not in test_ids]
    test = [p for p in paragraphs if p.paper_id in test_ids]
    return train, test


@dataclass
class TrainingExample:
    """One paragraph prepared for training: mask=False words carry no loss."""

    words: list[str]
    labels: list[str]
    mask: list[bool]


def _example_from(paragraph: AnnotatedParagraph) -> TrainingExample:
    mask = [label != tag_schema.AMB for label in paragraph.labels]
    return TrainingExample(list(paragraph.words), list(paragraph.labels), mask)


AMB_POLICIES = ("ignore_positions", "drop_paragraph")


def retained_auto(auto, amb_policy: str = "ignore_positions") -> list[int]:
    """Positions of the auto paragraphs that `merge_for_retraining` keeps:
    all of them under ignore_positions, those without amb under
    drop_paragraph."""
    if amb_policy not in AMB_POLICIES:
        raise ValueError(f"unknown amb policy {amb_policy!r}")
    kept = []
    for i, p in enumerate(auto):
        if p.provenance != "auto":
            raise ValueError(f"expected provenance 'auto', got {p.provenance!r}")
        if not (amb_policy == "drop_paragraph" and tag_schema.AMB in p.labels):
            kept.append(i)
    return kept


def merge_for_retraining(manual, auto, amb_policy: str = "ignore_positions"):
    """Combine manual and auto paragraphs into one training set.

    ignore_positions keeps amb words in context but masks them out of the
    loss; drop_paragraph excludes any paragraph containing amb.  Manual
    paragraphs are always included unmodified, ahead of the auto ones.
    """
    auto = list(auto)
    kept = retained_auto(auto, amb_policy)
    return [_example_from(p) for p in manual] + [_example_from(auto[i]) for i in kept]


# ---------------------------------------------------------------------------
# Annotation files
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(
    r"^# paper_id=(?P<paper_id>\S+) paragraph=(?P<paragraph>\d+)"
    r" provenance=(?P<provenance>\S+)(?: annotator=(?P<annotator>.+))?$"
)


def write_annotations(paragraphs, sink) -> int:
    """Write paragraphs in the annotation file format; returns paragraph count.
    A paragraph with no words, or a word the format cannot hold (not
    `util.is_word`), is a ValueError naming it, raised before any of its
    paragraph is written."""
    count = 0
    for p in paragraphs:
        if p.labels is None:
            raise ValueError(f"{p.paper_id} paragraph {p.paragraph_index} has no labels")
        if not p.words:  # the reader rejects a paragraph with no words
            raise ValueError(f"{p.paper_id} paragraph {p.paragraph_index} has no words")
        bad = first_non_word(p.words)
        if bad >= 0:
            raise ValueError(
                f"{p.paper_id} paragraph {p.paragraph_index}: word {bad} "
                f"{p.words[bad]!r} is empty or has whitespace"
            )
        header = f"# paper_id={p.paper_id} paragraph={p.paragraph_index} provenance={p.provenance}"
        if p.annotator is not None:
            header += f" annotator={p.annotator}"
        sink.write(header + "\n")
        for i, (word, label) in enumerate(zip(p.words, p.labels)):
            if p.confidence is not None:
                sink.write(f"{word}\t{label}\t{p.confidence[i]!r}\n")
            else:
                sink.write(f"{word}\t{label}\n")
        sink.write("\n")
        count += 1
    return count


def read_annotations(source, filename: str = "<annotations>") -> list[AnnotatedParagraph]:
    """Read an annotation file, validating labels and BIO transitions.

    Each run of non-blank lines is one paragraph; the first fault in line
    order is a FormatError naming the file and the line."""
    numbered = enumerate((line.rstrip("\n") for line in source), start=1)
    return [
        _read_paragraph(list(block), filename)
        for nonblank, block in itertools.groupby(numbered, key=lambda pair: bool(pair[1]))
        if nonblank
    ]


def _read_paragraph(block, filename: str) -> AnnotatedParagraph:
    """The paragraph in one block of `(line number, line)` pairs.  Only `auto`
    paragraphs carry the confidence column; a fault of the whole paragraph
    names the header's line."""

    def fail(lineno, message):
        raise FormatError(f"{filename}:{lineno}: {message}")

    (header_line, header), *rows = block
    if not header.startswith("#"):
        fail(header_line, "word line before any paragraph header")
    m = _HEADER_RE.match(header)
    if not m:
        fail(header_line, f"malformed paragraph header: {header!r}")
    provenance = m["provenance"]
    if provenance not in PROVENANCES:
        fail(header_line, f"unknown provenance {provenance!r}")
    words, labels, confidence = [], [], []
    for lineno, line in rows:
        # a line with a tab is a word line even when the word starts with "#"
        # (the tokenizer emits words such as "#1")
        if line.startswith("#") and "\t" not in line:
            fail(lineno, "header inside paragraph (missing blank line?)")
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            fail(lineno, f"expected word<TAB>label[<TAB>confidence], got {line!r}")
        word, label = parts[0], parts[1]
        if not is_word(word):
            fail(lineno, f"word {word!r} has whitespace" if word else "empty word")
        if label not in tag_schema.LABEL_INDEX:
            fail(lineno, f"unknown label {label!r}")
        prev = labels[-1] if labels else None
        if not tag_schema.is_legal_transition(prev, label):
            fail(lineno, f"illegal transition {prev!r} -> {label!r}")
        words.append(word)
        labels.append(label)
        if len(parts) == 3:
            if provenance != "auto":
                fail(lineno, f"confidence column in a {provenance} paragraph")
            try:
                confidence.append(float(parts[2]))
            except ValueError:
                fail(lineno, f"bad confidence value {parts[2]!r}")
    if not words:
        fail(header_line, "paragraph has no words")
    if provenance == "auto" and len(confidence) != len(words):
        fail(header_line, "auto paragraph lacks a confidence column")
    try:
        return AnnotatedParagraph(
            paper_id=m["paper_id"],
            paragraph_index=int(m["paragraph"]),
            words=words,
            labels=labels,
            provenance=provenance,
            annotator=m["annotator"],
            confidence=confidence if provenance == "auto" else None,
        )
    except ValueError as exc:
        fail(header_line, str(exc))
