"""Confidence-gated, rule-constrained auto-annotation.

Subword class probabilities are multiplied into word-level scores, each word
is decoded left to right against the BIO transition rules, and the best legal
class is kept only when its aggregated score clears the confidence threshold;
otherwise the word is marked `amb`.  Rule masking happens before the gate, so
the gate always judges the best *legal* class and the output sequence is
valid by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels, tag_schema, tagger
from .dataset import AnnotatedParagraph
from .errors import AlignmentError
from .tagger import TaggerModel, group_external_probs

DEFAULT_GAMMA = 0.98

# paragraphs per annotation chunk: each chunk is aggregated and decoded in
# one call, and is featurized as one table when annotate_corpus compiles its
# own.  At this size numpy's per-call cost is already small, and a call's
# transient arrays stay a few MB whatever the corpus size (on a 2,000-paragraph
# probability table: 2.3, 3.7 and 6.2 MB at 64, 128 and 256 paragraphs)
CHUNK_PARAGRAPHS = 128

_LEGAL_U8 = tag_schema.LEGAL_TRANSITIONS[:, : tag_schema.NUM_CLASSES].astype(np.uint8)
_ALL_LEGAL = np.ones_like(_LEGAL_U8)  # gate_label: no transition rules
_START_ROW = tag_schema.label_index(tag_schema.O_LABEL)
_LABEL_NAMES = np.array([*tag_schema.MODEL_LABELS, tag_schema.AMB], dtype=object)


@dataclass(frozen=True)
class GateConfig:
    gamma: float = DEFAULT_GAMMA

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")


@dataclass(eq=False)
class WordProbs:
    """Aggregated per-class scores for one word (a product, so no unit sum)."""

    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.shape != (tag_schema.NUM_CLASSES,):
            raise ValueError(
                f"scores must have {tag_schema.NUM_CLASSES} entries, got {scores.shape}"
            )
        if not ((scores >= 0) & (scores <= 1)).all():  # NaN fails too
            raise ValueError("scores must lie in [0, 1]")
        self.scores = scores


def aggregate_word_probs(subword_probs) -> WordProbs:
    """Eq.-style product of one word's subword distributions.

    Runs `kernels.aggregate_words` on the one word, so this is the product
    the pipeline computes: a single subword passes through unchanged, longer
    words multiply in log space to dodge underflow.
    """
    rows = [tp.distribution for tp in subword_probs]
    if not rows:
        raise ValueError("word has no subword probabilities")
    scores = kernels.aggregate_words(np.vstack(rows), np.zeros(len(rows), dtype=np.int64), 1)
    return WordProbs(scores[0])


def gate_label(word_probs: WordProbs, config: GateConfig = GateConfig()) -> str:
    """The argmax class when its score clears gamma (inclusive), else amb.

    Ties break toward the lowest class index.  This is the pipeline's decode
    on one word with every class legal.
    """
    labels_idx, _ = kernels.decode_constrained(
        word_probs.scores[None, :], _ALL_LEGAL, config.gamma, _START_ROW
    )
    return tag_schema.index_label(int(labels_idx[0]))


def constrained_decode(paragraph_word_probs, config: GateConfig = GateConfig()) -> list[str]:
    """Greedy left-to-right decoding under the BIO legality matrix.

    At each word only classes legal after the previously emitted label are
    considered; the best legal class is gated against gamma.  The result
    always passes validate_sequence.
    """
    paragraph_word_probs = list(paragraph_word_probs)
    if not paragraph_word_probs:
        return []
    matrix = np.vstack([wp.scores for wp in paragraph_word_probs])
    labels_idx, _ = kernels.decode_constrained(matrix, _LEGAL_U8, config.gamma, _START_ROW)
    return [tag_schema.index_label(i) for i in labels_idx.tolist()]


@dataclass
class GateStats:
    total_words: int = 0
    amb_words: int = 0
    accepted: dict[str, int] = field(default_factory=dict)

    @property
    def amb_fraction(self) -> float:
        return self.amb_words / self.total_words if self.total_words else 0.0

    def to_dict(self) -> dict:
        return {
            "total_words": self.total_words,
            "amb_words": self.amb_words,
            "amb_fraction": self.amb_fraction,
            "accepted": dict(sorted(self.accepted.items())),
        }

    def render(self) -> str:
        lines = [
            f"words        {self.total_words}",
            f"amb          {self.amb_words} ({100.0 * self.amb_fraction:.1f}%)",
        ]
        for label in tag_schema.MODEL_LABELS:
            if label in self.accepted:
                lines.append(f"{label:<21}{self.accepted[label]}")
        return "\n".join(lines)

    @classmethod
    def from_indices(cls, label_idx) -> "GateStats":
        """The tally of decoded label indices (`tag_schema.AMB_INDEX` for amb)."""
        counts = np.bincount(label_idx, minlength=tag_schema.NUM_CLASSES + 1).tolist()
        return cls(
            total_words=len(label_idx),
            amb_words=counts[tag_schema.AMB_INDEX],
            accepted={label: n for label, n in zip(tag_schema.MODEL_LABELS, counts) if n},
        )


def _chunk_arrays(chunk, pieces):
    """(subword probabilities, chunk-global word index of each subword, word
    bounds) of paragraphs `chunk`, from `pieces`, each paragraph's (word
    index of each row, probability rows).  A paragraph with no words or no
    rows, or whose rows do not cover its words exactly, is an error; of
    several, the first paragraph's."""
    word_at = tagger._bounds([len(p.words) for p in chunk])
    n_words = np.diff(word_at)
    row_at = tagger._bounds([len(w) for w, _ in pieces])
    word_idx = np.concatenate([np.zeros(0, np.int64), *(w for w, _ in pieces)])
    # each paragraph's word indices are sorted, so they cover 0..n-1 exactly
    # when there are some and they run from 0 to n - 1 without skipping a
    # word (never, then, for a paragraph with no words)
    rows = row_at[1:] > row_at[:-1]
    bad = ~rows
    bad[rows] = ((word_idx[row_at[:-1][rows]] != 0)
                 | (word_idx[row_at[1:][rows] - 1] != n_words[rows] - 1))
    gap = np.flatnonzero(np.diff(word_idx) > 1)
    before, after = (np.searchsorted(row_at, at, side="right") - 1 for at in (gap, gap + 1))
    bad[before[before == after]] = True  # not across two paragraphs
    if bad.any():
        j = int(np.argmax(bad))
        p, w = chunk[j], pieces[j][0]
        name = f"{p.paper_id} paragraph {p.paragraph_index}"
        if not p.words:
            raise ValueError(f"{name} has no words")
        if not len(w):
            raise AlignmentError(f"no probability records for {name}")
        inside = w[w < len(p.words)]
        message = (f"probability records for {name} "
                   f"cover {len(np.unique(inside))} of {len(p.words)} words")
        if len(inside) < len(w):  # sorted: the first one past the end is the smallest
            message += f"; word_index {int(w[len(inside)])} is past its last word"
        raise AlignmentError(message)
    probs = np.concatenate([np.zeros((0, tag_schema.NUM_CLASSES)), *(pr for _, pr in pieces)])
    return probs, word_idx + np.repeat(word_at[:-1], np.diff(row_at)), word_at


def annotate_corpus(source, paragraphs, config: GateConfig = GateConfig(), *,
                    features=None):
    """Label every paragraph via gated constrained decoding.

    `source` is either a TaggerModel or an ExternalProbsTable.  Records for
    a paragraph not in `paragraphs` are an AlignmentError, raised before any
    paragraph is decoded.  With a model, `features` may be the compiled
    `tagger.FeatureTable` of `paragraphs`' words, so that a run that
    annotates the same paragraphs again featurizes them once.  A table's
    vocabulary is mapped to the model's weight rows once, so no array of
    `hash_dim` entries is built.
    Returns (annotated paragraphs, GateStats); per-word confidence is the
    aggregated score of the best legal class, whether or not it was accepted.

    The paragraphs are annotated CHUNK_PARAGRAPHS at a time, on one path
    for both sources: each paragraph's (word index, probability rows) piece
    comes from the model's scores or from the grouped records (none for a
    paragraph without records), and one check over the chunk's pieces
    raises for a paragraph with no words, no rows, or rows that do not
    cover its words exactly, naming the first one in corpus order.  Then
    there is one aggregation and one decode per chunk.  Annotation is one
    serial pass, which measured faster than a thread pool.
    """
    paragraphs = list(paragraphs)
    from_model = isinstance(source, TaggerModel)
    if from_model:
        if features is not None:
            features.check_matches(source.hash_dim, [p.words for p in paragraphs])
    elif features is not None:
        raise ValueError("a feature table applies to a model, not to a probability table")
    else:
        grouped = group_external_probs(source)
        in_corpus = {(p.paper_id, p.paragraph_index) for p in paragraphs}
        outside = [key for key in grouped if key not in in_corpus]
        if outside:
            paper_id, paragraph = outside[0]
            raise AlignmentError(
                f"probability records for {len(outside)} paragraph(s) not in the corpus, "
                f"first {paper_id} paragraph {paragraph}"
            )

    no_records = (np.zeros(0, np.int64), np.zeros((0, tag_schema.NUM_CLASSES)))
    if features is not None:
        rows = source.vocab_rows(features.vocab)
    annotated = []
    decoded = []  # label indices, one array per chunk
    for start in range(0, len(paragraphs), CHUNK_PARAGRAPHS):
        chunk = paragraphs[start : start + CHUNK_PARAGRAPHS]
        if from_model:  # each paragraph scored on its own, from its model rows
            table, at = features, start
            if features is None:
                table, at = tagger.featurize([p.words for p in chunk], source.hash_dim), 0
                rows = source.vocab_rows(table.vocab)
            pieces = [(w, source.row_probs(feat_rows, offsets))
                      for feat_rows, offsets, w, _ in table.paragraphs(at, at + len(chunk), rows)]
        else:
            pieces = [grouped.get((p.paper_id, p.paragraph_index), no_records) for p in chunk]
        probs, word_idx, word_at = _chunk_arrays(chunk, pieces)
        labels_idx, conf = kernels.decode_constrained(
            kernels.aggregate_words(probs, word_idx, int(word_at[-1])),
            _LEGAL_U8, config.gamma, _START_ROW, word_at,
        )
        decoded.append(labels_idx.astype(np.uint8))
        labels, conf, bounds = _LABEL_NAMES[labels_idx].tolist(), conf.tolist(), word_at.tolist()
        for p, a, b in zip(chunk, bounds[:-1], bounds[1:]):
            annotated.append(
                AnnotatedParagraph(
                    paper_id=p.paper_id,
                    paragraph_index=p.paragraph_index,
                    words=list(p.words),
                    labels=labels[a:b],
                    provenance="auto",
                    confidence=conf[a:b],
                )
            )
    return annotated, GateStats.from_indices(np.concatenate([np.zeros(0, np.uint8), *decoded]))
