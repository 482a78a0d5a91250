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

# paragraphs per feature table when annotate_corpus compiles its own: one
# chunk's table and the temporaries that build it take a few MB, whatever
# the corpus size, and at this size numpy's per-call cost is already small
CHUNK_PARAGRAPHS = 256

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

    def merge_counts(self, labels) -> None:
        for label in labels:
            self.total_words += 1
            if label == tag_schema.AMB:
                self.amb_words += 1
            else:
                self.accepted[label] = self.accepted.get(label, 0) + 1


def _word_scores_from_stream(grouped, paragraph: AnnotatedParagraph):
    key = (paragraph.paper_id, paragraph.paragraph_index)
    if key not in grouped:
        raise AlignmentError(
            f"no probability records for {paragraph.paper_id} "
            f"paragraph {paragraph.paragraph_index}"
        )
    word_idx, probs = grouped[key]
    n_words = len(paragraph.words)
    # grouping leaves word_idx sorted, so it covers 0..n_words-1 exactly when
    # it runs from 0 to n_words - 1 without skipping a word
    if not (word_idx[0] == 0 and word_idx[-1] == n_words - 1
            and (np.diff(word_idx) <= 1).all()):
        raise AlignmentError(
            f"probability records for {paragraph.paper_id} paragraph "
            f"{paragraph.paragraph_index} cover {len(np.unique(word_idx))} of {n_words} words"
        )
    return kernels.aggregate_words(probs, word_idx, n_words)


def _model_word_scores(model: TaggerModel, paragraphs, features):
    """Each paragraph's aggregated word scores under `model`, scored one
    paragraph at a time from `features`, or from tables compiled
    CHUNK_PARAGRAPHS paragraphs at a time."""
    if features is None:
        tables = (
            tagger.featurize([p.words for p in paragraphs[i : i + CHUNK_PARAGRAPHS]],
                             model.hash_dim)
            for i in range(0, len(paragraphs), CHUNK_PARAGRAPHS)
        )
    else:
        tables = [features]
    for table in tables:
        for feat, offsets, word_idx, n_words in table.paragraphs():
            probs = model.subword_probs(feat, offsets)
            yield kernels.aggregate_words(probs, word_idx, n_words)


def annotate_corpus(source, paragraphs, config: GateConfig = GateConfig(),
                    parallelism: int = 1, *, features=None):
    """Label every paragraph via gated constrained decoding.

    `source` is either a TaggerModel or an ExternalProbsTable.  Records for
    a paragraph not in `paragraphs` are an AlignmentError, raised before any
    paragraph is decoded.  With a model, `features` may be the compiled
    `tagger.FeatureTable` of `paragraphs`' words, so that a run that
    annotates the same paragraphs again featurizes them once.
    Returns (annotated paragraphs, GateStats); per-word confidence is the
    aggregated score of the best legal class, whether or not it was accepted.
    `parallelism` is accepted and ignored: annotation is one serial pass,
    which measured faster than a thread pool.
    """
    paragraphs = list(paragraphs)
    if isinstance(source, TaggerModel):
        if features is not None:
            features.check_matches(source.hash_dim, [p.words for p in paragraphs])
        scores = _model_word_scores(source, paragraphs, features)
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
        scores = (_word_scores_from_stream(grouped, p) for p in paragraphs)

    annotated = []
    decoded = np.zeros(sum(len(p.words) for p in paragraphs), np.uint8)  # label indices
    end = 0
    for p in paragraphs:
        if not p.words:
            raise ValueError(f"{p.paper_id} paragraph {p.paragraph_index} has no words")
        labels_idx, conf = kernels.decode_constrained(
            next(scores), _LEGAL_U8, config.gamma, _START_ROW
        )
        decoded[end : end + len(labels_idx)] = labels_idx
        end += len(labels_idx)
        annotated.append(
            AnnotatedParagraph(
                paper_id=p.paper_id,
                paragraph_index=p.paragraph_index,
                words=list(p.words),
                labels=_LABEL_NAMES[labels_idx].tolist(),
                provenance="auto",
                confidence=conf.tolist(),
            )
        )
    return annotated, GateStats.from_indices(decoded)
