"""Label space for scientific NER: 15 model classes plus the `amb` gate marker.

The model predicts O plus B-/I- variants of seven entity types.  `amb` is
what the confidence gate emits for rejected words; it is never a classifier
output class and carries index 15 only as an internal sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ENTITY_TYPES = (
    "MethodName",
    "TaskName",
    "DatasetName",
    "MetricName",
    "MetricValue",
    "HyperparameterName",
    "HyperparameterValue",
)

O_LABEL = "O"
AMB = "amb"

# Index map: O=0, B-types 1..7, I-types 8..14.
MODEL_LABELS = (
    (O_LABEL,)
    + tuple(f"B-{t}" for t in ENTITY_TYPES)
    + tuple(f"I-{t}" for t in ENTITY_TYPES)
)
NUM_CLASSES = len(MODEL_LABELS)  # 15
AMB_INDEX = NUM_CLASSES  # sentinel, not a model class

LABEL_INDEX = {label: i for i, label in enumerate(MODEL_LABELS)}
LABEL_INDEX[AMB] = AMB_INDEX

_ALL_LABELS = MODEL_LABELS + (AMB,)


def label_index(label: str) -> int:
    """Index of a label (0..14 for model classes, 15 for `amb`)."""
    try:
        return LABEL_INDEX[label]
    except KeyError:
        raise ValueError(f"unknown label {label!r}") from None


def label_indices(labels) -> np.ndarray:
    """:func:`label_index` of each label, as an int64 array."""
    labels = list(labels)
    index = [LABEL_INDEX.get(label, -1) for label in labels]
    if -1 in index:
        label_index(labels[index.index(-1)])  # raises the unknown-label error
    return np.array(index, np.int64)


def index_label(index: int) -> str:
    """Inverse of :func:`label_index`."""
    if 0 <= index < len(_ALL_LABELS):
        return _ALL_LABELS[index]
    raise ValueError(f"label index out of range: {index}")


def is_model_label(label: str) -> bool:
    return label in LABEL_INDEX and label != AMB


def _build_legality() -> np.ndarray:
    """16x16 boolean matrix, rows = previous label index (15=amb), cols = next.

    O and B-X may follow anything.  I-X may follow only B-X, I-X, or amb
    (amb is transition-transparent: a gated-out word constrains nothing).
    amb itself may follow anything.
    """
    legal = np.zeros((NUM_CLASSES + 1, NUM_CLASSES + 1), dtype=bool)
    legal[:, label_index(O_LABEL)] = True
    for t in ENTITY_TYPES:
        legal[:, label_index(f"B-{t}")] = True
    legal[:, AMB_INDEX] = True
    for t in ENTITY_TYPES:
        i = label_index(f"I-{t}")
        legal[label_index(f"B-{t}"), i] = True
        legal[i, i] = True
        legal[AMB_INDEX, i] = True
    return legal


LEGAL_TRANSITIONS = _build_legality()
LEGAL_TRANSITIONS.setflags(write=False)

# Sequence start permits exactly what O permits: O or any B, plus amb.
START_LEGAL = LEGAL_TRANSITIONS[label_index(O_LABEL)]


def is_legal_transition(prev: str | None, next_label: str) -> bool:
    """Whether `next_label` may follow `prev` (None = sequence start)."""
    j = label_index(next_label)
    if prev is None:
        return bool(START_LEGAL[j])
    return bool(LEGAL_TRANSITIONS[label_index(prev), j])


@dataclass(frozen=True)
class Violation:
    position: int
    prev: str | None
    label: str

    def __str__(self) -> str:
        where = "sequence start" if self.prev is None else repr(self.prev)
        return f"illegal transition {where} -> {self.label!r} at position {self.position}"


# LEGAL_TRANSITIONS as nested lists: one lookup per word, without numpy's
# per-call cost on paragraph-sized sequences
_LEGAL_ROWS = LEGAL_TRANSITIONS.tolist()


def validate_sequence(labels) -> list[Violation]:
    """All BIO transition violations in `labels` (empty list = legal).

    The labels are mapped to indices once; each transition is then one
    lookup in the legality matrix, the sequence start checking as O does.
    """
    labels = list(labels)
    index = [LABEL_INDEX.get(label, -1) for label in labels]
    if -1 in index:
        label_index(labels[index.index(-1)])  # raises the unknown-label error
    prev = [LABEL_INDEX[O_LABEL], *index[:-1]]
    return [
        Violation(i, labels[i - 1] if i else None, labels[i])
        for i, (p, j) in enumerate(zip(prev, index))
        if not _LEGAL_ROWS[p][j]
    ]


@dataclass(frozen=True)
class Span:
    """Entity span over word indices, start inclusive, end exclusive."""

    entity_type: str
    start: int
    end: int

    def __post_init__(self):
        if self.entity_type not in ENTITY_TYPES:
            raise ValueError(f"unknown entity type {self.entity_type!r}")
        if not 0 <= self.start < self.end:
            raise ValueError(f"bad span bounds [{self.start}, {self.end})")


# each label index's entity type (its position in ENTITY_TYPES, -1 for O and
# amb), and whether it is an I- label
_SPAN_TYPE = np.array([-1, *range(len(ENTITY_TYPES)), *range(len(ENTITY_TYPES)), -1])
_INSIDE = np.array([label.startswith("I-") for label in _ALL_LABELS])


def span_bounds(index, first) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (start, end, type) arrays of the spans in label indices `index`,
    where the bool array `first` marks each paragraph's first word.  A span
    starts at B-X, or at an I-X not preceded in its paragraph by B-X or I-X
    (after amb, say), and runs over the I-X words that follow.  Ends are
    exclusive; types are positions in ENTITY_TYPES."""
    entity_type = _SPAN_TYPE[index]
    # the I-X words that follow a B-X or I-X word of their paragraph; word 0
    # is a first word, so neither roll's wrap-around counts
    extends = _INSIDE[index] & ~first & (entity_type == np.roll(entity_type, 1))
    in_span = entity_type >= 0
    starts = np.flatnonzero(in_span & ~extends)
    ends = np.flatnonzero(in_span & ~np.roll(extends, -1)) + 1
    return starts, ends, entity_type[starts]


def spans_from_labels(labels) -> list[Span]:
    """One paragraph's spans, by the rule of :func:`span_bounds`."""
    index = label_indices(labels)
    bounds = span_bounds(index, np.arange(len(index)) == 0)
    return [Span(ENTITY_TYPES[t], s, e) for s, e, t in zip(*(a.tolist() for a in bounds))]


def labels_from_spans(spans, length: int) -> list[str]:
    """Inverse of :func:`spans_from_labels` for non-overlapping spans."""
    labels = [O_LABEL] * length
    occupied = [False] * length
    for span in spans:
        if span.end > length:
            raise ValueError(f"span {span} exceeds sequence length {length}")
        if any(occupied[span.start : span.end]):
            raise ValueError(f"overlapping span {span}")
        for i in range(span.start, span.end):
            occupied[i] = True
        labels[span.start] = f"B-{span.entity_type}"
        for i in range(span.start + 1, span.end):
            labels[i] = f"I-{span.entity_type}"
    return labels
