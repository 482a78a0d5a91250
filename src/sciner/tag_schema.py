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


def index_label(index: int) -> str:
    """Inverse of :func:`label_index`."""
    if 0 <= index < len(_ALL_LABELS):
        return _ALL_LABELS[index]
    raise ValueError(f"label index out of range: {index}")


def is_model_label(label: str) -> bool:
    return label in LABEL_INDEX and label != AMB


def entity_type_of(label: str) -> str | None:
    """Entity type of a B-/I- label, None for O and amb."""
    if label.startswith(("B-", "I-")):
        t = label[2:]
        if t not in ENTITY_TYPES:
            raise ValueError(f"unknown label {label!r}")
        return t
    if label in (O_LABEL, AMB):
        return None
    raise ValueError(f"unknown label {label!r}")


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


def spans_from_labels(labels) -> list[Span]:
    """Maximal B-then-I runs as spans.  amb closes any open span."""
    spans = []
    open_type = None
    open_start = 0
    for i, label in enumerate(labels):
        if label.startswith("B-"):
            if open_type is not None:
                spans.append(Span(open_type, open_start, i))
            open_type = entity_type_of(label)
            open_start = i
        elif label.startswith("I-"):
            t = entity_type_of(label)
            if open_type != t:
                # no span of this type is open: legal right after amb (which
                # closed any span), else only on unvalidated input; start one
                if open_type is not None:
                    spans.append(Span(open_type, open_start, i))
                open_type = t
                open_start = i
        else:  # O or amb
            if open_type is not None:
                spans.append(Span(open_type, open_start, i))
                open_type = None
    if open_type is not None:
        spans.append(Span(open_type, open_start, len(labels)))
    return spans


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
