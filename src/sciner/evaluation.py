"""Scoring, bootstrap model comparison, label counts, and prediction diffs.

Token metrics treat a predicted `amb` as a miss: it is wrong for accuracy and
is not a prediction for precision purposes.  Span metrics count a span only on
an exact (type, start, end) match; span F1 is the headline number.
All metrics derive from pooled integer counts: each paragraph's counts are one
row (`count_rows`), and a set of paragraphs is scored from the sum of its
rows, so scoring a permutation of the same paragraphs is exactly equal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import tag_schema
from .errors import AlignmentError

NON_O_LABELS = tag_schema.MODEL_LABELS[1:]  # the 14 B-/I- classes

METRIC_NAMES = (
    "token_accuracy",
    "precision",
    "recall",
    "f1",
    "span_precision",
    "span_recall",
    "span_f1",
)


# the columns of a count row (see `count_rows`)
COUNT_COLUMNS = (
    "tokens", "correct",
    *(f"tp {label}" for label in NON_O_LABELS),
    *(f"fp {label}" for label in NON_O_LABELS),
    *(f"fn {label}" for label in NON_O_LABELS),
    "gold spans", "pred spans",
    *(f"span tp {t}" for t in tag_schema.ENTITY_TYPES),
)
_TOKENS, _CORRECT = 0, 1
_TP, _FP, _FN = (slice(2 + k * len(NON_O_LABELS), 2 + (k + 1) * len(NON_O_LABELS))
                  for k in range(3))
_GOLD_SPANS, _PRED_SPANS = _FN.stop, _FN.stop + 1
_SPAN_TP = slice(_FN.stop + 2, len(COUNT_COLUMNS))


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


@dataclass
class MetricSet:
    token_accuracy: float
    precision: float
    recall: float
    f1: float
    span_precision: float
    span_recall: float
    span_f1: float
    per_class: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    n_tokens: int = 0
    n_gold_spans: int = 0
    n_pred_spans: int = 0
    span_tp_by_type: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in METRIC_NAMES}
        out["per_class"] = {
            label: {"precision": p, "recall": r, "f1": f}
            for label, (p, r, f) in self.per_class.items()
        }
        return out

    def render(self) -> str:
        lines = [f"{name:<16}{getattr(self, name):.4f}" for name in METRIC_NAMES]
        lines.append(f"{'per-class':<16}P       R       F1")
        for label in NON_O_LABELS:
            p, r, f = self.per_class[label]
            lines.append(f"  {label:<21}{p:<8.4f}{r:<8.4f}{f:.4f}")
        return "\n".join(lines)

    @classmethod
    def from_counts(cls, counts) -> "MetricSet":
        """The metrics of pooled counts: a `count_rows` row, or a sum of rows."""
        c = np.asarray(counts).tolist()
        tp, fp, fn = c[_TP], c[_FP], c[_FN]
        precision, recall, f1 = _prf(sum(tp), sum(fp), sum(fn))
        span_tp_by_type = dict(zip(tag_schema.ENTITY_TYPES, c[_SPAN_TP]))
        span_tp = sum(span_tp_by_type.values())
        n_gold_spans, n_pred_spans = c[_GOLD_SPANS], c[_PRED_SPANS]
        span_p, span_r, span_f = _prf(span_tp, n_pred_spans - span_tp, n_gold_spans - span_tp)
        n_tokens = c[_TOKENS]
        return cls(
            token_accuracy=c[_CORRECT] / n_tokens if n_tokens else 0.0,
            precision=precision,
            recall=recall,
            f1=f1,
            span_precision=span_p,
            span_recall=span_r,
            span_f1=span_f,
            per_class={label: _prf(*tfn) for label, tfn in zip(NON_O_LABELS, zip(tp, fp, fn))},
            n_tokens=n_tokens,
            n_gold_spans=n_gold_spans,
            n_pred_spans=n_pred_spans,
            span_tp_by_type=span_tp_by_type,
        )


def _check_aligned(gold, predicted):
    if len(gold) != len(predicted):
        raise AlignmentError(
            f"gold has {len(gold)} paragraphs, predictions have {len(predicted)}"
        )
    for g, p in zip(gold, predicted):
        if g.labels is None or p.labels is None:
            raise AlignmentError(
                f"{g.paper_id} paragraph {g.paragraph_index}: missing labels"
            )
        if len(g.words) != len(p.words):
            raise AlignmentError(
                f"{g.paper_id} paragraph {g.paragraph_index}: "
                f"{len(g.words)} gold words vs {len(p.words)} predicted"
            )


def count_rows(gold, predicted) -> np.ndarray:
    """One int64 row of counts per paragraph, in the columns of COUNT_COLUMNS:
    tokens and correct tokens, true/false positives and false negatives per
    B-/I- class, gold and predicted spans, and span true positives per type.
    The counts of a set of paragraphs are the sum of their rows."""
    gold, predicted = list(gold), list(predicted)
    _check_aligned(gold, predicted)
    rows = np.zeros((len(gold), len(COUNT_COLUMNS)), np.int64)
    lengths = [len(g.labels) for g in gold]
    g = tag_schema.label_indices(label for para in gold for label in para.labels)
    p = tag_schema.label_indices(label for para in predicted for label in para.labels)
    par = np.repeat(np.arange(len(gold)), lengths)  # each token's paragraph
    first = np.diff(par, prepend=-1) != 0  # each paragraph's first token
    hit = g == p

    def tally(tokens, values, width):
        # each paragraph's count of each value in range(width) at `tokens`
        flat = np.bincount(par[tokens] * width + values, minlength=len(gold) * width)
        return flat.reshape(len(gold), width)

    n_labels, n_types = len(tag_schema.LABEL_INDEX), len(tag_schema.ENTITY_TYPES)
    rows[:, _TOKENS] = lengths
    rows[:, _CORRECT] = np.bincount(par[hit], minlength=len(gold))
    rows[:, _TP] = tally(hit, g[hit], n_labels)[:, 1 : tag_schema.NUM_CLASSES]  # NON_O_LABELS
    rows[:, _FP] = tally(~hit, p[~hit], n_labels)[:, 1 : tag_schema.NUM_CLASSES]
    rows[:, _FN] = tally(~hit, g[~hit], n_labels)[:, 1 : tag_schema.NUM_CLASSES]
    gold_spans, pred_spans = (tag_schema.span_bounds(labels, first) for labels in (g, p))
    # (start, end, type) as one int64 key; a start is a token, so it names the paragraph
    gold_keys, pred_keys = ((start * (len(par) + 1) + end) * n_types + types
                            for start, end, types in (gold_spans, pred_spans))
    _, matched, _ = np.intersect1d(gold_keys, pred_keys, assume_unique=True, return_indices=True)
    rows[:, _GOLD_SPANS] = np.bincount(par[gold_spans[0]], minlength=len(gold))
    rows[:, _PRED_SPANS] = np.bincount(par[pred_spans[0]], minlength=len(gold))
    rows[:, _SPAN_TP] = tally(gold_spans[0][matched], gold_spans[2][matched], n_types)
    return rows


def score(gold, predicted) -> MetricSet:
    """Token accuracy plus token- and span-level precision/recall/F1."""
    return MetricSet.from_counts(count_rows(gold, predicted).sum(axis=0))


@dataclass
class BootstrapResult:
    draws: int
    draw_size: int
    seed: int
    per_draw_a: list[MetricSet]
    per_draw_b: list[MetricSet]
    mean_a: dict[str, float]
    std_a: dict[str, float]
    mean_b: dict[str, float]
    std_b: dict[str, float]

    def render(self, name_a: str = "model A", name_b: str = "model B") -> str:
        width = max(len(name_a), len(name_b), 12) + 14
        lines = [
            f"bootstrap: {self.draws} draws of {self.draw_size} paragraphs "
            f"(without replacement), seed {self.seed}",
            f"{'metric':<16}{name_a + ' (mean±std)':<{width}}{name_b} (mean±std)",
        ]
        for name in METRIC_NAMES:
            a = f"{self.mean_a[name]:.4f} ± {self.std_a[name]:.4f}"
            b = f"{self.mean_b[name]:.4f} ± {self.std_b[name]:.4f}"
            lines.append(f"{name:<16}{a:<{width}}{b}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "draws": self.draws,
            "draw_size": self.draw_size,
            "seed": self.seed,
            "mean_a": self.mean_a,
            "std_a": self.std_a,
            "mean_b": self.mean_b,
            "std_b": self.std_b,
        }


def _mean_std(per_draw: list[MetricSet]):
    mean = {}
    std = {}
    for name in METRIC_NAMES:
        values = np.array([getattr(ms, name) for ms in per_draw])
        mean[name] = float(values.mean())
        std[name] = float(values.std())
    return mean, std


def check_draws(draws: int, draw_size: int, n_paragraphs: int) -> None:
    """ValueError unless `draws` draws of `draw_size` fit `n_paragraphs`."""
    if draws < 1:
        raise ValueError("draws must be >= 1")
    if draw_size < 1:
        raise ValueError("draw_size must be >= 1")
    if draw_size > n_paragraphs:
        raise ValueError(f"draw_size {draw_size} exceeds evaluation set size {n_paragraphs}")


def bootstrap_compare(gold, predictions_a, predictions_b, draws: int = 12,
                      draw_size: int = 50, seed: int = 0) -> BootstrapResult:
    """Score both models on `draws` random subsets of `draw_size` paragraphs.

    Each draw samples paragraphs without replacement (independently per draw)
    and both models are scored on the identical subset.  Each model's
    paragraphs are counted once (`count_rows`), and a draw's metrics come
    from the sum of its rows.
    """
    gold = list(gold)
    rows_a = count_rows(gold, predictions_a)
    rows_b = count_rows(gold, predictions_b)
    check_draws(draws, draw_size, len(gold))
    if seed < 0:  # np.random.default_rng takes no negative seed
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    per_draw_a = []
    per_draw_b = []
    for _ in range(draws):
        idx = rng.choice(len(gold), size=draw_size, replace=False)
        per_draw_a.append(MetricSet.from_counts(rows_a[idx].sum(axis=0)))
        per_draw_b.append(MetricSet.from_counts(rows_b[idx].sum(axis=0)))
    mean_a, std_a = _mean_std(per_draw_a)
    mean_b, std_b = _mean_std(per_draw_b)
    return BootstrapResult(
        draws=draws,
        draw_size=draw_size,
        seed=seed,
        per_draw_a=per_draw_a,
        per_draw_b=per_draw_b,
        mean_a=mean_a,
        std_a=std_a,
        mean_b=mean_b,
        std_b=std_b,
    )


def label_counts(paragraphs) -> dict[str, int]:
    """Histogram over the 14 B-/I- classes (plus amb if present); O is omitted."""
    index = tag_schema.label_indices(label for p in paragraphs if p.labels is not None
                                     for label in p.labels)
    n = np.bincount(index, minlength=len(tag_schema.LABEL_INDEX)).tolist()
    counts = dict(zip(NON_O_LABELS, n[1 : tag_schema.NUM_CLASSES]))
    if n[tag_schema.AMB_INDEX]:
        counts[tag_schema.AMB] = n[tag_schema.AMB_INDEX]
    return counts


def render_label_counts(counts: dict[str, int]) -> str:
    width = max((len(label) for label in counts), default=5) + 2
    lines = [f"{'label':<{width}}count"]
    for label, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"{label:<{width}}{count}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Prediction diff report
# ---------------------------------------------------------------------------

_ANSI_CORRECT = "\x1b[34m{}\x1b[0m"  # blue
_ANSI_WRONG = "\x1b[31m{}\x1b[0m"  # red


def diff_report(gold, predicted, sink=None, color: bool | None = None) -> str:
    """Mark every labeled word correct or incorrect, paragraph by paragraph.

    Words where gold and prediction are both O pass through unmarked.  Output
    uses ANSI color on terminals and `[+word]` / `[-word]` markup elsewhere.
    """
    gold = list(gold)
    predicted = list(predicted)
    _check_aligned(gold, predicted)
    if color is None:
        color = bool(sink is not None and getattr(sink, "isatty", lambda: False)())
    lines = []
    for g, p in zip(gold, predicted):
        rendered = []
        for word, gl, pl in zip(g.words, g.labels, p.labels):
            if gl == tag_schema.O_LABEL and pl == tag_schema.O_LABEL:
                rendered.append(word)
            elif gl == pl:
                rendered.append(_ANSI_CORRECT.format(word) if color else f"[+{word}]")
            else:
                rendered.append(_ANSI_WRONG.format(word) if color else f"[-{word}]")
        lines.append(f"# {g.paper_id} paragraph {g.paragraph_index}")
        lines.append(" ".join(rendered))
    text = "\n".join(lines) + ("\n" if lines else "")
    if sink is not None:
        sink.write(text)
    return text


def parse_diff_markup(text: str) -> list[list[bool | None]]:
    """Recover the per-word correct/incorrect bitmap from bracket markup.

    True = marked correct, False = marked incorrect, None = unmarked.
    """
    bitmaps = []
    for line in text.splitlines():
        if line.startswith("#") or not line:
            continue
        row: list[bool | None] = []
        for chunk in line.split(" "):
            if chunk.startswith("[+") and chunk.endswith("]"):
                row.append(True)
            elif chunk.startswith("[-") and chunk.endswith("]"):
                row.append(False)
            else:
                row.append(None)
        bitmaps.append(row)
    return bitmaps


def metrics_json(metrics: MetricSet) -> str:
    return json.dumps(metrics.to_dict(), indent=2, sort_keys=True)
