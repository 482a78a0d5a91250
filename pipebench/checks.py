"""Output checks for the pipeline benchmark.

Each check raises CheckError on a wrong output and otherwise returns the
quality figures the benchmark reports for that output.
"""

from __future__ import annotations

import json
import os

from sciner import dataset, evaluation, tag_schema
from sciner.autoannotate import GateConfig, annotate_corpus
from sciner.errors import FormatError
from sciner.tagger import TaggerModel


class CheckError(Exception):
    pass


def gated_precision(gold, predicted) -> float:
    """Share of non-`amb` predicted words whose label equals the gold label."""
    accepted = correct = 0
    for g, p in zip(gold, predicted):
        for gl, pl in zip(g.labels, p.labels):
            if pl != tag_schema.AMB:
                accepted += 1
                correct += pl == gl
    if not accepted:
        raise CheckError("the gate accepted no words")
    return correct / accepted


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{os.path.basename(path)}: {exc}") from None


def check_annotations(out_path, stats_path, gold) -> tuple[float, float]:
    """Check an annotation file against the gold paragraphs it must cover.

    `gold` lists the input paragraphs, with their gold labels, in the order
    the annotator reads them.  Returns (span F1, gated precision), with `amb`
    counted as a miss.
    """
    try:
        with open(out_path, encoding="utf-8") as handle:
            predicted = dataset.read_annotations(handle, filename=os.path.basename(out_path))
    except (OSError, FormatError) as exc:
        raise CheckError(str(exc)) from None
    keys = [(p.paper_id, p.paragraph_index) for p in predicted]
    expected = [(g.paper_id, g.paragraph_index) for g in gold]
    if keys != expected:
        missing = sorted(set(expected) - set(keys))
        raise CheckError(
            f"{len(keys)} paragraphs written, {len(expected)} expected; "
            f"first missing {missing[:1]}, order matches {keys == expected}"
        )
    amb = 0
    for g, p in zip(gold, predicted):
        if p.words != g.words:
            raise CheckError(f"{p.paper_id} paragraph {p.paragraph_index}: words differ from input")
        if p.provenance != "auto":
            raise CheckError(f"{p.paper_id} paragraph {p.paragraph_index}: provenance {p.provenance}")
        amb += p.labels.count(tag_schema.AMB)
    total = sum(len(g.words) for g in gold)
    stats = _load_json(stats_path)
    accepted = sum(stats["accepted"].values())
    if stats["total_words"] != total or stats["amb_words"] != amb:
        raise CheckError(
            f"stats count {stats['total_words']} words / {stats['amb_words']} amb, "
            f"file has {total} / {amb}"
        )
    if stats["amb_words"] + accepted != stats["total_words"]:
        raise CheckError(f"amb {stats['amb_words']} + accepted {accepted} != {stats['total_words']}")
    return evaluation.score(gold, predicted).span_f1, gated_precision(gold, predicted)


def check_loop(run_dir, iterations, test, gamma) -> tuple[float, float]:
    """Check a loop run directory; returns (final span F1, gated precision).

    The final model is reloaded and re-scored on the held-out set: it must
    reproduce the span F1 its iteration record states.
    """
    records = [_load_json(os.path.join(run_dir, f"iteration_{i:02d}.json"))
               for i in range(1, iterations + 1)]
    models = []
    for i in range(1, iterations + 1):
        path = os.path.join(run_dir, f"model_iter{i:02d}.npz")
        try:
            models.append(TaggerModel.load(path))
        except (OSError, ValueError, KeyError) as exc:
            raise CheckError(f"{os.path.basename(path)}: {exc}") from None
    comparison = _load_json(os.path.join(run_dir, "comparison.json"))
    if not isinstance(comparison, dict) or "mean_b" not in comparison:
        raise CheckError("comparison.json holds no model comparison")
    try:
        final_f1 = records[-1]["metrics"]["step3"]["span_f1"]
    except (KeyError, TypeError) as exc:
        raise CheckError(f"iteration record lacks step-3 metrics: {exc!r}") from None
    predicted, _ = annotate_corpus(models[-1], test, GateConfig(gamma))
    rescored = evaluation.score(test, predicted).span_f1
    if rescored != final_f1:
        raise CheckError(f"final model scores span F1 {rescored}, its record says {final_f1}")
    return final_f1, gated_precision(test, predicted)
