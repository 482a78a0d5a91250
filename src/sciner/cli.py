"""Command-line interface wiring ingestion, partitioning, the loop, and evaluation.

Exit codes: 0 success, 1 partial success (e.g. some downloads failed),
2 fatal error.  Run configuration comes from a flat key=value file with `#`
comments; command-line flags override file values.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import inspect
import json
import os
import re
import sys

from . import corpus_ingest, dataset, evaluation, selftrain
from .autoannotate import DEFAULT_GAMMA, GateConfig, annotate_corpus
from .errors import FormatError
from .tagger import TaggerModel, load_external_probs
from .util import atomic_write

RUN_DIR_ENV = "SELFTRAIN_RUN_DIR"

_FLAGS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _flag(text: str) -> bool:
    if text.lower() not in _FLAGS:
        raise ValueError(text)
    return _FLAGS[text.lower()]


# what a value each reader takes must be, for the malformed-value error
_READER_NOUNS = {int: "an integer", float: "a number", _flag: f"one of {'/'.join(_FLAGS)}"}

# every config key that sets a LoopConfig field: its reader and the field's
# path; a malformed value is an error in this order, after parallelism's
_LOOP_KEYS = {
    "carry_forward": (_flag, ("carry_forward",)),
    "iterations": (int, ("iterations",)),
    **{f"{step}_{name}": (kind, (step, name)) for step in ("step1", "step3")
       for name, kind in (("epochs", int), ("learning_rate", float), ("batch_size", int))},
    "gamma": (float, ("gate", "gamma")),
    "amb_policy": (str, ("amb_policy",)),
    "seed": (int, ("seed",)),
    "hash_dim": (int, ("hash_dim",)),
}

# defaults come from the objects that own them
_LOOP_DEFAULTS = selftrain.LoopConfig()
_BOOTSTRAP_DEFAULTS = inspect.signature(evaluation.bootstrap_compare).parameters


def _default_text(path) -> str:
    value = functools.reduce(getattr, path, _LOOP_DEFAULTS)
    return str(value).lower() if type(value) is bool else str(value)


CONFIG_DEFAULTS = {
    "train_annotations": "",
    "test_annotations": "",
    "token_dir": "",
    "run_dir": "",
    "parallelism": "1",  # accepted and ignored; annotation is serial
    **{key: _default_text(path) for key, (_, path) in _LOOP_KEYS.items()},
    "draws": str(_BOOTSTRAP_DEFAULTS["draws"].default),
    "draw_size": str(_BOOTSTRAP_DEFAULTS["draw_size"].default),
}


@contextlib.contextmanager
def _open_text(path):
    """`path` opened as UTF-8 text; a byte sequence that is not UTF-8, met
    while the block reads it, is a FormatError that starts with the path."""
    with open(path, encoding="utf-8") as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: {exc}") from None


# a comment starts at a '#' that begins the line or follows whitespace
_COMMENT_RE = re.compile(r"(?:^|\s)#")


def read_config(path) -> dict[str, str]:
    """Flat key=value file with # comments; unknown keys are rejected."""
    values = dict(CONFIG_DEFAULTS)
    with _open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = _COMMENT_RE.split(line, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in CONFIG_DEFAULTS:
                raise FormatError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value.strip()
    return values


def _config_value(cfg: dict[str, str], key: str, reader, path):
    """`cfg[key]` read by `reader` (int, float, _flag or str); a malformed
    value is a FormatError that names the config file and the key."""
    try:
        return reader(cfg[key])
    except ValueError:
        noun = _READER_NOUNS[reader]
        raise FormatError(f"{path}: {key} must be {noun}, got {cfg[key]!r}") from None


def _replace_at(obj, path, value):
    """`obj` with the field at `path` (a tuple of names) set to `value`,
    through the constructors that check it."""
    name, *rest = path
    if rest:
        value = _replace_at(getattr(obj, name), rest, value)
    return dataclasses.replace(obj, **{name: value})


def _loop_config(cfg: dict[str, str], path="config", flags=()) -> selftrain.LoopConfig:
    """The LoopConfig of the read config `cfg`.  A malformed or out-of-range
    value is a FormatError that names `path` and the key, except that the
    range error of a key in `flags`, set on the command line, is left as
    it is."""
    _config_value(cfg, "parallelism", int, path)  # ignored, but a non-integer is still an error
    # one key at a time, from valid defaults, so that a range error is its key's
    loop = _LOOP_DEFAULTS
    for key, (reader, field_path) in _LOOP_KEYS.items():
        value = _config_value(cfg, key, reader, path)
        try:
            loop = _replace_at(loop, field_path, value)
        except ValueError as exc:
            if key in flags:
                raise
            raise FormatError(f"{path}: {key}: {exc}") from None
    return loop


def _read_annotation_file(path):
    with _open_text(path) as handle:
        return dataset.read_annotations(handle, filename=str(path))


def _read_probs_file(path):
    """The ExternalProbsTable of a probability file; a malformed record is a
    FormatError that starts with the path."""
    with _open_text(path) as handle:
        try:
            return load_external_probs(handle)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from None


def _read_token_corpus(token_dir):
    """Unlabeled paragraphs from `<paper_id>.txt` token files in a directory."""
    paragraphs = []
    names = sorted(n for n in os.listdir(token_dir) if n.endswith(".txt"))
    if not names:
        raise FileNotFoundError(f"no .txt token files in {token_dir}")
    for name in names:
        paper_id = name[: -len(".txt")]
        path = os.path.join(token_dir, name)
        try:
            dataset.check_paper_id(paper_id)  # before the file is read
            with open(path, encoding="utf-8") as handle:
                doc = corpus_ingest.read_token_file(handle, paper_id=paper_id)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None
        for i, words in enumerate(doc.paragraphs):
            paragraphs.append(
                dataset.AnnotatedParagraph(
                    paper_id=paper_id,
                    paragraph_index=i,
                    words=words,
                    provenance="unannotated",
                )
            )
    return paragraphs


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _urllib_fetcher(url: str) -> bytes:
    import urllib.request  # only `ingest --fetch` downloads; kept out of start-up

    with urllib.request.urlopen(url, timeout=60) as response:
        return response.read()


def cmd_ingest(args) -> int:
    with _open_text(args.bibfile) as handle:
        parsed = corpus_ingest.parse_bibtex(handle)
    with atomic_write(args.csv) as handle:
        rows = corpus_ingest.write_catalog_csv(parsed.records, handle)
    if parsed.non_entries:
        print(f"skipped {parsed.non_entries} @comment, @preamble and @string entries",
              file=sys.stderr)
    if parsed.skipped:
        print(f"skipped {parsed.skipped} malformed entries:", file=sys.stderr)
        for error in parsed.errors:
            print(f"  {error}", file=sys.stderr)
    print(f"cataloged {rows} papers -> {args.csv}")
    if not args.fetch:
        return 0
    manifest = corpus_ingest.fetch_pdfs(
        parsed.records,
        _urllib_fetcher,
        args.pdf_dir,
        max_attempts=args.max_attempts,
        parallelism=args.parallelism,
    )
    with atomic_write(args.manifest) as handle:
        corpus_ingest.write_manifest(manifest, handle)
    print(f"downloaded {manifest.summary()} of the PDFs")
    return 1 if manifest.failed_count else 0


def cmd_partition(args) -> int:
    with _open_text(args.catalog) as handle:
        try:
            catalog = corpus_ingest.read_catalog_csv(handle)
        except FormatError as exc:
            raise FormatError(f"{args.catalog}: {exc}") from None
    manual_ids: list[str] = []
    if args.manual_ids:
        with _open_text(args.manual_ids) as handle:
            manual_ids = [line.strip() for line in handle if line.strip()]
    part = dataset.partition_corpus(catalog, manual_ids)
    with atomic_write(args.out) as handle:
        for category in ("manual", "auto", "unannotated"):
            for pid in sorted(getattr(part, category)):
                handle.write(f"{pid}\t{category}\n")
    print(f"manual={len(part.manual)} auto={len(part.auto)} unannotated={len(part.unannotated)}")
    return 0


def _resolve_run_dir(args, cfg, loop_cfg) -> str:
    if getattr(args, "run_dir", None):
        return args.run_dir
    if cfg["run_dir"]:
        return cfg["run_dir"]
    env = os.environ.get(RUN_DIR_ENV)
    if env:
        return env
    return os.path.join("runs", loop_cfg.config_hash())


def cmd_loop(args) -> int:
    cfg = read_config(args.config)
    flags = [key for key in ("iterations", "gamma", "seed")
             if getattr(args, key, None) is not None]
    for key in flags:
        cfg[key] = str(getattr(args, key))
    for key in ("train_annotations", "test_annotations", "token_dir"):
        if not cfg[key]:
            raise FileNotFoundError(f"config is missing {key}")
        if not os.path.exists(cfg[key]):
            raise FileNotFoundError(f"{key} does not exist: {cfg[key]}")
    loop_cfg = _loop_config(cfg, args.config, flags)
    run_dir = _resolve_run_dir(args, cfg, loop_cfg)

    manual = _read_annotation_file(cfg["train_annotations"])
    test = _read_annotation_file(cfg["test_annotations"])
    draws = _config_value(cfg, "draws", int, args.config)
    draw_size = _config_value(cfg, "draw_size", int, args.config)
    try:
        evaluation.check_draws(draws, draw_size, len(test))  # before any training
    except ValueError as exc:
        key = "draws" if draws < 1 else "draw_size"
        raise FormatError(f"{args.config}: {key}: {exc}") from None
    auto_corpus = _read_token_corpus(cfg["token_dir"])

    records, _ = selftrain.run_loop(
        manual, auto_corpus, loop_cfg, test_set=test,
        run_dir=run_dir, resume=args.resume,
    )
    for record in records:
        for warning in record.warnings:
            print(warning, file=sys.stderr)
        stats = record.gate_stats
        line = (
            f"iteration {record.iteration}: {stats.total_words} words, "
            f"amb {100.0 * stats.amb_fraction:.1f}%"
        )
        if record.metrics:
            line += (
                f", step1 span F1 {record.metrics['step1']['span_f1']:.4f}"
                f", step3 span F1 {record.metrics['step3']['span_f1']:.4f}"
            )
        print(line)

    result = evaluation.bootstrap_compare(
        test, records[0].test_predictions, records[-1].test_predictions,
        draws=draws, draw_size=draw_size, seed=loop_cfg.seed,
    )
    table = result.render(name_a="iteration 1", name_b="final")
    print(table)
    with atomic_write(os.path.join(run_dir, "comparison.json")) as handle:
        json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
    return 0


def cmd_annotate(args) -> int:
    gate = GateConfig(args.gamma)
    if args.model is not None:
        source = TaggerModel.load(args.model)
    else:
        source = _read_probs_file(args.probs)
    paragraphs = _read_token_corpus(args.token_dir)
    annotated, stats = annotate_corpus(source, paragraphs, gate)
    with atomic_write(args.out) as handle:
        dataset.write_annotations(annotated, handle)
    print(stats.render())
    if args.stats_json:
        with atomic_write(args.stats_json) as handle:
            json.dump(stats.to_dict(), handle, indent=2, sort_keys=True)
    return 0


def cmd_eval(args) -> int:
    gold = _read_annotation_file(args.gold)
    pred_a = _read_annotation_file(args.predictions)
    if args.predictions_b is None:
        metrics = evaluation.score(gold, pred_a)
        if args.json:
            print(evaluation.metrics_json(metrics))
        else:
            print(metrics.render())
        return 0
    pred_b = _read_annotation_file(args.predictions_b)
    result = evaluation.bootstrap_compare(
        gold, pred_a, pred_b,
        draws=args.draws, draw_size=args.draw_size, seed=args.seed,
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.render())
    return 0


def cmd_counts(args) -> int:
    paragraphs = _read_annotation_file(args.annotations)
    counts = evaluation.label_counts(paragraphs)
    print(evaluation.render_label_counts(counts))
    return 0


def cmd_diff(args) -> int:
    gold = _read_annotation_file(args.gold)
    pred = _read_annotation_file(args.predictions)
    evaluation.diff_report(gold, pred, sink=sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sciner",
        description="Self-training pipeline for scientific named-entity recognition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a BibTeX file into the catalog CSV")
    p.add_argument("bibfile")
    p.add_argument("--csv", required=True, help="catalog CSV output path")
    p.add_argument("--fetch", action="store_true", help="also download the PDFs")
    p.add_argument("--pdf-dir", default="pdfs")
    p.add_argument("--manifest", default="manifest.tsv")
    p.add_argument("--max-attempts", type=int, default=3)
    p.add_argument("--parallelism", type=int, default=1)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("partition", help="split the catalog into manual/auto/unannotated")
    p.add_argument("catalog")
    p.add_argument("--manual-ids", help="file with one manually annotated paper id per line")
    p.add_argument("--out", required=True, help="partition file output path")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("loop", help="run the iterative self-training loop")
    p.add_argument("--config", required=True, help="key=value run configuration file")
    p.add_argument("--iterations", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--run-dir", help=f"run directory (default: config, then ${RUN_DIR_ENV})")
    p.add_argument("--resume", action="store_true", help="reuse persisted iteration artifacts")
    p.set_defaults(func=cmd_loop)

    p = sub.add_parser("annotate", help="auto-annotate token files with a trained model "
                                        "or an outside encoder's probabilities")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", help="trained model file (.npz)")
    source.add_argument("--probs", help="per-subword probability file (JSON lines)")
    p.add_argument("--tokens", dest="token_dir", required=True, help="directory of <paper_id>.txt files")
    p.add_argument("--out", required=True, help="annotation file output path")
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--parallelism", type=int, default=1, help="accepted and ignored")
    p.add_argument("--stats-json", help="also write gate statistics as JSON")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("eval", help="score predictions, or bootstrap-compare two models")
    p.add_argument("gold")
    p.add_argument("predictions")
    p.add_argument("predictions_b", nargs="?", help="second model's predictions")
    p.add_argument("--draws", type=int, default=_BOOTSTRAP_DEFAULTS["draws"].default)
    p.add_argument("--draw-size", type=int, default=_BOOTSTRAP_DEFAULTS["draw_size"].default)
    p.add_argument("--seed", type=int, default=_BOOTSTRAP_DEFAULTS["seed"].default)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("counts", help="per-label histogram (O omitted)")
    p.add_argument("annotations")
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("diff", help="gold-vs-predicted diff report")
    p.add_argument("gold")
    p.add_argument("predictions")
    p.set_defaults(func=cmd_diff)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
