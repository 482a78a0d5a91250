"""Span tracer that times the pipeline's public functions from outside.

`install` replaces each named function (module function, method or
classmethod) with a wrapper that opens a span on entry and closes it on exit.
Nothing inside the package is modified on disk.  A span is
`[name, start, end, parent]`, where `parent` indexes the span that was open
when this one started (-1 at the top).  Spans stay in memory until the caller
writes them out.

Generator functions are charged while they are iterated: each resumption is
its own span, opened under whichever span is consuming the generator, so a
consumer's self time excludes the producer's work.

The tracer keeps one span stack and assumes a single thread, which holds for
the benchmark's `parallelism=1` runs.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import re
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "sciner"

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


def valid_metric_name(name: str) -> bool:
    """Metric names: a letter or digit, then letters, digits, `_`, `.`, `-`; at most 64."""
    return bool(_NAME_RE.match(name))


@dataclass(frozen=True)
class Target:
    """A function to wrap, by dotted path below the package.

    `counts` maps a quantity to a function of the bound arguments and the
    result; its values are summed over calls.  `peaks` is the same but keeps
    the largest value of any one call.  For a generator function, `per_item`
    quantities add one for every item it yields.
    """

    path: str
    counts: dict = field(default_factory=dict)
    peaks: dict = field(default_factory=dict)
    per_item: tuple = ()


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.calls: collections.Counter = collections.Counter()
        self.counts: dict[str, float] = collections.defaultdict(int)
        self.count_errors = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def _record(self, target: Target, signature, args, kwargs, result) -> None:
        try:
            bound = signature.bind(*args, **kwargs).arguments
            for qty, get in target.counts.items():
                self.counts[f"{target.path}.{qty}"] += get(bound, result)
            for qty, get in target.peaks.items():
                key = f"{target.path}.{qty}"
                self.counts[key] = max(self.counts[key], get(bound, result))
        except Exception as exc:  # a counter must never break the traced program
            self.count_errors += 1
            print(f"pipebench: counter for {target.path} failed: {exc!r}", file=sys.stderr)

    def wrap(self, target: Target, fn):
        name = target.path
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                return self._iterate(target, fn(*args, **kwargs))

            return gen_wrapper

        signature = inspect.signature(fn) if target.counts or target.peaks else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if signature is not None:
                self._record(target, signature, args, kwargs, result)
            return result

        return wrapper

    def _iterate(self, target: Target, gen):
        try:
            while True:
                idx = self._open(target.path)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                for qty in target.per_item:
                    self.counts[f"{target.path}.{qty}"] += 1
                yield item
        finally:
            gen.close()

    # -- installation ----------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap every target wherever the package holds a reference to it.

        A target the package no longer has is listed in `missing`; its
        metrics then read 0.
        """
        for target in targets:
            module_name, _, rest = target.path.partition(".")
            *owners, attr = rest.split(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                for part in owners:
                    owner = getattr(owner, part)
                getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(target.path)
                continue
            if owners:  # a method on a class
                raw = vars(owner)[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self.wrap(target, raw.__func__))
                else:
                    wrapped = self.wrap(target, raw)
                self._swap(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(target, original)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._swap(module, name, wrapped)

    def _swap(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "count_errors": self.count_errors,
            "missing": self.missing,
        }


def self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of that interval that
    its child spans cover (overlapping children are counted once).
    """
    children = collections.defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, float] = collections.defaultdict(float)
    for idx, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[name] += (end - start) - covered
    return dict(out)


# ---------------------------------------------------------------------------
# The layers the benchmark times.  Counts are read from the arguments that
# every kernel shares (feat / offsets / scores), so they do not depend on how
# a kernel is implemented.
# ---------------------------------------------------------------------------

NUM_CLASSES = 15
BYTES_PER_MB = 1e6

TARGETS = (
    Target("kernels.epoch_sgd", counts={"subwords": lambda a, r: len(a["offsets"]) - 1}),
    Target(
        "kernels.score_subwords",
        counts={"subwords": lambda a, r: len(a["offsets"]) - 1},
        # computed, not measured: the float64 (len(feat), 15) array that a
        # weights[feat] gather builds; the largest single call
        peaks={"gather_mb": lambda a, r: len(a["feat"]) * NUM_CLASSES * 8 / BYTES_PER_MB},
    ),
    Target("kernels.aggregate_words", counts={"words": lambda a, r: int(a["n_words"])}),
    Target("kernels.decode_constrained", counts={"words": lambda a, r: len(a["scores"])}),
    Target("tagger.Featurizer.paragraph_arrays"),
    Target("tagger.prepare_examples"),
    Target("tagger.train"),
    Target("tagger.TaggerModel.save"),
    Target("tagger.TaggerModel.load"),
    Target("tagger.load_external_probs", per_item=("records",)),
    Target("tagger.group_external_probs"),
    Target("autoannotate.annotate_corpus", counts={"paragraphs": lambda a, r: len(r[0])}),
    Target("corpus_ingest.read_token_file", counts={"paragraphs": lambda a, r: len(r.paragraphs)}),
    # the sink is a fresh file, so its position afterwards is the bytes written
    Target("dataset.write_annotations", counts={"bytes": lambda a, r: a["sink"].tell()}),
    Target("dataset.read_annotations"),
    Target("dataset.merge_for_retraining"),
    Target("selftrain.run_iteration"),
    Target("evaluation.score"),
    Target("evaluation.bootstrap_compare"),
    Target("cli.main"),
)


def layer_metrics(trace: dict, distinct_paragraphs: int) -> dict[str, float]:
    """Per-layer metric values from a dumped trace; absent layers read 0."""
    selfs = self_times(trace["spans"])
    out: dict[str, float] = {}
    for target in TARGETS:
        out[f"{target.path}.self_s"] = selfs.get(target.path, 0.0)
        out[f"{target.path}.calls"] = trace["calls"].get(target.path, 0)
        for qty in (*target.counts, *target.peaks, *target.per_item):
            key = f"{target.path}.{qty}"
            out[key] = trace["counts"].get(key, 0)
    featurize_calls = out["tagger.Featurizer.paragraph_arrays.calls"]
    out["tagger.featurize.per_paragraph"] = (
        featurize_calls / distinct_paragraphs if distinct_paragraphs else 0.0
    )
    return out
