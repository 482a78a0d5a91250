"""Tests of the benchmark's own logic: span accounting, names and output checks.

    python3 -m pytest pipebench
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import speedprobe  # noqa: E402
import tracer  # noqa: E402
from tracer import Target, Tracer, self_times, valid_metric_name  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 7.0, 0],
        ["b", 8.0, 9.0, 0],
    ]
    assert self_times(spans) == {"a": 4.0, "b": 3.0, "c": 1.0, "d": 2.0}


def test_self_time_counts_overlapping_children_once():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 5.0, 0], ["c", 3.0, 6.0, 0], ["d", 9.0, 12.0, 0]]
    assert self_times(spans)["a"] == pytest.approx(10.0 - 5.0 - 1.0)


def test_wrapped_calls_nest_and_count():
    clock = FakeClock()
    t = Tracer(clock)

    def inner(n_words):
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        wrapped_inner(3)
        wrapped_inner(4)

    wrapped_inner = t.wrap(Target("m.inner", counts={"words": lambda a, r: a["n_words"]}), inner)
    t.wrap(Target("m.outer"), outer)()
    assert self_times(t.spans) == {"m.outer": 1.0, "m.inner": 4.0}
    assert t.calls == {"m.outer": 1, "m.inner": 2}
    assert t.counts["m.inner.words"] == 7


def test_generator_is_charged_while_iterated():
    clock = FakeClock()
    t = Tracer(clock)

    def produce(n):
        for i in range(n):
            clock.now += 5.0
            yield i

    def consume(records):
        clock.now += 1.0
        total = 0
        for item in records:
            clock.now += 1.0
            total += item
        return total

    producer = t.wrap(Target("m.produce", per_item=("records",)), produce)
    consumer = t.wrap(Target("m.consume"), consume)
    records = producer(3)
    clock.now += 100.0  # time between creating the generator and iterating it
    assert t.spans == []
    assert consumer(records) == 3
    selfs = self_times(t.spans)
    assert selfs["m.produce"] == 15.0
    assert selfs["m.consume"] == 4.0
    assert t.calls["m.produce"] == 1
    assert t.counts["m.produce.records"] == 3
    assert all(t.spans[parent][0] == "m.consume" for name, _, _, parent in t.spans
               if name == "m.produce")


def test_install_wraps_every_reference_and_uninstall_restores(tmp_path):
    from sciner import autoannotate, cli, selftrain, tagger

    originals = (tagger.train, selftrain.train, autoannotate.annotate_corpus,
                 cli.annotate_corpus, vars(tagger.TaggerModel)["load"])
    t = Tracer()
    t.install(tracer.TARGETS + (Target("tagger.no_such_function"),))
    try:
        assert selftrain.train is tagger.train is not originals[0]
        assert cli.annotate_corpus is autoannotate.annotate_corpus is not originals[2]
        path = tmp_path / "m.npz"
        tagger.TaggerModel.fresh(hash_dim=8).save(path)
        assert tagger.TaggerModel.load(path).hash_dim == 8
        assert t.calls["tagger.TaggerModel.load"] == 1
        assert t.missing == ["tagger.no_such_function"]
    finally:
        t.uninstall()
    assert (tagger.train, selftrain.train, autoannotate.annotate_corpus,
            cli.annotate_corpus, vars(tagger.TaggerModel)["load"]) == originals


def test_layer_metrics_reads_zero_for_layers_not_called():
    out = tracer.layer_metrics({"spans": [], "calls": {}, "counts": {}}, 10)
    assert out["kernels.epoch_sgd.calls"] == 0
    assert out["tagger.featurize.per_paragraph"] == 0.0


# ---------------------------------------------------------------------------
# names
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["setup_s", "kernels.epoch_sgd.self_s", "a-b.c_d", "9x"])
def test_valid_metric_names(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "wall(s)", "é", "x" * 65])
def test_invalid_metric_names(name):
    assert not valid_metric_name(name)


def test_benchmark_json_names_units_and_layers():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(valid_metric_name(n) for n in names)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.\-]{1,16}", m["unit"])
               for m in spec["end_to_end"] + spec["per_layer"])
    produced = tracer.layer_metrics({"spans": [], "calls": {}, "counts": {}}, 1)
    produced["trace_overhead_s"] = 0.0
    assert {m["name"] for m in spec["per_layer"]} == set(produced)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _gold():
    from sciner.dataset import AnnotatedParagraph

    pid = "ab" * 32
    return [
        AnnotatedParagraph(pid, 0, ["We", "use", "AlignNet", "."],
                           ["O", "O", "B-MethodName", "O"], provenance="manual"),
        AnnotatedParagraph(pid, 1, ["It", "helps", "."], ["O", "O", "O"], provenance="manual"),
    ]


def _write(tmp_path, paragraphs_labels, gold):
    """Annotation file with the given labels per paragraph, plus its stats file."""
    lines = []
    accepted: dict[str, int] = {}
    amb = 0
    for g, labels in zip(gold, paragraphs_labels):
        lines.append(f"# paper_id={g.paper_id} paragraph={g.paragraph_index} provenance=auto")
        for word, label in zip(g.words, labels):
            lines.append(f"{word}\t{label}\t0.99")
            if label == "amb":
                amb += 1
            else:
                accepted[label] = accepted.get(label, 0) + 1
        lines.append("")
    out, stats = tmp_path / "out.ann", tmp_path / "stats.json"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    total = sum(len(labels) for labels in paragraphs_labels)
    stats.write_text(json.dumps({"total_words": total, "amb_words": amb, "accepted": accepted}))
    return str(out), str(stats)


def test_check_accepts_correct_annotations(tmp_path):
    gold = _gold()
    out, stats = _write(tmp_path, [["O", "O", "B-MethodName", "O"], ["O", "amb", "O"]], gold)
    span_f1, precision = checks.check_annotations(out, stats, gold)
    assert span_f1 == 1.0
    assert precision == 1.0


def test_check_rejects_o_to_inside_transition(tmp_path):
    gold = _gold()
    out, stats = _write(tmp_path, [["O", "O", "I-MethodName", "O"], ["O", "O", "O"]], gold)
    with pytest.raises(checks.CheckError, match="illegal transition"):
        checks.check_annotations(out, stats, gold)


def test_check_rejects_missing_paragraph(tmp_path):
    gold = _gold()
    out, stats = _write(tmp_path, [["O", "O", "B-MethodName", "O"]], gold[:1])
    with pytest.raises(checks.CheckError, match="1 paragraphs written, 2 expected"):
        checks.check_annotations(out, stats, gold)


def test_check_rejects_stats_that_do_not_add_up(tmp_path):
    gold = _gold()
    out, stats = _write(tmp_path, [["O", "O", "B-MethodName", "O"], ["O", "O", "O"]], gold)
    data = json.loads(open(stats).read())
    data["accepted"]["O"] -= 1
    with open(stats, "w") as handle:
        json.dump(data, handle)
    with pytest.raises(checks.CheckError, match="accepted"):
        checks.check_annotations(out, stats, gold)


# ---------------------------------------------------------------------------
# host speed probe
# ---------------------------------------------------------------------------

def test_speed_probe_scales_by_the_mean_probe_time_around_an_interval():
    ref = speedprobe.REFERENCE_S
    probe = speedprobe.SpeedProbe()
    probe.samples = [(0.9, 3 * ref), (1.5, ref), (2.1, 2 * ref), (9.0, 10 * ref)]
    assert probe.factor(1.0, 2.0) == pytest.approx(2.0)   # 0.9 and 2.1 lie within WINDOW_S
    assert probe.scaled(1.0, 2.0) == pytest.approx(0.5)
    with pytest.raises(RuntimeError, match="no sample"):
        probe.factor(4.0, 5.0)


def test_speed_probe_pins_samples_and_stops():
    before = os.sched_getaffinity(0)
    with speedprobe.SpeedProbe(period=0.01) as probe:
        assert os.sched_getaffinity(0) == {probe.cpu}
        while len(probe.samples) < 3:
            time.sleep(0.01)
    assert os.sched_getaffinity(0) == before
    assert not probe._thread.is_alive()
    assert all(cpu > 0 for _, cpu in probe.samples)


# ---------------------------------------------------------------------------
# the benchmark without the program
# ---------------------------------------------------------------------------

def test_run_fails_without_a_result_when_sources_are_absent(tmp_path):
    shutil.copytree(HERE, tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", "loop", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
