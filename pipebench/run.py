"""Pipeline benchmark for sciner.

    python3 pipebench/run.py --workload loop --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each workload is generated from `synth` with
the given seed during set-up; the program under test sees only the generated
files.  Commands run one after another in a fresh process each (one client,
closed loop) until `--seconds` have passed, and every command's output is
checked.  Every timing is scaled to a fixed host speed measured by a probe
that shares the commands' CPU (speedprobe.py).  The last line of standard
output is the JSON result; the line before it holds the run's metadata.

With `--trace 1` the same untraced commands run first, then one more command
with the public functions in tracer.TARGETS wrapped; the result then holds
the per-layer metrics of BENCHMARK.json instead of the end-to-end ones.
README.md in this directory says why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import speedprobe
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

# Seeds 1-10 were used while this benchmark was written.  HOLDOUT_SEED is kept
# out of that work: confirm a claimed gain on it before accepting the claim.
HOLDOUT_SEED = 7919

# set-up repeats until it has run SETUP_REPS times and for SETUP_MIN_S in all;
# setup_s is the median.  The host's speed changes from one second to the next,
# so a set-up of a few milliseconds (loop's) is repeated over several seconds.
SETUP_REPS = 3
SETUP_MIN_S = 3.0
RUN_BUDGET = 170.0      # seconds from start; a run must end within 180
STARTED = time.perf_counter()
GAMMA = 0.98
LOOP_ITERATIONS = 2

# acceptance-5 configuration, in the CLI's config-file keys
LOOP_CONFIG = {
    "iterations": LOOP_ITERATIONS,
    "gamma": GAMMA,
    "seed": 42,
    "parallelism": 1,
    "step1_epochs": 20,
    "step1_learning_rate": 16.0,
    "step1_batch_size": 8,
    "step3_epochs": 5,
    "step3_learning_rate": 16.0,
    "step3_batch_size": 8,
}
# the model the annotation workloads apply, trained at set-up (as in acceptance 8)
MODEL_TRAIN = {"epochs": 20, "learning_rate": 16.0, "batch_size": 8, "seed": 1}

# output names inside each command's own directory
OUT, STATS, RUN_DIR = "out.ann", "stats.json", "run"

SIZES = {  # (manual, auto, test) paragraphs
    "loop": (100, 300, 100),
    "annotate": (100, 10_000, 0),
    "external_probs": (100, 2_000, 0),
}


@dataclass
class Inputs:
    """Generated inputs of one workload and what the checks compare against."""

    command: dict     # child.py command; OUT, STATS and RUN_DIR stand for its outputs
    gold: list        # gold paragraphs, in the order the command reads them
    facts: dict       # input sizes, reported as metadata


def _write_token_dir(path, paragraphs):
    """One `<paper_id>.txt` per paper; returns the paragraphs in reading order."""
    from sciner import corpus_ingest

    os.makedirs(path)
    by_paper: dict[str, list] = {}
    for p in paragraphs:
        by_paper.setdefault(p.paper_id, []).append(p)
    ordered = []
    for paper_id in sorted(by_paper):
        pars = sorted(by_paper[paper_id], key=lambda p: p.paragraph_index)
        if [p.paragraph_index for p in pars] != list(range(len(pars))):
            raise RuntimeError(f"synthetic paper {paper_id} has gaps in its paragraphs")
        doc = corpus_ingest.TokenizedDocument(paper_id, [p.words for p in pars])
        with open(os.path.join(path, paper_id + ".txt"), "w", encoding="utf-8") as handle:
            corpus_ingest.write_token_file(doc, handle)
        ordered.extend(pars)
    return ordered


def _facts(paragraphs, records=0):
    words = [w for p in paragraphs for w in p.words]
    return {
        "paragraphs": len(paragraphs),
        "words": len(words),
        "subwords": sum(math.ceil(len(w) / 4) for w in words),
        "probability_records": records,
    }


def _train_model(manual):
    from sciner import dataset, tagger

    return tagger.train(dataset.merge_for_retraining(manual, []),
                        tagger.TrainConfig(**MODEL_TRAIN))


def setup_loop(seed, idir):
    from sciner import dataset, synth

    corpus = synth.make_corpus(*SIZES["loop"], seed=seed)
    os.makedirs(idir)
    paths = {name: os.path.join(idir, name) for name in ("manual.ann", "test.ann", "tokens", "run.cfg")}
    for name, pars in (("manual.ann", corpus.manual), ("test.ann", corpus.test)):
        with open(paths[name], "w", encoding="utf-8") as handle:
            dataset.write_annotations(pars, handle)
    _write_token_dir(paths["tokens"], corpus.auto_inputs)
    config = dict(LOOP_CONFIG, train_annotations=paths["manual.ann"],
                  test_annotations=paths["test.ann"], token_dir=paths["tokens"])
    with open(paths["run.cfg"], "w", encoding="utf-8") as handle:
        handle.writelines(f"{key}={value}\n" for key, value in config.items())
    command = {"kind": "cli", "argv": ["loop", "--config", paths["run.cfg"], "--run-dir", RUN_DIR]}
    facts = _facts(corpus.manual + corpus.auto_inputs + corpus.test)
    return Inputs(command, corpus.test, facts)


def setup_annotate(seed, idir):
    from sciner import synth

    corpus = synth.make_corpus(*SIZES["annotate"], seed=seed)
    os.makedirs(idir)
    model_path = os.path.join(idir, "model.npz")
    _train_model(corpus.manual).save(model_path)
    gold = _write_token_dir(os.path.join(idir, "tokens"), corpus.auto_gold)
    command = {
        "kind": "cli",
        "argv": ["annotate", "--model", model_path, "--tokens", os.path.join(idir, "tokens"),
                 "--gamma", str(GAMMA), "--parallelism", "1",
                 "--out", OUT, "--stats-json", STATS],
    }
    return Inputs(command, gold, _facts(gold))


def setup_external_probs(seed, idir):
    from sciner import synth, tagger
    from sciner.tag_schema import NUM_CLASSES

    corpus = synth.make_corpus(*SIZES["external_probs"], seed=seed)
    os.makedirs(idir)
    model = _train_model(corpus.manual)
    gold = _write_token_dir(os.path.join(idir, "tokens"), corpus.auto_gold)
    probs_path = os.path.join(idir, "probs.jsonl")
    # %.17g round-trips a float64 exactly, like json.dumps, in less time
    line = ('{"paper_id": "%s", "paragraph": %d, "word_index": %d, "subword_index": %d, '
            '"probs": [' + ", ".join(["%.17g"] * NUM_CLASSES) + ']}\n')
    records = 0
    with open(probs_path, "w", encoding="utf-8") as handle:
        for p in gold:
            previous, subword = -1, 0
            for tp in tagger.predict_probs(model, p.words):
                subword = subword + 1 if tp.word_index == previous else 0
                previous = tp.word_index
                handle.write(line % (p.paper_id, p.paragraph_index, tp.word_index, subword,
                                     *tp.distribution.tolist()))
                records += 1
    command = {"kind": "external_probs", "token_dir": os.path.join(idir, "tokens"),
               "probs": probs_path, "gamma": GAMMA, "out": OUT, "stats_json": STATS}
    return Inputs(command, gold, _facts(gold, records))


SETUPS = {"loop": setup_loop, "annotate": setup_annotate, "external_probs": setup_external_probs}


# ---------------------------------------------------------------------------
# one command
# ---------------------------------------------------------------------------

def _bind_outputs(value, cdir):
    """`value` with each output placeholder replaced by its path in `cdir`."""
    if isinstance(value, list):
        return [_bind_outputs(v, cdir) for v in value]
    if value in (OUT, STATS, RUN_DIR):
        return os.path.join(cdir, value)
    return value


def run_command(inputs, cdir, trace_out=None):
    """Run one command in a child process; returns (start, end, peak_rss_mb)."""
    os.makedirs(cdir)
    command = {key: _bind_outputs(value, cdir) for key, value in inputs.command.items()}
    command["trace_out"] = trace_out
    command_path = os.path.join(cdir, "command.json")
    report_path = os.path.join(cdir, "report.json")
    with open(command_path, "w", encoding="utf-8") as handle:
        json.dump(command, handle)
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), command_path, report_path],
        cwd=cdir, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=max(1.0, RUN_BUDGET - (started - STARTED)),
    )
    ended = time.perf_counter()
    if proc.returncode != 0:
        raise RuntimeError(f"command process exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    if report["rc"] != 0:
        raise RuntimeError(f"sciner exited {report['rc']}: {proc.stderr[-2000:]}")
    return started, ended, report["maxrss_kb"] / 1024.0


def check_output(workload, inputs, cdir, seen_digests):
    """Check one command's output; returns (span F1, gated precision).

    Annotation outputs of one run must be byte-identical (the pipeline is
    deterministic), so a file whose digest was already checked is not
    re-read.
    """
    import checks

    if workload == "loop":
        return checks.check_loop(os.path.join(cdir, RUN_DIR), LOOP_ITERATIONS, inputs.gold, GAMMA)
    out = os.path.join(cdir, OUT)
    with open(out, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    if seen_digests and digest not in seen_digests:
        raise checks.CheckError("annotation file differs from the run's first output")
    if digest not in seen_digests:
        seen_digests[digest] = checks.check_annotations(out, os.path.join(cdir, STATS), inputs.gold)
    return seen_digests[digest]


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def _git(*args):
    try:
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                              timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def run_metadata(workload, seed, facts):
    import numpy

    from sciner import kernels

    revision = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # a plain export has no history
        revision = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    src_lines = 0
    for dirpath, _, names in os.walk(SRC):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as handle:
                    src_lines += sum(1 for _ in handle)
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "git_revision": revision,
        "git_dirty": dirty,
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels_backend": kernels.BACKEND,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "inputs": facts,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def measure(workload, seed, seconds, trace, wdir):
    # import the package before set-up is timed: it is paid once per process
    import checks  # noqa: F401
    from sciner import synth  # noqa: F401

    with speedprobe.SpeedProbe() as probe:
        setups = []   # (start, end) of each set-up
        idir = os.path.join(wdir, "inputs")
        while len(setups) < SETUP_REPS or sum(b - a for a, b in setups) < SETUP_MIN_S:
            shutil.rmtree(idir, ignore_errors=True)
            started = time.perf_counter()
            inputs = SETUPS[workload](seed, idir)
            setups.append((started, time.perf_counter()))

        commands, rss, quality = [], [], []   # commands: (start, end) of each untraced command
        attempted = failed = 0
        seen_digests: dict = {}

        def attempt(cdir, trace_out=None):
            nonlocal attempted, failed
            attempted += 1
            try:
                begun, ended, peak = run_command(inputs, cdir, trace_out)
                result = check_output(workload, inputs, cdir, seen_digests)
            except Exception as exc:  # any failure of the command or its check counts against it
                failed += 1
                print(f"pipebench: {workload} command {attempted} failed: {exc}", file=sys.stderr)
                return None
            finally:
                shutil.rmtree(cdir, ignore_errors=True)
            if trace_out is None:
                commands.append((begun, ended))
                rss.append(peak)
                quality.append(result)
            return begun, ended

        def last_wall():
            return commands[-1][1] - commands[-1][0] if commands else 0.0

        started = time.perf_counter()
        # a command starts only if one as long as the last still ends within `seconds`
        while attempted == 0 or time.perf_counter() - started + last_wall() < seconds:
            attempt(os.path.join(wdir, "command"))
            if commands and time.perf_counter() + (1 + trace) * last_wall() > STARTED + RUN_BUDGET:
                break
        traced = None
        if trace:
            trace_path = os.path.join(wdir, "spans.json")
            traced = attempt(os.path.join(wdir, "traced"), trace_path)
        probe.settle(time.perf_counter())

    # every timing is scaled to the probe's reference host speed (see speedprobe.py)
    setup_times = [probe.scaled(*interval) for interval in setups]
    walls = [probe.scaled(*interval) for interval in commands]
    values: dict[str, float] = {}
    if walls:
        wall = statistics.median(walls)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "words_per_s": inputs.facts["words"] / wall,
            "peak_rss_mb": statistics.median(rss),
            "span_f1": statistics.median(q[0] for q in quality),
            "gated_precision": statistics.median(q[1] for q in quality),
        }
    if traced is not None:
        factor = probe.factor(*traced)
        with open(trace_path, encoding="utf-8") as handle:
            layers = tracer.layer_metrics(json.load(handle), inputs.facts["paragraphs"])
        values.update({name: value / factor if name.endswith(".self_s") else value
                       for name, value in layers.items()})
        if walls:
            values["trace_overhead_s"] = probe.scaled(*traced) - wall
    meta = run_metadata(workload, seed, inputs.facts)
    meta.update(run_seconds=seconds, trace=trace, commands=len(walls),
                setup_s=setup_times, command_walls_s=walls,
                unscaled_setup_s=[b - a for a, b in setups],
                unscaled_command_walls_s=[b - a for a, b in commands],
                host_slowness=[probe.factor(*interval) for interval in commands])
    return attempted, failed, values, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "sciner", "__init__.py")):
        print(f"pipebench: no sciner sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    bad = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]
           if not tracer.valid_metric_name(m["name"])]
    if bad:
        print(f"pipebench: invalid metric names in BENCHMARK.json: {bad}", file=sys.stderr)
        return 2

    wdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    try:
        attempted, failed, values, meta = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), wdir)
    finally:
        shutil.rmtree(wdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        print(f"pipebench: no value for {', '.join(missing)} "
              f"({failed} of {attempted} commands failed)", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    print(json.dumps({"pipebench_meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
