"""Runs one benchmark command in a fresh process, optionally traced.

    python3 pipebench/child.py <command.json> <report.json>

`command.json` holds {"kind": "cli", "argv": [...]} for a `sciner`
subcommand, or {"kind": "external_probs", ...} for the probability-file
pipeline.  With "trace_out" set, the public functions listed in
tracer.TARGETS are wrapped before the command runs and the spans are written
there afterwards.  The report holds the exit code and the process's peak RSS.
"""

from __future__ import annotations

import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def run_external_probs(command) -> int:
    """Token files + per-subword probability file -> annotation file."""
    from sciner import autoannotate, corpus_ingest, dataset, tagger

    paragraphs = []
    token_dir = command["token_dir"]
    for name in sorted(n for n in os.listdir(token_dir) if n.endswith(".txt")):
        paper_id = name[: -len(".txt")]
        with open(os.path.join(token_dir, name), encoding="utf-8") as handle:
            doc = corpus_ingest.read_token_file(handle, paper_id=paper_id)
        for i, words in enumerate(doc.paragraphs):
            paragraphs.append(dataset.AnnotatedParagraph(paper_id, i, words))
    with open(command["probs"], encoding="utf-8") as handle:
        annotated, stats = autoannotate.annotate_corpus(
            tagger.load_external_probs(handle), paragraphs,
            autoannotate.GateConfig(command["gamma"]),
        )
    with open(command["out"], "w", encoding="utf-8") as handle:
        dataset.write_annotations(annotated, handle)
    with open(command["stats_json"], "w", encoding="utf-8") as handle:
        json.dump(stats.to_dict(), handle)
    return 0


def main(command_path, report_path) -> int:
    with open(command_path, encoding="utf-8") as handle:
        command = json.load(handle)
    from sciner import cli

    tracer = None
    if command.get("trace_out"):
        from tracer import TARGETS, Tracer

        tracer = Tracer()
        tracer.install(TARGETS)
    if command["kind"] == "cli":
        with open(os.devnull, "w") as quiet:
            stdout, sys.stdout = sys.stdout, quiet
            try:
                rc = cli.main(command["argv"])
            finally:
                sys.stdout = stdout
    else:
        rc = run_external_probs(command)
    report = {"rc": rc, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        with open(command["trace_out"], "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
