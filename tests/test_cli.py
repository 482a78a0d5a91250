"""End-to-end command-line tests."""

import collections
import csv
import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

from sciner import autoannotate, cli, corpus_ingest, dataset, selftrain, synth, tagger
from sciner.errors import FormatError
from test_compact_model import UNREADABLE_KINDS, write_unreadable_model
from test_corpus_ingest import PROCEEDINGS_BIB
from test_selftrain import STEP_SEEDS, leaf_paths


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_token_dir(token_dir, paragraphs):
    """One `<paper_id>.txt` token file per paper of `paragraphs`."""
    token_dir.mkdir()
    by_paper = collections.defaultdict(list)
    for p in paragraphs:
        by_paper[p.paper_id].append(p)
    for pid, paras in by_paper.items():
        doc = corpus_ingest.TokenizedDocument(
            pid, [q.words for q in sorted(paras, key=lambda q: q.paragraph_index)]
        )
        with open(token_dir / f"{pid}.txt", "w", encoding="utf-8") as handle:
            corpus_ingest.write_token_file(doc, handle)


def write_probs_file(path, model, paragraphs):
    """The model's per-subword probabilities of `paragraphs` as a probability
    file, one record per subword, as an outside encoder would write it."""
    with open(path, "w", encoding="utf-8") as handle:
        for p in paragraphs:
            previous, subword = -1, 0
            for tp in tagger.predict_probs(model, p.words):
                subword = subword + 1 if tp.word_index == previous else 0
                previous = tp.word_index
                handle.write(json.dumps({
                    "paper_id": p.paper_id, "paragraph": p.paragraph_index,
                    "word_index": tp.word_index, "subword_index": subword,
                    "probs": tp.distribution.tolist(),
                }) + "\n")


@pytest.fixture(scope="module")
def corpus():
    return synth.make_corpus(n_manual=40, n_auto=120, n_test=60, seed=3)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, corpus):
    """Annotation files, token dir, and loop config for CLI runs."""
    root = tmp_path_factory.mktemp("cliws")
    with open(root / "train.ann", "w", encoding="utf-8") as handle:
        dataset.write_annotations(corpus.manual, handle)
    with open(root / "test.ann", "w", encoding="utf-8") as handle:
        dataset.write_annotations(corpus.test, handle)
    token_dir = root / "tokens"
    write_token_dir(token_dir, corpus.auto_inputs)
    config = root / "run.cfg"
    config.write_text(
        "# loop configuration for the cli test\n"
        f"train_annotations={root / 'train.ann'}\n"
        f"test_annotations={root / 'test.ann'}\n"
        f"token_dir={token_dir}\n"
        "iterations=2\n"
        "gamma=0.98\n"
        "seed=11\n"
        "hash_dim=16384\n"
        "step1_epochs=8\n"
        "step1_learning_rate=16.0\n"
        "step3_epochs=3\n"
        "step3_learning_rate=16.0\n"
        "draws=12\n"
        "draw_size=50\n",
        encoding="utf-8",
    )
    return root


class TestIngest:
    def test_valid_bib_exits_zero(self, tmp_path, capsys):
        bib = tmp_path / "anthology.bib"
        bib.write_text(PROCEEDINGS_BIB, encoding="utf-8")
        out_csv = tmp_path / "catalog.csv"
        code, out, err = run_cli(capsys, "ingest", str(bib), "--csv", str(out_csv))
        assert code == 0
        assert "cataloged 1 papers" in out
        header = out_csv.read_text(encoding="utf-8").splitlines()[0]
        assert header == corpus_ingest.CSV_HEADER

    def test_malformed_entries_reported_on_stderr(self, tmp_path, capsys):
        bib = tmp_path / "broken.bib"
        bib.write_text(
            '@article{a, title = "ok"}\n'
            "@article{b, title = {broken\n"
            "@article{c, title = {broken again\n"
            "@article{d, title = {third break\n"
            '@article{e, title = "fine"}\n',
            encoding="utf-8",
        )
        out_csv = tmp_path / "catalog.csv"
        code, out, err = run_cli(capsys, "ingest", str(bib), "--csv", str(out_csv))
        assert code == 0
        assert "skipped 3 malformed entries" in err
        assert len(out_csv.read_text(encoding="utf-8").splitlines()) == 3

    def test_non_entries_reported_on_stderr_apart(self, tmp_path, capsys):
        bib = tmp_path / "notes.bib"
        bib.write_text(
            PROCEEDINGS_BIB + "@comment{see @misc{x}}\n@preamble{\"p\"}\n"
            '@string{acl = "ACL"}\n@article{b, title = {broken\n',
            encoding="utf-8",
        )
        out_csv = tmp_path / "catalog.csv"
        code, out, err = run_cli(capsys, "ingest", str(bib), "--csv", str(out_csv))
        assert code == 0
        assert err.splitlines()[:2] == [
            "skipped 3 @comment, @preamble and @string entries",
            "skipped 1 malformed entries:",
        ]
        assert len(out_csv.read_text(encoding="utf-8").splitlines()) == 2

    def test_no_non_entries_no_report(self, tmp_path, capsys):
        bib = tmp_path / "anthology.bib"
        bib.write_text(PROCEEDINGS_BIB, encoding="utf-8")
        code, out, err = run_cli(capsys, "ingest", str(bib), "--csv", str(tmp_path / "c.csv"))
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("parallelism", ["0", "-3"])
    def test_fetch_parallelism_below_one_exits_two(self, tmp_path, capsys, monkeypatch,
                                                   parallelism):
        bib = tmp_path / "one.bib"
        bib.write_text('@article{a, title = "A", url = "https://x.test/a"}\n', encoding="utf-8")
        fetched = []
        monkeypatch.setattr(cli, "_urllib_fetcher", fetched.append)
        code, out, err = run_cli(
            capsys, "ingest", str(bib), "--csv", str(tmp_path / "c.csv"),
            "--fetch", "--pdf-dir", str(tmp_path / "pdfs"),
            "--manifest", str(tmp_path / "manifest.tsv"), "--parallelism", parallelism,
        )
        assert (code, err, fetched) == (2, "error: parallelism must be >= 1\n", [])
        assert not (tmp_path / "manifest.tsv").exists()

    def test_missing_bib_exits_two(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "ingest", str(tmp_path / "nope.bib"), "--csv", str(tmp_path / "x.csv")
        )
        assert code == 2
        assert "error" in err

    def test_fetch_partial_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        bib = tmp_path / "two.bib"
        bib.write_text(
            '@article{a, title = "A", url = "https://x.test/ok"}\n'
            '@article{b, title = "B", url = "https://x.test/bad"}\n',
            encoding="utf-8",
        )

        def fake_fetch(url):
            if url.endswith("bad"):
                raise IOError("404")
            return b"%PDF"

        monkeypatch.setattr(cli, "_urllib_fetcher", fake_fetch)
        code, out, err = run_cli(
            capsys, "ingest", str(bib), "--csv", str(tmp_path / "c.csv"),
            "--fetch", "--pdf-dir", str(tmp_path / "pdfs"),
            "--manifest", str(tmp_path / "manifest.tsv"), "--max-attempts", "1",
        )
        assert code == 1
        assert "1 (50.0%)" in out
        manifest = (tmp_path / "manifest.tsv").read_text(encoding="utf-8")
        assert "failed" in manifest and "ok" in manifest

    def test_fetch_duplicated_entry_exits_zero(self, tmp_path, capsys, monkeypatch):
        bib = tmp_path / "twice.bib"
        entry = '@article{a, title = "A", url = "https://x.test/a"}\n'
        bib.write_text(entry + entry, encoding="utf-8")
        calls = []
        monkeypatch.setattr(cli, "_urllib_fetcher", lambda url: calls.append(url) or b"%PDF")
        code, out, err = run_cli(
            capsys, "ingest", str(bib), "--csv", str(tmp_path / "c.csv"),
            "--fetch", "--pdf-dir", str(tmp_path / "pdfs"),
            "--manifest", str(tmp_path / "manifest.tsv"),
        )
        assert code == 0, err
        assert calls == ["https://x.test/a"]
        with open(tmp_path / "manifest.tsv", encoding="utf-8") as handle:
            manifest = corpus_ingest.read_manifest(handle)
        assert [(e.paper_id, e.status) for e in manifest.entries] == [
            (corpus_ingest.hash_url("https://x.test/a"), "ok")
        ]

    def test_import_leaves_out_urllib_request(self):
        # the child must import the same package, whether or not PYTHONPATH is set
        src = os.path.dirname(os.path.dirname(cli.__file__))
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, sciner.cli; print('urllib.request' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=pythonpath), capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"

    def test_urllib_fetcher_reads_file_url(self, tmp_path):
        pdf = tmp_path / "paper.pdf"
        pdf.write_bytes(b"%PDF-1.4 body")
        assert cli._urllib_fetcher(pdf.as_uri()) == b"%PDF-1.4 body"


class TestPartition:
    def make_catalog(self, tmp_path, n_auto=3, n_other=2):
        records = []
        for i in range(n_auto):
            records.append(corpus_ingest.PaperRecord(
                title=f"a{i}", url=f"https://x.test/a{i}",
                booktitle="NAACL 2022", year=2022,
            ))
        for i in range(n_other):
            records.append(corpus_ingest.PaperRecord(
                title=f"o{i}", url=f"https://x.test/o{i}",
                booktitle="COLING 2020", year=2020,
            ))
        path = tmp_path / "catalog.csv"
        with open(path, "w", encoding="utf-8") as handle:
            corpus_ingest.write_catalog_csv(records, handle)
        return path, records

    def test_counts_reported(self, tmp_path, capsys):
        path, records = self.make_catalog(tmp_path)
        ids = tmp_path / "manual.txt"
        ids.write_text(records[0].paper_id + "\n", encoding="utf-8")
        out_path = tmp_path / "partition.tsv"
        code, out, err = run_cli(
            capsys, "partition", str(path), "--manual-ids", str(ids),
            "--out", str(out_path),
        )
        assert code == 0
        assert "manual=1 auto=2 unannotated=2" in out
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 5
        assert all("\t" in line for line in lines)

    def test_empty_manual_list(self, tmp_path, capsys):
        path, _ = self.make_catalog(tmp_path)
        code, out, err = run_cli(
            capsys, "partition", str(path), "--out", str(tmp_path / "p.tsv")
        )
        assert code == 0
        assert "manual=0" in out

    def test_35_manual_ids_reported(self, tmp_path, capsys):
        path, records = self.make_catalog(tmp_path, n_auto=50, n_other=10)
        ids = tmp_path / "manual.txt"
        ids.write_text(
            "".join(r.paper_id + "\n" for r in records[:35]), encoding="utf-8"
        )
        code, out, err = run_cli(
            capsys, "partition", str(path), "--manual-ids", str(ids),
            "--out", str(tmp_path / "p.tsv"),
        )
        assert code == 0
        assert "manual=35 auto=15 unannotated=10" in out

    def test_unknown_manual_id_exits_two(self, tmp_path, capsys):
        path, _ = self.make_catalog(tmp_path)
        ids = tmp_path / "manual.txt"
        ids.write_text("f" * 64 + "\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "partition", str(path), "--manual-ids", str(ids),
            "--out", str(tmp_path / "p.tsv"),
        )
        assert code == 2
        assert "f" * 64 in err


    @pytest.mark.parametrize("body, message", [
        ("0,t\n", "catalog row 0: 2 columns, expected 11"),
        ("", "empty catalog: missing header"),
    ])
    def test_malformed_catalog_names_its_file(self, tmp_path, capsys, body, message):
        path = tmp_path / "catalog.csv"
        path.write_text((corpus_ingest.CSV_HEADER + "\n" if body else "") + body,
                        encoding="utf-8")
        out_path = tmp_path / "p.tsv"
        code, out, err = run_cli(capsys, "partition", str(path), "--out", str(out_path))
        assert code == 2
        assert err == f"error: {path}: {message}\n"
        assert not out_path.exists()


    def test_field_past_the_csv_limit_names_file_and_row(self, tmp_path, capsys):
        path = tmp_path / "catalog.csv"
        rows = [{"title": "short", "url": "https://x.test/a"},
                {"title": "x" * 200_000, "url": "https://x.test/b"}]
        # written past write_catalog_csv, which refuses a field over the limit
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(corpus_ingest.CSV_COLUMNS)
            for i, row in enumerate(rows):
                writer.writerow([str(i), *(row.get(name, "")
                                           for name in corpus_ingest.CSV_COLUMNS[1:])])
        code, out, err = run_cli(capsys, "partition", str(path), "--out", str(tmp_path / "p.tsv"))
        assert code == 2
        assert err.startswith(f"error: {path}: catalog row 1: field larger than field limit")


LATIN_1 = "caf\u00e9".encode("latin-1")  # 0xe9 starts no valid UTF-8 sequence here


class TestUndecodableInput:
    """A file that is not UTF-8 is an error that starts with its path."""

    @staticmethod
    def assert_names(err, path):
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xe9"), err

    def test_ingest_bibtex(self, tmp_path, capsys):
        bib = tmp_path / "latin.bib"
        bib.write_bytes(b"@article{x, title = {" + LATIN_1 + b"}}\n")
        code, out, err = run_cli(capsys, "ingest", str(bib), "--csv", str(tmp_path / "c.csv"))
        assert code == 2
        self.assert_names(err, bib)

    @pytest.mark.parametrize("which", ["catalog", "manual_ids"])
    def test_partition(self, tmp_path, capsys, which):
        catalog, _ = TestPartition().make_catalog(tmp_path)
        ids = tmp_path / "manual.txt"
        ids.write_text("x\n", encoding="utf-8")
        bad = catalog if which == "catalog" else ids
        bad.write_bytes(bad.read_bytes() + LATIN_1 + b"\n")
        code, out, err = run_cli(capsys, "partition", str(catalog), "--manual-ids", str(ids),
                                 "--out", str(tmp_path / "p.tsv"))
        assert code == 2
        self.assert_names(err, bad)

    @staticmethod
    def latin_copy(source, target):
        target.write_bytes(source.read_bytes() + b"# " + LATIN_1 + b"\n")
        return target

    def test_counts(self, workspace, tmp_path, capsys):
        bad = self.latin_copy(workspace / "train.ann", tmp_path / "train.ann")
        code, out, err = run_cli(capsys, "counts", str(bad))
        assert code == 2
        self.assert_names(err, bad)

    def test_eval(self, workspace, tmp_path, capsys):
        bad = self.latin_copy(workspace / "test.ann", tmp_path / "test.ann")
        code, out, err = run_cli(capsys, "eval", str(workspace / "test.ann"), str(bad))
        assert code == 2
        self.assert_names(err, bad)

    @pytest.mark.parametrize("which", ["config", "train_annotations"])
    def test_loop(self, workspace, tmp_path, capsys, which):
        config = tmp_path / "run.cfg"
        text = (workspace / "run.cfg").read_text(encoding="utf-8")
        if which == "config":
            bad = self.latin_copy(workspace / "run.cfg", config)
        else:
            bad = self.latin_copy(workspace / "train.ann", tmp_path / "train.ann")
            config.write_text(text + f"train_annotations={bad}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "loop", "--config", str(config),
                                 "--run-dir", str(tmp_path / "run"))
        assert code == 2
        self.assert_names(err, bad)
        assert not (tmp_path / "run").exists()


class TestLoop:
    def test_loop_produces_records_and_report(self, workspace, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code, out, err = run_cli(
            capsys, "loop", "--config", str(workspace / "run.cfg"),
            "--run-dir", str(run_dir),
        )
        assert code == 0
        assert (run_dir / "iteration_01.json").exists()
        assert (run_dir / "iteration_02.json").exists()
        assert (run_dir / "comparison.json").exists()
        assert "iteration 1:" in out
        assert "bootstrap: 12 draws of 50" in out
        assert "span_f1" in out

    def test_loop_leaves_out_orjson(self, workspace, tmp_path):
        """Only the probability-file reader imports orjson."""
        code = (
            "import io, sys\n"
            "from sciner import cli, tagger\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print('orjson' in sys.modules)\n"
            "tagger.load_external_probs(io.StringIO(''))\n"
            "print('orjson' in sys.modules)\n"
        )
        # the child must import the same package, whether or not PYTHONPATH is set
        src = os.path.dirname(os.path.dirname(cli.__file__))
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code, "loop", "--config", str(workspace / "run.cfg"),
             "--run-dir", str(tmp_path / "run")],
            env=dict(os.environ, PYTHONPATH=pythonpath), capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.splitlines()[-2:] == ["False", "True"]

    def test_gate_warning_on_stderr_and_again_on_resume(self, workspace, corpus, tmp_path,
                                                        capsys):
        # the set-up of test_all_amb_gate_degrades_to_manual_training: gamma
        # 1.0 with a model whose probabilities are all below 1
        config = tmp_path / "all_amb.cfg"
        config.write_text(
            (workspace / "run.cfg").read_text(encoding="utf-8")
            + "gamma=1.0\nstep1_epochs=1\nstep1_learning_rate=1e-4\n"
            "step3_epochs=1\nstep3_learning_rate=1e-4\n",
            encoding="utf-8",
        )
        n_words = sum(len(p.words) for p in corpus.auto_inputs)
        expected = "".join(
            f"iteration {i}: gate rejected all {n_words} words; "
            "step 3 trains on manual data only\n" for i in (1, 2)
        )
        argv = ["loop", "--config", str(config), "--run-dir", str(tmp_path / "run")]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, expected)
        # a resumed iteration's record brings its warnings back
        code, resumed_out, err = run_cli(capsys, *argv, "--resume")
        assert (code, err, resumed_out) == (0, expected, out)

    def test_config_line_without_equals_names_file_and_line(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# settings\ntoken_dir tokens\n", encoding="utf-8")
        with pytest.raises(FormatError, match="^" + re.escape(
                f"{config}:2: expected key=value, got 'token_dir tokens'") + "$"):
            cli.read_config(config)

    def test_config_without_token_dir_exits_two(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "".join(line for line in (workspace / "run.cfg").read_text(encoding="utf-8")
                    .splitlines(keepends=True) if not line.startswith("token_dir=")),
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "loop", "--config", str(config))
        assert (code, err) == (2, "error: config is missing token_dir\n")

    def test_rerun_identical_report(self, workspace, tmp_path, capsys):
        first_code, first_out, _ = run_cli(
            capsys, "loop", "--config", str(workspace / "run.cfg"),
            "--run-dir", str(tmp_path / "r1"),
        )
        second_code, second_out, _ = run_cli(
            capsys, "loop", "--config", str(workspace / "run.cfg"),
            "--run-dir", str(tmp_path / "r2"),
        )
        assert first_code == second_code == 0
        assert first_out == second_out

    def test_missing_annotations_exit_two(self, workspace, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(
            "train_annotations=/nonexistent/train.ann\n"
            f"test_annotations={workspace / 'test.ann'}\n"
            f"token_dir={workspace / 'tokens'}\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "loop", "--config", str(config))
        assert code == 2
        assert "train_annotations" in err

    def test_paper_id_with_whitespace_exits_two(self, workspace, tmp_path, capsys):
        tokens = tmp_path / "tokens"
        tokens.mkdir()
        (tokens / "a b.txt").write_text("x y\n", encoding="utf-8")
        config = tmp_path / "run.cfg"
        config.write_text(
            (workspace / "run.cfg").read_text(encoding="utf-8") + f"token_dir={tokens}\n",
            encoding="utf-8",
        )
        run_dir = tmp_path / "run"
        code, out, err = run_cli(
            capsys, "loop", "--config", str(config), "--run-dir", str(run_dir),
        )
        assert code == 2
        assert err == f"error: {tokens / 'a b.txt'}: paper id 'a b' is empty or has whitespace\n"
        assert not run_dir.exists()

    def test_annotated_word_with_whitespace_exits_two_naming_file_and_line(
            self, workspace, tmp_path, capsys):
        lines = (workspace / "train.ann").read_text(encoding="utf-8").split("\n")
        lines[2] = "On\u2003x\t" + lines[2].split("\t", 1)[1]
        train = tmp_path / "train.ann"
        train.write_text("\n".join(lines), encoding="utf-8")
        config = tmp_path / "run.cfg"
        config.write_text(
            (workspace / "run.cfg").read_text(encoding="utf-8") + f"train_annotations={train}\n",
            encoding="utf-8",
        )
        run_dir = tmp_path / "run"
        code, out, err = run_cli(
            capsys, "loop", "--config", str(config), "--run-dir", str(run_dir),
        )
        assert code == 2
        assert err == f"error: {train}:3: word 'On\\u2003x' has whitespace\n"
        assert not run_dir.exists()

    def test_resume_with_changed_config_exits_two(self, workspace, tmp_path, capsys):
        run_dir = tmp_path / "run"
        argv = ["loop", "--config", str(workspace / "run.cfg"), "--run-dir", str(run_dir),
                "--iterations", "1"]
        assert run_cli(capsys, *argv)[0] == 0
        code, out, err = run_cli(capsys, *argv, "--resume", "--seed", "12")
        assert code == 2
        assert "iteration_01.json" in err and "config hash" in err

    def test_resume_with_changed_inputs_exits_two(self, workspace, corpus, tmp_path, capsys):
        run_dir = tmp_path / "run"
        argv = ["loop", "--config", str(workspace / "run.cfg"), "--run-dir", str(run_dir),
                "--iterations", "1"]
        assert run_cli(capsys, *argv)[0] == 0
        with open(tmp_path / "train.ann", "w", encoding="utf-8") as handle:
            dataset.write_annotations(corpus.manual[:-1], handle)
        config = tmp_path / "other.cfg"
        config.write_text(
            (workspace / "run.cfg").read_text(encoding="utf-8").replace(
                str(workspace / "train.ann"), str(tmp_path / "train.ann")
            ),
            encoding="utf-8",
        )
        argv[2] = str(config)
        code, out, err = run_cli(capsys, *argv, "--resume")
        assert code == 2
        assert "iteration_01.json" in err and "inputs" in err

    def test_resume_with_unreadable_record_exits_two_naming_it(self, workspace, tmp_path,
                                                               capsys):
        run_dir = tmp_path / "run"
        argv = ["loop", "--config", str(workspace / "run.cfg"), "--run-dir", str(run_dir),
                "--iterations", "1"]
        assert run_cli(capsys, *argv)[0] == 0
        record = run_dir / "iteration_01.json"
        data = json.loads(record.read_text(encoding="utf-8"))
        del data["gate_stats"]
        record.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli(capsys, *argv, "--resume")
        assert code == 2
        assert f"{record}: record lacks 'gate_stats'" in err

    def test_hash_dim_zero_exits_two_before_training(self, workspace, tmp_path, capsys):
        config = tmp_path / "zero_dim.cfg"
        config.write_text(
            (workspace / "run.cfg").read_text(encoding="utf-8")
            .replace("hash_dim=16384\n", "hash_dim=0\n"),
            encoding="utf-8",
        )
        run_dir = tmp_path / "run"
        code, out, err = run_cli(
            capsys, "loop", "--config", str(config), "--run-dir", str(run_dir),
        )
        assert code == 2
        assert "hash dimension must lie in [2, 2**32]" in err
        assert not list(tmp_path.rglob("*.npz"))

    @pytest.mark.parametrize("line, message", [
        ("amb_policy=bogus", "unknown amb policy 'bogus'"),
        ("carry_forward=ture", "carry_forward must be one of"),
    ])
    def test_bad_loop_setting_exits_two_before_the_run_dir(self, workspace, tmp_path,
                                                           capsys, line, message):
        config = tmp_path / "bad.cfg"
        config.write_text(
            (workspace / "run.cfg").read_text(encoding="utf-8") + line + "\n", encoding="utf-8",
        )
        run_dir = tmp_path / "run"
        code, out, err = run_cli(
            capsys, "loop", "--config", str(config), "--run-dir", str(run_dir),
        )
        assert code == 2
        assert message in err
        assert not run_dir.exists()

    @pytest.mark.parametrize("line, message", [
        ("step1_epochs=2.5", "step1_epochs must be an integer, got '2.5'"),
        ("gamma=high", "gamma must be a number, got 'high'"),
        ("step3_learning_rate=", "step3_learning_rate must be a number, got ''"),
        ("seed=4x", "seed must be an integer, got '4x'"),
        ("draws=many", "draws must be an integer, got 'many'"),
        ("draw_size=1e3", "draw_size must be an integer, got '1e3'"),
    ])
    def test_malformed_number_names_file_and_key(self, workspace, tmp_path, capsys,
                                                 line, message):
        config = tmp_path / "run.cfg"
        config.write_text(
            (workspace / "run.cfg").read_text(encoding="utf-8") + line + "\n", encoding="utf-8",
        )
        run_dir = tmp_path / "run"
        code, out, err = run_cli(
            capsys, "loop", "--config", str(config), "--run-dir", str(run_dir),
        )
        assert code == 2
        assert err == f"error: {config}: {message}\n"
        assert not run_dir.exists()

    @pytest.mark.parametrize("line, flags, message", [
        ("step1_epochs=0", (), "{config}: step1_epochs: epochs must be >= 1"),
        ("step3_batch_size=0", (), "{config}: step3_batch_size: batch_size must be >= 1"),
        ("step1_learning_rate=0", (),
         "{config}: step1_learning_rate: learning_rate must be > 0"),
        ("step1_learning_rate=nan", (),
         "{config}: step1_learning_rate: learning_rate must be finite, got nan"),
        ("gamma=1.5", (), "{config}: gamma: gamma must be in (0, 1], got 1.5"),
        ("iterations=0", (), "{config}: iterations: iterations must be >= 1"),
        ("amb_policy=bogus", (), "{config}: amb_policy: unknown amb policy 'bogus'"),
        ("hash_dim=1", (), "{config}: hash_dim: hash dimension must lie in [2, 2**32]"),
        ("draws=0", (), "{config}: draws: draws must be >= 1"),
        ("draw_size=0", (), "{config}: draw_size: draw_size must be >= 1"),
        # a value from the command line is not the file's
        ("", ("--gamma", "1.5"), "gamma must be in (0, 1], got 1.5"),
        ("", ("--iterations", "0"), "iterations must be >= 1"),
        ("gamma=1.5", ("--gamma", "0.5", "--iterations", "0"), "iterations must be >= 1"),
        ("seed=-1\ndraws=0", ("--seed", "3"), "{config}: draws: draws must be >= 1"),
        ("seed=-1", (), "{config}: seed: seed must be >= 0, got -1"),
        ("", ("--seed", "-1"), "seed must be >= 0, got -1"),
    ])
    def test_out_of_range_value_names_file_and_key(self, workspace, tmp_path, capsys,
                                                   line, flags, message):
        config = tmp_path / "run.cfg"
        config.write_text(
            (workspace / "run.cfg").read_text(encoding="utf-8") + line + "\n", encoding="utf-8",
        )
        run_dir = tmp_path / "run"
        code, out, err = run_cli(
            capsys, "loop", "--config", str(config), "--run-dir", str(run_dir), *flags,
        )
        assert code == 2
        assert err == f"error: {message.format(config=config)}\n"
        assert not run_dir.exists()

    def test_loop_config_of_a_dict_names_the_key(self):
        with pytest.raises(FormatError, match="^config: gamma must be a number, got 'high'$"):
            cli._loop_config(dict(cli.CONFIG_DEFAULTS, gamma="high"))
        with pytest.raises(FormatError, match="^a.cfg: hash_dim must be an integer, got '2.0'$"):
            cli._loop_config(dict(cli.CONFIG_DEFAULTS, hash_dim="2.0"), "a.cfg")

    @pytest.mark.parametrize("value, expected", [
        ("TRUE", True), ("Yes", True), ("1", True), ("false", False), ("NO", False), ("0", False),
    ])
    def test_carry_forward_values(self, value, expected):
        cfg = dict(cli.CONFIG_DEFAULTS, carry_forward=value)
        assert cli._loop_config(cfg).carry_forward is expected

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "weird.cfg"
        config.write_text("mystery_knob=1\n", encoding="utf-8")
        with pytest.raises(FormatError, match="mystery_knob"):
            cli.read_config(config)

    @pytest.mark.parametrize("line, value", [
        ("token_dir=tok#1", "tok#1"),
        ("token_dir=tok   # the token files", "tok"),
        ("token_dir=tok\t#tab", "tok"),
        ("# token_dir=tok", ""),
        ("  #token_dir=tok", ""),
    ])
    def test_comment_starts_at_a_hash_that_begins_the_line_or_follows_whitespace(
            self, tmp_path, line, value):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n", encoding="utf-8")
        assert cli.read_config(config)["token_dir"] == value

    def test_hash_inside_a_value_reaches_the_loop(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            (workspace / "run.cfg").read_text(encoding="utf-8")
            + f"token_dir={tmp_path / 'tok#1'}   # not there\n", encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "loop", "--config", str(config))
        assert code == 2
        assert err == f"error: token_dir does not exist: {tmp_path / 'tok#1'}\n"

    def test_config_defaults_are_the_loop_defaults(self):
        assert cli._loop_config(dict(cli.CONFIG_DEFAULTS)) == selftrain.LoopConfig()

    def test_config_defaults_of_earlier_releases(self):
        assert cli.CONFIG_DEFAULTS == {
            "train_annotations": "", "test_annotations": "", "token_dir": "", "run_dir": "",
            "iterations": "2", "gamma": "0.98", "seed": "0", "amb_policy": "ignore_positions",
            "hash_dim": "1048576", "carry_forward": "false", "parallelism": "1",
            "step1_epochs": "20", "step1_learning_rate": "0.0001", "step1_batch_size": "8",
            "step3_epochs": "5", "step3_learning_rate": "0.0001", "step3_batch_size": "8",
            "draws": "12", "draw_size": "50",
        }

    def test_config_keys_reach_every_loop_field_but_the_step_seeds(self):
        reached = [path for _, path in cli._LOOP_KEYS.values()]
        assert len(reached) == len(set(reached))
        assert set(reached) == set(leaf_paths(selftrain.LoopConfig())) - STEP_SEEDS

    def test_every_config_key_sets_its_field(self):
        other = {"iterations": "3", "gamma": "0.5", "seed": "4", "amb_policy": "drop_paragraph",
                 "hash_dim": "4096", "carry_forward": "yes", "step1_epochs": "7",
                 "step1_learning_rate": "0.5", "step1_batch_size": "4", "step3_epochs": "2",
                 "step3_learning_rate": "2.5", "step3_batch_size": "16"}
        assert sorted(other) == sorted(cli._LOOP_KEYS)
        loop = cli._loop_config(dict(cli.CONFIG_DEFAULTS, **other))
        assert loop == selftrain.LoopConfig(
            iterations=3, step1=tagger.TrainConfig(epochs=7, learning_rate=0.5, batch_size=4),
            step3=tagger.TrainConfig(epochs=2, learning_rate=2.5, batch_size=16),
            gate=autoannotate.GateConfig(0.5), amb_policy="drop_paragraph", seed=4,
            hash_dim=4096, carry_forward=True,
        )

    def test_malformed_value_precedence(self):
        cfg = dict(cli.CONFIG_DEFAULTS, parallelism="x", carry_forward="maybe",
                   iterations="y", hash_dim="z")
        for key, message in [
            ("parallelism", "parallelism must be an integer, got 'x'"),
            ("carry_forward", "carry_forward must be one of true/yes/1/false/no/0, got 'maybe'"),
            ("iterations", "iterations must be an integer, got 'y'"),
            ("hash_dim", "hash_dim must be an integer, got 'z'"),
        ]:
            with pytest.raises(FormatError, match="^" + re.escape(f"run.cfg: {message}") + "$"):
                cli._loop_config(cfg, "run.cfg")
            cfg[key] = cli.CONFIG_DEFAULTS[key]
        assert cli._loop_config(cfg, "run.cfg") == selftrain.LoopConfig()

    def test_draw_size_past_test_set_exits_before_training(self, workspace, corpus,
                                                          tmp_path, capsys):
        with open(tmp_path / "test10.ann", "w", encoding="utf-8") as handle:
            dataset.write_annotations(corpus.test[:10], handle)
        config = tmp_path / "small_test.cfg"
        config.write_text(
            (workspace / "run.cfg").read_text(encoding="utf-8")
            .replace(str(workspace / "test.ann"), str(tmp_path / "test10.ann"))
            .replace("draw_size=50\n", ""),  # the default, 50
            encoding="utf-8",
        )
        run_dir = tmp_path / "run"
        code, out, err = run_cli(
            capsys, "loop", "--config", str(config), "--run-dir", str(run_dir),
        )
        assert code == 2
        assert "draw_size 50 exceeds evaluation set size 10" in err
        assert not list(tmp_path.rglob("*.npz"))

    def test_config_run_dir_then_config_hash(self, workspace, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(cli.RUN_DIR_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.cfg"
        config.write_text(
            (workspace / "run.cfg").read_text(encoding="utf-8") + "run_dir=from_config\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "loop", "--config", str(config), "--iterations", "1")
        assert code == 0, err
        assert (tmp_path / "from_config" / "comparison.json").exists()
        # with no flag, config key or environment variable: runs/<config hash>
        loop_cfg = cli._loop_config(cli.read_config(workspace / "run.cfg"))
        code, out, err = run_cli(capsys, "loop", "--config", str(workspace / "run.cfg"),
                                 "--iterations", "1")
        assert code == 0, err
        default = tmp_path / "runs" / dataclasses.replace(loop_cfg, iterations=1).config_hash()
        assert (default / "comparison.json").exists()

    def test_env_var_run_dir(self, workspace, tmp_path, capsys, monkeypatch):
        run_dir = tmp_path / "envrun"
        monkeypatch.setenv(cli.RUN_DIR_ENV, str(run_dir))
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            capsys, "loop", "--config", str(workspace / "run.cfg")
        )
        assert code == 0
        assert (run_dir / "comparison.json").exists()


@pytest.fixture
def call_log(monkeypatch):
    """Every model load and annotation, in order, with a mark where run_loop returns."""
    log = []
    load = tagger.TaggerModel.load

    def counted_load(path):
        log.append("load")
        return load(path)

    annotate = autoannotate.annotate_corpus

    def counted_annotate(*args, **kwargs):
        log.append("annotate")
        return annotate(*args, **kwargs)

    run_loop = selftrain.run_loop

    def marked_run_loop(*args, **kwargs):
        result = run_loop(*args, **kwargs)
        log.append("run_loop returned")
        return result

    monkeypatch.setattr(tagger.TaggerModel, "load", staticmethod(counted_load))
    for module in (autoannotate, selftrain, cli):
        monkeypatch.setattr(module, "annotate_corpus", counted_annotate)
    monkeypatch.setattr(selftrain, "run_loop", marked_run_loop)
    return log


class TestLoopEvaluatesOnce:
    """The iteration-1 vs final comparison reuses the loop's own test predictions."""

    def test_fresh_loop_loads_nothing_and_annotates_only_inside(self, workspace, tmp_path,
                                                                capsys, call_log):
        code, out, err = run_cli(
            capsys, "loop", "--config", str(workspace / "run.cfg"),
            "--run-dir", str(tmp_path / "run"),
        )
        assert code == 0, err
        # per iteration: the auto corpus, then the test set with the step-1 and step-3 models
        assert call_log == ["annotate"] * 6 + ["run_loop returned"]

    def test_resume_of_complete_run_reproduces_report(self, workspace, tmp_path, capsys,
                                                      call_log):
        run_dir = tmp_path / "run"
        argv = ["loop", "--config", str(workspace / "run.cfg"), "--run-dir", str(run_dir)]
        code, fresh_out, err = run_cli(capsys, *argv)
        assert code == 0, err
        fresh_comparison = (run_dir / "comparison.json").read_bytes()
        (run_dir / "comparison.json").unlink()
        del call_log[:]
        code, resumed_out, err = run_cli(capsys, *argv, "--resume")
        assert code == 0, err
        assert resumed_out == fresh_out
        assert (run_dir / "comparison.json").read_bytes() == fresh_comparison
        # each loaded iteration's model annotates the test set once, inside run_loop
        assert call_log == ["load", "annotate"] * 2 + ["run_loop returned"]


@pytest.fixture(scope="module")
def trained_run(workspace, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("run")
    code = cli.main([
        "loop", "--config", str(workspace / "run.cfg"), "--run-dir", str(run_dir),
    ])
    assert code == 0
    return run_dir


class TestParallelismIgnored:
    """`parallelism` stays accepted in configs and on `annotate`, with no effect."""

    def config_with(self, workspace, tmp_path, value):
        config = tmp_path / f"parallelism_{value}.cfg"
        config.write_text(
            (workspace / "run.cfg").read_text(encoding="utf-8") + f"parallelism={value}\n",
            encoding="utf-8",
        )
        return config

    def test_loop_config_parallelism_accepted(self, workspace, tmp_path, capsys):
        records = []
        for name, config in (("plain", workspace / "run.cfg"),
                             ("four", self.config_with(workspace, tmp_path, 4))):
            run_dir = tmp_path / name
            code, out, err = run_cli(
                capsys, "loop", "--config", str(config), "--run-dir", str(run_dir),
                "--iterations", "1",
            )
            assert code == 0, err
            record = json.loads((run_dir / "iteration_01.json").read_text(encoding="utf-8"))
            records.append((record["metrics"], record["gate_stats"]))
        assert records[0] == records[1]

    def test_loop_config_non_integer_parallelism_exits_two(self, workspace, tmp_path, capsys):
        config = self.config_with(workspace, tmp_path, "two")
        code, out, err = run_cli(
            capsys, "loop", "--config", str(config), "--run-dir", str(tmp_path / "run"),
        )
        assert code == 2
        assert "'two'" in err

    def test_annotate_parallelism_writes_identical_file(self, workspace, trained_run,
                                                        tmp_path, capsys):
        outputs = []
        for value in ("1", "4"):
            out_path = tmp_path / f"auto_{value}.ann"
            code, out, err = run_cli(
                capsys, "annotate",
                "--model", str(trained_run / "model_iter02.npz"),
                "--tokens", str(workspace / "tokens"),
                "--out", str(out_path), "--parallelism", value,
            )
            assert code == 0, err
            outputs.append(out_path.read_bytes())
        assert outputs[0] and outputs[0] == outputs[1]


class TestAnnotateEvalCountsDiff:
    def test_annotate_writes_annotations_and_stats(self, workspace, trained_run,
                                                   tmp_path, capsys):
        out_path = tmp_path / "auto.ann"
        stats_path = tmp_path / "stats.json"
        code, out, err = run_cli(
            capsys, "annotate",
            "--model", str(trained_run / "model_iter02.npz"),
            "--tokens", str(workspace / "tokens"),
            "--out", str(out_path), "--gamma", "0.98",
            "--stats-json", str(stats_path),
        )
        assert code == 0
        assert "amb" in out
        paragraphs = dataset.read_annotations(
            open(out_path, encoding="utf-8"), filename=str(out_path)
        )
        assert paragraphs and all(p.provenance == "auto" for p in paragraphs)
        stats = json.loads(stats_path.read_text(encoding="utf-8"))
        assert stats["total_words"] == sum(len(p.words) for p in paragraphs)

    def test_annotate_gamma_out_of_range_exits_two(self, workspace, trained_run,
                                                   tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "annotate",
            "--model", str(trained_run / "model_iter02.npz"),
            "--tokens", str(workspace / "tokens"),
            "--out", str(tmp_path / "x.ann"), "--gamma", "1.01",
        )
        assert code == 2
        assert "gamma" in err

    @pytest.mark.parametrize("kind", UNREADABLE_KINDS)
    def test_annotate_unreadable_model_exits_two_naming_it(self, workspace, tmp_path,
                                                          capsys, kind):
        path = write_unreadable_model(tmp_path / "model.npz", kind)
        code, out, err = run_cli(
            capsys, "annotate", "--model", str(path),
            "--tokens", str(workspace / "tokens"), "--out", str(tmp_path / "x.ann"),
        )
        assert code == 2
        assert err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("content, message", [
        ("a  b\n", "paragraph 0: token '' is empty or has whitespace"),
        ("a b\n\nc\n", "token file line 2: empty paragraph"),
    ])
    def test_annotate_bad_token_file_error_names_it(self, trained_run, tmp_path, capsys,
                                                    content, message):
        tokens = tmp_path / "tokens"
        tokens.mkdir()
        (tokens / "paper.txt").write_text(content, encoding="utf-8")
        code, out, err = run_cli(
            capsys, "annotate", "--model", str(trained_run / "model_iter02.npz"),
            "--tokens", str(tokens), "--out", str(tmp_path / "x.ann"),
        )
        assert code == 2
        assert err == f"error: {tokens / 'paper.txt'}: {message}\n"

    @pytest.mark.parametrize("name", [".txt", "a b.txt", "a\u00a0b.txt"])
    def test_annotate_rejects_a_paper_id_no_header_holds(self, trained_run, tmp_path, capsys,
                                                          name):
        # an annotation header ends its paper id at whitespace and needs one;
        # the file is rejected before any paragraph is annotated
        tokens = tmp_path / "tokens"
        tokens.mkdir()
        (tokens / "a.txt").write_text("x y\n", encoding="utf-8")
        (tokens / name).write_text("x y\n", encoding="utf-8")
        out_path = tmp_path / "x.ann"
        code, out, err = run_cli(
            capsys, "annotate", "--model", str(trained_run / "model_iter02.npz"),
            "--tokens", str(tokens), "--out", str(out_path),
        )
        assert code == 2
        paper_id = name[: -len(".txt")]
        assert err == f"error: {tokens / name}: paper id {paper_id!r} is empty or has whitespace\n"
        assert not out_path.exists()

    def test_eval_single_prediction_scores(self, workspace, capsys):
        code, out, err = run_cli(
            capsys, "eval", str(workspace / "test.ann"), str(workspace / "test.ann"),
        )
        assert code == 0
        assert "token_accuracy  1.0000" in out

    def test_eval_bootstrap_two_predictions(self, workspace, capsys):
        code, out, err = run_cli(
            capsys, "eval", str(workspace / "test.ann"),
            str(workspace / "test.ann"), str(workspace / "test.ann"),
            "--draws", "12", "--draw-size", "50", "--seed", "4",
        )
        assert code == 0
        assert "12 draws of 50" in out

    def test_eval_negative_seed_names_the_setting(self, workspace, capsys):
        test_ann = str(workspace / "test.ann")
        code, out, err = run_cli(capsys, "eval", test_ann, test_ann, test_ann, "--seed", "-1")
        assert code == 2
        assert err == "error: seed must be >= 0, got -1\n"

    def test_eval_bootstrap_json_output(self, workspace, capsys):
        test_ann = str(workspace / "test.ann")
        code, out, err = run_cli(capsys, "eval", test_ann, test_ann, test_ann, "--json",
                                 "--draws", "3", "--draw-size", "10")
        assert code == 0
        result = json.loads(out)
        assert (result["draws"], result["draw_size"]) == (3, 10)

    def test_annotate_empty_token_dir_exits_two(self, trained_run, tmp_path, capsys):
        tokens = tmp_path / "tokens"
        tokens.mkdir()
        code, out, err = run_cli(
            capsys, "annotate", "--model", str(trained_run / "model_iter02.npz"),
            "--tokens", str(tokens), "--out", str(tmp_path / "x.ann"),
        )
        assert (code, err) == (2, f"error: no .txt token files in {tokens}\n")

    def test_eval_json_output(self, workspace, capsys):
        code, out, err = run_cli(
            capsys, "eval", str(workspace / "test.ann"), str(workspace / "test.ann"),
            "--json",
        )
        assert code == 0
        assert json.loads(out)["f1"] == 1.0

    def test_counts_excludes_o(self, workspace, capsys):
        code, out, err = run_cli(capsys, "counts", str(workspace / "train.ann"))
        assert code == 0
        assert "B-MethodName" in out
        assert "\nO" not in out

    def test_diff_markup_output(self, workspace, capsys):
        code, out, err = run_cli(
            capsys, "diff", str(workspace / "test.ann"), str(workspace / "test.ann"),
        )
        assert code == 0
        assert "[+" in out
        assert "[-" not in out


def run_external_probs(command):
    """The benchmark's probability-file pipeline (`pipebench/child.py`)."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "pipebench", "child.py")
    spec = importlib.util.spec_from_file_location("pipebench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.run_external_probs(command)


@pytest.fixture(scope="module")
def probs_file(corpus, trained_run, tmp_path_factory):
    """The final model's probabilities of the workspace's token files."""
    path = tmp_path_factory.mktemp("probs") / "probs.jsonl"
    model = tagger.TaggerModel.load(trained_run / "model_iter02.npz")
    write_probs_file(path, model, corpus.auto_inputs)
    return path


# prints whether OpenSSL's `_hashlib` and `concurrent.futures` are loaded after
# the command in argv, after a hash, and after a parallel fetch into a scratch
# directory
LEAN_CHILD = """\
import os, sys
scratch, mode, args = sys.argv[1], sys.argv[2], sys.argv[3:]
if mode == "cli":
    from sciner import cli
    assert cli.main(args) == 0
else:  # the library's probability-file pipeline, as a script would run it
    from sciner import autoannotate, corpus_ingest, dataset, tagger
    token_dir, probs, out = args
    paragraphs = []
    for name in sorted(os.listdir(token_dir)):
        with open(os.path.join(token_dir, name), encoding="utf-8") as handle:
            doc = corpus_ingest.read_token_file(handle, paper_id=name[:-len(".txt")])
        paragraphs += [dataset.AnnotatedParagraph(doc.paper_id, i, words)
                       for i, words in enumerate(doc.paragraphs)]
    with open(probs, encoding="utf-8") as handle:
        annotated, _ = autoannotate.annotate_corpus(tagger.load_external_probs(handle), paragraphs)
    with open(out, "w", encoding="utf-8") as handle:
        dataset.write_annotations(annotated, handle)
loaded = lambda: ("_hashlib" in sys.modules, "concurrent.futures" in sys.modules)
print(*loaded())
from sciner import corpus_ingest
corpus_ingest.hash_url("u")
print(*loaded())
record = corpus_ingest.PaperRecord(title="t", url="u")
corpus_ingest.fetch_pdfs([record], lambda url: b"%PDF", scratch, parallelism=2)
print(*loaded())
"""


def run_python(code, *argv):
    # the child must import the same package, whether or not PYTHONPATH is set
    src = os.path.dirname(os.path.dirname(cli.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True, text=True, check=True,
    ).stdout


class TestAnnotateProbs:
    """`sciner annotate --probs`: an outside encoder's probabilities instead of a model."""

    @pytest.mark.parametrize("seed", [3, 7919])
    def test_output_matches_the_benchmark_pipeline(self, tmp_path, capsys, seed):
        corpus = synth.make_corpus(n_manual=30, n_auto=60, n_test=0, seed=seed)
        model = tagger.train(dataset.merge_for_retraining(corpus.manual, []),
                             tagger.TrainConfig(epochs=4, learning_rate=16.0, seed=1))
        write_token_dir(tmp_path / "tokens", corpus.auto_inputs)
        write_probs_file(tmp_path / "probs.jsonl", model, corpus.auto_inputs)
        assert run_external_probs({
            "kind": "external_probs", "token_dir": str(tmp_path / "tokens"),
            "probs": str(tmp_path / "probs.jsonl"), "gamma": 0.98,
            "out": str(tmp_path / "bench.ann"), "stats_json": str(tmp_path / "bench.json"),
        }) == 0
        code, out, err = run_cli(
            capsys, "annotate", "--probs", str(tmp_path / "probs.jsonl"),
            "--tokens", str(tmp_path / "tokens"), "--gamma", "0.98",
            "--out", str(tmp_path / "cli.ann"), "--stats-json", str(tmp_path / "cli.json"),
        )
        assert code == 0, err
        expected = (tmp_path / "bench.ann").read_bytes()
        assert b"B-" in expected
        assert (tmp_path / "cli.ann").read_bytes() == expected
        stats = json.loads((tmp_path / "cli.json").read_text(encoding="utf-8"))
        assert stats == json.loads((tmp_path / "bench.json").read_text(encoding="utf-8"))

    @pytest.mark.parametrize("sources", [[], ["--model", "m.npz", "--probs", "p.jsonl"]])
    def test_exactly_one_source_or_exit_two(self, workspace, tmp_path, capsys, sources):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["annotate", *sources, "--tokens", str(workspace / "tokens"),
                      "--out", str(tmp_path / "x.ann")])
        assert excinfo.value.code == 2
        assert "--model" in capsys.readouterr().err
        assert not (tmp_path / "x.ann").exists()

    @pytest.mark.parametrize("damage, message", [
        (lambda line: line.replace('"probs": [', '"probs": [0.0, '),
         "probability record 5: expected 15 probabilities, got 16"),
        (lambda line: line.replace('"word_index": ', '"word_index": -'),
         "probability record 5: word_index must be a non-negative integer, got -"),
    ])
    def test_bad_record_exits_two_naming_file_and_record(self, workspace, probs_file,
                                                         tmp_path, capsys, damage, message):
        lines = probs_file.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[4] = damage(lines[4])
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(lines), encoding="utf-8")
        out_path = tmp_path / "x.ann"
        code, out, err = run_cli(capsys, "annotate", "--probs", str(bad),
                                 "--tokens", str(workspace / "tokens"), "--out", str(out_path))
        assert code == 2
        assert err.startswith(f"error: {bad}: {message}")
        assert not out_path.exists()

    def test_undecodable_file_exits_two_naming_it(self, workspace, probs_file, tmp_path,
                                                  capsys):
        bad = tmp_path / "latin.jsonl"
        bad.write_bytes(probs_file.read_bytes() + LATIN_1 + b"\n")
        code, out, err = run_cli(capsys, "annotate", "--probs", str(bad),
                                 "--tokens", str(workspace / "tokens"),
                                 "--out", str(tmp_path / "x.ann"))
        assert code == 2
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode")

    def test_annotation_leaves_out_openssl_and_thread_pools(self, workspace, trained_run,
                                                            probs_file, tmp_path):
        """Only the commands that hash load OpenSSL, and only a parallel
        fetch loads concurrent.futures."""
        numpy_loads = run_python(
            "import sys, numpy\n"
            "print('_hashlib' in sys.modules or 'concurrent.futures' in sys.modules)"
        )
        if numpy_loads.strip() == "True":
            pytest.skip("numpy itself loads _hashlib or concurrent.futures")
        tokens = str(workspace / "tokens")
        runs = {
            "model": ["cli", "annotate", "--model", str(trained_run / "model_iter02.npz"),
                      "--tokens", tokens, "--out", str(tmp_path / "model.ann")],
            "probs": ["cli", "annotate", "--probs", str(probs_file),
                      "--tokens", tokens, "--out", str(tmp_path / "probs.ann")],
            "library": ["library", tokens, str(probs_file), str(tmp_path / "library.ann")],
        }
        for name, argv in runs.items():
            lines = run_python(LEAN_CHILD, str(tmp_path / name), *argv).splitlines()[-3:]
            assert lines == ["False False", "True False", "True True"], name
        assert (tmp_path / "library.ann").read_bytes() == (tmp_path / "probs.ann").read_bytes()


    def test_annotate_and_loop_leave_out_logging(self, workspace, trained_run, probs_file,
                                                 tmp_path):
        """`sciner loop` prints the records' warnings itself, and nothing on
        these paths loads logging."""
        if run_python("import sys, numpy\nprint('logging' in sys.modules)").strip() == "True":
            pytest.skip("numpy itself loads logging")
        code = ("import sys\nfrom sciner import cli\nassert cli.main(sys.argv[1:]) == 0\n"
                "print('logging' in sys.modules)\n")
        tokens = str(workspace / "tokens")
        runs = [
            ["annotate", "--model", str(trained_run / "model_iter02.npz"), "--tokens", tokens,
             "--out", str(tmp_path / "model.ann")],
            ["annotate", "--probs", str(probs_file), "--tokens", tokens,
             "--out", str(tmp_path / "probs.ann")],
            ["loop", "--config", str(workspace / "run.cfg"), "--run-dir", str(tmp_path / "run")],
        ]
        for argv in runs:
            assert run_python(code, *argv).splitlines()[-1] == "False", argv[:2]


class TestHelp:
    @pytest.mark.parametrize(
        "command",
        ["ingest", "partition", "loop", "annotate", "eval", "counts", "diff"],
    )
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, "--help"])
        assert excinfo.value.code == 0

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--help"])
        assert excinfo.value.code == 0
