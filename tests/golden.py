"""The byte-identity digests that test_golden.py checks against golden.json.

On synth seeds 3 and 7919, at pipebench's sizes and settings, this runs
`sciner loop` on the `loop` workload's inputs, then `sciner annotate
--model` and `sciner annotate --probs` on the `external_probs` workload's
inputs, and takes the sha256 of each output: the loop's two model files,
`comparison.json` and standard output; each annotation file, its stats JSON
and standard output.

The weight bits depend on the SIMD level numpy dispatches `exp` and `log`
to, so the commands run in a child process with that level pinned to
X86_V3 through NPY_DISABLE_CPU_FEATURES.  From the repository root:

    python tests/golden.py           # print the digests as JSON
    python tests/golden.py --write   # rewrite tests/golden.json

A change that alters these bytes on purpose rewrites golden.json and lists
every digest it changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
SEEDS = (3, 7919)
# disables AVX-512, so that exp and log dispatch to AVX2 (X86_V3)
PIN = {"NPY_DISABLE_CPU_FEATURES": "X86_V4"}
PINNED_LEVEL = "X86_V3"


def _sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _cli(argv) -> str:
    """Standard output of `sciner <argv>`, which must succeed."""
    from sciner import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"sciner {' '.join(argv)} exited {code}")
    return out.getvalue()


def seed_digests(seed: int, workdir: str) -> dict:
    """The digest of each output of one seed's commands, by name."""
    import run  # pipebench's harness: its set-ups and settings
    from sciner import synth

    digests = {}
    loop = run.setup_loop(seed, os.path.join(workdir, "loop"))
    run_dir = os.path.join(workdir, "run")
    argv = [run_dir if arg == run.RUN_DIR else arg for arg in loop.command["argv"]]
    stdout = _cli(argv)
    for name in ("model_iter01.npz", "model_iter02.npz", "comparison.json"):
        digests[f"loop/{name}"] = _sha256(os.path.join(run_dir, name))
    digests["loop/stdout"] = hashlib.sha256(stdout.encode("utf-8")).hexdigest()

    probs = run.setup_external_probs(seed, os.path.join(workdir, "external"))
    model_path = os.path.join(workdir, "model.npz")
    corpus = synth.make_corpus(*run.SIZES["external_probs"], seed=seed)
    run._train_model(corpus.manual).save(model_path)
    sources = {"annotate_model": ["--model", model_path],
               "annotate_probs": ["--probs", probs.command["probs"]]}
    for name, source in sources.items():
        out, stats = (os.path.join(workdir, f"{name}.{ext}") for ext in ("ann", "json"))
        stdout = _cli(["annotate", *source, "--tokens", probs.command["token_dir"],
                       "--gamma", str(run.GAMMA), "--out", out, "--stats-json", stats])
        digests[f"{name}/annotations"] = _sha256(out)
        digests[f"{name}/stats.json"] = _sha256(stats)
        digests[f"{name}/stdout"] = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    return digests


def child_main(mode: str) -> int:
    """In the pinned child: print the environment, and with mode "digests"
    also every seed's digests, as one JSON object."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "pipebench")]
    from sciner.selftrain import numpy_environment

    result = numpy_environment()
    if mode == "digests":
        result["sha256"] = {}
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as workdir:
                result["sha256"].update({f"seed{seed}/{name}": digest for name, digest
                                         in seed_digests(seed, workdir).items()})
    print(json.dumps(result))
    return 0


def run_pinned(mode: str) -> subprocess.CompletedProcess:
    """This script's child run with the SIMD level pinned; `mode` is
    "environment" (quick) or "digests"."""
    env = {**os.environ, **PIN}
    return subprocess.run([sys.executable, os.path.abspath(__file__), "--child", mode],
                          env=env, capture_output=True, text=True, timeout=600)


def main(argv) -> int:
    if argv[:1] == ["--child"]:
        return child_main(argv[1])
    proc = run_pinned("digests")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return 1
    result = json.loads(proc.stdout)
    if set(result["numpy_dispatch"].values()) != {PINNED_LEVEL}:
        print(f"the pin gave {result['numpy_dispatch']}, not {PINNED_LEVEL}", file=sys.stderr)
        return 1
    text = json.dumps({**result, "pin": PIN}, indent=2, sort_keys=True) + "\n"
    if argv == ["--write"]:
        with open(GOLDEN, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
