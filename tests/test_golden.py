"""The benchmark's outputs stay byte-identical: their sha256 against golden.json.

golden.py, in this directory, runs the commands in a child process with the
`exp`/`log` SIMD level pinned, and rewrites golden.json after a change that
alters the outputs on purpose.  The digests hold only for the numpy version
and the dispatch level golden.json records; elsewhere the test skips.
"""

import json

import pytest

import golden


def test_benchmark_outputs_match_golden():
    with open(golden.GOLDEN, encoding="utf-8") as handle:
        expected = json.load(handle)
    proc = golden.run_pinned("environment")
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or ["no message"]
        pytest.skip(f"numpy does not start under {golden.PIN}: {lines[-1]}")
    env = json.loads(proc.stdout)
    if env["numpy_dispatch"] != expected["numpy_dispatch"]:
        pytest.skip(f"under {golden.PIN} exp/log dispatch to {env['numpy_dispatch']}, "
                    f"but golden.json holds the digests of {expected['numpy_dispatch']}")
    if env["numpy_version"] != expected["numpy_version"]:
        pytest.skip(f"numpy is {env['numpy_version']}, but golden.json holds the digests "
                    f"of numpy {expected['numpy_version']}")
    proc = golden.run_pinned("digests")
    assert proc.returncode == 0, proc.stderr[-3000:]
    got = json.loads(proc.stdout)["sha256"]
    changed = sorted(name for name in expected["sha256"].keys() | got.keys()
                     if got.get(name) != expected["sha256"].get(name))
    assert not changed, (
        f"outputs differ from golden.json: {changed}; if on purpose, rewrite it with "
        "`python tests/golden.py --write` and list each changed digest with the change"
    )
