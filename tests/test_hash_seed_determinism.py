"""No output of the CLI depends on Python's per-process str hash seed.

One child interpreter per PYTHONHASHSEED runs every invocation in CASES
through `cli.main`, in its own working directory. It runs the table
twice, the second pass in reverse order, so warm memos
(`transport._split_url`, `hls.parse_index`, `crypto_kit._cbc_contexts`)
are seen to change no byte. For each invocation it reports the exit
code, stdout, stderr and the sha256 of the file `--out` names. Both
passes and both children must agree. A new determinism case is one
row of CASES.

    python tests/test_hash_seed_determinism.py SRC_DIR

runs one child's table in the current directory, writing the inputs it
reads there, and prints its JSON.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

SERVICES = ("wynk-v1", "wynk-v2", "jiosaavn", "gaana", "hungama", "benchmark")
OUT = "rip.out"  # a rip's stdout echoes --out, so every run names the same file
SK_HIGH = "sk-high.conf"  # a wynk_sk that is also one of hungama's quality literals
DIR_CATALOG = "catalog.conf"  # the demo catalog, seeded 3, loaded from a directory

# name -> argv of one `testbed` invocation
CASES = {
    "demo": ["demo"],
    # the flags replace the config's seed and clock
    "demo-flags": ["demo", "--seed", "3", "--clock", "1600000000"],
    "audit": ["audit", "--format", "json"],
    # the one row the default audit leaves out
    "audit-wynk-v1": ["audit", "--service", "wynk-v1", "--format", "json"],
    "audit-sk-high": ["audit", "--format", "json", "--config", SK_HIGH],
    # the benchmark rip exits 2 by design, so its code is compared too
    **{
        f"rip-{service}": ["rip", "--service", service, "--track", "trk1", "--out", OUT]
        for service in SERVICES
    },
    # a catalog's directory listing and memos must not depend on the process either
    "dir-audit": ["audit", "--format", "json", "--config", DIR_CATALOG],
    "dir-rip": ["rip", "--service", "gaana", "--track", "trk1", "--config", DIR_CATALOG,
                "--out", OUT],
}


def _invoke(main, argv: list[str]) -> list:
    """[exit code, stdout, stderr, sha256 of OUT or None] of one run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    written = Path(OUT)
    digest = hashlib.sha256(written.read_bytes()).hexdigest() if written.exists() else None
    written.unlink(missing_ok=True)
    return [code, out.getvalue(), err.getvalue(), digest]


def _child(src: str) -> dict:
    """Write the inputs the table reads into the working directory, then
    run the table forward and in reverse, importing the package from src."""
    sys.path.insert(0, src)
    import drmtestbed
    from drmtestbed.catalog import demo_catalog, save_catalog
    from drmtestbed.cli import main

    Path(SK_HIGH).write_text("wynk_sk = high\n", encoding="utf-8")
    save_catalog(demo_catalog(random.Random(3)), "catalog")
    Path(DIR_CATALOG).write_text("catalog_dir = catalog\n", encoding="utf-8")
    passes = [{name: _invoke(main, CASES[name]) for name in order}
              for order in (list(CASES), list(reversed(CASES)))]
    return {"package": drmtestbed.__file__, "passes": passes}


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    import drmtestbed
    from drmtestbed.testbed import RIP_SERVICES

    assert SERVICES == RIP_SERVICES  # every service the CLI rips has a row
    # pytest's own pythonpath setting does not reach a child, so name the
    # directory this process imported the package from
    src = str(Path(drmtestbed.__file__).parent.parent)
    results = []
    for seed in ("0", "1"):
        (workdir := tmp_path / f"seed{seed}").mkdir()
        child = subprocess.run(
            [sys.executable, __file__, src], cwd=workdir, capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert child.returncode == 0, child.stderr
        results.append(json.loads(child.stdout))

    for result in results:
        assert result["package"] == drmtestbed.__file__
        forward, reverse = result["passes"]
        assert forward == reverse
    runs = results[0]["passes"][0]
    assert runs == results[1]["passes"][0]

    # only the six reference rips may fail (the benchmark's does), and
    # every run given --out writes the file
    for name, (code, _stdout, _stderr, digest) in runs.items():
        assert code == 0 or name.startswith("rip-"), name
        assert (digest is not None) == (OUT in CASES[name]), name
    # hungama's bundle does not hold wynk_sk, so its row reads no
    rows = json.loads(runs["audit-sk-high"][1])["audits"]
    assert {row["service"]: row["practices"]["hardcoded_keys"] for row in rows}["hungama"] is False


if __name__ == "__main__":
    print(json.dumps(_child(sys.argv[1])))
