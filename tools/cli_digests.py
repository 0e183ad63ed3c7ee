"""Digest the CLI's output over a fixed command list, for before/after diffs.

Runs each command in process through ``kraus_witness.cli.main`` from this
checkout's ``src/``, with KRAUS_WITNESS_TOL unset and any CSV written to a
temporary directory, and prints one line per command: the exit code and the
sha256 of the CSV, of stdout and of stderr ("-" where no CSV was written).
Running it on two checkouts and diffing the outputs shows whether a change
moved any byte of what the CLI says:

    python tools/cli_digests.py > after.txt
    diff before.txt after.txt
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kraus_witness.cli import main  # noqa: E402

_MODELS = ("ye-markov", "ye-nonmarkov", "jcm-qubit", "jcm-photon", "ck")

# (argv, takes --out)
COMMANDS: list[tuple[list[str], bool]] = (
    [(["figure", str(fid)], True) for fid in range(1, 6)]
    + [(["witness", f"--model={m}", "--tau=1", "--tau=2"], True) for m in _MODELS]
    + [
        (["witness", "--model=ck", "--rho11=0.9", "--rho22=0.1", "--rho12=0.1"], True),
        (["witness", "--model=ck", "--rho11=0.8", "--rho22=0.2", "--rho12=0.4"], True),
        (["witness", "--model=jcm-qubit", "--alpha=1", "--n-cut=31"], True),
        (["witness", "--model=jcm-qubit", "--alpha=0.6+0.8j", "--n-cut=31"], True),
        (["witness", "--model=ye-markov", "--step=0.001"], True),
        (["witness", "--model=jcm-photon", "--alpha=1", "--start=1", "--stop=7",
          "--step=0.5"], True),
        (["witness", "--model=jcm-photon", "--alpha=0.6+0.8j", "--n-cut=31", "--tau=0.37",
          "--tau=2"], True),
        (["witness", "--model=jcm-photon", "--alpha=2", "--start=0.5", "--stop=3",
          "--step=0.05"], True),
        # exits 2: the generic cross-check disagrees on a fine early-time grid
        (["witness", "--model=ye-nonmarkov", "--tau=1", "--start=0", "--stop=0.2",
          "--step=0.001"], True),
    ]
    + [(["probe", f"--model={m}"], True) for m in _MODELS]
    + [(["validate", f"--model={m}"], False) for m in _MODELS]
    + [
        # a coherent-field channel, checked on its valid_dim block
        (["validate", "--model=jcm-photon", "--alpha=0.6+0.8j", "--n-cut=31"], False),
        # a channel of 45 Kraus operators
        (["probe", "--model=jcm-qubit", "--alpha=2"], True),
    ]
)

_CSV = "out.csv"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(argv: list[str], takes_out: bool) -> str:
    """Exit code and digests of one command, run in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ([f"--out={_CSV}"] if takes_out else []))
    csv = Path(_CSV)
    csv_sha = _sha(csv.read_bytes()) if csv.exists() else "-"
    csv.unlink(missing_ok=True)
    return (
        f"{code} csv={csv_sha} stdout={_sha(out.getvalue().encode())} "
        f"stderr={_sha(err.getvalue().encode())}  {' '.join(argv)}"
    )


def run() -> None:
    os.environ.pop("KRAUS_WITNESS_TOL", None)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        # a relative --out keeps the path printed on stdout the same every run
        os.chdir(scratch)
        try:
            for argv, takes_out in COMMANDS:
                print(digest(argv, takes_out), flush=True)
        finally:
            os.chdir(here)


if __name__ == "__main__":
    run()
