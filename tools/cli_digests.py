"""Digest the CLI's output over a fixed command list, for before/after diffs.

Runs each command in process through ``kraus_witness.cli.main`` from this
checkout's ``src/``, with KRAUS_WITNESS_TOL unset, COLUMNS pinned so that
argparse wraps help text the same way on every terminal, and any CSV written
to a temporary directory.  It prints a header naming the Python and numpy
versions, then one line per command: the exit code and the sha256 of the
CSV, of stdout and of stderr ("-" where no CSV was written).  Stderr is
hashed with this checkout's absolute path replaced by a fixed token, so a
warning, whose text quotes its source file, digests alike in every checkout.
Running it on two checkouts and diffing the outputs shows whether a change
moved any byte of what the CLI says:

    python tools/cli_digests.py > after.txt
    diff before.txt after.txt

``tools/cli_digests.txt`` is its output on the current code, and
``tests/test_cli_digests.py`` checks the CLI against it.  A change that moves
a line on purpose regenerates the file:

    python tools/cli_digests.py > tools/cli_digests.txt
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

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
        # sampled defects of a 45-operator stack, and at every revival-grid time
        (["validate", "--model=jcm-qubit", "--alpha=2", "--samples=400"], False),
        (["validate", "--model=ck", "--samples=629"], False),
        (["validate", "--model=jcm-photon", "--alpha=1", "--n-cut=31", "--samples=201"], False),
        # a coherent atom sector: every operator is nonzero at t = 0
        (["probe", "--model=jcm-qubit", "--alpha=0.6+0.8j", "--n-cut=31"], True),
        (["probe", "--model=jcm-photon", "--n-cut=8"], True),
        (["probe", "--model=ye-nonmarkov", "--t-min=1e-3", "--t-max=1", "--points=20"], True),
        # exit 2: the cutoff certificate refuses a field that n_cut = 1 cannot hold
        (["validate", "--model=jcm-photon", "--alpha=2", "--n-cut=1"], False),
        (["probe", "--model=jcm-photon", "--alpha=2", "--n-cut=1"], True),
        # t + tau overflows to inf on the later rows of the grid
        (["figure", "1", "--tau=1.7e308", "--start=0", "--stop=1.7e308", "--step=1e307"], True),
        # the same overflow on the generic route
        (["witness", "--model=ck", "--rho11=0.9", "--rho22=0.1", "--rho12=0.1", "--tau=1.7e308",
          "--start=0", "--stop=1.7e308", "--step=1e307"], True),
    ]
    + [([name, "--help"], False) for name in ("figure", "witness", "probe", "validate")]
)

_CSV = "out.csv"

# terminal width argparse wraps help text to
_COLUMNS = "80"

# stands in for ROOT in stderr
_ROOT_TOKEN = "<checkout>"


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
    stderr = err.getvalue().replace(str(ROOT), _ROOT_TOKEN)
    return (
        f"{code} csv={csv_sha} stdout={_sha(out.getvalue().encode())} "
        f"stderr={_sha(stderr.encode())}  {' '.join(argv)}"
    )


def header() -> str:
    """First line of the output: the versions the digests were taken with."""
    return f"# python {platform.python_version()} numpy {np.__version__}"


@contextlib.contextmanager
def pinned(directory: str | Path):
    """Run inside ``directory`` with the environment the digests assume,
    restoring the working directory and the environment afterwards."""
    here = os.getcwd()
    with mock.patch.dict(os.environ, {"COLUMNS": _COLUMNS}):
        os.environ.pop("KRAUS_WITNESS_TOL", None)
        # a relative --out keeps the path printed on stdout the same every run
        os.chdir(directory)
        try:
            yield
        finally:
            os.chdir(here)


def run() -> None:
    print(header(), flush=True)
    with tempfile.TemporaryDirectory() as scratch, pinned(scratch):
        for argv, takes_out in COMMANDS:
            print(digest(argv, takes_out), flush=True)


if __name__ == "__main__":
    run()
