"""The benchmark's workloads: seeded inputs, the tasks of one pass, and the
check each task's output must pass.

A task is one top-level call a user makes: ``blp_measure`` on one model,
``scan_G`` over the field-sector grid, or one CLI invocation.  Tasks run
one after another (one closed loop, one task in flight).  Why each workload
was chosen is written down in README.md beside this file.
"""
from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable

import numpy as np

import oracle

HERE = Path(__file__).resolve().parent
WORKLOADS = ("blp-revival", "field-scan", "cli-suite")

# |alpha| = 1 needs a Fock cutoff of 31 (dimension 33); passing it explicitly
# keeps the dimension fixed whatever rounding |exp(i phi)| picks up
FIELD_CUTOFF = 31
CLI_TIMEOUT_S = 60.0


@dataclass
class Task:
    label: str
    ops: int
    # (pass directory, in process) -> raw result; the only part that is timed
    invoke: Callable[[Path, bool], object]
    # raw result -> hashable output
    collect: Callable[[object, Path], object]
    # output -> failure message, or None when the output is right
    check: Callable[[object], str | None]
    # lags of scan_G the task asks for; scan_G calls per lag are counted over these
    lags: int = 0


def build(name: str, seed: int, kw: ModuleType, src: Path) -> list[Task]:
    """Tasks of one pass of workload ``name``; inputs are drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    if name == "blp-revival":
        return _blp_tasks(kw, rng)
    if name == "field-scan":
        return _field_tasks(kw, rng)
    if name == "cli-suite":
        return _cli_tasks(kw, rng, src)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# blp-revival: trace-distance revival estimate on four models


def _random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho).real


def _bloch(x: float, y: float, z: float) -> np.ndarray:
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]], dtype=np.complex128)


def _qubit_pairs(rng: np.random.Generator) -> list[tuple[np.ndarray, np.ndarray]]:
    """8 antipodal pure pairs on a Fibonacci sphere, then 8 random mixed pairs."""
    pairs = []
    for k in np.arange(8) + 0.5:
        z = 1.0 - 2.0 * k / 8
        azimuth = k * math.pi * (3.0 - math.sqrt(5.0))
        r = math.sqrt(max(0.0, 1.0 - z * z))
        x, y = r * math.cos(azimuth), r * math.sin(azimuth)
        pairs.append((_bloch(x, y, z), _bloch(-x, -y, -z)))
    pairs += [(_random_density(rng, 2), _random_density(rng, 2)) for _ in range(8)]
    return pairs


def _dephasing_pairs(rng, state: Callable[[float], np.ndarray], top: float, gap: float):
    """2 pairs from the model's own initial-state family, then 2 random
    full-rank pairs."""
    pairs = []
    while len(pairs) < 2:
        lo, hi = np.sort(rng.uniform(0.0, top, size=2))
        if hi - lo >= gap:
            pairs.append((state(lo), state(hi)))
    pairs += [(_random_density(rng, 4), _random_density(rng, 4)) for _ in range(2)]
    return pairs


def _ye_markov_initial(lam: float) -> np.ndarray:
    rho = np.diag([1.0, 4.0, 4.0, 0.0]).astype(np.complex128) / 9.0
    rho[1, 2] = rho[2, 1] = lam / 9.0
    return rho


def _ye_nonmarkov_initial(alpha_x: float) -> np.ndarray:
    rho = np.diag([alpha_x, 1.0, 1.0, 1.0 - alpha_x]).astype(np.complex128) / 3.0
    rho[1, 2] = rho[2, 1] = 1.0 / 3.0
    return rho


def _blp_tasks(kw: ModuleType, rng: np.random.Generator) -> list[Task]:
    vacuum = oracle.coherent_amplitudes(0j, oracle.default_cutoff(0j))
    # the package's default grids, restated so the oracle does not read them back
    models = (
        (kw.CKDephase(), oracle.ck_kraus, np.linspace(0.0, 2.0 * math.pi, 629), _qubit_pairs(rng)),
        (
            kw.JCMQubit(),
            lambda t: oracle.jcm_qubit_kraus(t, vacuum),
            np.linspace(0.0, 10.0, 401),
            _qubit_pairs(rng),
        ),
        (
            kw.YEMarkov(),
            oracle.ye_markov_kraus,
            np.linspace(0.0, 10.0, 201),
            _dephasing_pairs(rng, _ye_markov_initial, 4.0, 0.2),
        ),
        (
            kw.YENonMarkov(),
            oracle.ye_nonmarkov_kraus,
            np.linspace(0.0, 20.0, 401),
            _dephasing_pairs(rng, _ye_nonmarkov_initial, 1.0, 0.05),
        ),
    )
    return [_blp_task(kw, *model) for model in models]


def _blp_task(kw, spec, kraus, grid, pairs) -> Task:
    labelled = [(a, b, f"pair-{i}") for i, (a, b) in enumerate(pairs)]
    rho1 = np.array([a for a, _ in pairs])
    rho2 = np.array([b for _, b in pairs])
    expected = functools.cache(lambda: oracle.blp_value(kraus, grid, rho1, rho2))

    def invoke(_dir: Path, _in_process: bool):
        return kw.witnesses.blp_measure(spec, pairs=labelled)

    def collect(estimate, _dir: Path):
        return (float(estimate.value), int(estimate.pair_count))

    def check(output) -> str | None:
        value, count = output
        if count != len(pairs):
            return f"pair count {count}, expected {len(pairs)}"
        err = abs(value - expected())
        if not err <= oracle.TOL:
            return f"estimate {value!r} differs from the oracle by {err:.3e}"
        return None

    return Task(f"blp-{spec.NAME}", grid.size * len(pairs), invoke, collect, check)


# ---------------------------------------------------------------------------
# field-scan: the witness on the field sector, d = 33, dense rank-2 states


def _field_tasks(kw: ModuleType, rng: np.random.Generator) -> list[Task]:
    """Four fields, the seed drawing the phase of the first and the others
    spread evenly over a half turn (alpha and -alpha give the same scan)."""
    first = rng.uniform(0.0, 0.25 * math.pi)
    return [_field_task(kw, first + 0.25 * math.pi * k) for k in range(4)]


def _field_task(kw: ModuleType, phase: float) -> Task:
    alpha = complex(math.cos(phase), math.sin(phase))
    spec = kw.JCMPhoton(alpha_c=alpha, n_max=FIELD_CUTOFF)
    grid = np.arange(1.0, 7.0)
    tau = 1.0
    expected = functools.cache(
        lambda: oracle.witness_G(
            lambda ts: oracle.jcm_photon_states(alpha, FIELD_CUTOFF, ts), grid, tau
        )
    )

    def invoke(_dir: Path, _in_process: bool):
        return kw.witnesses.scan_G(spec, grid, tau)

    def collect(scan, _dir: Path):
        return tuple(float(v) for v in scan.values)

    def check(output) -> str | None:
        values = np.array(output)
        if values.shape != grid.shape:
            return f"{values.size} G values, expected {grid.size}"
        err = float(np.max(np.abs(values - expected())))
        if not err <= oracle.TOL:
            return f"G differs from the oracle by {err:.3e}"
        return None

    return Task(f"scan-jcm-photon-{phase:.4f}", grid.size, invoke, collect, check, lags=1)


# ---------------------------------------------------------------------------
# cli-suite: 23 CLI invocations


MODELS = ("ye-markov", "ye-nonmarkov", "jcm-qubit", "jcm-photon", "ck")


def _read_csv(data: bytes) -> tuple[list[str], np.ndarray]:
    lines = data.decode("utf-8").splitlines()
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return lines[0].split(","), table


def _witness_csv_check(states, grid: np.ndarray, taus: tuple[float, ...]):
    """Check of a generic-route witness CSV against the oracle."""

    def check(data: bytes) -> str | None:
        header, table = _read_csv(data)
        want = [f"G_tau={tau:g}" for tau in taus]
        if header[1:] != want:
            return f"CSV header {header!r}, expected G columns {want!r}"
        if table.shape != (grid.size, len(taus) + 1):
            return f"CSV shape {table.shape}, expected {(grid.size, len(taus) + 1)}"
        times = table[:, 0]
        if np.max(np.abs(times - grid)) > 1e-12:
            return "CSV time column differs from the grid"
        for col, tau in enumerate(taus, start=1):
            err = float(np.max(np.abs(table[:, col] - oracle.witness_G(states, times, tau))))
            if not err <= oracle.TOL:
                return f"G_tau={tau:g} differs from the oracle by {err:.3e}"
        return None

    return check


def _sha_check(label: str, digests: dict[str, str]):
    def check(data: bytes) -> str | None:
        digest = hashlib.sha256(data).hexdigest()
        if digest != digests[label]:
            return f"CSV sha256 {digest[:12]}... differs from the recorded {digests[label][:12]}..."
        return None

    return check


def _cli_tasks(kw: ModuleType, rng: np.random.Generator, src: Path) -> list[Task]:
    digests = json.loads((HERE / "reference.json").read_text())["csv_sha256"]
    phases = rng.uniform(0.0, 2.0 * math.pi, size=3)
    alpha, field_alpha = (complex(math.cos(p), math.sin(p)) for p in phases[[0, 2]])
    rho12 = 0.1 * complex(math.cos(phases[1]), math.sin(phases[1]))
    cut = str(FIELD_CUTOFF)

    # (label, arguments, writes a CSV, expected exit code, CSV check)
    specs: list[tuple[str, list[str], bool, int, Callable | None]] = []
    for fid in range(1, 6):
        label = f"figure-{fid}"
        specs.append((label, ["figure", str(fid)], True, 0, _sha_check(label, digests)))
    for model in MODELS:
        label = f"witness-{model}"
        if model == "jcm-photon":
            # the one generic-route witness among the five default models
            csv_check = _witness_csv_check(
                lambda ts: oracle.jcm_photon_states(0j, oracle.default_cutoff(0j), ts),
                oracle.make_grid(0.0, 10.0, 0.05), (1.0, 2.0),
            )
        else:
            csv_check = _sha_check(label, digests)
        specs.append((label, ["witness", f"--model={model}", "--tau=1", "--tau=2"], True, 0, csv_check))
    for model in MODELS:
        specs.append((f"probe-{model}", ["probe", f"--model={model}"], False, 0, None))
    for model in MODELS:
        specs.append((f"validate-{model}", ["validate", f"--model={model}"], False, 0, None))
    specs.append((
        "witness-jcm-qubit-coherent",
        ["witness", "--model=jcm-qubit", f"--alpha={alpha!r}", f"--n-cut={cut}", "--tau=3"],
        True, 3,
        _witness_csv_check(
            lambda ts: oracle.jcm_qubit_states(alpha, FIELD_CUTOFF, ts),
            oracle.make_grid(0.0, 10.0, 0.01), (3.0,),
        ),
    ))
    rho0 = np.array([[0.9, rho12], [rho12.conjugate(), 0.1]], dtype=np.complex128)
    specs.append((
        "witness-ck-mixed",
        ["witness", "--model=ck", "--rho11=0.9", "--rho22=0.1", f"--rho12={rho12!r}"],
        True, 3,
        _witness_csv_check(
            lambda ts: oracle.ck_states(rho0, ts),
            oracle.make_grid(0.0, 2.0 * math.pi, 0.005), (math.pi / 6.0,),
        ),
    ))
    specs.append((
        "validate-jcm-photon-coherent",
        ["validate", "--model=jcm-photon", f"--alpha={field_alpha!r}", f"--n-cut={cut}"],
        False, 0, None,
    ))
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("KRAUS_WITNESS_TOL", None)
    return [_cli_task(kw, *spec, env) for spec in specs]


def _cli_task(kw, label, args, writes_csv, expected_code, csv_check, env) -> Task:
    def argv(pass_dir: Path) -> list[str]:
        return args + ([f"--out={pass_dir / (label + '.csv')}"] if writes_csv else [])

    def invoke(pass_dir: Path, in_process: bool):
        if in_process:
            errors = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(errors):
                return kw.cli.main(argv(pass_dir)), errors.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "kraus_witness.cli", *argv(pass_dir)],
            cwd=pass_dir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stderr

    def collect(raw, pass_dir: Path):
        code, stderr = raw
        path = pass_dir / (label + ".csv")
        data = path.read_bytes() if writes_csv and path.exists() else None
        return code, data, stderr.strip()[-300:] if code != expected_code else ""

    def check(output) -> str | None:
        code, data, stderr = output
        if code != expected_code:
            return f"exit code {code}, expected {expected_code}: {stderr}"
        if writes_csv and data is None:
            return "no CSV written"
        if csv_check is not None:
            return csv_check(data)
        return None

    lags = 0
    if args[0] == "witness":
        lags = sum(a.startswith("--tau") for a in args) or 1
    return Task(label, 1, invoke, collect, check, lags=lags)
