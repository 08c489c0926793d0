"""The benchmark's three workloads and the independent checks on their outputs.

* ``search``: ``optimize`` at the default config on a fixed instance grid.
* ``sweep``: ``best_exact`` on every legal (field, d <= 9, r <= d, n) tuple.
* ``files``: the largest shipped codes, rotated by a seeded orthogonal or
  unitary matrix, written with ``dumps_code``, read back with
  ``read_code_file`` and certified.

Each workload has a set-up (fresh library import, seeded inputs, warm-up)
and is timed by ``measure``, which times only calls into the public API.
Every first output of an input is checked with plain numpy, never with the
library's own kernels; later outputs of the same input must reproduce it.
A raised error or a failed check counts as a failed operation.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Tolerance on distances.  certify compares squared distances at 1e-8, which
# is tighter than this for every distance the workloads produce.
DIST_TOL = 1e-7
# Largest entry of |X* X - I| a point may have; certify's default tolerance.
STIEFEL_TOL = 1e-8
# Cold starts timed per burst.  A run times CLI_BURSTS bursts spread evenly
# over its ops, so a slow spell of the machine a few seconds long reaches at
# most one burst and barely moves the median.
CLI_REPEATS = 4
CLI_BURSTS = 5


class LibraryMissing(RuntimeError):
    """The checkout holds no importable stiefelcodes package under src/."""


def import_library():
    """Import stiefelcodes afresh from the checkout's ``src/``.

    Earlier imports are dropped from ``sys.modules`` so each call pays the
    full import; numpy stays loaded.
    """
    init = SRC / "stiefelcodes" / "__init__.py"
    if not init.is_file():
        raise LibraryMissing(f"no stiefelcodes package at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "stiefelcodes" or m.startswith("stiefelcodes.")]:
        del sys.modules[name]
    sc = importlib.import_module("stiefelcodes")
    if Path(sc.__file__).resolve() != init.resolve():
        raise LibraryMissing(f"stiefelcodes imported from {sc.__file__}, not {init}")
    return sc


def child_env() -> dict:
    """Environment for subprocesses: the checkout's library, nothing else."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def environment(sc) -> dict:
    """What the numbers depend on besides the code."""
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{config.get('name')} {config.get('version')}",
        "blas_threads": blas_threads(),
        "kernel_backend": sc.kernel_backend(),
        "STIEFEL_NUMBA": os.environ.get("STIEFEL_NUMBA"),
        "STIEFEL_THREADS": os.environ.get("STIEFEL_THREADS"),
    }


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fp:
            libs = sorted({line.split()[-1] for line in fp if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# ---------------------------------------------------------------------------
# independent checks


def field_m(field: str) -> int:
    return 1 if field == "R" else 2


def bound(field: str, d: int, r: int, n: int) -> float:
    """The bound in force at n: simplex up to m*d*r + 1 points, orthoplex past it."""
    if n <= field_m(field) * d * r + 1:
        return math.sqrt(2.0 * r * n / (n - 1))
    return math.sqrt(2.0 * r)


def min_distance_brute(arr: np.ndarray) -> float:
    """Minimum pairwise Frobenius distance, one point against the rest at a time."""
    flat = arr.reshape(arr.shape[0], -1)
    best = math.inf
    for i in range(len(flat) - 1):
        diff = flat[i + 1 :] - flat[i]
        best = min(best, float((diff.real**2 + diff.imag**2).sum(axis=1).min()))
    return math.sqrt(best)


def check_code(code, field: str, d: int, r: int, n: int, report=None):
    """Brute-force min distance of a returned code and the first problem found.

    Checks the field and shape, Stiefel membership of every point, that no
    pair beats the simplex bound, and, given the library's report, that its
    min distance and an SSC/SOC classification agree with the recomputation.
    """
    arr = np.asarray(code.array)
    if code.field.value != field or arr.shape != (n, d, r):
        return 0.0, f"returned {code.field.value}{arr.shape}, expected {field}{(n, d, r)}"
    if field == "R" and np.any(arr.imag != 0.0):
        return 0.0, "real code has nonzero imaginary parts"
    gram = np.swapaxes(arr.conj(), 1, 2) @ arr
    err = float(np.abs(gram - np.eye(r)).max())
    if not err <= STIEFEL_TOL:
        return 0.0, f"point off the Stiefel manifold by {err:.3g}"
    mind = min_distance_brute(arr)
    if mind > math.sqrt(2.0 * r * n / (n - 1)) + DIST_TOL:
        return mind, f"min distance {mind!r} beats the simplex bound"
    if report is not None:
        if abs(report.min_distance - mind) > DIST_TOL:
            return mind, f"reported min distance {report.min_distance!r}, recomputed {mind!r}"
        cls = report.classification.value
        target = {"SSC": math.sqrt(2.0 * r * n / (n - 1)), "SOC": math.sqrt(2.0 * r)}.get(cls)
        if target is not None and abs(mind - target) > DIST_TOL:
            return mind, f"classified {cls} at min distance {mind!r}, bound {target!r}"
    return mind, None


def rotate(sc, code, rng: np.random.Generator):
    """The code with every point multiplied by one seeded orthogonal (R) or
    unitary (C) matrix: distances are kept, decimals become full precision."""
    d = code.d
    g = rng.standard_normal((d, d))
    if code.field.value == "C":
        g = g + 1j * rng.standard_normal((d, d))
        arr = np.linalg.qr(g)[0] @ code.array
    else:
        arr = np.linalg.qr(g)[0] @ code.array.real
    return sc.StiefelCode(code.field, arr)


def digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.digest()


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Tally:
    """Operations attempted and failed; `wrong` counts returned outputs that
    failed their check (a subset of `failed`)."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, problem: str | None = None, wrong: bool = False) -> None:
        self.attempted += 1
        if problem is None:
            return
        self.failed += 1
        self.wrong += bool(wrong)
        if len(self.notes) < 20:
            self.notes.append(problem)


@dataclass
class Measured:
    op_s: dict[str, list[float]]  # input key -> wall seconds of each timed op
    ratios: dict[str, float]  # input key -> checked min distance / reference
    stamps: dict[str, bytes]  # input key -> digest of its first output


def measure(workload, seconds: float, tally: Tally, keys=None, pauses=()) -> Measured:
    """Time the workload's ops, cycling over its inputs until `seconds` have
    passed; every input runs at least once, and an op starts only if its
    previous time still fits.  With `seconds` 0 this is exactly one pass.

    Each callable in `pauses` runs once, between ops, when its share of
    `seconds` has passed: the i-th of p after i/(p+1) of it, or after the
    last op if the ops end first.  Paused time is not counted as passed.

    A workload with a nominal pass time `PASS_S` instead makes a fixed number
    of whole passes, about `seconds` of them: its op count, and so its count
    of failed ops, then depends on `seconds` alone, not on machine speed."""
    inputs = [inp for inp in workload.inputs if keys is None or inp[0] in keys]
    ops = None if workload.PASS_S is None else max(1, round(seconds / workload.PASS_S)) * len(inputs)
    op_s: dict[str, list[float]] = defaultdict(list)
    first: dict[str, bytes] = {}
    ratios: dict[str, float] = {}
    pending = list(pauses)
    start = time.perf_counter()
    for k in itertools.count():
        due = seconds * (len(pauses) - len(pending) + 1) / (len(pauses) + 1)
        if pending and time.perf_counter() - start >= due:
            t0 = time.perf_counter()
            pending.pop(0)()
            start += time.perf_counter() - t0
        key, args = inputs[k % len(inputs)]
        if ops is not None:
            if k == ops:
                break
        elif k >= len(inputs) and time.perf_counter() - start + op_s[key][-1] > seconds:
            break
        t0 = time.perf_counter()
        try:
            out = workload.call(*args)
        except Exception as exc:  # a raised error on legal input is a failed op
            op_s[key].append(time.perf_counter() - t0)
            ratios.setdefault(key, 0.0)
            tally.record(f"{workload.name} {key}: {type(exc).__name__}: {exc}")
            continue
        op_s[key].append(time.perf_counter() - t0)
        stamp = workload.digest(out)
        if key not in first:
            first[key] = stamp
            ratios[key], problem = workload.check(key, args, out)
            tally.record(problem and f"{workload.name} {key}: {problem}", wrong=True)
        elif stamp != first[key]:
            tally.record(f"{workload.name} {key}: output differs from its first run", wrong=True)
        else:
            tally.record()
    for pause in pending:
        pause()
    return Measured(dict(op_s), ratios, first)


def cli_verify_runs(sc, workdir: Path, seed: int, tally: Tally, warm_up: bool) -> list[float]:
    """Cold-start wall seconds of ``python -m stiefelcodes verify`` on a small
    rotated (R, 6, 3, 4) SSC, which must exit 0 and report the bound.  With
    `warm_up`, one untimed start first warms the file cache."""
    code = rotate(sc, sc.best_exact(sc.Field.REAL, 6, 3, 4)[0], np.random.default_rng([seed, 1]))
    path = workdir / "cli-small.json"
    path.write_text(sc.dumps_code(code), encoding="utf-8")
    target = math.sqrt(8.0)
    times = []
    for i in range(CLI_REPEATS + warm_up):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "stiefelcodes", "verify", str(path)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        if i >= warm_up:
            times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            tally.record(f"cli verify exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        try:
            report = json.loads(proc.stdout)
            ok = report["classification"] == "SSC" and abs(report["min_distance"] - target) <= DIST_TOL
        except (ValueError, KeyError, TypeError):
            ok = False
        tally.record(None if ok else f"cli verify printed {proc.stdout[:300]!r}", wrong=True)
    return times


def import_seconds(repeats: int = 5) -> float:
    """Median wall seconds of ``import stiefelcodes`` in a fresh interpreter."""
    snippet = "import time; t = time.perf_counter(); import stiefelcodes; print(time.perf_counter() - t)"
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", snippet],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# workloads


class Search:
    """``optimize`` at the default OptimizerConfig on the ROADMAP grid; the
    optimizer loop and the softmin kernels do nearly all the work."""

    name = "search"
    PASS_S = None
    GRID = (("R", 2, 1, 5), ("C", 1, 1, 4), ("R", 3, 2, 7), ("R", 4, 2, 10))

    def __init__(self, sc, seed: int, workdir: Path):
        self.sc = sc
        seeds = np.random.default_rng([seed, 2]).integers(0, 2**32, size=len(self.GRID))
        self.inputs = [
            (f"{f}({d},{r},{n})", (sc.Field(f), d, r, n, int(s)))
            for (f, d, r, n), s in zip(self.GRID, seeds)
        ]
        self.reference = {key: self._reference(*args[:4]) for key, args in self.inputs}
        self.classes: dict[str, str] = {}
        sc.optimize(sc.Field.REAL, 2, 1, 3, config=sc.OptimizerConfig(restarts=1, max_iters=40))

    def _reference(self, field, d, r, n) -> float:
        """best_exact's min distance when it returns a code, else the bound."""
        best = self.sc.best_exact(field, d, r, n)
        return best[1].min_distance if best is not None else bound(field.value, d, r, n)

    def call(self, field, d, r, n, seed):
        return self.sc.optimize(field, d, r, n, config=self.sc.OptimizerConfig(seed=seed))

    def digest(self, out) -> bytes:
        code, report = out
        return digest(code.array.tobytes(), report.to_dict())

    def check(self, key, args, out):
        code, report = out
        field, d, r, n, _ = args
        self.classes[key] = report.classification.value
        mind, problem = check_code(code, field.value, d, r, n, report)
        return mind / self.reference[key], problem

    def overhead_keys(self):
        return {self.inputs[0][0]}

    def summary(self, measured: Measured) -> dict:
        solve = {k: statistics.median(v) for k, v in measured.op_s.items()}
        return {
            "solve_s": statistics.fmean(solve.values()),
            "solve_s_by_instance": solve,
            "at_bound": sum(c in ("SSC", "SOC") for c in self.classes.values()),
            "instances": len(self.inputs),
            "classes": self.classes,
        }


class Sweep:
    """``best_exact`` on every legal tuple with d <= 9, once per pass, in an
    order shuffled by the seed; dispatch, constructions and certify work."""

    name = "sweep"
    # Seconds of one pass on a 2-CPU x86-64 machine; fixed so that a run
    # makes the same number of passes on every machine, and a known raising
    # tuple always counts the same number of failures.
    PASS_S = 7.5

    def __init__(self, sc, seed: int, workdir: Path):
        self.sc = sc
        tuples = [
            (f, d, r, n)
            for f in ("R", "C")
            for d in range(1, 10)
            for r in range(1, d + 1)
            for n in range(2, 2 * field_m(f) * d * r + 1)
        ]
        self.tuples = tuples
        order = np.random.default_rng([seed, 3]).permutation(len(tuples))
        self.inputs = [
            (f"{f}({d},{r},{n})", (sc.Field(f), d, r, n)) for f, d, r, n in (tuples[i] for i in order)
        ]
        self.classes: dict[str, str | None] = {}
        for args in ((sc.Field.REAL, 6, 3, 4), (sc.Field.COMPLEX, 2, 2, 5), (sc.Field.REAL, 3, 1, 5)):
            sc.best_exact(*args)

    def call(self, field, d, r, n):
        return self.sc.best_exact(field, d, r, n)

    def digest(self, out) -> bytes:
        if out is None:
            return b"none"
        code, report, prov = out
        return digest(code.array.tobytes(), report.to_dict(), prov)

    def check(self, key, args, out):
        field, d, r, n = args
        if out is None:
            self.classes[key] = None
            return 0.0, None
        code, report, _ = out
        self.classes[key] = report.classification.value
        mind, problem = check_code(code, field.value, d, r, n, report)
        return mind / bound(field.value, d, r, n), problem

    def overhead_keys(self):
        # Every seventh tuple in the unshuffled order: the same slice for
        # every seed, so a traced run's failures do not depend on the seed.
        return {f"{f}({d},{r},{n})" for f, d, r, n in self.tuples[::7]}

    def summary(self, measured: Measured) -> dict:
        calls = [t for v in measured.op_s.values() for t in v]
        level, tail_s = tail(calls)
        return {
            "calls_per_s": len(calls) / math.fsum(calls),
            "call_ms": statistics.median(calls) * 1e3,
            "call_ms_tail": tail_s * 1e3,
            "call_ms_tail_level": level,
            "calls": len(calls),
            "pass_s": math.fsum(statistics.median(v) for v in measured.op_s.values()),
            "tuples": len(self.inputs),
            "raised": len(self.inputs) - len(self.classes),
            "found": sum(c is not None for c in self.classes.values()),
            "at_bound": sum(c in ("SSC", "SOC") for c in self.classes.values()),
        }


class Files:
    """Write, read back and certify the largest shipped codes; the io layer
    dominates, with the kernels under certify at large n."""

    name = "files"
    PASS_S = None
    CODES = (
        ("soc_complex_orbit(16,8,512)", "SOC", lambda sc: sc.soc_complex_orbit(16, 8, 512)),
        ("soc_real_hadamard(16,8)", "SOC", lambda sc: sc.soc_real_hadamard(16, 8)),
        ("ssc_radon_hurwitz(C,64,15)", "SSC", lambda sc: sc.ssc_radon_hurwitz(sc.Field.COMPLEX, 64, 15)),
        ("ssc_regular_representation(40)", "SSC", lambda sc: sc.ssc_regular_representation(40)),
    )

    def __init__(self, sc, seed: int, workdir: Path):
        self.sc = sc
        rng = np.random.default_rng([seed, 4])
        self.inputs = [
            (name, (name, rotate(sc, build(sc), rng), expected, workdir / f"{i}.json"))
            for i, (name, expected, build) in enumerate(self.CODES)
        ]
        self.phase_s = defaultdict(lambda: defaultdict(list))
        small = sc.ssc_sphere(sc.Field.COMPLEX, 2, 3)
        sc.certify(sc.loads_code(sc.dumps_code(small))[0])

    def call(self, name, code, expected, path):
        sc = self.sc
        # A fresh file each time: on ext4, rewriting a truncated file forces
        # its blocks to disk at close, which would time the disk, not the code.
        path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        text = sc.dumps_code(code, {"name": name})
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)
        t1 = time.perf_counter()
        parsed, _ = sc.read_code_file(path)
        t2 = time.perf_counter()
        report = sc.certify(parsed)
        t3 = time.perf_counter()
        phases = self.phase_s[name]
        phases["write"].append(t1 - t0)
        phases["read"].append(t2 - t1)
        phases["certify"].append(t3 - t2)
        return text, parsed, report

    def digest(self, out) -> bytes:
        text, parsed, report = out
        return digest(text.encode(), parsed.array.tobytes(), report.to_dict())

    def check(self, key, args, out):
        _, code, expected, _ = args
        _, parsed, report = out
        if not np.array_equal(parsed.array, code.array):
            return 0.0, "file did not read back to the written doubles"
        if report.classification.value != expected:
            return 0.0, f"certified {report.classification.value}, expected {expected}"
        mind, problem = check_code(parsed, code.field.value, code.d, code.r, code.n, report)
        return mind / bound(code.field.value, code.d, code.r, code.n), problem

    def overhead_keys(self):
        return {key for key, _ in self.inputs}

    def summary(self, measured: Measured) -> dict:
        per_code = {
            name: {phase: statistics.median(v) * 1e3 for phase, v in phases.items()}
            for name, phases in self.phase_s.items()
        }
        return {
            "write_ms": statistics.fmean(p["write"] for p in per_code.values()),
            "verify_ms": statistics.fmean(p["read"] + p["certify"] for p in per_code.values()),
            "ms_by_code": per_code,
            "round_trips": sum(len(v) for v in measured.op_s.values()),
        }


WORKLOADS = {w.name: w for w in (Search, Sweep, Files)}


def tail(values) -> tuple[str, float]:
    """The highest of p99.9, p99 and p90 with at least ten samples beyond it,
    or the maximum when there are too few samples for any."""
    ordered = sorted(values)
    size = len(ordered)
    for level in (99.9, 99.0, 90.0):
        rank = math.ceil(size * level / 100.0)
        if size - rank >= 10:
            return f"p{level:g}", ordered[rank - 1]
    return "max", ordered[-1]
