"""The benchmark's workloads: the CLI calls one pass makes, and the checks on
what those calls produced.

Every pass of a run makes the same calls on the same inputs, all derived
from the workload seed, so every pass must produce byte-identical outputs.
The checks run after each pass, outside its timed region.

This module imports nothing from ``mutrate`` at import time, so the parent
process (``run.py``) can read the workload names without loading the
package under test.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass
from pathlib import Path

TRUE_P = 0.05

# Tolerances on relative error, |p_hat / TRUE_P - 1|. Each is five standard
# deviations of that error over seeds 1-40 at these exact sizes, rounded up,
# and at least 1.8 times the largest error seen there (README.md, "Correctness
# tolerances"). A failure means a defect, not bad luck.
SWEEP_MEDIAN_TOL = {
    "k1-reads": 0.35,
    "large-k-reads": 0.07,
    "k1-single": 0.06,
    "k1-gc": 0.10,
    "large-k-seq": 0.02,
    "general-k": 0.15,
}
CLI_ESTIMATE_TOL = {
    "k1-single": 0.20,
    "large-k-seq": 0.07,
    "k1-reads": 0.30,
    "large-k-reads": 0.08,
}
SUBSTITUTION_TOL = 0.05  # on the fraction of bases `mutate` changed


@dataclass(frozen=True)
class StepResult:
    argv: tuple[str, ...]
    exit_code: int
    stdout: str


@dataclass(frozen=True)
class PassCheck:
    attempted: int
    failed: int
    outputs: tuple[tuple[str, str], ...]  # (output, sha256); equal on every pass of a run
    notes: tuple[str, ...] = ()


def derive_seed(seed: int, label: str) -> int:
    """A CLI seed for one input, fixed by the workload seed and a label."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{label}".encode()).digest()[:4], "big")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _flag(argv: tuple[str, ...], name: str) -> str:
    return argv[argv.index(name) + 1]


class Workload:
    name = ""
    why = ""

    def params(self) -> dict:
        raise NotImplementedError

    def inputs(self, seed: int, work: Path) -> list[list[str]]:
        """CLI calls that make the workload's input files, run once per run
        in their own process before any timing. Most workloads need none."""
        return []

    def steps(self, seed: int, work: Path) -> list[list[str]]:
        """The timed CLI calls of one pass."""
        raise NotImplementedError

    def check(self, seed: int, work: Path, results: list[StepResult]) -> PassCheck:
        raise NotImplementedError


class _Sweep(Workload):
    """One or more `mutrate experiment` calls. An operation is one trial."""

    def calls(self) -> list[dict]:
        raise NotImplementedError

    def params(self) -> dict:
        return {"calls": self.calls()}

    def steps(self, seed: int, work: Path) -> list[list[str]]:
        out = []
        for i, c in enumerate(self.calls()):
            argv = ["experiment", "--mode", c["mode"], "--estimators", ",".join(c["estimators"])]
            argv += ["--p", str(TRUE_P), "--trials", str(c["trials"]), "--seed", str(derive_seed(seed, f"sweep{i}"))]
            argv += ["--length", c["length"], "--dist", c["dist"], "-k", str(c["k"])]
            argv += c.get("extra", [])
            argv += ["--out-csv", str(work / f"trials{i}.csv"), "--out-json", str(work / f"summary{i}.json")]
            out.append(argv)
        return out

    def check(self, seed: int, work: Path, results: list[StepResult]) -> PassCheck:
        from mutrate import read_trials_csv

        attempted = failed = 0
        notes, outputs = [], []
        for c, r in zip(self.calls(), results):
            expected = c["trials"] * len(c["estimators"])
            attempted += expected
            if r.exit_code != 0:
                failed += expected
                notes.append(f"exit code {r.exit_code}: {' '.join(r.argv[:5])}")
                continue
            csv_path = Path(_flag(r.argv, "--out-csv"))
            outputs.append((csv_path.name, _sha256(csv_path)))
            records = read_trials_csv(csv_path)
            failed += max(0, expected - len(records))
            for est in c["estimators"]:
                rows = [rec for rec in records if rec.estimator.value == est]
                bad = [rec for rec in rows if not rec.ok]
                errors = [rec.rel_error for rec in rows if rec.ok]
                median = statistics.median(errors) if errors else float("nan")
                if not abs(median) <= SWEEP_MEDIAN_TOL[est]:
                    failed += len(rows)
                    notes.append(f"{est}: median relative error {median:+.4f} outside ±{SWEEP_MEDIAN_TOL[est]}")
                else:
                    failed += len(bad)
                    notes.extend(f"{est}: trial {rec.trial} error {rec.error}" for rec in bad)
        return PassCheck(attempted, failed, tuple(outputs), tuple(notes))


class SeqSweep(_Sweep):
    name = "seq-sweep"
    why = "read-mode experiment sweep: read sampling and read k-mer counting, no file I/O beyond the trials CSV"

    def calls(self) -> list[dict]:
        return [
            {
                "mode": "seq",
                "estimators": ["k1-reads", "large-k-reads"],
                "trials": 3,
                "length": "1e5",
                "dist": "0.35,0.25,0.2,0.2",
                "k": 30,
                "extra": ["--s", "0.01", "--coverage", "30", "--read-len", "1000"],
            }
        ]


class NonseqSweep(_Sweep):
    name = "nonseq-sweep"
    why = "whole-sequence experiment sweep at G=1e6: genome-scale mutate, circular counting, distance profile and root finding"

    def calls(self) -> list[dict]:
        common = {"mode": "nonseq", "length": "1e6", "dist": "0.4,0.2,0.2,0.2"}
        return [
            {**common, "estimators": ["k1-single", "k1-gc", "large-k-seq"], "trials": 3, "k": 21},
            {**common, "estimators": ["general-k"], "trials": 1, "k": 8, "extra": ["--subset", "top:500"]},
        ]


CLI_LENGTH = "2e5"
CLI_DIST = "0.4,0.2,0.2,0.2"
CLI_COVERAGE = "10"
CLI_READ_LEN = "1000"
CLI_ERROR_RATE = "0.01"
CLI_TABLE_K = "21"
CLI_READS_K = "30"


def _cli_prepare_steps(seed: int, work: Path) -> list[list[str]]:
    """The README pipeline's data steps: gen, mutate, reads and count."""
    w = {name: str(work / name) for name in ("x.fa", "y.fa", "x.reads", "y.reads", "x.tsv", "y.tsv")}
    reads = ["--coverage", CLI_COVERAGE, "--read-len", CLI_READ_LEN, "--error-rate", CLI_ERROR_RATE]
    return [
        ["gen", "--length", CLI_LENGTH, "--dist", CLI_DIST, "--seed", str(derive_seed(seed, "gen")), "--out", w["x.fa"]],
        ["mutate", "--in", w["x.fa"], "--rate", str(TRUE_P), "--seed", str(derive_seed(seed, "mutate")), "--out", w["y.fa"]],
        ["reads", "--in", w["x.fa"], *reads, "--seed", str(derive_seed(seed, "xreads")), "--out", w["x.reads"]],
        ["reads", "--in", w["y.fa"], *reads, "--seed", str(derive_seed(seed, "yreads")), "--out", w["y.reads"]],
        ["count", "--fasta", w["x.fa"], "-k", CLI_TABLE_K, "--out", w["x.tsv"]],
        ["count", "--fasta", w["y.fa"], "-k", CLI_TABLE_K, "--out", w["y.tsv"]],
    ]


def _cli_params() -> dict:
    return {
        "length": CLI_LENGTH,
        "dist": CLI_DIST,
        "p": TRUE_P,
        "coverage": CLI_COVERAGE,
        "read_len": CLI_READ_LEN,
        "error_rate": CLI_ERROR_RATE,
        "table_k": CLI_TABLE_K,
        "reads_k": CLI_READS_K,
    }


def _header(path: Path) -> dict[str, str]:
    with path.open() as fh:
        line = fh.readline().rstrip("\n")
    return dict(field[1:].split("=", 1) for field in line.split("\t"))


class CliPrepare(Workload):
    name = "cli-prepare"
    why = "CLI data steps gen, mutate, reads and count --fasta as separate calls: FASTA, read and k-mer table writes"

    def params(self) -> dict:
        return _cli_params()

    def steps(self, seed: int, work: Path) -> list[list[str]]:
        return _cli_prepare_steps(seed, work)

    def check(self, seed: int, work: Path, results: list[StepResult]) -> PassCheck:
        import numpy as np
        from mutrate import read_fasta

        g = int(float(CLI_LENGTH))
        n_reads = round(float(CLI_COVERAGE) * g / int(CLI_READ_LEN))
        failed = 0
        notes, outputs = [], []
        x_codes = None
        for r in results:
            out = Path(_flag(r.argv, "--out"))
            ok = r.exit_code == 0 and out.exists()
            if ok:
                outputs.append((out.name, _sha256(out)))
                cmd = r.argv[0]
                if cmd == "gen":
                    x_codes = read_fasta(out)[0].seq.codes
                    ok = x_codes.size == g
                elif cmd == "mutate":
                    y_codes = read_fasta(out)[0].seq.codes
                    changed = float(np.count_nonzero(y_codes != x_codes)) / g if x_codes is not None else -1.0
                    ok = abs(changed / TRUE_P - 1.0) <= SUBSTITUTION_TOL
                elif cmd == "reads":
                    h = _header(out)
                    ok = (int(h["N"]), int(h["L"]), int(h["G"])) == (n_reads, int(CLI_READ_LEN), g)
                else:
                    h = _header(out)
                    ok = (int(h["k"]), int(h["total"]), h["provenance"]) == (int(CLI_TABLE_K), g, "sequence")
            if not ok:
                failed += 1
                notes.append(f"{r.argv[0]} -> {out.name}: exit code {r.exit_code}, output check failed")
        return PassCheck(len(results), failed, tuple(outputs), tuple(notes))


class CliEstimate(Workload):
    name = "cli-estimate"
    why = "the four CLI estimate calls on files already on disk: FASTA, read-file and k-mer table reads plus the estimators"

    def params(self) -> dict:
        return _cli_params()

    def inputs(self, seed: int, work: Path) -> list[list[str]]:
        return _cli_prepare_steps(seed, work)

    def steps(self, seed: int, work: Path) -> list[list[str]]:
        w = {name: str(work / name) for name in ("x.fa", "y.fa", "x.reads", "y.reads", "x.tsv", "y.tsv")}
        return [
            ["estimate", "--estimator", "k1-single", "--x", w["x.fa"], "--y", w["y.fa"]],
            ["estimate", "--estimator", "large-k-seq", "--x-table", w["x.tsv"], "--y-table", w["y.tsv"]],
            ["estimate", "--estimator", "k1-reads", "--x-reads", w["x.reads"], "--y-reads", w["y.reads"]],
            [
                "estimate", "--estimator", "large-k-reads", "--x-reads", w["x.reads"], "--y-reads", w["y.reads"],
                "-k", CLI_READS_K, "--s", CLI_ERROR_RATE,
            ],
        ]

    def check(self, seed: int, work: Path, results: list[StepResult]) -> PassCheck:
        failed = 0
        notes, outputs = [], []
        for r in results:
            est = _flag(r.argv, "--estimator")
            outputs.append((f"{est} stdout", hashlib.sha256(r.stdout.encode()).hexdigest()))
            try:
                p_raw = float(json.loads(r.stdout)["p_raw"]) if r.exit_code == 0 else float("nan")
            except (ValueError, KeyError):
                p_raw = float("nan")
            if not abs(p_raw / TRUE_P - 1.0) <= CLI_ESTIMATE_TOL[est]:
                failed += 1
                notes.append(f"{est}: exit code {r.exit_code}, p_raw {p_raw} outside {TRUE_P}±{CLI_ESTIMATE_TOL[est]:.0%}")
        return PassCheck(len(results), failed, tuple(outputs), tuple(notes))


WORKLOADS: dict[str, Workload] = {w.name: w for w in (SeqSweep(), NonseqSweep(), CliPrepare(), CliEstimate())}
