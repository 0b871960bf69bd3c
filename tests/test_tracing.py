"""The benchmark's tracer (perfbench/tracing.py) wraps functions at the names
their callers look up on mutrate.cli, mutrate.harness and
mutrate.estimators. A change that drops or renames one of those names, or
that binds a call before the tracer can wrap it, fails here."""

import importlib.util
import sys
from pathlib import Path

from mutrate import cli, estimators, harness
from mutrate.estimators import EstimatorId, SubsetSpec
from mutrate.model import SubstitutionChannel, generate_iid_sequence, mutate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (cli, harness, estimators)


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_install_wraps_the_called_names_and_remove_restores_them(monkeypatch, tmp_path):
    tracing = _load_tracing(monkeypatch)
    before = [dict(vars(m)) for m in MODULES]
    tracer = tracing.Tracer()
    tracer.start_pass("test")
    remove = tracing.install(tracer)
    try:
        wrapped = {
            f"{m.__name__}.{name}"
            for m, old in zip(MODULES, before)
            for name, fn in vars(m).items()
            if old.get(name) is not fn
        }
        assert {
            "mutrate.cli.estimate_large_k_reads",
            "mutrate.cli.run_experiment",
            "mutrate.cli.write_kmer_table",
            "mutrate.harness.estimate_general_k",
            "mutrate.harness.count_kmers_reads",
            "mutrate.estimators.distance_profile",
            "mutrate.estimators.select_lambda",
            "mutrate.estimators.find_smallest_root",
        } <= wrapped
        x = generate_iid_sequence(2000, (0.4, 0.2, 0.2, 0.2), rng_seed=1)
        y = mutate(x, SubstitutionChannel(0.05), rng_seed=2)
        harness.estimate(EstimatorId.GENERAL_K, x, y, k=4, subset=SubsetSpec.top(20))
        harness.estimate(EstimatorId.LARGE_K_SEQ, x, y, k=12)
        assert cli.main(["gen", "--length", "100", "--seed", "1", "--out", str(tmp_path / "x.fa")]) == 0
    finally:
        remove()
    assert all(vars(m).get(name) is fn for m, old in zip(MODULES, before) for name, fn in old.items())
    assert {s.name for s in tracer.spans} == {
        "estimators.general_k",
        "estimators.distance_profile",
        "estimators.root_find",
        "estimators.large_k_seq",
        "kmers.count_seq",
        "model.generate",
        "seqio.write_fasta",
    }
    assert tracer.counts["estimators.calls"] == 2
    assert tracer.counts["estimators.root_g_evals"] == 5  # k + 1 at k = 4
    assert tracer.counts["kmers.count_seq_windows"] == 2 * 2000  # x twice; y is never counted
