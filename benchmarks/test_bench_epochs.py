"""Epoch engine economics — an epoch apply against a cold and a warm
hunt over the same segment bundle.

The epoch layer exists so a ≤1% weekly delta over a 10⁵–10⁶-domain
study costs O(delta) work, not O(dataset).  This module measures it via
the same producer that fills the ``epochs`` section of BENCH_perf.json
(:func:`repro.obs.perf.measure_epochs`): three serial runs over one
segment bundle of the scale world, each reopening the bundle —

* ``cold_seconds`` — a hunt into an empty stage cache;
* ``warm_seconds`` — the same hunt from the cache the cold run filled;
* ``epoch_seconds`` — :func:`repro.epochs.run_epoch` of a 1% delta onto
  that banked base: overlay merge, dirty set, O(delta) seeding of the
  deployment entry from the base products, then the seeded run.

Two hard CI floors ride along: the epoch report must be byte-identical
to an uncached run over the merged bundle, and the epoch apply must
cost less than the cold hunt it replaces.  ``REPRO_BENCH_EPOCH_DOMAINS``
scales the population (default 100 000).
"""

import os

from conftest import show

from repro.obs.perf import measure_epochs

N_DOMAINS = int(os.environ.get("REPRO_BENCH_EPOCH_DOMAINS", "100000"))


def test_epoch_latency_floor(benchmark):
    summary = benchmark.pedantic(
        lambda: measure_epochs(N_DOMAINS), rounds=1, iterations=1
    )
    show(
        f"Epoch engine at {N_DOMAINS} domains, 1% delta, one bundle (measured)",
        [
            f"cold hunt:  {summary['cold_seconds'] * 1e3:8.1f} ms (banks the cache)",
            f"warm hunt:  {summary['warm_seconds'] * 1e3:8.1f} ms",
            f"epoch run:  {summary['epoch_seconds'] * 1e3:8.1f} ms "
            f"(dirty {summary['domains_dirty']}, reused {summary['domains_reused']})",
            f"identical: {summary['identical']}",
        ],
    )

    # Identity is non-negotiable: reuse optimizes work, never answers.
    assert summary["identical"], "epoch report diverged from the merged rerun"
    assert summary["seeded"], "epoch run failed to seed from base products"
    # The dirty set must stay delta-sized, not population-sized.
    assert summary["domains_dirty"] < N_DOMAINS * 0.1, summary
    assert summary["domains_reused"] > N_DOMAINS * 0.9, summary
    assert summary["epoch_seconds"] < summary["cold_seconds"], (
        f"epoch apply {summary['epoch_seconds']} s is not cheaper than "
        f"a cold hunt ({summary['cold_seconds']} s)"
    )
