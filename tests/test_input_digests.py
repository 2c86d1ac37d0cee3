"""The input content digests of the paper seed-7 world, pinned.

``inputs_digest`` folds one part per evidence channel — the scan, pDNS
and CT tables' content digests, the AS2Org, routing and geo context
digests, and the study periods — and every stage fingerprint derives
from those parts.  Pinning the fold and each part catches any change to
how a channel's content is digested, and any re-plumbing of how the
parts reach the cache key that moves their values.
"""

from __future__ import annotations

import pytest

from repro.cache import fingerprint
from repro.core.pipeline import PipelineConfig, PipelineInputs
from repro.faults import FaultPlan

from tests.test_golden_reports import _study

#: ``inputs_digest`` of ``paper_study(seed=7, n_background=40)``, the
#: golden seed-7 world.
PAPER_SEED7_INPUTS = "75b11bcfabd47dd3f57f68dbf2aed59a"

#: Each channel's digest in that world.
PAPER_SEED7_CHANNELS = {
    "scan": "bf133ac6d7dcd160e058607e540fe19a",
    "pdns": "273d8d3856642a6c2435ae9006235189",
    "ct": "74d1fceb883dc4ee85803cc438aa7f65",
    "as2org": "c9502a776fe8b640380fc44cb7f67395",
    "periods": "d885633ac46ea4664d156a5b877581e5",
    "routing": "6a4b8db5b6507f7f360cda17505a75af",
    "geo": "a8e9a51443871ef0ca7a911ef253017b",
}


@pytest.fixture(scope="module")
def inputs() -> PipelineInputs:
    return PipelineInputs.from_study(_study(7))


def test_inputs_digest_is_pinned(inputs):
    assert fingerprint.inputs_digest(inputs) == PAPER_SEED7_INPUTS


def test_channel_digests_are_pinned(inputs):
    assert dict(fingerprint.input_digests(inputs)) == PAPER_SEED7_CHANNELS


def test_run_key_carries_the_channel_digests(inputs):
    key = fingerprint.derive_run_key(inputs, FaultPlan.from_spec(None), PipelineConfig())
    assert key.inputs == tuple(PAPER_SEED7_CHANNELS.items())
    assert [name for name, _ in key.inputs] == list(fingerprint.INPUT_CHANNELS)
