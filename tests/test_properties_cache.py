"""Property-based tests over the cache fingerprint algebra.

The guarantees the incremental cache rests on:

* determinism — equal key material always produces equal fingerprints,
  regardless of dict/set insertion order (and fingerprints carry no
  backend or process material at all, which the cross-backend golden
  tests exercise end to end);
* sensitivity — perturbing any single *data* field of the fault spec,
  the configuration, or the stage chain produces a *different*
  fingerprint, so a stale entry can never be addressed by a changed run;
* the deliberate exceptions — an empty fault plan is byte-identical to
  no plan, so its seed is normalized out of the key; and the worker
  scheduler knobs (crash/slow injection, retry policy) can never change
  a product, so they are normalized out too — which is what lets a
  crash-interrupted sharded run's clean re-run land on the same stage
  fingerprints and resume from its completed shards.
"""

from __future__ import annotations

import dataclasses
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.fingerprint import (
    INPUT_CHANNELS,
    RunKey,
    derive_run_key,
    jsonable,
    plan_digest,
    stage_fingerprint,
    value_digest,
)
from repro.core.inspection import InspectionConfig
from repro.core.patterns import PatternConfig
from repro.core.pipeline import PipelineConfig
from repro.core.shortlist import ShortlistConfig
from repro.exec.stage import Stage, fingerprint_chain
from repro.faults.plan import FaultPlan, FaultSpec

# -- strategies ----------------------------------------------------------------

_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.text(max_size=12),
)

_value = st.recursive(
    _scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)

_spec_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_spec_ints = st.integers(min_value=0, max_value=1000)

_fault_spec = st.builds(
    FaultSpec,
    drop_weeks=_spec_floats,
    drop_ports=_spec_floats,
    pdns_blackouts=_spec_ints,
    pdns_blackout_days=st.integers(min_value=1, max_value=60),
    ct_delay_days=_spec_ints,
    routing_stale=_spec_floats,
    worker_crash=_spec_floats,
    worker_slow=_spec_floats,
    worker_slow_ms=st.integers(min_value=1, max_value=500),
    max_retries=st.integers(min_value=1, max_value=8),
    backoff_ms=st.integers(min_value=1, max_value=200),
)

_config = st.builds(
    PipelineConfig,
    patterns=st.builds(
        PatternConfig,
        transient_max_days=st.integers(min_value=30, max_value=200),
        stable_min_scans=st.integers(min_value=2, max_value=20),
    ),
    shortlist=st.builds(
        ShortlistConfig,
        min_presence=st.integers(min_value=1, max_value=8),
        recurring_periods=st.integers(min_value=2, max_value=6),
    ),
    inspection=st.builds(
        InspectionConfig,
        window_days=st.integers(min_value=1, max_value=90),
        stale_cert_days=st.integers(min_value=30, max_value=1000),
    ),
    max_gap_scans=st.integers(min_value=1, max_value=12),
    enable_pivot=st.booleans(),
    enable_t1_star=st.booleans(),
)

class _Link(Stage):
    """A stage reduced to what keys it: name, version and declarations."""

    def __init__(self, name, cache_version, config_deps=None, input_deps=None):
        self.name = name
        self.cache_version = cache_version
        self.config_deps = config_deps
        self.input_deps = input_deps

    def run(self, ctx, backend):  # pragma: no cover - never executed
        raise NotImplementedError


_input_deps = st.one_of(
    st.none(), st.lists(st.sampled_from(INPUT_CHANNELS), unique=True).map(tuple)
)

_chain = st.lists(
    st.builds(
        _Link,
        st.sampled_from(["deployment_maps", "classify", "shortlist", "inspect"]),
        st.integers(min_value=1, max_value=5),
        st.none(),
        _input_deps,
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda stage: stage.name,
).map(fingerprint_chain)

_EMPTY_PLAN = FaultPlan.from_spec(None)


class _FakeInputs:
    """Stands in for PipelineInputs when only config/fault digests matter.

    ``input_digests`` honors the memo attribute, so the digest walk is
    skipped; the real walk is covered by the content tests below.
    """

    _repro_input_digests = tuple((name, name[0] * 32) for name in INPUT_CHANNELS)


def _key(config: PipelineConfig, plan: FaultPlan = _EMPTY_PLAN) -> RunKey:
    return derive_run_key(_FakeInputs(), plan, config)


def _relink(chain, index: int, **changes):
    """``chain`` rebuilt with its ``index``-th stage's declarations changed."""
    stages = [_Link(*link) for link in chain]
    for name, value in changes.items():
        setattr(stages[index], name, value)
    return fingerprint_chain(stages)


# -- determinism ---------------------------------------------------------------


class TestDeterminism:
    @settings(max_examples=80)
    @given(st.dictionaries(st.text(max_size=6), _value, min_size=2, max_size=6))
    def test_dict_insertion_order_is_irrelevant(self, mapping):
        reordered = dict(reversed(list(mapping.items())))
        assert value_digest(mapping) == value_digest(reordered)

    @settings(max_examples=80)
    @given(st.lists(st.integers(), min_size=1, max_size=8, unique=True))
    def test_set_insertion_order_is_irrelevant(self, items):
        forward = set()
        for item in items:
            forward.add(item)
        backward = set()
        for item in reversed(items):
            backward.add(item)
        assert value_digest(forward) == value_digest(backward)

    @settings(max_examples=60)
    @given(_fault_spec, st.integers(min_value=0, max_value=10**6))
    def test_equal_plans_digest_equally(self, spec, seed):
        a = FaultPlan(spec=spec, seed=seed)
        b = FaultPlan(spec=dataclasses.replace(spec), seed=seed)
        assert plan_digest(a) == plan_digest(b)

    @settings(max_examples=60)
    @given(_config, _chain)
    def test_equal_key_material_fingerprints_equally(self, config, chain):
        a = _key(config)
        b = _key(dataclasses.replace(config))
        assert stage_fingerprint(a, chain) == stage_fingerprint(b, chain)

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_empty_plan_seed_is_normalized(self, seed):
        assert plan_digest(FaultPlan.from_spec(None, seed=seed)) == plan_digest(
            FaultPlan.from_spec(None, seed=0)
        )

    @settings(max_examples=60)
    @given(_value)
    def test_jsonable_output_always_encodes(self, value):
        """Whatever the input shape, the canonical form is encodable and
        digestible — digesting never raises on supported types."""
        import json

        json.dumps(jsonable(value), sort_keys=True)
        assert value_digest(value) == value_digest(value)


# -- sensitivity ---------------------------------------------------------------


def _perturb_field(value, field):
    """A deterministic different value for one dataclass field."""
    current = getattr(value, field.name)
    if isinstance(current, bool):
        return not current
    if isinstance(current, int):
        return current + 1
    if isinstance(current, float):
        # Stay inside [0, 1] — several knobs validate as probabilities.
        return current + 0.125 if current <= 0.875 else current - 0.125
    raise AssertionError(f"unhandled field type for {field.name}")


#: Spec fields that only steer the scheduler — normalized out of the
#: plan digest so a crash-interrupted run and its clean re-run share
#: cache entries (kernels are pure; retries recompute identical data).
_WORKER_FIELDS = frozenset(
    {"worker_crash", "worker_slow", "worker_slow_ms", "max_retries", "backoff_ms"}
)
_DATA_CHANNELS = (
    "drop_weeks",
    "drop_ports",
    "pdns_blackouts",
    "ct_delay_days",
    "routing_stale",
)


def _data_active(spec: FaultSpec) -> bool:
    return any(getattr(spec, name) for name in _DATA_CHANNELS)


class TestSensitivity:
    @settings(max_examples=60)
    @given(_fault_spec, st.data())
    def test_any_data_field_perturbation_changes_plan_digest(self, spec, data):
        field = data.draw(
            st.sampled_from(
                [f for f in fields(FaultSpec) if f.name not in _WORKER_FIELDS]
            ),
            label="field",
        )
        other = dataclasses.replace(
            spec, **{field.name: _perturb_field(spec, field)}
        )
        a = FaultPlan(spec=spec, seed=3)
        b = FaultPlan(spec=other, seed=3)
        assert plan_digest(a) != plan_digest(b)

    @settings(max_examples=60)
    @given(_fault_spec, st.data())
    def test_worker_field_perturbation_never_changes_plan_digest(
        self, spec, data
    ):
        """Scheduler knobs can't change any product, so they are not key
        material — this is what lets a killed sharded run's clean re-run
        resume from the faulted run's completed shards."""
        field = data.draw(
            st.sampled_from(
                [f for f in fields(FaultSpec) if f.name in _WORKER_FIELDS]
            ),
            label="field",
        )
        other = dataclasses.replace(
            spec, **{field.name: _perturb_field(spec, field)}
        )
        a = FaultPlan(spec=spec, seed=3)
        b = FaultPlan(spec=other, seed=3)
        assert plan_digest(a) == plan_digest(b)

    @settings(max_examples=40)
    @given(_fault_spec, st.integers(min_value=0, max_value=10**6))
    def test_seed_changes_data_active_plan_digest(self, spec, seed):
        plan = FaultPlan(spec=spec, seed=seed)
        if not _data_active(spec):
            # No data channel live: the seed can only pick crash/slow
            # victims, which never reach a product — normalized away.
            assert plan_digest(plan) == plan_digest(
                FaultPlan(spec=spec, seed=seed + 1)
            )
            return
        assert plan_digest(plan) != plan_digest(
            FaultPlan(spec=spec, seed=seed + 1)
        )

    @settings(max_examples=60)
    @given(_config, _chain, st.data())
    def test_any_config_leaf_perturbation_changes_fingerprint(
        self, config, chain, data
    ):
        """With the conservative whole-config dependency (deps=None in
        the chain), every leaf knob is key material."""
        section_field = data.draw(
            st.sampled_from(fields(PipelineConfig)), label="section"
        )
        section = getattr(config, section_field.name)
        if dataclasses.is_dataclass(section):
            leaf = data.draw(
                st.sampled_from(fields(type(section))), label="leaf"
            )
            new_section = dataclasses.replace(
                section, **{leaf.name: _perturb_field(section, leaf)}
            )
        else:
            new_section = _perturb_field(config, section_field)
        other = dataclasses.replace(config, **{section_field.name: new_section})
        assert stage_fingerprint(_key(config), chain) != stage_fingerprint(
            _key(other), chain
        )

    @settings(max_examples=60)
    @given(_config, _chain, st.data())
    def test_chain_perturbations_change_fingerprint(self, config, chain, data):
        key = _key(config)
        original = stage_fingerprint(key, chain)
        index = data.draw(
            st.integers(min_value=0, max_value=len(chain) - 1), label="index"
        )
        name, version, _config_deps, input_deps = chain[index]
        bumped = _relink(chain, index, cache_version=version + 1)
        assert stage_fingerprint(key, bumped) != original
        renamed = _relink(chain, index, name=name + "_v2")
        assert stage_fingerprint(key, renamed) != original
        # Declaring another channel read is a different computation.
        widened = _relink(
            chain, index, input_deps=None if input_deps is not None else ("scan",)
        )
        assert stage_fingerprint(key, widened) != original
        if len(chain) > 1:
            # A strict prefix is a different stage's address.
            assert stage_fingerprint(key, chain[:-1]) != original

    @settings(max_examples=40)
    @given(_config, _chain)
    def test_inputs_and_faults_are_key_material(self, config, chain):
        key = _key(config)
        other_inputs = RunKey(
            inputs=tuple((name, "j" * 32) for name, _ in key.inputs),
            faults=key.faults,
            config_fields=key.config_fields,
        )
        # Unless every stage of the chain declares it reads nothing.
        read = any(deps is None or deps for *_, deps in chain)
        assert (
            stage_fingerprint(key, chain) != stage_fingerprint(other_inputs, chain)
        ) is read
        other_faults = RunKey(
            inputs=key.inputs, faults="f" * 32, config_fields=key.config_fields
        )
        assert stage_fingerprint(key, chain) != stage_fingerprint(
            other_faults, chain
        )

    @settings(max_examples=60)
    @given(_config, _chain, st.sampled_from(INPUT_CHANNELS))
    def test_exactly_the_declared_channels_are_key_material(
        self, config, chain, channel
    ):
        """A channel's digest keys a stage iff some stage of its chain
        prefix reads it (every channel, for a stage declaring none)."""
        key = _key(config)
        moved = RunKey(
            inputs=tuple(
                (name, "m" * 32 if name == channel else digest)
                for name, digest in key.inputs
            ),
            faults=key.faults,
            config_fields=key.config_fields,
        )
        read = any(deps is None or channel in deps for *_, deps in chain)
        assert (stage_fingerprint(key, chain) != stage_fingerprint(moved, chain)) is read

    @settings(max_examples=60)
    @given(_config, st.data())
    def test_scoped_deps_ignore_unrelated_sections(self, config, data):
        """The sweep-reuse property: a stage keyed only on
        ``max_gap_scans`` is untouched by inspection-knob changes."""
        chain = fingerprint_chain([_Link("deployment_maps", 1, ("max_gap_scans",))])
        leaf = data.draw(st.sampled_from(fields(InspectionConfig)), label="leaf")
        other = dataclasses.replace(
            config,
            inspection=dataclasses.replace(
                config.inspection,
                **{leaf.name: _perturb_field(config.inspection, leaf)},
            ),
        )
        assert stage_fingerprint(_key(config), chain) == stage_fingerprint(
            _key(other), chain
        )
        gap = dataclasses.replace(config, max_gap_scans=config.max_gap_scans + 1)
        assert stage_fingerprint(_key(config), chain) != stage_fingerprint(
            _key(gap), chain
        )


# -- real input content --------------------------------------------------------


class TestInputContent:
    def test_equal_content_different_objects_digest_equally(self):
        """Two independently built (but identical) worlds produce the
        same inputs digest — the digest is content-addressed, not
        object-addressed."""
        from repro.cache.fingerprint import inputs_digest
        from repro.core.pipeline import PipelineInputs
        from repro.world.scenarios import small_world
        from repro.world.sim import run_study

        a = PipelineInputs.from_study(run_study(small_world()))
        b = PipelineInputs.from_study(run_study(small_world()))
        assert a is not b
        assert inputs_digest(a) == inputs_digest(b)

    def test_degraded_inputs_digest_differently(self, small_study):
        from repro.cache.fingerprint import inputs_digest
        from repro.core.pipeline import PipelineInputs
        from repro.faults import DataQuality, apply_faults

        inputs = PipelineInputs.from_study(small_study)
        degraded = apply_faults(
            inputs, FaultPlan.from_spec("scan.drop_weeks=0.4", seed=2), DataQuality()
        )
        assert inputs_digest(degraded) != inputs_digest(inputs)
