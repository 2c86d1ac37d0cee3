"""Canonical fingerprints for the content-addressed stage cache.

A stage result may be reused only when *everything* that could change it
is byte-identical: the input bundle the stages consume (post
fault-degradation), the fault plan (seed and spec — worker faults are
keyed per chunk, so a different ``--fault-seed`` is a different run),
the pipeline configuration, and the identity + code version of every
stage up to and including the one being keyed.  All of that is folded
into one :func:`stage_fingerprint` through the
:func:`repro.io.golden.canonical_json` encoder, so fingerprints are
independent of dict insertion order, of the execution backend, and of
the process that computed them.  Of the inputs and the configuration,
a fingerprint folds only what its stage chain declares it reads: the
digests of its input channels (``Stage.input_deps``) and of its config
fields (``Stage.config_deps``).

The input digest is *content*-addressed, not object-addressed: each
evidence table is hashed as bytes — its per-row columns and its value
pools in the segment encoding, block by block (:func:`block_digests`) —
so an in-RAM table, its segment and an epoch overlay of the same rows
fingerprint identically, while dropping a single scan record — or
degrading anything via a fault plan — changes the key.  The small
datasets (AS2Org, periods, routing, geo) digest through their canonical
JSON forms.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, fields, is_dataclass
from datetime import date, datetime
from enum import Enum
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.io.golden import canonical_json
from repro.segments.pools import block_bytes

if TYPE_CHECKING:
    from repro.core.pipeline import PipelineInputs
    from repro.faults.plan import FaultPlan

#: Global salt folded into every fingerprint; bump to invalidate every
#: cache entry at once (e.g. after a change to the entry format or the
#: digest scheme itself).
CACHE_SALT = "repro.cache/2"

#: Hex-digest length of a stage fingerprint (blake2b, 24 bytes).
_FINGERPRINT_BYTES = 24
_PART_BYTES = 16


def jsonable(value: Any) -> Any:
    """Recursively convert a value into a canonical JSON-safe form.

    Dataclasses become field dicts, enums their names, dates ISO
    strings; sets and frozensets become sorted lists; dicts become
    sorted ``[key, value]`` pair lists (keys converted too), which is
    what makes digests independent of insertion order even for
    non-string keys.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.name
    if isinstance(value, datetime):
        return value.isoformat()
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, (set, frozenset)):
        converted = [jsonable(v) for v in value]
        return sorted(converted, key=canonical_json)
    if isinstance(value, dict):
        pairs = [[jsonable(k), jsonable(v)] for k, v in value.items()]
        return {"__pairs__": sorted(pairs, key=canonical_json)}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot fingerprint value of type {type(value).__name__}")


def value_digest(value: Any) -> str:
    """Hex digest of an arbitrary value via its canonical form."""
    return hashlib.blake2b(
        canonical_json(jsonable(value)).encode("utf-8"), digest_size=_PART_BYTES
    ).hexdigest()


class _Hasher:
    """Incremental digest over named canonical parts."""

    def __init__(self) -> None:
        self._h = hashlib.blake2b(digest_size=_PART_BYTES)
        self._h.update(CACHE_SALT.encode("utf-8"))

    def feed(self, part: str, payload: Any) -> None:
        self._h.update(part.encode("utf-8"))
        self._h.update(b"\x00")
        self._h.update(canonical_json(payload).encode("utf-8"))
        self._h.update(b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


#: Rows (and pool entries) per digest block.  A table digests as lists
#: of block digests rather than one flat hash, so an epoch overlay that
#: appends rows and pool values re-hashes only the base's trailing
#: partial blocks plus what it appended (every full base block's digest
#: is reused verbatim) — O(delta) instead of O(dataset).
BLOCK_ROWS = 4096


def _block(count: int, chunks: Iterable) -> str:
    hasher = hashlib.blake2b(count.to_bytes(8, "little"), digest_size=_PART_BYTES)
    for chunk in chunks:
        hasher.update(chunk)
    return hasher.hexdigest()


def _spans(start: int, stop: int) -> Iterable[tuple[int, int]]:
    return ((lo, min(lo + BLOCK_ROWS, stop)) for lo in range(start, stop, BLOCK_ROWS))


def _extend(digests: Sequence[str], n_base: int, n: int, chunks) -> list[str]:
    """``digests`` (the blocks of the first ``n_base`` items) extended to
    ``n`` items: every full block is kept, and the blocks from the first
    partial one on are hashed from ``chunks(lo, hi)``."""
    full = n_base // BLOCK_ROWS
    return list(digests[:full]) + [
        _block(hi - lo, chunks(lo, hi)) for lo, hi in _spans(full * BLOCK_ROWS, n)
    ]


def _column(table, name: str):
    """A per-row column for slicing: a scan table's sparse reader (an
    overlay's root rows are range reads, never a copy), else the
    column's buffer."""
    sparse = getattr(table, "sparse_column", None)
    return sparse(name) if sparse is not None else memoryview(getattr(table, name))


def _blocks(table, base=None, pools=None) -> dict[str, Any]:
    """``table``'s blocks, hashed from its buffers.  With ``base`` — a
    table that ``table`` extends by appending rows and pool values —
    every full base block is reused, and only the rows and pool entries
    of the trailing partial blocks are read.  ``pools`` maps pool names
    to views already encoded (a writer's)."""
    old = block_digests(base) if base is not None else {"rows": [], "pools": {}}

    def n_base(name: str | None = None) -> int:
        if base is None:
            return 0
        return len(base if name is None else getattr(base, name))

    columns = [_column(table, name) for name in table.digest_columns]
    blocks: dict[str, Any] = {
        "block_rows": BLOCK_ROWS,
        "rows": _extend(
            old["rows"], n_base(), len(table),
            lambda lo, hi: [column[lo:hi] for column in columns],
        ),
        "pools": {},
    }
    for name, kind in table.digest_pools:
        pool = (pools or {}).get(name, getattr(table, name))
        blocks["pools"][name] = _extend(
            old["pools"].get(name, []), n_base(name), len(pool),
            lambda lo, hi, pool=pool, kind=kind: block_bytes(pool, lo, hi, kind),
        )
    return blocks


def block_digests(table, pools=None) -> dict[str, Any]:
    """A table's content as per-block digests, memoized on the table.

    ``{"block_rows": B, "rows": [...], "pools": {name: [...]}}``: one
    digest per ``B`` rows over the bytes of every per-row column
    (``table.digest_columns``), and one per ``B`` entries of each value
    pool (``table.digest_pools``) over those entries in their segment
    encoding (:func:`repro.segments.pools.block_bytes`).  Interned ids
    are a pure function of the row stream, so the columns and pools
    cover exactly the rows' values; two tables with the same rows share
    every block digest, whatever backs them.

    The memo has three producers: a cold pass here (a segment writer
    passes the ``pools`` it already encoded), a segment opener seeding
    the blocks its header stores, and the epoch overlay extending a
    base's blocks (:func:`extended_block_digests`).
    """
    memo = getattr(table, "_repro_blocks", None)
    if memo is not None and memo.get("block_rows") == BLOCK_ROWS:
        return memo
    return _remember(table, _blocks(table, pools=pools))


def extended_block_digests(table, base) -> dict[str, Any]:
    """Block digests of ``table`` — ``base``'s rows and pool values
    followed by appended ones — reusing every full block of ``base``
    and re-hashing only the trailing partial blocks from buffers.

    This is the epoch overlay's O(delta) fingerprint path; the result
    equals :func:`block_digests` over the full table (the property
    suite holds it to that).
    """
    return _remember(table, _blocks(table, base=base))


def _remember(table, blocks: dict[str, Any]) -> dict[str, Any]:
    try:
        object.__setattr__(table, "_repro_blocks", blocks)
    except (AttributeError, TypeError):
        pass
    return blocks


#: The attribute a content digest is memoized under (see _memo_digest).
_DIGEST_MEMO = "_repro_content_digest"


def _memo_digest(obj: Any, build) -> str:
    """Memoize a content digest on the object that owns the content.

    Datasets are never mutated in place — fault degradation *derives*
    new objects (``scan.degraded``, ``pdns.without_windows``, …) — so a
    digest computed once is good for the object's lifetime.  Memoizing
    per component rather than per bundle matters because every
    ``run_pipeline`` call builds a fresh :class:`PipelineInputs` around
    the same long-lived datasets: the digest is paid on the first probe
    of a study, not on every run over it.
    """
    cached = getattr(obj, _DIGEST_MEMO, None)
    if cached is not None:
        return cached
    digest = build()
    seed_digest(obj, digest)
    return digest


def seed_digest(obj: Any, digest: str) -> None:
    """Memoize ``digest`` as ``obj``'s content digest, such as one a
    segment stores beside the object, unless ``obj`` takes no
    attributes."""
    try:
        object.__setattr__(obj, _DIGEST_MEMO, digest)
    except (AttributeError, TypeError):  # slots-only object: recompute
        pass


def without_digest(obj: Any) -> Any:
    """``obj`` without its digest memo: a shallow copy if it has one, so
    what is pickled of it depends on its content alone."""
    if _DIGEST_MEMO not in getattr(obj, "__dict__", ()):
        return obj
    clone = copy.copy(obj)
    del clone.__dict__[_DIGEST_MEMO]
    return clone


def context_digests(inputs: PipelineInputs) -> dict[str, str | None]:
    """The digests of a bundle's context datasets (None for an absent
    one), memoized on each dataset.  A segment bundle stores them, so
    its first probe hashes none of them."""
    as2org, routing, geo = inputs.as2org, inputs.routing, inputs.geo
    return {
        "as2org": _memo_digest(
            as2org,
            lambda: value_digest(
                [
                    {"asn": asn, "org": org, "name": as2org.org_name(org)}
                    for asn, org in as2org.items()
                ]
            ),
        ),
        "routing": None
        if routing is None
        else _memo_digest(routing, lambda: value_digest(list(routing.prefixes()))),
        "geo": None
        if geo is None
        else _memo_digest(geo, lambda: value_digest(geo.items())),
    }


def _channel_digest(dataset, name: str, header) -> str:
    """An evidence channel's digest: its table's blocks plus
    ``header(dataset)``, the content the dataset holds beyond them."""

    def build() -> str:
        hasher = _Hasher()
        hasher.feed(f"{name}.header", header(dataset))
        hasher.feed(f"{name}.blocks", block_digests(dataset.table))
        return hasher.hexdigest()

    return _memo_digest(dataset, build)


def _scan_header(scan) -> dict[str, Any]:
    return {
        "dates": [d.isoformat() for d in scan.scan_dates],
        "known_missing": sorted(d.isoformat() for d in scan.known_missing_dates),
    }


def _ct_header(crtsh) -> Any:
    """What turns the CT table's rows into answers: the revocation
    registry and as-of date (each certificate's retroactive status),
    the publication delay and horizon (when an entry surfaces, and
    whether it does) and how many entries the horizon hid."""
    registry = crtsh._revocations
    return jsonable(
        {
            "asof": crtsh._asof,
            "delay_days": crtsh._publication_delay.days,
            "horizon": crtsh._publication_horizon,
            "hidden": crtsh.table.hidden_entries,
            "mechanisms": registry._mechanism,
            "revocations": registry._entries,
        }
    )


#: The input channels of a bundle, in the order :func:`inputs_digest`
#: folds them; a stage names the ones it reads in ``Stage.input_deps``.
INPUT_CHANNELS = ("scan", "pdns", "ct", "as2org", "periods", "routing", "geo")


def _periods_rows(periods) -> list[dict[str, Any]]:
    return [
        {"index": p.index, "start": p.start.isoformat(), "end": p.end.isoformat()}
        for p in periods
    ]


def input_digests(inputs: PipelineInputs) -> tuple[tuple[str, str | None], ...]:
    """One ``(channel, content digest)`` pair per :data:`INPUT_CHANNELS`
    entry (None for an absent routing or geo table).

    The evidence tables digest as blocks plus header
    (:func:`_channel_digest`), the context datasets as in
    :func:`context_digests`, and the periods as their canonical rows.
    Component digests are memoized on the datasets and the tuple on the
    bundle, so repeat runs over the same study pay the hashing once.
    """
    cached = getattr(inputs, "_repro_input_digests", None)
    if cached is not None:
        return cached
    context = context_digests(inputs)
    periods = canonical_json(_periods_rows(inputs.periods)).encode("utf-8")
    digests = (
        ("scan", _channel_digest(inputs.scan, "scan", _scan_header)),
        # pDNS rows are the aggregates in canonical (rrname, rtype, rdata)
        # order, so the table alone is the database's content.
        ("pdns", _channel_digest(inputs.pdns, "pdns", lambda pdns: None)),
        ("ct", _channel_digest(inputs.crtsh, "ct", _ct_header)),
        ("as2org", context["as2org"]),
        ("periods", hashlib.blake2b(periods, digest_size=_PART_BYTES).hexdigest()),
        ("routing", context["routing"]),
        ("geo", context["geo"]),
    )
    try:
        # The bundle is a frozen dataclass; memoizing via its __dict__
        # does not affect field equality or downstream pickling.
        object.__setattr__(inputs, "_repro_input_digests", digests)
    except AttributeError:  # slots-only bundle: recompute every call
        pass
    return digests


def inputs_digest(inputs: PipelineInputs) -> str:
    """Content digest of everything the pipeline stages consume: one
    fold over :func:`input_digests`, the periods folded as their rows.

    Fault-degraded bundles digest the *degraded* content, so dataset
    faults change the key without any special-casing here.  Stage
    fingerprints fold only the channels a stage's chain reads (see
    :func:`stage_fingerprint`); this whole-bundle digest names a bundle.
    """
    hasher = _Hasher()
    for name, digest in input_digests(inputs):
        hasher.feed(name, _periods_rows(inputs.periods) if name == "periods" else digest)
    return hasher.hexdigest()


#: Spec fields that only perturb the *scheduler* — crash/slowdown
#: injection and the retry policy.  Kernels are pure per-item maps and
#: retried chunks recompute identical results, so these knobs can never
#: change a stage's products; stripping them from the plan digest lets a
#: crash-interrupted run's clean re-run land on the same stage
#: fingerprints and resume from its completed shards (and lets a
#: worker-fault sweep share its data-identical cache entries).
_WORKER_FIELDS = frozenset(
    {"worker_crash", "worker_slow", "worker_slow_ms", "max_retries", "backoff_ms"}
)

#: Spec fields that actually degrade the evidence a stage consumes.
_DATA_FIELDS = (
    "drop_weeks",
    "drop_ports",
    "pdns_blackouts",
    "ct_delay_days",
    "routing_stale",
)


def plan_digest(plan: FaultPlan) -> str:
    """Digest of a fault plan's *data* identity.

    Worker-scheduler knobs are normalized away (see ``_WORKER_FIELDS``),
    and the seed only participates while some data channel is active —
    a seed that can only ever pick crash victims picks nothing that
    reaches a product.
    """
    payload = plan.fingerprint_payload()
    spec = {
        name: value
        for name, value in payload["spec"].items()
        if name not in _WORKER_FIELDS
    }
    data_active = any(spec[name] for name in _DATA_FIELDS)
    return value_digest(
        {"seed": payload["seed"] if data_active else 0, "spec": spec}
    )


def config_digest(config: Any) -> str:
    """Digest of the pipeline configuration (nested dataclass knobs)."""
    return value_digest(config)


@dataclass(frozen=True, slots=True)
class RunKey:
    """The per-run key material every stage fingerprint derives from.

    ``inputs`` holds one ``(channel, digest)`` pair per input channel
    (:func:`input_digests`), so a stage fingerprint can fold in only the
    channels its chain reads — a week of passive DNS then still hits
    the scan-side stages.  ``config_fields`` likewise holds one
    ``(field, digest)`` pair per top-level configuration field, so a
    sweep over inspection thresholds still hits the deployment-map
    entries.  A non-dataclass config digests as the single anonymous
    field ``""``.
    """

    inputs: tuple[tuple[str, str | None], ...]
    faults: str
    config_fields: tuple[tuple[str, str], ...]


def derive_run_key(inputs: PipelineInputs, plan: FaultPlan, config: Any) -> RunKey:
    """Fingerprint one run's key material (the cache-probe hot path)."""
    if is_dataclass(config) and not isinstance(config, type):
        config_fields = tuple(
            (f.name, value_digest(getattr(config, f.name)))
            for f in fields(config)
        )
    else:
        config_fields = (("", value_digest(config)),)
    return RunKey(
        inputs=input_digests(inputs),
        faults=plan_digest(plan),
        config_fields=config_fields,
    )


def _material(
    kind: str, pairs: Sequence[tuple[str, Any]], deps: Iterable[str] | None
) -> list[list[Any]]:
    """The ``[name, digest]`` pairs of ``deps`` among ``pairs``, in
    ``pairs`` order; every pair when ``deps`` is None (the conservative
    default).  A named dependency that is not among ``pairs`` is a
    declaration bug and raises instead of silently under-keying."""
    if deps is None:
        return [[name, digest] for name, digest in pairs]
    wanted = set(deps)
    known = [name for name, _ in pairs]
    missing = sorted(wanted.difference(known))
    if missing:
        raise ValueError(f"unknown {kind} {missing!r} (known: {sorted(known)})")
    return [[name, digest] for name, digest in pairs if name in wanted]


def _input_material(run_key: RunKey, chain) -> list[list[Any]]:
    """The ``[channel, digest]`` pairs a chain reads: the union of its
    links' ``input_deps`` (every name checked), or every channel if any
    link declares none."""
    deps = [input_deps for *_, input_deps in chain]
    declared = {channel for d in deps if d is not None for channel in d}
    material = _material("input channels", run_key.inputs, declared)
    return _material("input channels", run_key.inputs, None) if None in deps else material


def stage_fingerprint(
    run_key: RunKey,
    chain: Sequence[
        tuple[str, int, Sequence[str] | None, Sequence[str] | None]
    ],
) -> str:
    """The cache address of one stage's result.

    ``chain`` is the ``(name, cache_version, config_deps, input_deps)``
    of every stage up to and including the one being keyed, as
    :func:`repro.exec.stage.fingerprint_chain` builds it: a stage's
    output depends on the whole prefix of the stage list that produced
    its inputs, so editing (or version-bumping) any earlier stage — or
    changing a config field any stage in the prefix reads — re-keys
    everything downstream.  Of the inputs, the fingerprint folds the
    digests of the channels the prefix declares and no others, so a
    delta confined to other channels leaves it unchanged.
    """
    payload = {
        "salt": CACHE_SALT,
        "inputs": _input_material(run_key, chain),
        "faults": run_key.faults,
        "stages": [
            [
                name,
                version,
                _material("config dependencies", run_key.config_fields, config_deps),
                None if input_deps is None else sorted(input_deps),
            ]
            for name, version, config_deps, input_deps in chain
        ],
    }
    return hashlib.blake2b(
        canonical_json(payload).encode("utf-8"), digest_size=_FINGERPRINT_BYTES
    ).hexdigest()
