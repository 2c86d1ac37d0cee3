"""Differential property tests: columnar CT table vs a per-SAN list index.

Arbitrary submission histories — certificates with single, multi-base,
duplicate-base, and wildcard SAN sets, spread across multiple logs with
arbitrary timestamps — are indexed twice: through the
:class:`~repro.ct.table.CtTable` bisect kernels behind
:class:`~repro.ct.crtsh.CrtShService` and through the test-only per-base
list index (:class:`tests.reference.ReferenceCrtSh`).  Every search the
inspection stage issues must answer identically, including ordering and
the per-SAN bucket duplication.  The suite also pins the publication-delay/horizon filter,
the io round-trip, the ``select()`` re-interning invariant, and the
``(fingerprint, logged ordinal)`` wire references' stability across log
insertion orders.
"""

from datetime import date, timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ct.crtsh import CrtShService
from repro.ct.log import CTLog
from repro.ct.table import CtTable
from repro.io.intel import load_ct, save_ct
from repro.tls.certificate import Certificate
from repro.tls.revocation import RevocationRegistry
from tests.reference import ReferenceCrtSh

BASE = date(2019, 1, 1)

#: SAN sets covering one base, two names under one base (the per-SAN
#: index appends such a row to that base's bucket twice), two distinct
#: bases, and a wildcard.
SAN_SETS = (
    ("www.alpha.com",),
    ("login.alpha.com", "mail.alpha.com"),
    ("www.alpha.com", "www.beta.org"),
    ("*.gamma.net",),
    ("login.beta.co.uk",),
)
ISSUERS = ("DigiCert Inc", "Let's Encrypt")

# One submission: (san set, issuer, not_before day, log index, logged lag).
_submission = st.tuples(
    st.integers(min_value=0, max_value=len(SAN_SETS) - 1),
    st.integers(min_value=0, max_value=len(ISSUERS) - 1),
    st.integers(min_value=0, max_value=90),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=20),
)
_history = st.lists(_submission, min_size=1, max_size=15)

_window = st.one_of(
    st.none(),
    st.tuples(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=120),
    ),
)


def _cert(serial: int, sans: tuple[str, ...], issuer: str, nb: date) -> Certificate:
    return Certificate(
        serial=serial,
        common_name=sans[0],
        sans=sans,
        issuer=issuer,
        not_before=nb,
        not_after=nb + timedelta(days=365),
    )


def _logs_from(history) -> list[CTLog]:
    logs = [CTLog("log-a", first_crtsh_id=100), CTLog("log-b", first_crtsh_id=900)]
    for serial, (san_sel, issuer_sel, nb_day, log_sel, lag) in enumerate(history):
        nb = BASE + timedelta(days=nb_day)
        cert = _cert(1000 + serial, SAN_SETS[san_sel], ISSUERS[issuer_sel], nb)
        logs[log_sel].submit(cert, nb + timedelta(days=lag))
    return logs


def _services(logs) -> tuple[CrtShService, ReferenceCrtSh]:
    return CrtShService(logs, RevocationRegistry()), ReferenceCrtSh(logs, RevocationRegistry())


def _keyed(entries):
    return [
        (e.crtsh_id, e.certificate.fingerprint, e.logged_at, e.revocation)
        for e in entries
    ]


QUERIES = (
    "www.alpha.com",
    "alpha.com",
    "beta.org",
    "sub.gamma.net",
    "login.beta.co.uk",
    "missing.example.org",
)


class TestSearchEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(_history, _window)
    def test_search_matches_legacy_index(self, history, window):
        logs = _logs_from(history)
        columnar, model = _services(logs)
        after = before = None
        if window is not None:
            lo, hi = window
            after = BASE + timedelta(days=lo)
            before = BASE + timedelta(days=max(lo, hi))
        for query in QUERIES:
            assert _keyed(columnar.search(query, after, before)) == _keyed(
                model.search(query, after, before)
            )
            assert _keyed(columnar.search_exact(query, after, before)) == _keyed(
                model.search_exact(query, after, before)
            )

    @settings(max_examples=50, deadline=None)
    @given(_history)
    def test_lookup_id_matches_legacy_index(self, history):
        logs = _logs_from(history)
        columnar, model = _services(logs)
        ids = [e.certificate.crtsh_id for log in logs for e in log.entries()]
        for crtsh_id in (*ids, 424242):
            via_table = columnar.lookup_id(crtsh_id)
            via_model = model.lookup_id(crtsh_id)
            if via_model is None:
                assert via_table is None
            else:
                assert _keyed([via_table]) == _keyed([via_model])

    @settings(max_examples=30, deadline=None)
    @given(_history, st.integers(min_value=0, max_value=30))
    def test_publication_delay_matches_legacy(self, history, delay):
        """Delay + horizon filtering hides the same entries either way."""
        logs = _logs_from(history)
        horizon = BASE + timedelta(days=60)
        columnar, _ = _services(logs)
        delayed_columnar = columnar.with_publication_delay(delay, horizon)
        delayed_model = ReferenceCrtSh(
            logs, RevocationRegistry(), delay_days=delay, horizon=horizon
        )
        assert delayed_columnar.hidden_entries == delayed_model.hidden_entries
        for query in QUERIES:
            assert _keyed(delayed_columnar.search(query)) == _keyed(
                delayed_model.search(query)
            )


class TestWireReferences:
    @settings(max_examples=50, deadline=None)
    @given(_history)
    def test_row_of_stable_across_log_order(self, history):
        """(fingerprint, logged ordinal) resolves to identical content in
        a service whose logs were attached in the opposite order — the
        portability the encoded inspection evidence relies on."""
        logs = _logs_from(history)
        forward = CtTable.from_logs(logs)
        reverse = CtTable.from_logs(list(reversed(logs)))
        for row in range(len(forward)):
            fp = forward.fps[forward.cert_id[row]]
            ordinal = forward.logged_ord[row]
            other = reverse.row_of(fp, ordinal)
            assert reverse.fps[reverse.cert_id[other]] == fp
            assert reverse.logged_ord[other] == ordinal
            assert reverse.crtsh_id[other] == forward.crtsh_id[row]

    @settings(max_examples=50, deadline=None)
    @given(_history)
    def test_entry_at_round_trips_search_results(self, history):
        logs = _logs_from(history)
        service = CrtShService(logs, RevocationRegistry())
        for query in QUERIES:
            for entry in service.search(query):
                again = service.entry_at(
                    entry.certificate.fingerprint, entry.logged_at.toordinal()
                )
                assert again.certificate.fingerprint == entry.certificate.fingerprint
                assert again.logged_at == entry.logged_at
                assert again.crtsh_id == entry.crtsh_id


class TestDerivedTables:
    @settings(max_examples=50, deadline=None)
    @given(_history, st.integers(min_value=1, max_value=3))
    def test_select_reinterns_like_fresh_build(self, history, keep_mod):
        """select() re-interns pools in first-seen order over survivors,
        equal to a table built from the surviving entry stream — and the
        invariant holds again on a second (double) degradation."""
        logs = _logs_from(history)
        table = CtTable.from_logs(logs)
        kept = [row for row in range(len(table)) if row % keep_mod == 0]
        derived = table.select(kept)

        replay = CTLog("replay", first_crtsh_id=10_000)
        for row in kept:
            replay.submit(
                table.certs[table.cert_id[row]],
                date.fromordinal(table.logged_ord[row]),
            )
        rebuilt = CtTable.from_logs([replay])
        assert list(derived.row_dicts()) == list(rebuilt.row_dicts())
        assert derived.fps == rebuilt.fps
        assert derived.issuers == rebuilt.issuers
        assert derived.san_sets == rebuilt.san_sets
        for base in derived.bases:
            assert derived.search_rows(base) == rebuilt.search_rows(base)

        again = derived.select(range(0, len(derived), 2))
        fresh = CTLog("replay2", first_crtsh_id=20_000)
        for row in range(0, len(derived), 2):
            fresh.submit(
                derived.certs[derived.cert_id[row]],
                date.fromordinal(derived.logged_ord[row]),
            )
        rebuilt_again = CtTable.from_logs([fresh])
        assert list(again.row_dicts()) == list(rebuilt_again.row_dicts())
        assert again.fps == rebuilt_again.fps

    @settings(max_examples=25, deadline=None)
    @given(_history)
    def test_pickle_round_trip_rebuilds_indexes(self, history):
        import pickle

        logs = _logs_from(history)
        table = CtTable.from_logs(logs)
        clone = pickle.loads(pickle.dumps(table))
        assert list(clone.row_dicts()) == list(table.row_dicts())
        for base in table.bases:
            assert clone.search_rows(base) == table.search_rows(base)
        for row in range(len(table)):
            fp = table.fps[table.cert_id[row]]
            assert clone.row_of(fp, table.logged_ord[row]) == table.row_of(
                fp, table.logged_ord[row]
            )


class TestIORoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(_history)
    def test_save_load_preserves_search_answers(self, tmp_path_factory, history):
        """A round-tripped CT stack answers every search identically —
        the loaded service replays entries into one log, so values (not
        row ids) are the comparison currency."""
        logs = _logs_from(history)
        service = CrtShService(logs, RevocationRegistry())
        # save_ct persists a single log; merge by replaying in (log,
        # entry) order, which preserves per-base bucket order.
        merged = CTLog("merged", first_crtsh_id=50_000)
        for log in logs:
            for entry in log.entries():
                merged.submit(entry.certificate, entry.timestamp)
        path = tmp_path_factory.mktemp("ct") / "ct.jsonl"
        save_ct(merged, RevocationRegistry(), path)
        _log, _revocations, loaded = load_ct(path)
        original = CrtShService([merged], RevocationRegistry())
        for query in QUERIES:
            got = [
                (e.certificate.fingerprint, e.logged_at)
                for e in loaded.search(query)
            ]
            want = [
                (e.certificate.fingerprint, e.logged_at)
                for e in original.search(query)
            ]
            assert got == want
