"""Differential property tests: columnar pDNS table vs a linear model.

Arbitrary observation histories — several rrnames across registered
domains (including a multi-label co.uk suffix and an irregular,
unparsable owner name), all record types, mixed-case and trailing-dot
rdata, overlapping date spans — are aggregated twice: into a
:class:`PassiveDNSDatabase`, whose queries run on the
:class:`~repro.pdns.table.PdnsTable` kernels, and into the test-only
linear model (:class:`tests.reference.ReferencePdns`).  Every query the
inspection and pivot stages make — forward, suffix and inverse — must
return the model's rows in the documented order.  The suite also pins
the io round-trip and the ``select()`` re-interning invariant (a
degraded view's ids equal a fresh build's) that make table row ids safe
cache currency.
"""

from datetime import date, timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.records import RRType
from repro.io.datasets import load_pdns, save_pdns
from repro.net.timeline import DateInterval
from repro.pdns.database import PassiveDNSDatabase
from repro.pdns.table import PdnsTable
from tests.reference import ReferencePdns

BASE = date(2019, 1, 1)

#: Owner names spanning the tricky cases: plain subdomains, an apex, a
#: multi-label public suffix (beta.co.uk), and irregular names whose
#: registered domain is unparsable (empty label) — the linear model
#: happily aggregates them, so the table must answer for them too, in
#: suffix queries on a regular base as well.
RRNAMES = (
    "www.alpha.com",
    "ns1.alpha.com",
    "alpha.com",
    "login.beta.co.uk",
    "beta.co.uk",
    "bad..name",
    "mail..alpha.com",
)
RTYPES = (RRType.A, RRType.NS, RRType.CNAME)
#: Stored verbatim for every rtype but NS, which folds case and the
#: trailing dot — so the mixed-case value is stored in two forms.
RDATA = ("10.0.0.1", "10.0.0.2", "ns.evil.net", "ns.good.org", "Alias.Mixed.ORG.")

# One observation run: (rrname, rtype, rdata, first day index, span).
_observation = st.tuples(
    st.integers(min_value=0, max_value=len(RRNAMES) - 1),
    st.integers(min_value=0, max_value=len(RTYPES) - 1),
    st.integers(min_value=0, max_value=len(RDATA) - 1),
    st.integers(min_value=0, max_value=90),
    st.integers(min_value=1, max_value=30),
)
_history = st.lists(_observation, min_size=1, max_size=20)

_window = st.one_of(
    st.none(),
    st.tuples(
        st.integers(min_value=0, max_value=100),
        st.one_of(st.none(), st.integers(min_value=0, max_value=120)),
    ),
)


def _database_from(history, db=None):
    db = PassiveDNSDatabase() if db is None else db
    for name_sel, rtype_sel, rdata_sel, start, span in history:
        day = BASE + timedelta(days=start)
        db.add_observation(RRNAMES[name_sel], RTYPES[rtype_sel], RDATA[rdata_sel], day)
        db.add_observation(
            RRNAMES[name_sel],
            RTYPES[rtype_sel],
            RDATA[rdata_sel],
            day + timedelta(days=span),
        )
    return db


def _model_from(history) -> ReferencePdns:
    return _database_from(history, ReferencePdns())


def _interval(window) -> DateInterval | None:
    if window is None:
        return None
    start, end = window
    return DateInterval(
        BASE + timedelta(days=start),
        None if end is None else BASE + timedelta(days=max(start, end)),
    )


def _keyed(records):
    return [
        (r.rrname, r.rtype, r.rdata, r.first_seen, r.last_seen, r.count)
        for r in records
    ]


def _assert_same_rows(got, want, sort_key):
    """Multiset-equal rows (the model leaves ties in insertion order),
    with ``got`` ordered by the documented sort key."""
    assert sorted(map(repr, _keyed(got))) == sorted(map(repr, _keyed(want)))
    keys = [sort_key(r) for r in got]
    assert keys == sorted(keys)


def _by_first_rdata(r):
    return (r.first_seen, r.rdata)


def _by_name_first_rdata(r):
    return (r.rrname, r.first_seen, r.rdata)


def _by_name_first(r):
    return (r.rrname, r.first_seen)


class TestQueryEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(_history, _window)
    def test_query_name_matches_linear(self, history, window):
        """Same rows as the model, in ``(first_seen, rdata)`` order."""
        db, model = _database_from(history), _model_from(history)
        interval = _interval(window)
        for rrname in RRNAMES:
            for rtype in (None, *RTYPES):
                _assert_same_rows(
                    db.query_name(rrname, rtype, interval),
                    model.query_name(rrname, rtype, interval),
                    _by_first_rdata,
                )

    @settings(max_examples=50, deadline=None)
    @given(_history, _window)
    def test_query_domain_matches_linear(self, history, window):
        """The per-domain CSR slice (or the irregular-name walk) equals the
        model's suffix scan, for subdomain, apex and multi-label-suffix
        queries alike."""
        db, model = _database_from(history), _model_from(history)
        interval = _interval(window)
        for query in (
            "www.alpha.com",
            "alpha.com",
            "login.beta.co.uk",
            "beta.co.uk",
            "missing.example.org",
        ):
            _assert_same_rows(
                db.query_domain(query, interval),
                model.query_domain(query, interval),
                _by_name_first_rdata,
            )

    @settings(max_examples=200, deadline=None)
    @given(_history, _window)
    def test_bare_suffix_query_domain_matches_linear(self, history, window):
        """A bare public suffix spans many registered domains; the walk of
        the sorted owner-name pool returns the model's suffix scan."""
        db, model = _database_from(history), _model_from(history)
        interval = _interval(window)
        for query in ("co.uk", "com", "uk"):
            _assert_same_rows(
                db.query_domain(query, interval),
                model.query_domain(query, interval),
                _by_name_first_rdata,
            )

    @settings(max_examples=200, deadline=None)
    @given(_history, _window)
    def test_query_rdata_matches_linear(self, history, window):
        """The pivot's inverse lookup: for every rtype (and none), in any
        case and with or without a trailing dot, the rdata index returns
        the model's rows in ``(rrname, first_seen)`` order."""
        db, model = _database_from(history), _model_from(history)
        interval = _interval(window)
        for rdata in RDATA:
            stem = rdata.rstrip(".")
            for query in {rdata, stem, stem + ".", stem.upper(), stem.lower() + "."}:
                for rtype in (None, *RTYPES):
                    _assert_same_rows(
                        db.query_rdata(query, rtype, interval),
                        model.query_rdata(query, rtype, interval),
                        _by_name_first,
                    )

    @settings(max_examples=30, deadline=None)
    @given(_history)
    def test_histories_match_linear(self, history):
        """a_history / ns_history answer exactly like the model."""
        db, model = _database_from(history), _model_from(history)
        for rrname in RRNAMES:
            assert _keyed(db.a_history(rrname)) == _keyed(model.a_history(rrname))
            if ".." not in rrname:  # ns_history resolves a registered domain
                assert _keyed(db.ns_history(rrname)) == _keyed(model.ns_history(rrname))


class TestRowEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(_history)
    def test_row_dicts_match_all_records(self, history):
        """The canonical column walk equals the aggregated record list —
        same rows, same (rrname, rtype, rdata) order, same aggregates."""
        db = _database_from(history)
        expected = [
            {
                "rrname": r.rrname,
                "rtype": r.rtype.value,
                "rdata": r.rdata,
                "first": r.first_seen.toordinal(),
                "last": r.last_seen.toordinal(),
                "count": r.count,
            }
            for r in db.all_records()
        ]
        assert list(db.table.row_dicts()) == expected

    @settings(max_examples=50, deadline=None)
    @given(_history)
    def test_row_of_inverts_record(self, history):
        db = _database_from(history)
        table = db.table
        for row in range(len(table)):
            record = table.record(row)
            assert table.row_of(record.rrname, record.rtype, record.rdata) == row

    @settings(max_examples=50, deadline=None)
    @given(_history)
    def test_table_rebuilds_after_growth(self, history):
        """Adding observations invalidates the lazy table (version bump):
        queries never answer from a stale snapshot."""
        db = _database_from(history)
        before = len(db.table)
        db.add_observation("late.alpha.com", RRType.A, "10.9.9.9", BASE)
        assert len(db.table) != before or any(
            r["rrname"] == "late.alpha.com" for r in db.table.row_dicts()
        )
        model = _model_from(history)
        model.add_observation("late.alpha.com", RRType.A, "10.9.9.9", BASE)
        assert _keyed(db.query_name("late.alpha.com")) == _keyed(
            model.query_name("late.alpha.com")
        )


class TestDegradedRebuild:
    @settings(max_examples=50, deadline=None)
    @given(_history, st.sets(st.integers(min_value=0, max_value=120), max_size=4))
    def test_blackout_view_interns_like_fresh_build(self, history, dark_days):
        """The fault path (without_windows) produces a database whose
        table columns and pool ids equal a table freshly built from the
        surviving aggregates — the cache-safety invariant."""
        db = _database_from(history)
        blackouts = [
            DateInterval(BASE + timedelta(days=d), BASE + timedelta(days=d + 6))
            for d in sorted(dark_days)
        ]
        degraded = db.without_windows(blackouts)
        rebuilt = PdnsTable.from_records(degraded.all_records())
        assert list(degraded.table.row_dicts()) == list(rebuilt.row_dicts())
        for column in ("rrname_id", "rtype_code", "rdata_id", "first_ord", "last_ord"):
            assert getattr(degraded.table, column) == getattr(rebuilt, column)
        assert degraded.table.rrnames == rebuilt.rrnames
        assert degraded.table.rdatas == rebuilt.rdatas

    @settings(max_examples=50, deadline=None)
    @given(_history, st.integers(min_value=1, max_value=3))
    def test_select_reinterns_like_fresh_build(self, history, keep_mod):
        """select() over any row subset re-interns in first-seen order, so
        a derived table equals one built from the surviving records —
        including after a second derivation (double degradation)."""
        db = _database_from(history)
        table = db.table
        kept = [row for row in range(len(table)) if row % keep_mod == 0]
        derived = table.select(kept)
        rebuilt = PdnsTable.from_records([table.record(r) for r in kept])
        assert list(derived.row_dicts()) == list(rebuilt.row_dicts())
        assert derived.rrnames == rebuilt.rrnames
        assert derived.rdatas == rebuilt.rdatas
        # Degrade the already-degraded view again: ids still canonical.
        again = derived.select(range(0, len(derived), 2))
        rebuilt_again = PdnsTable.from_records(
            [derived.record(r) for r in range(0, len(derived), 2)]
        )
        assert list(again.row_dicts()) == list(rebuilt_again.row_dicts())
        assert again.rrnames == rebuilt_again.rrnames


class TestIORoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(_history)
    def test_save_load_preserves_columns_and_queries(self, tmp_path_factory, history):
        db = _database_from(history)
        path = tmp_path_factory.mktemp("pdns") / "pdns.jsonl"
        save_pdns(db, path)
        loaded = load_pdns(path)
        assert list(loaded.table.row_dicts()) == list(db.table.row_dicts())
        assert loaded.table.rrnames == db.table.rrnames
        assert loaded.table.rdatas == db.table.rdatas
        for rrname in RRNAMES:
            assert _keyed(loaded.query_name(rrname)) == _keyed(db.query_name(rrname))


class TestPickleRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(_history)
    def test_worker_rebuild_interns_identical_ids(self, history):
        """Pickling drops the table; the receiving process's lazy rebuild
        interns identical ids (the worker-result safety invariant)."""
        import pickle

        db = _database_from(history)
        original_rows = list(db.table.row_dicts())
        clone = pickle.loads(pickle.dumps(db))
        assert clone._table is None
        assert list(clone.table.row_dicts()) == original_rows
        assert clone.table.rrname_id == db.table.rrname_id
        assert clone.table.rdata_id == db.table.rdata_id
