"""Differential vectorized-executor suite: the toggle changes cost,
never answers.

Three layers, mirroring tests/test_planner_differential.py:

* every corpus replay re-runs with ``vectorized_executor`` off and on --
  identical committed rows, identical committed-transaction sets,
  identical serializability verdicts, and (because the batch path pins
  the per-tuple path's yield cadence) identical replay step structure;
* whole workloads (YCSB, the reporting join mix, SIBENCH) run under
  both settings with the same seed -- the simulation must take exactly
  the same schedule: same commit/abort/serialization-failure counts,
  same per-type mix, same final table contents;
* a SQL battery (joins, GROUP BY/HAVING, aggregates including the
  pushdown shapes, NULL keys, string extrema, float sums) where the
  on/off answers must be repr-identical -- same rows, same order, same
  Python types.
"""

from pathlib import Path

import pytest

from repro.config import EngineConfig, PerfConfig
from repro.engine import Database, Eq
from repro.engine.isolation import IsolationLevel
from repro.errors import SerializationFailure
from repro.explore import load_replay, run_replay
from repro.sql.executor import SQLSession
from repro.workloads import ReportingWorkload, SIBench, YCSB, run_workload

CORPUS_DIR = Path(__file__).resolve().parent / "explore_corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))

VEC_OFF = PerfConfig(vectorized_executor=False)
VEC_ON = PerfConfig(vectorized_executor=True)

SER = IsolationLevel.SERIALIZABLE
RR = IsolationLevel.REPEATABLE_READ


def run_pair(replay, isolation=None):
    off = run_replay(replay, isolation, perf=VEC_OFF)
    on = run_replay(replay, isolation, perf=VEC_ON)
    return off, on


# ---------------------------------------------------------------------------
# corpus replays
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_identical_outcome_under_snapshot_isolation(path):
    replay = load_replay(str(path))
    off, on = run_pair(replay)
    assert off.record.complete and on.record.complete
    assert not off.diverged and not on.diverged, \
        "the batch executor changed the replayable step structure"
    assert off.record.state == on.record.state
    assert off.record.committed_txns == on.record.committed_txns
    assert off.record.check.serializable == on.record.check.serializable
    assert not on.record.check.serializable, \
        f"{path.stem}: pinned anomaly disappeared with batching on"


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_identical_ssi_verdict_under_serializable(path):
    replay = load_replay(str(path))
    off, on = run_pair(replay, SER)
    assert off.record.complete and on.record.complete
    assert off.record.state == on.record.state
    assert off.record.check.serializable and on.record.check.serializable
    assert (off.record.serialization_failures
            == on.record.serialization_failures)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
def _run_workload_pair(make_workload, tables, *, isolation, n_clients,
                       max_ticks, seed):
    outcomes = []
    for perf in (VEC_OFF, VEC_ON):
        db = Database(EngineConfig(perf=perf))
        result = run_workload(make_workload(), isolation=isolation,
                              n_clients=n_clients, max_ticks=max_ticks,
                              seed=seed, db=db)
        session = db.session()
        state = {t: sorted(tuple(sorted(r.items()))
                           for r in session.select(t)) for t in tables}
        outcomes.append((result, state))
    return outcomes


WORKLOADS = [
    ("ycsb", lambda: YCSB(table_size=60), ["usertable"]),
    ("reporting", lambda: ReportingWorkload(n_customers=12),
     ["customers", "orders"]),
    ("sibench", lambda: SIBench(table_size=25), ["sibench"]),
]


@pytest.mark.parametrize("isolation", [RR, SER], ids=["si", "ssi"])
@pytest.mark.parametrize("name,factory,tables", WORKLOADS,
                         ids=[w[0] for w in WORKLOADS])
def test_workload_schedule_is_identical(name, factory, tables, isolation):
    off, on = _run_workload_pair(factory, tables, isolation=isolation,
                                 n_clients=4, max_ticks=2500, seed=7)
    r_off, s_off = off
    r_on, s_on = on
    assert r_off.commits == r_on.commits
    assert r_off.aborts == r_on.aborts
    assert r_off.serialization_failures == r_on.serialization_failures
    assert r_off.by_type == r_on.by_type
    assert r_off.steps == r_on.steps, \
        "batching changed the yield cadence -- schedules diverged"
    assert s_off == s_on
    assert r_on.commits > 0, "vacuous run: nothing committed"


# ---------------------------------------------------------------------------
# SQL battery
# ---------------------------------------------------------------------------
def _loaded_sql(perf) -> SQLSession:
    db = Database(EngineConfig(perf=perf))
    db.create_table("customers", ["cid", "region", "balance"], key="cid")
    db.create_table("orders", ["oid", "cid", "amount", "note"], key="oid")
    # (no secondary index on cid: some cids are NULL below, and the
    # btree does not index NULL keys; the pk index on oid still
    # exercises the batch index-scan path via the BETWEEN query.)
    session = db.session()
    session.begin()
    regions = ["north", "south", None, "east"]
    for cid in range(8):
        session.insert("customers", {"cid": cid,
                                     "region": regions[cid % 4],
                                     "balance": cid * 2.5})
    for oid in range(30):
        session.insert("orders", {
            # cid 7 never ordered; some orders have a NULL cid (SQL
            # semantics: a NULL key joins nothing).
            "oid": oid,
            "cid": None if oid % 9 == 5 else oid % 7,
            "amount": (oid * 3) % 11 + 0.25,
            "note": None if oid % 4 == 2 else f"n{oid % 3}"})
    session.commit()
    db.vacuum()
    sql = SQLSession(db.session())
    sql.execute("ANALYZE")
    return sql


QUERIES = [
    # joins: hash/merge/nestloop chosen by the planner on the on side,
    # always nested-loop on the off side -- answers must not move.
    "SELECT * FROM orders JOIN customers ON orders.cid = customers.cid",
    "SELECT customers.cid, amount FROM customers "
    "JOIN orders ON customers.cid = orders.cid WHERE balance > 5",
    "SELECT region, SUM(amount) AS total FROM orders "
    "JOIN customers ON orders.cid = customers.cid "
    "GROUP BY region HAVING SUM(amount) > 1 ORDER BY region",
    "SELECT oid FROM orders JOIN customers ON orders.cid = customers.cid "
    "WHERE region = 'north' ORDER BY oid LIMIT 5",
    # grouping without a join
    "SELECT cid, COUNT(*) AS n, AVG(amount) AS avg_amount FROM orders "
    "GROUP BY cid ORDER BY cid",
    "SELECT note, COUNT(note) FROM orders GROUP BY note",
    # aggregates -- the pushdown shapes, plus the ones pushdown must
    # decline (ORDER BY present) and NULL/empty/string edge cases
    "SELECT COUNT(*) FROM orders",
    "SELECT COUNT(cid) FROM orders",
    "SELECT SUM(amount), MIN(amount), MAX(amount), AVG(amount) FROM orders",
    "SELECT SUM(amount) FROM orders WHERE cid = 3",
    "SELECT COUNT(*) FROM orders WHERE amount < 0",
    "SELECT MIN(note), MAX(note) FROM orders",
    "SELECT MIN(region) FROM customers WHERE balance > 100",
    "SELECT COUNT(*) AS n FROM orders WHERE oid BETWEEN 5 AND 25",
    # plain scans / projections
    "SELECT * FROM customers ORDER BY cid",
    "SELECT region FROM customers WHERE balance >= 10",
]


def test_sql_battery_byte_identical():
    off, on = _loaded_sql(VEC_OFF), _loaded_sql(VEC_ON)
    for query in QUERIES:
        r_off = off.execute(query)
        r_on = on.execute(query)
        assert repr(r_off) == repr(r_on), \
            f"on/off answers diverged for {query!r}"


def test_sql_battery_empty_table():
    for query in ["SELECT COUNT(*), SUM(balance) FROM customers",
                  "SELECT * FROM customers JOIN orders "
                  "ON customers.cid = orders.cid"]:
        results = []
        for perf in (VEC_OFF, VEC_ON):
            db = Database(EngineConfig(perf=perf))
            db.create_table("customers", ["cid", "balance"], key="cid")
            db.create_table("orders", ["oid", "cid"], key="oid")
            results.append(SQLSession(db.session()).execute(query))
        assert repr(results[0]) == repr(results[1])


def test_float_sum_is_bit_identical():
    """Partial per-page sums must chain exactly like one flat sum()
    (BatchAggregator uses sum(values, acc) for this); floats expose
    any regrouping immediately."""
    answers = []
    for perf in (VEC_OFF, VEC_ON):
        db = Database(EngineConfig(perf=perf))
        db.create_table("t", ["k", "x"], key="k")
        s = db.session()
        s.begin()
        for k in range(500):
            s.insert("t", {"k": k, "x": 0.1 * ((k * 7919) % 97)})
        s.commit()
        db.vacuum()
        sql = SQLSession(db.session())
        answers.append(sql.execute(
            "SELECT SUM(x), AVG(x) FROM t WHERE k > 3"))
    assert repr(answers[0]) == repr(answers[1])


def test_scan_aggregate_matches_select_fold():
    """Engine-level: session.scan_aggregate equals aggregating the
    select() output by hand, for every supported func."""
    db = Database(EngineConfig(perf=VEC_ON))
    db.create_table("t", ["k", "v"], key="k")
    s = db.session()
    s.begin()
    for k in range(40):
        s.insert("t", {"k": k, "v": None if k % 5 == 0 else k * 1.5})
    s.commit()
    db.vacuum()
    s = db.session()
    specs = [("COUNT", None), ("COUNT", "v"), ("SUM", "v"),
             ("MIN", "v"), ("MAX", "v"), ("AVG", "v")]
    got = s.scan_aggregate("t", specs)
    rows = s.select("t")
    values = [r["v"] for r in rows if r["v"] is not None]
    expect = [len(rows), len(values), sum(values), min(values),
              max(values), sum(values) / len(values)]
    assert got == expect


# ---------------------------------------------------------------------------
# an SSI abort partway through a heap page
# ---------------------------------------------------------------------------
def _doomed_mid_page_scan(perf):
    """T1 is a pivot T0 -> T1 -> T2 with T2 committed first. Its seq
    scan discovers the T1 -> T2 edge at row 5's old version, in the
    middle of the table's only heap page, and aborts there. Returns
    (tuples read by the failing scan, SIREAD fast-path hits it
    counted, live tuples on the page)."""
    db = Database(EngineConfig(perf=perf))
    db.create_table("t", ["k", "v"], key="k")
    s = db.session()
    for k in range(10):
        s.insert("t", {"k": k, "v": 0})
    s.select("t")  # sets the hint bits the page-mode fast case reads
    t0, t1, t2 = db.session(), db.session(), db.session()
    for sess in (t0, t1, t2):
        sess.begin(SER)
    t1.update("t", Eq("k", 1), {"v": 1})
    t0.select("t", Eq("k", 1))            # T0 -> T1
    t2.update("t", Eq("k", 5), {"v": 2})
    t2.commit()
    hits = db.obs.metrics.counter("perf.siread_fastpath_hits")
    read_before, hits_before = db.stats.tuples_read, hits.value
    with pytest.raises(SerializationFailure):
        t1.select("t")                    # T1 -> T2: T1 is the pivot
    (page,) = db.relations()["t"].heap.scan_pages()
    return (db.stats.tuples_read - read_before, hits.value - hits_before,
            len(page.live_tuples()))


def test_abort_mid_page_charges_the_same_work():
    off = _doomed_mid_page_scan(VEC_OFF)
    on = _doomed_mid_page_scan(VEC_ON)
    assert on == off
    read, hits, live = on
    assert 0 < read < live, "the abort must fall strictly inside the page"
    assert hits > 0
