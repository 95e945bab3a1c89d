"""The benchmark's three traffic mixes, generated as SQL text.

Each workload supplies the statements that build its database, a
generator of transactions for one client thread, and the output checks
that run once the clients have stopped.  All inputs come from the seed:
a workload built twice from one seed loads the same rows, and a client
thread seeded the same way draws the same transactions in the same
order.

* ``sibench`` -- the paper's SIBENCH (section 8.1): half the
  transactions update one row of a 1,000-row table by key, half are
  READ ONLY full-table scans returning one row.  Scan, visibility and
  SIREAD work dominate; this is the read-only / safe-snapshot case.
* ``ycsb`` -- Zipfian (theta 0.99) point traffic over 50,000 rows with
  literal SQL and no PREPARE, so the 256-entry parse cache overflows
  and the wire, parse and per-statement layers dominate.
* ``orders`` -- DBT-2++ (TPC-C with the TPC-C++ credit check) in SQL,
  with the transactions and key layout of
  :class:`repro.workloads.dbt2pp.DBT2PP`, on a durable engine.  Stock
  is large enough that the dirty page set passes the 512-page
  writeback ceiling.
"""

from __future__ import annotations

import random
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.workloads.dbt2pp import (DBT2PP, customer_key, district_key,
                                    order_key, stock_key)

#: Rows per multi-row INSERT during the bulk load.
LOAD_BATCH = 500


@dataclass
class Txn:
    """One transaction: ``body(client)`` runs inside BEGIN/COMMIT and may
    run several times (serialization-failure retries); ``on_commit``
    receives the final attempt's result once COMMIT is acknowledged."""

    kind: str
    read_only: bool
    body: Callable[[Any], Any]
    on_commit: Optional[Callable[[Any], None]] = None


class CheckFailed(AssertionError):
    """A transaction saw a result the workload's invariants forbid."""


def _one(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    if len(rows) != 1:
        raise CheckFailed(f"expected one row, got {len(rows)}")
    return rows[0]


def _value(rows: List[Dict[str, Any]]) -> Any:
    """The single value of a one-row, one-column result."""
    (value,) = _one(rows).values()
    return value


def _insert_batches(table: str, columns: str,
                    rows: List[Tuple[Any, ...]]) -> List[str]:
    out = []
    for lo in range(0, len(rows), LOAD_BATCH):
        values = ",".join("(" + ", ".join(_literal(v) for v in row) + ")"
                          for row in rows[lo:lo + LOAD_BATCH])
        out.append(f"INSERT INTO {table} ({columns}) VALUES {values}")
    return out


def _literal(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value + "'"
    return str(value)


class Workload:
    name = ""
    #: Engine runs on durable storage (fsync, WAL, page writeback).
    durable = False
    #: VACUUM target (None vacuums every table) and cadence in
    #: committed transactions; the engine has no autovacuum.
    vacuum_table: Optional[str] = None
    vacuum_every = 250

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._lock = threading.Lock()

    def schema(self) -> List[str]:
        raise NotImplementedError

    def load(self) -> List[str]:
        """Multi-row INSERTs, each run as its own transaction."""
        raise NotImplementedError

    def thread_state(self, thread: int) -> Any:
        return None

    def next_txn(self, rng: random.Random, state: Any) -> Txn:
        raise NotImplementedError

    def check(self, client) -> List[str]:
        """Output checks against the final database; returns failures."""
        raise NotImplementedError


# ----------------------------------------------------------------------
class SIBench(Workload):
    name = "sibench"
    vacuum_table = "sibench"
    rows = 1000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(f"sibench-load-{seed}")
        self.values = [rng.randrange(1_000_000) for _ in range(self.rows)]
        self.increments = 0

    def schema(self) -> List[str]:
        return ["CREATE TABLE sibench (k INT PRIMARY KEY, v INT)"]

    def load(self) -> List[str]:
        return _insert_batches("sibench", "k, v",
                               list(enumerate(self.values)))

    def next_txn(self, rng: random.Random, state: Any) -> Txn:
        if rng.random() < 0.5:
            return Txn("query", True, _sibench_query)
        key = rng.randrange(self.rows)
        return Txn("update", False, lambda c: _sibench_update(c, key),
                   self._count_increment)

    def _count_increment(self, _result: Any) -> None:
        with self._lock:
            self.increments += 1

    def check(self, client) -> List[str]:
        row = _one(client.sql("SELECT COUNT(*), SUM(v) FROM sibench"))
        count, total = row["count"], row["sum_v"]
        expected = sum(self.values) + self.increments
        failures = []
        if count != self.rows:
            failures.append(f"sibench: {count} rows, expected {self.rows}")
        if total != expected:
            failures.append(f"sibench: SUM(v) = {total}, expected "
                            f"{expected} (initial + committed increments)")
        return failures


def _sibench_query(c) -> Any:
    return _value(c.sql("SELECT MIN(v) FROM sibench"))


def _sibench_update(c, key: int) -> None:
    if c.sql(f"UPDATE sibench SET v = v + 1 WHERE k = {key}") != 1:
        raise CheckFailed(f"sibench: update of key {key} hit no row")


# ----------------------------------------------------------------------
class YCSB(Workload):
    name = "ycsb"
    vacuum_table = "usertable"
    vacuum_every = 1000
    rows = 50_000
    theta = 0.99
    scan_length = 10

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(f"ycsb-load-{seed}")
        self.values = [rng.randrange(1000) for _ in range(self.rows)]
        cdf: List[float] = []
        acc = 0.0
        for rank in range(1, self.rows + 1):
            acc += 1.0 / rank ** self.theta
            cdf.append(acc)
        self._cdf = cdf
        self.inserted = 0
        self.delta = 0

    def _key(self, rng: random.Random) -> int:
        # Rank r is the r-th most popular key: the hot set sits on the
        # lowest keys, as in repro.workloads.ycsb.
        return bisect_left(self._cdf, rng.random() * self._cdf[-1])

    def schema(self) -> List[str]:
        return ["CREATE TABLE usertable (k INT PRIMARY KEY, v INT, f TEXT)"]

    def load(self) -> List[str]:
        return _insert_batches(
            "usertable", "k, v, f",
            [(k, v, f"field{k:07d}") for k, v in enumerate(self.values)])

    def thread_state(self, thread: int) -> Dict[str, int]:
        return {"thread": thread, "inserts": 0}

    def next_txn(self, rng: random.Random, state: Dict[str, int]) -> Txn:
        draw = rng.random()
        key = self._key(rng)
        if draw < 0.50:
            return Txn("read", True, lambda c: _one(c.sql(
                f"SELECT * FROM usertable WHERE k = {key}")))
        if draw < 0.90:
            delta = rng.randint(1, 9)
            return Txn("rmw", False, lambda c: _ycsb_rmw(c, key, delta),
                       lambda _r: self._account(0, delta))
        if draw < 0.95:
            # Disjoint key sequences per thread beyond the loaded range.
            new_key = self.rows + 2 * state["inserts"] + state["thread"]
            state["inserts"] += 1
            value = rng.randrange(1000)
            return Txn("insert", False, lambda c: c.sql(
                f"INSERT INTO usertable (k, v, f) VALUES "
                f"({new_key}, {value}, 'field{new_key:07d}')"),
                lambda _r: self._account(1, value))
        hi = key + self.scan_length - 1
        return Txn("scan", True, lambda c: _ycsb_scan(c, key, hi))

    def _account(self, inserted: int, delta: int) -> None:
        with self._lock:
            self.inserted += inserted
            self.delta += delta

    def check(self, client) -> List[str]:
        row = _one(client.sql("SELECT COUNT(*), SUM(v) FROM usertable"))
        failures = []
        if row["count"] != self.rows + self.inserted:
            failures.append(
                f"ycsb: {row['count']} rows, expected {self.rows} + "
                f"{self.inserted} committed inserts")
        expected = sum(self.values) + self.delta
        if row["sum_v"] != expected:
            failures.append(
                f"ycsb: SUM(v) = {row['sum_v']}, expected {expected} "
                "(initial + committed increments and inserted values)")
        return failures


def _ycsb_rmw(c, key: int, delta: int) -> None:
    value = _value(c.sql(f"SELECT v FROM usertable WHERE k = {key}"))
    if c.sql(f"UPDATE usertable SET v = {value + delta} "
             f"WHERE k = {key}") != 1:
        raise CheckFailed(f"ycsb: update of key {key} hit no row")


def _ycsb_scan(c, lo: int, hi: int) -> List[Dict[str, Any]]:
    rows = c.sql(f"SELECT k, v FROM usertable WHERE k BETWEEN {lo} AND {hi}")
    if not rows or any(not lo <= r["k"] <= hi for r in rows):
        raise CheckFailed(f"ycsb: scan [{lo}, {hi}] returned {len(rows)} "
                          "rows or rows outside the range")
    return rows


# ----------------------------------------------------------------------
@dataclass
class _OrdersThread:
    thread: int
    home: Tuple[int, int]
    history: int = 0


def _pick(rng: random.Random, mix: List[Tuple[str, float]]) -> str:
    draw = rng.random() * sum(weight for _name, weight in mix)
    for name, weight in mix:
        draw -= weight
        if draw <= 0:
            return name
    return mix[-1][0]


class Orders(Workload):
    """DBT-2++ in SQL.  Transaction kinds, keys, remote fraction, order
    sizes and initial orders come from DBT2PP; amounts are whole
    numbers so sums compare exactly, stock is never wrapped back up
    (TPC-C's +91) so it is conserved, and PAYMENT also updates
    ``warehouse.w_ytd`` and appends to ``history`` as in TPC-C.

    Three mix settings differ from DBT2PP's defaults, so that the
    latencies are stable from run to run:

    * 30% of transactions are read-only (DBT2PP: 8%, one point of the
      range the paper's Figure 5 sweeps).  At 8% a 20-second run holds
      about 150 read-only transactions, too few for a tail percentile.
    * ORDER-STATUS and STOCK-LEVEL are drawn 3:1 (DBT2PP: 1:1).
      STOCK-LEVEL issues one SELECT per item of the last five orders
      and takes several times as long as ORDER-STATUS; at 1:1 the median
      read-only latency falls in the gap between the two and jumps from
      run to run with whichever happened to be drawn more often.  At
      3:1 it falls inside ORDER-STATUS and the tail inside STOCK-LEVEL.
    * NEW-ORDER and PAYMENT are drawn 0.60:0.30 (DBT2PP: TPC-C's
      0.46:0.44), DELIVERY and CREDIT-CHECK 0.05 each as in DBT2PP.
      NEW-ORDER issues about ten times the statements of PAYMENT; at
      TPC-C's weights the median read/write latency falls in the gap
      between the two (its spread over ten seeds was 0.22 of its
      median).  At 0.60 it falls inside NEW-ORDER.
    """

    read_only_fraction = 0.30
    RO_MIX = [("order_status", 0.75), ("stock_level", 0.25)]
    RW_MIX = [("new_order", 0.60), ("payment", 0.30), ("delivery", 0.05),
              ("credit_check", 0.05)]

    name = "orders"
    durable = True
    vacuum_table = None
    vacuum_every = 500
    items = 10_000
    initial_stock = 100_000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.mix = DBT2PP()
        self.w = self.mix.warehouses
        self.d = self.mix.districts
        self.c = self.mix.customers
        self.initial_orders = self.mix.initial_orders
        rng = random.Random(f"orders-load-{seed}")
        self.stock = {(w, i): self.initial_stock + rng.randrange(50)
                      for w in range(self.w) for i in range(self.items)}
        self.prices = [1 + rng.randrange(100) for _ in range(self.items)]
        self._orders: List[Tuple[Any, ...]] = []
        self._lines: List[Tuple[Any, ...]] = []
        self._new_orders: List[Tuple[Any, ...]] = []
        lo, hi = self.mix.items_per_order
        for w in range(self.w):
            for d in range(self.d):
                dk = district_key(w, d)
                for o_id in range(1, self.initial_orders + 1):
                    ok = order_key(w, d, o_id)
                    n_lines = rng.randint(lo, hi)
                    delivered = o_id <= self.initial_orders // 2
                    for line in range(n_lines):
                        item = rng.randrange(self.items)
                        qty = rng.randint(1, 5)
                        self._lines.append((ok * 100 + line, ok, item, qty,
                                            self.prices[item] * qty,
                                            delivered))
                    self._orders.append(
                        (ok, dk, o_id, customer_key(w, d, rng.randrange(
                            self.c)), 7 if delivered else None, n_lines))
                    if not delivered:
                        self._new_orders.append((ok, dk))
        self.new_orders_committed = 0

    def schema(self) -> List[str]:
        return [
            "CREATE TABLE warehouse (w_id INT PRIMARY KEY, w_tax INT, "
            "w_ytd INT)",
            "CREATE TABLE district (d_key INT PRIMARY KEY, w_id INT, "
            "d_id INT, d_next_o_id INT, d_ytd INT)",
            "CREATE TABLE customer (c_key INT PRIMARY KEY, w_id INT, "
            "d_id INT, c_id INT, c_balance INT, c_credit_lim INT, "
            "c_credit TEXT, c_ytd INT)",
            "CREATE TABLE item (i_id INT PRIMARY KEY, i_price INT)",
            "CREATE TABLE stock (s_key INT PRIMARY KEY, w_id INT, i_id INT, "
            "s_quantity INT)",
            "CREATE TABLE orders (o_key INT PRIMARY KEY, d_key INT, "
            "o_id INT, c_key INT, o_carrier INT, o_ol_cnt INT)",
            "CREATE INDEX orders_c_key ON orders (c_key)",
            "CREATE TABLE order_line (ol_key INT PRIMARY KEY, o_key INT, "
            "i_id INT, ol_quantity INT, ol_amount INT, ol_delivered BOOL)",
            "CREATE INDEX order_line_o_key ON order_line (o_key)",
            "CREATE TABLE new_order (no_key INT PRIMARY KEY, d_key INT)",
            "CREATE TABLE history (h_key INT PRIMARY KEY, c_key INT, "
            "w_id INT, h_amount INT)",
        ]

    def load(self) -> List[str]:
        out = _insert_batches("warehouse", "w_id, w_tax, w_ytd",
                              [(w, 5, 0) for w in range(self.w)])
        out += _insert_batches(
            "district", "d_key, w_id, d_id, d_next_o_id, d_ytd",
            [(district_key(w, d), w, d, self.initial_orders + 1, 0)
             for w in range(self.w) for d in range(self.d)])
        out += _insert_batches(
            "customer", "c_key, w_id, d_id, c_id, c_balance, c_credit_lim, "
            "c_credit, c_ytd",
            [(customer_key(w, d, c), w, d, c, 0, 500, "GC", 0)
             for w in range(self.w) for d in range(self.d)
             for c in range(self.c)])
        out += _insert_batches("item", "i_id, i_price",
                               list(enumerate(self.prices)))
        out += _insert_batches(
            "stock", "s_key, w_id, i_id, s_quantity",
            [(stock_key(w, i), w, i, q) for (w, i), q in self.stock.items()])
        out += _insert_batches(
            "orders", "o_key, d_key, o_id, c_key, o_carrier, o_ol_cnt",
            self._orders)
        out += _insert_batches(
            "order_line",
            "ol_key, o_key, i_id, ol_quantity, ol_amount, ol_delivered",
            self._lines)
        out += _insert_batches("new_order", "no_key, d_key",
                               self._new_orders)
        return out

    def thread_state(self, thread: int) -> _OrdersThread:
        # TPC-C binds each terminal to a home (warehouse, district);
        # the same assignment as DBT2PP._home.
        return _OrdersThread(thread, home=(thread % self.w,
                                   (thread // self.w) % self.d))

    def next_txn(self, rng: random.Random, state: _OrdersThread) -> Txn:
        mix = self.mix
        if rng.random() < self.read_only_fraction:
            kind = _pick(rng, self.RO_MIX)
        else:
            kind = _pick(rng, self.RW_MIX)
        if rng.random() < mix.remote_fraction:
            w, d = rng.randrange(self.w), rng.randrange(self.d)
        else:
            w, d = state.home
        c = rng.randrange(self.c)
        return getattr(self, "_" + kind)(rng, state, w, d, c)

    # -- read/write transactions ---------------------------------------
    def _new_order(self, rng, state, w, d, c) -> Txn:
        lines = [(rng.randrange(self.items), rng.randint(1, 5))
                 for _ in range(rng.randint(*self.mix.items_per_order))]
        dk, ck = district_key(w, d), customer_key(w, d, c)

        def body(cl) -> None:
            _one(cl.sql(f"SELECT w_tax FROM warehouse WHERE w_id = {w}"))
            o_id = _value(cl.sql(
                f"SELECT d_next_o_id FROM district WHERE d_key = {dk}"))
            cl.sql(f"UPDATE district SET d_next_o_id = {o_id + 1} "
                   f"WHERE d_key = {dk}")
            _one(cl.sql(f"SELECT c_credit FROM customer WHERE c_key = {ck}"))
            ok = order_key(w, d, o_id)
            for line, (item, qty) in enumerate(lines):
                price = _value(cl.sql(
                    f"SELECT i_price FROM item WHERE i_id = {item}"))
                sk = stock_key(w, item)
                _one(cl.sql(
                    f"SELECT s_quantity FROM stock WHERE s_key = {sk}"))
                cl.sql(f"UPDATE stock SET s_quantity = s_quantity - {qty} "
                       f"WHERE s_key = {sk}")
                cl.sql("INSERT INTO order_line (ol_key, o_key, i_id, "
                       "ol_quantity, ol_amount, ol_delivered) VALUES "
                       f"({ok * 100 + line}, {ok}, {item}, {qty}, "
                       f"{price * qty}, FALSE)")
            cl.sql("INSERT INTO orders (o_key, d_key, o_id, c_key, "
                   f"o_carrier, o_ol_cnt) VALUES ({ok}, {dk}, {o_id}, "
                   f"{ck}, NULL, {len(lines)})")
            cl.sql(f"INSERT INTO new_order (no_key, d_key) VALUES "
                   f"({ok}, {dk})")

        return Txn("new_order", False, body, self._count_new_order)

    def _count_new_order(self, _result: Any) -> None:
        with self._lock:
            self.new_orders_committed += 1

    def _payment(self, rng, state, w, d, c) -> Txn:
        amount = rng.randint(1, 50)
        # Unique per thread; a retried attempt reuses it (the aborted
        # attempt's row is gone).
        h_key = state.thread * 10 ** 9 + state.history
        state.history += 1
        dk, ck = district_key(w, d), customer_key(w, d, c)

        def body(cl) -> None:
            cl.sql(f"UPDATE warehouse SET w_ytd = w_ytd + {amount} "
                   f"WHERE w_id = {w}")
            cl.sql(f"UPDATE district SET d_ytd = d_ytd + {amount} "
                   f"WHERE d_key = {dk}")
            cl.sql(f"UPDATE customer SET c_balance = c_balance - {amount}, "
                   f"c_ytd = c_ytd + {amount} WHERE c_key = {ck}")
            cl.sql("INSERT INTO history (h_key, c_key, w_id, h_amount) "
                   f"VALUES ({h_key}, {ck}, {w}, {amount})")

        return Txn("payment", False, body)

    def _delivery(self, rng, state, w, d, c) -> Txn:
        dk = district_key(w, d)
        lo, hi = dk * 100_000, (dk + 1) * 100_000 - 1

        def body(cl) -> None:
            ok = _value(cl.sql(f"SELECT MIN(no_key) FROM new_order "
                               f"WHERE no_key BETWEEN {lo} AND {hi}"))
            if ok is None:
                return
            cl.sql(f"DELETE FROM new_order WHERE no_key = {ok}")
            cl.sql(f"UPDATE orders SET o_carrier = 7 WHERE o_key = {ok}")
            total = _value(cl.sql(
                f"SELECT SUM(ol_amount) FROM order_line WHERE o_key = {ok}"))
            cl.sql(f"UPDATE order_line SET ol_delivered = TRUE "
                   f"WHERE o_key = {ok}")
            ck = _value(cl.sql(f"SELECT c_key FROM orders WHERE o_key = {ok}"))
            cl.sql(f"UPDATE customer SET c_balance = c_balance + {total} "
                   f"WHERE c_key = {ck}")

        return Txn("delivery", False, body)

    def _credit_check(self, rng, state, w, d, c) -> Txn:
        ck = customer_key(w, d, c)

        def body(cl) -> None:
            cust = _one(cl.sql("SELECT c_balance, c_credit_lim FROM customer "
                               f"WHERE c_key = {ck}"))
            open_amount = 0
            for order in cl.sql("SELECT o_key, o_carrier FROM orders "
                                f"WHERE c_key = {ck}"):
                if order["o_carrier"] is None:
                    open_amount += _value(cl.sql(
                        "SELECT SUM(ol_amount) FROM order_line "
                        f"WHERE o_key = {order['o_key']}")) or 0
            status = ("BC" if cust["c_balance"] + open_amount
                      > cust["c_credit_lim"] else "GC")
            cl.sql(f"UPDATE customer SET c_credit = '{status}' "
                   f"WHERE c_key = {ck}")

        return Txn("credit_check", False, body)

    # -- read-only transactions ----------------------------------------
    def _order_status(self, rng, state, w, d, c) -> Txn:
        ck = customer_key(w, d, c)

        def body(cl) -> None:
            _one(cl.sql(f"SELECT c_balance FROM customer WHERE c_key = {ck}"))
            orders = cl.sql(f"SELECT o_key, o_id FROM orders "
                            f"WHERE c_key = {ck}")
            if orders:
                last = max(orders, key=lambda o: o["o_id"])["o_key"]
                cl.sql(f"SELECT * FROM order_line WHERE o_key = {last}")

        return Txn("order_status", True, body)

    def _stock_level(self, rng, state, w, d, c) -> Txn:
        threshold = rng.randint(30, 60)
        dk = district_key(w, d)

        def body(cl) -> int:
            next_o = _value(cl.sql(
                f"SELECT d_next_o_id FROM district WHERE d_key = {dk}"))
            lo = order_key(w, d, max(1, next_o - 5)) * 100
            hi = order_key(w, d, next_o) * 100
            items = {r["i_id"] for r in cl.sql(
                f"SELECT i_id FROM order_line WHERE ol_key BETWEEN {lo} "
                f"AND {hi}")}
            low = 0
            for item in sorted(items):
                qty = _value(cl.sql(f"SELECT s_quantity FROM stock "
                                    f"WHERE s_key = {stock_key(w, item)}"))
                low += qty < threshold
            return low

        return Txn("stock_level", True, body)

    # -- output checks -------------------------------------------------
    def check(self, client) -> List[str]:
        failures = []
        ytd = _value(client.sql("SELECT SUM(w_ytd) FROM warehouse"))
        paid = _value(client.sql("SELECT SUM(h_amount) FROM history")) or 0
        if ytd != paid:
            failures.append(f"orders: SUM(warehouse.w_ytd) = {ytd} but "
                            f"SUM(history.h_amount) = {paid}")
        counts: Dict[int, int] = {}
        for row in client.sql("SELECT d_key FROM orders"):
            counts[row["d_key"]] = counts.get(row["d_key"], 0) + 1
        for row in client.sql("SELECT d_key, d_next_o_id FROM district"):
            if row["d_next_o_id"] - 1 != counts.get(row["d_key"], 0):
                failures.append(
                    f"orders: district {row['d_key']} next_o_id "
                    f"{row['d_next_o_id']} but {counts.get(row['d_key'], 0)}"
                    " orders")
        placed = sum(counts.values()) - len(self._orders)
        if placed != self.new_orders_committed:
            failures.append(f"orders: {placed} orders placed, but "
                            f"{self.new_orders_committed} NEW-ORDERs "
                            "committed")
        ordered: Dict[Tuple[int, int], int] = {}
        preloaded = {line[0] for line in self._lines}
        for row in client.sql("SELECT ol_key, i_id, ol_quantity "
                              "FROM order_line"):
            if row["ol_key"] in preloaded:
                continue
            w = row["ol_key"] // 100 // 100_000 // 100
            key = (w, row["i_id"])
            ordered[key] = ordered.get(key, 0) + row["ol_quantity"]
        bad = 0
        for row in client.sql("SELECT w_id, i_id, s_quantity FROM stock"):
            key = (row["w_id"], row["i_id"])
            if row["s_quantity"] + ordered.get(key, 0) != self.stock[key]:
                bad += 1
        if bad:
            failures.append(f"orders: {bad} stock rows where quantity + "
                            "ordered quantity != initial stock")
        return failures


WORKLOADS = {cls.name: cls for cls in (SIBench, YCSB, Orders)}
