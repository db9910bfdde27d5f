#!/usr/bin/env python3
"""Measure the constants of the census route rule, `statistics.census_route`.

Every figure is taken in fresh interpreter processes running this
checkout's `src/`:

  start-up  importing `ffstat.tables`, and with it numpy, in a process
            that has already imported `ffstat.cli`;
  sieve     building `tables.PolyTables(spec, k)`, per sieved code
            (q + q^2 + ... + q^k codes; the field tables are built first);
  factor    `polyring.factorization_type(polyring.monic_from_code(...))`
            per member, over seeded random members of degree k, or at
            the whole-degree points over every member in code order, as
            `statistics.block_sums` factors them for interval scans and
            the nu mean and variance;
  ring      building `statistics.ResidueRing(D)` and its
            `type_counts(k, lams)`, per pair product that
            `statistics.ring_products` projects, over the first few monic
            D of degree delta: a whole census of one class (every
            partition of k), as `progression` runs it, or the prime count,
            as `scan-progressions --lambda k` runs it per modulus;
  units     building `statistics.ResidueRing.principal_units(spec, delta)`
            and its `interval_type_counts` for one type, per pair product
            that `statistics.interval_products` projects: the prime count
            (lambda = (k)), as `mean-variance`, `variance-trend` and
            `scan-intervals --lambda k` run it for every interval of
            degree k at m = k - delta, or lambda = 1^k, which reads every
            level.

The sieve and factoring costs are taken at each (q, k) point below, one
process a point.  The script prints them with the break-even ratio
(factoring microseconds a member over sieving microseconds a code) and
then the ring's microseconds a pair product, and then the rule's
constants as `statistics` has them, so a change to those
constants can cite a command rather than prose.  The whole-degree points
are small fields and degrees, where the rule factors; their medians are
printed apart and do not enter the measured medians.  So are the sieve-only
points: builds of q^k about 10^5-10^6 codes, large enough that a change to
the sieve shows beside the spread.  One process builds them all, each
round every point in turn, in an order that rotates from round to round,
and times a fixed reference load in the same rotation: the interpreter
loop and numpy sort that `perfbench/speed.py` probes the machine with.
Each build is also printed as a ratio to the reference load of its round.
The machine's speed moves every point together by up to 2x from run to
run; the ratios cancel most of that drift, so two trees compare by their
ratios.

    python -m compileall -q src && python tools/route_costs.py

Compile first: with PYTHONDONTWRITEBYTECODE set, an uncompiled tree adds
about 0.03 s and 1 MB to every process, and the start-up figure would
include compiling `tables`.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from ffstat import statistics as st

POINTS = ((2, 14), (3, 9), (5, 6), (9, 5), (7, 5))
WHOLE_DEGREE_POINTS = ((3, 4), (3, 5), (2, 8))  # every member, as in the scans and mean-variance runs of the bench
SIEVE_POINTS = ((2, 18), (3, 11), (9, 6), (13, 5))  # sieve only, interleaved in one process
SIEVE_ROUNDS = 7  # builds of each sieve-only point, median kept
PROCESSES = 7  # fresh processes timing the start-up, median kept
MEMBERS = 300  # members factored at each point
REPS = 3  # timings of the sieve and of the factoring at each point, median kept
# (q, delta, k, whole census or prime count only); moduli of degree delta, as many as MODULI
RING_POINTS = (
    (3, 2, 9, True), (3, 2, 20, True), (3, 3, 7, False), (5, 2, 6, False), (2, 4, 8, False), (5, 3, 8, False),
)
MODULI = 5
# (q, delta, k, lambda = 1^k rather than (k)): the principal units mod t^delta, intervals of degree k at m = k - delta
UNIT_POINTS = ((2, 8, 10, False), (2, 8, 10, True), (5, 4, 5, False), (7, 4, 5, False), (3, 4, 20, False))

STARTUP = """
import time
from ffstat import cli
t = time.perf_counter()
from ffstat import tables
print(time.perf_counter() - t)
"""

POINT = """
import json, random, sys, time
from ffstat import gf, polyring as pr, tables
q, k, members, reps = map(int, sys.argv[1:])
spec = gf.make_field(*gf.prime_power(q))
gf.field_table(spec)
sieve = []
for _ in range(reps):
    t = time.perf_counter()
    tables.PolyTables(spec, k)
    sieve.append(time.perf_counter() - t)
rng = random.Random(1)
codes = range(q**k) if members == q**k else [rng.randrange(q**k) for _ in range(members)]
factor = []
for _ in range(reps):
    t = time.perf_counter()
    for c in codes:
        pr.factorization_type(pr.monic_from_code(spec, k, c))
    factor.append(time.perf_counter() - t)
print(json.dumps([sorted(sieve)[reps // 2], sorted(factor)[reps // 2]]))
"""

SIEVE = """
import json, sys, time
from ffstat import gf, tables
import numpy as np  # after `tables`, which sets OpenBLAS's thread count before numpy loads
rounds, *qk = map(int, sys.argv[1:])
points = list(zip(qk[::2], qk[1::2]))
specs = [gf.make_field(*gf.prime_power(q)) for q, _ in points]
data = np.arange(600_000, dtype=np.int64)

def reference():  # the load perfbench/speed.py times, about 30 ms
    s = 0
    for i in range(150_000):
        s += i * i % 7
    np.sort(data * 2654435761 % 1000003)

loads = [lambda spec=spec, k=k: tables.PolyTables(spec, k) for spec, (_, k) in zip(specs, points)] + [reference]
for spec in specs:
    gf.field_table(spec)
    tables.PolyTables(spec, 2)
reference()
times = [[] for _ in loads]
for r in range(rounds):
    for j in range(len(loads)):
        i = (j + r) % len(loads)
        t = time.perf_counter()
        loads[i]()
        times[i].append(time.perf_counter() - t)
print(json.dumps(times))
"""

RING = """
import json, sys, time
from ffstat import gf, polyring as pr, statistics as st
from ffstat.combinatorics import Partition, partitions_of
q, delta, k, census, moduli, reps = map(int, sys.argv[1:])
spec = gf.make_field(*gf.prime_power(q))
gf.field_table(spec)
lams = partitions_of(k) if census else [Partition((k,))]
ds = [pr.monic_from_code(spec, delta, code) for code in range(min(moduli, q**delta))]
times = []
for _ in range(reps):
    t = time.perf_counter()
    for d in ds:
        st.ResidueRing(d).type_counts(k, lams)
    times.append(time.perf_counter() - t)
print(json.dumps([sorted(times)[reps // 2], len(ds) * st.ring_products(q, delta, lams)]))
"""


UNITS = """
import json, sys, time
from ffstat import gf, statistics as st
from ffstat.combinatorics import Partition
q, delta, k, ones, reps = map(int, sys.argv[1:])
spec = gf.make_field(*gf.prime_power(q))
gf.field_table(spec)
lams = [Partition((1,) * k if ones else (k,))]
times = []
for _ in range(reps):
    t = time.perf_counter()
    st.interval_type_counts(st.ResidueRing.principal_units(spec, delta), lams, k - delta)
    times.append(time.perf_counter() - t)
print(json.dumps([sorted(times)[reps // 2], st.interval_products(q, k, k - delta, lams)]))
"""


def _child(script: str, *args) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env, capture_output=True, text=True, check=True).stdout


def _points(points, members_at) -> tuple[list[float], list[float]]:
    """Print one row a (q, k) point; return the sieve microseconds a code and the factoring microseconds a member."""
    sieve_us, factor_us = [], []
    for q, k in points:
        codes, members = sum(q**d for d in range(1, k + 1)), members_at(q, k)
        s, f = json.loads(_child(POINT, q, k, members, REPS))
        per_code, per_member = s / codes * 1e6, f / members * 1e6
        sieve_us.append(per_code)
        factor_us.append(per_member)
        print(f"{q:>3} {k:>3} {codes:>8} {s:>8.4f} {per_code:>8.3f} {per_member:>10.1f} {per_member / per_code:>24.0f}")
    return sieve_us, factor_us


def main() -> int:
    print(f"Python {sys.version.split()[0]}, numpy {numpy.__version__}, {os.cpu_count()} cores")
    _child(STARTUP)  # not timed: warms the file cache
    start_s = statistics.median(float(_child(STARTUP)) for _ in range(PROCESSES))
    print(f"start-up (import ffstat.tables and numpy): {start_s * 1e3:.1f} ms, median of {PROCESSES} processes")
    print(f"{'q':>3} {'k':>3} {'codes':>8} {'sieve s':>8} {'us/code':>8} {'us/member':>10} {'break-even codes/member':>24}")
    sieve_us, factor_us = _points(POINTS, lambda q, k: MEMBERS)
    print(f"sieve {min(sieve_us):.2f}-{max(sieve_us):.2f} us a code, factoring {min(factor_us):.0f}-{max(factor_us):.0f} us a member")
    print(
        f"measured medians: start-up {start_s * 1e6:.0f} us, sieve {statistics.median(sieve_us):.2f} us a code, "
        f"factoring {statistics.median(factor_us):.0f} us a member"
    )
    print("whole-degree points, every member factored in code order:")
    _, whole_us = _points(WHOLE_DEGREE_POINTS, lambda q, k: q**k)
    print(f"whole-degree factoring {min(whole_us):.0f}-{max(whole_us):.0f} us a member, median {statistics.median(whole_us):.0f}")
    print(f"sieve-only points, {SIEVE_ROUNDS} interleaved builds each in one process; / ref: to the round's reference load")
    print(f"{'q':>3} {'k':>3} {'codes':>8} {'sieve s':>8} {'us/code':>8} {'min-max us/code':>16} {'/ ref':>6} {'min-max / ref':>14}")
    *times, ref = json.loads(_child(SIEVE, SIEVE_ROUNDS, *(x for point in SIEVE_POINTS for x in point)))
    for (q, k), ts in zip(SIEVE_POINTS, times):
        codes = sum(q**d for d in range(1, k + 1))
        s = statistics.median(ts)
        ratios = [t / r for t, r in zip(ts, ref)]
        print(
            f"{q:>3} {k:>3} {codes:>8} {s:>8.4f} {s / codes * 1e6:>8.3f} {min(ts) / codes * 1e6:>7.3f}-{max(ts) / codes * 1e6:.3f}"
            f" {statistics.median(ratios):>7.2f} {min(ratios):>7.2f}-{max(ratios):.2f}"
        )
    print(f"reference load {statistics.median(ref) * 1e3:.1f} ms, {min(ref) * 1e3:.1f}-{max(ref) * 1e3:.1f} ms")
    print("ring points, microseconds a projected pair product:")
    print(f"{'q':>3} {'deg D':>5} {'k':>3} {'types':>6} {'products':>10} {'ring s':>8} {'us/product':>10}")
    ring_us = []
    for q, delta, k, census in RING_POINTS:
        s, products = json.loads(_child(RING, q, delta, k, int(census), MODULI, REPS))
        ring_us.append(s / products * 1e6)
        print(f"{q:>3} {delta:>5} {k:>3} {'all' if census else 'prime':>6} {products:>10} {s:>8.4f} {ring_us[-1]:>10.3f}")
    print(f"ring {min(ring_us):.3f}-{max(ring_us):.3f} us a pair product, median {statistics.median(ring_us):.3f}")
    print("principal-unit points, every interval of degree k at m = k - delta, microseconds a projected pair product:")
    print(f"{'q':>3} {'delta':>5} {'k':>3} {'types':>6} {'products':>10} {'ring s':>8} {'us/product':>10}")
    unit_us = []
    for q, delta, k, ones in UNIT_POINTS:
        s, products = json.loads(_child(UNITS, q, delta, k, int(ones), REPS))
        unit_us.append(s / products * 1e6)
        print(f"{q:>3} {delta:>5} {k:>3} {'1^k' if ones else 'prime':>6} {products:>10} {s:>8.4f} {unit_us[-1]:>10.3f}")
    print(f"units {min(unit_us):.3f}-{max(unit_us):.3f} us a pair product, median {statistics.median(unit_us):.3f}")
    print(
        f"statistics uses:  start-up {st.TABLE_START_US} us, sieve {st.SIEVE_US_PER_CODE} us a code, "
        f"factoring {st.FACTOR_US_PER_MEMBER} us a member, ring {st.RING_US_PER_PRODUCT} us a pair product; "
        f"break-even "
        f"{st.FACTOR_US_PER_MEMBER / st.SIEVE_US_PER_CODE:.0f} codes a member plus "
        f"{st.TABLE_START_US / st.SIEVE_US_PER_CODE:.0f} codes of start-up"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
