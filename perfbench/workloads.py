"""Seeded inputs of the three workloads.

Every input is drawn from `random.Random(seed)`; the seed changes which
centres, moduli, residues and partitions are used, never how many members
an operation enumerates.  A CLI operation is a dict holding its argv and
the parameters its check needs in the checks module's own representation
(coefficient-index tuples, partitions as tuples).
"""

from __future__ import annotations

import random

import checks as ck

WORKLOADS = ("sieve-scans", "cli-queries", "warm-session")

# Seconds one warm-session query pass and one set-up take on the reference
# machine (2 cores, Python 3.11, numpy 2.4).  The session's pass count
# follows from these and --seconds alone, so its work does not depend on
# timings taken during the run.  The CLI workloads run whole passes until
# --seconds is used up.
NOMINAL_SESSION_PASS_S = 1.5
NOMINAL_SESSION_SETUP_S = 3.5


def _rand_monic(rng: random.Random, F: ck.Field, k: int) -> tuple[int, ...]:
    return tuple(rng.randrange(F.q) for _ in range(k)) + (1,)


def _rand_coprime(rng: random.Random, F: ck.Field, d) -> tuple[int, ...]:
    return F.residue(len(d) - 1, rng.choice(ck.coprime_residues(F, d)))


def _rand_lam(rng: random.Random, k: int) -> tuple[int, ...]:
    return rng.choice(ck.partitions(k))


def _op(cmd: str, F: ck.Field | None = None, **params) -> dict:
    """Build the argv of one CLI call; polynomial and partition params are rendered in README grammar."""
    argv = cmd.split()
    if F is not None:
        argv += ["--p", str(F.p)] + (["--nu", str(F.nu)] if F.nu > 1 else [])
    for key, value in params.items():
        flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
        if key in ("f", "D"):
            value = F.poly_text(value)
        elif key == "lam":
            value = ck.lam_text(value)
        elif key == "q_list":
            value = ",".join(map(str, value))
        elif value is True:
            argv.append(flag)
            continue
        argv += [flag, str(value)]
    if F is not None:
        params.update(p=F.p, nu=F.nu)
    return dict(params, cmd=cmd, argv=argv)


def sieve_scans(seed: int, quick: bool = False) -> list[dict]:
    """Cold CLI runs whose cost is the product sieve and per-cell work."""
    rng = random.Random(seed)
    f9, f2 = ck.field(3, 2), ck.field(2)
    if quick:
        return [
            _op("scan-intervals", ck.field(3), k=4, m=1, lam=_rand_lam(rng, 4), format="csv"),
            _op("scan-intervals", f2, k=8, m=1, lam=_rand_lam(rng, 8)),
            _op("variance-trend", k=5, m=1, q_list=[2, 3]),
        ]
    return [
        _op("scan-intervals", f9, k=6, m=1, lam=_rand_lam(rng, 6), format="csv"),
        _op("scan-intervals", f2, k=18, m=1, lam=_rand_lam(rng, 18)),
        _op("variance-trend", k=5, m=1, q_list=[3, 5, 7, 11, 13]),
    ]


def cli_queries(seed: int, quick: bool = False) -> list[dict]:
    """Cold CLI runs where tables are tiny or unused: start-up, factoring, residue codes."""
    rng = random.Random(seed)
    f2, f3, f5, f7, f4 = ck.field(2), ck.field(3), ck.field(5), ck.field(7), ck.field(2, 2)
    d1 = _rand_monic(rng, f3, 1)
    d2 = _rand_monic(rng, f3, 2)
    readme = [
        _op("pi", f2, k=3),
        _op("pi-type", f3, k=4, lam=(2, 1, 1)),
        _op("partition-prob", lam=(2, 2)),
        _op("totient", f3, D=_rand_monic(rng, f3, 2)),
        _op("interval", f2, k=2, m=1, f=_rand_monic(rng, f2, 2), lam=(2,)),
        _op("progression", f3, k=3, D=d1, f=_rand_coprime(rng, f3, d1)),
        _op("nu", f2, f=_rand_monic(rng, f2, 2), m=1, decompose=True),
        _op("radical", f2, f=_rand_monic(rng, f2, 4), m=1, d=2),
        _op("mean-variance", f3, k=4, m=1),
        # README runs this at q in {3,5,7,11,13}; that is the sieve-scans operation,
        # so here it stays small and the sieve does almost nothing in this workload
        _op("variance-trend", k=5, m=1, q_list=[2, 3]),
        _op("scan-intervals", f3, k=4, m=2, lam=(4,)),
        _op("scan-progressions", f3, k=5, m=2, lam=(5,), max_cells=100, per_cell=True),
        _op("hypotheses", f5, k=5, m=1, f=_rand_monic(rng, f5, 5)),
        _op("counterexample m0", f7, k=3),
        _op("counterexample m1", p=2, n=1, variant="p2"),
    ]
    if quick:
        return readme
    return readme + [
        _op("interval", f5, k=5, m=4, f=_rand_monic(rng, f5, 5)),
        _op("progression", f3, k=9, D=d2, f=_rand_coprime(rng, f3, d2)),
        _op("nu", f4, f=_rand_monic(rng, f4, 6), m=2, decompose=True),
        _op("radical", f4, f=_rand_monic(rng, f4, 6), m=1, d=2),
        _op("counterexample m1", p=2, n=3),
        _op("scan-progressions", f3, k=7, m=3, lam=(7,), per_cell=True),
        _op("scan-progressions", f5, k=6, m=3, lam=(6,), per_cell=True),
        # characteristic 2 at m = 2: the one case where a cell's coverage depends on its representative
        _op("scan-intervals", f2, k=10, m=2, lam=_rand_lam(rng, 10), format="csv"),
    ]


def cli_ops(workload: str, seed: int, quick: bool = False) -> list[dict]:
    return {"sieve-scans": sieve_scans, "cli-queries": cli_queries}[workload](seed, quick)


def warm_session(seed: int, quick: bool = False) -> dict:
    """Parameters of the library session: the fields it warms and the seeded queries.

    Polynomials are given as coefficient-index lists (the encoding both
    ffstat and the checks use), so the session builds them without parsing.
    """
    rng = random.Random(seed)
    qs = [2, 3, 4, 5] if quick else [2, 3, 4, 5, 7, 9]
    kmax = 4 if quick else 6
    fields = {q: ck.field_of_order(q) for q in qs}
    intervals, progressions = [], []
    for q, F in fields.items():
        for _ in range(3):
            intervals.append({"q": q, "f": list(_rand_monic(rng, F, kmax)), "m": 1})
        if q <= 5:
            for _ in range(2):
                d = _rand_monic(rng, F, 2)
                progressions.append({"q": q, "D": list(d), "f": list(_rand_coprime(rng, F, d)), "k": kmax})
    return {
        "fields": [[F.p, F.nu] for F in fields.values()],
        "kmax": kmax,
        "intervals": intervals,
        "progressions": progressions,
        "scan_progressions": [{"q": q, "k": kmax, "m": 2, "max_cells": 60} for q in qs],
    }
