"""Seeded request generation for the benchmark's workloads.

Every workload is a closed loop with one client that issues *rounds* of
requests.  A round always holds the same classes of request (the same table
sizes, the same suites, the same k tiers); the seed picks the order, the
output format, k inside its tier and the inputs of the cheap requests.
Rounds are run whole, so every run sees the same mix whatever its length,
and the median and tail fall inside a class rather than on the gap between
two classes.  Round ``i`` of a seed is drawn from its own generator, so it
does not depend on how many rounds a run reaches.
"""

from __future__ import annotations

import json
import random

TABLE_SIZES = (12, 13, 14, 15)
TABLE_FORMATS = (("grid", False), ("csv", False), ("csv", True), ("json", False))
# Sorted by cost, a round is two `--k` tables, then the all-k tables for
# N = 12, 12, 12, 14, 14, 14: the median lands in the middle of the N = 12
# tables and the tail percentile (p68.75 at MIN_ROUNDS) among the N = 14
# ones, whatever the number of rounds.  An N = 13 table costs only about
# 1.4x an N = 12 one, too little to keep the tail clear of the middle class;
# N = 13 in place of 12 would add a sixth to the run time.
ROUND_TABLE_SIZES = (12, 12, 12, 14, 14, 14)
# k tiers of the `--k` tables, taken in turn.  Cost grows steeply with k;
# k <= 13 keeps a `--k` table cheaper than the smallest all-k table.  k from
# 14 to N costs as much as an all-k table and would move the median from
# seed to seed, so it is left out.
K_TIERS = ((0, 5), (6, 10), (11, 13))
K_TABLES_PER_ROUND = 2
PROBES_PER_RUN = 2

# In the warm session a request's cost follows its max_n, and at equal max_n
# the two checks built from inversion_totals cost about 1.4x a triangle (the
# other checks and the all-k DistTables), and an ic triangle about 1.2x a dc
# one.  Sizes change hands only inside these three groups, each round in a
# seeded order, so the (sequence, max_n) pairs vary while every round holds
# the same classes: two `--k` queries answered from the caches, four
# requests at max_n 12 (the median falls in the middle of them) and three
# at 13 (the tail, p72.2 at MIN_ROUNDS).  Sizes of 14 would nearly double
# the run.
OEIS_GROUPS = (
    (({"op": "oeis", "seq": "A189052"}, {"op": "oeis", "seq": "A189073"}), (12, 13)),
    (({"op": "oeis", "seq": "A189074"}, {"op": "disttable", "kind": "ic", "k": None}), (12, 13)),
    (({"op": "oeis", "seq": "A238343"}, {"op": "oeis", "seq": "A238344"},
      {"op": "disttable", "kind": "dc", "k": None}), (12, 12, 13)),
)
OEIS_QUERY_SIZES = (12, 13)

VERIFY_SUITES = ("prod", "geneuler", "genfuncid", "lemma", "macmahon",
                 "jointstat", "foata", "equidist")
# foata, the heaviest suite, runs twice a round, so that sorted by cost the
# median falls in the middle of lemma, prod and macmahon and the tail (p75
# at MIN_ROUNDS) on equidist and foata
VERIFY_REPEATED = ("foata",)
BIJ_PER_ROUND = 1
BIJ_SIZES = (5, 16)

# The least number of rounds a run makes.  op_s.tail is read at the
# percentile 1 - 10 / (MIN_ROUNDS * round size), the highest one every run
# has ten samples beyond.  The warm session first runs one untimed round
# that fills the caches.
MIN_ROUNDS = 4
WORKLOADS = ("ic-cold", "dc-cold", "oeis-warm", "verify-cold")
WARM = "oeis-warm"


def _rng(workload: str, seed: int, label: str) -> random.Random:
    # string seeds hash through SHA-512, so draws do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{label}")


def _cold_table(kind: str, rng: random.Random, max_n: int, k: int | None) -> dict:
    fmt, dense = rng.choice(TABLE_FORMATS)
    return {"op": "table", "kind": kind, "max_n": max_n, "k": k,
            "format": fmt, "dense": dense}


def _table_round(kind: str, rng: random.Random, index: int) -> list[dict]:
    requests = [_cold_table(kind, rng, n, None) for n in ROUND_TABLE_SIZES]
    for j in range(K_TABLES_PER_ROUND):
        low, high = K_TIERS[(K_TABLES_PER_ROUND * index + j) % len(K_TIERS)]
        max_n = rng.choice(TABLE_SIZES)
        requests.append(_cold_table(kind, rng, max_n, rng.randint(low, min(high, max_n))))
    rng.shuffle(requests)
    return requests


def _random_composition(rng: random.Random) -> list[int]:
    n = rng.randint(*BIJ_SIZES)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    bounds = [0] + cuts + [n]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def _verify_round(rng: random.Random) -> list[dict]:
    requests = [{"op": "verify", "suite": suite}
                for suite in VERIFY_SUITES + VERIFY_REPEATED]
    requests += [{"op": "bij", "composition": _random_composition(rng)}
                 for _ in range(BIJ_PER_ROUND)]
    rng.shuffle(requests)
    return requests


def _oeis_round(rng: random.Random) -> list[dict]:
    requests = []
    for group, sizes in OEIS_GROUPS:
        for request, max_n in zip(group, rng.sample(sizes, len(sizes))):
            requests.append(dict(request, max_n=max_n))
    for _ in range(2):
        max_n = rng.choice(OEIS_QUERY_SIZES)
        requests.append({"op": "disttable", "kind": rng.choice(("ic", "dc")),
                         "max_n": max_n, "k": rng.randint(0, max_n)})
    rng.shuffle(requests)
    return requests


def round_requests(workload: str, seed: int, index: int) -> list[dict]:
    """The requests of round ``index`` of the workload under ``seed``."""
    rng = _rng(workload, seed, f"round{index}")
    if workload == "ic-cold":
        return _table_round("ic", rng, index)
    if workload == "dc-cold":
        return _table_round("dc", rng, index)
    if workload == "oeis-warm":
        return _oeis_round(rng)
    if workload == "verify-cold":
        return _verify_round(rng)
    raise ValueError(f"unknown workload {workload!r}")


def probe_requests(workload: str, seed: int) -> list[dict]:
    """`--k` requests with k > N, which the CLI accepts and must answer with an all-zero table."""
    if workload not in ("ic-cold", "dc-cold"):
        return []
    rng = _rng(workload, seed, "probe")
    kind = workload[:2]
    requests = []
    for _ in range(PROBES_PER_RUN):
        max_n = rng.choice(TABLE_SIZES)
        requests.append(_cold_table(kind, rng, max_n, max_n + rng.randint(1, 3)))
    return requests


def cli_argv(request: dict) -> list[str]:
    """Command-line arguments for a cold request."""
    if request["op"] == "table":
        argv = ["table", request["kind"], "--max-n", str(request["max_n"])]
        if request["k"] is not None:
            argv += ["--k", str(request["k"])]
        argv += ["--format", request["format"]]
        if request["dense"]:
            argv.append("--dense")
        return argv
    if request["op"] == "verify":
        return ["verify", "--suite", request["suite"]]
    if request["op"] == "bij":
        return ["bij", ",".join(str(part) for part in request["composition"])]
    raise ValueError(f"not a CLI request: {request!r}")


def request_list(workload: str, seed: int, rounds: int) -> bytes:
    """The first ``rounds`` rounds and the probes, serialized canonically."""
    data = {"workload": workload, "seed": seed,
            "rounds": [round_requests(workload, seed, i) for i in range(rounds)],
            "probes": probe_requests(workload, seed)}
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
