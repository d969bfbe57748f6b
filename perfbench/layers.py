"""Per-layer metrics from the span files a traced run leaves.

A span's self time is its duration minus the part of it its child spans
cover; spans of one thread nest strictly, so that part is the sum of the
children's durations.  Counts and times are reported per operation (the
mean over the traced operations); ratios are taken over all of them.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict

def self_times(parents, starts, ends) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    durations = [end - start for start, end in zip(starts, ends)]
    covered = [0.0] * len(durations)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += durations[i]
    return [d - c for d, c in zip(durations, covered)]


def load_spans(path: str) -> dict:
    """Read a span file written by ``Tracer.dump``."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        count = header["count"]
        columns = []
        for code in ("i", "i", "d", "d", "q", "q"):
            column = array(code)
            column.fromfile(handle, count)
            columns.append(column)
    header["name_ids"], header["parents"], header["starts"], header["ends"], \
        header["work"], header["out"] = columns
    return header


class LayerTotals:
    """Sums over every span file of a traced run."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.work: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.cache_hits: dict[str, int] = defaultdict(int)
        self.cache_calls: dict[str, int] = defaultdict(int)
        self.poly_mul_in_syt_s = 0.0
        self.truncated_in = 0
        self.truncated_kept = 0

    def add(self, spans: dict) -> None:
        names = spans["names"]
        name_ids, parents = spans["name_ids"], spans["parents"]
        starts, ends, work, out = spans["starts"], spans["ends"], spans["work"], spans["out"]
        own = self_times(parents, starts, ends)
        syt = names.index("partitions.syt_count_q")
        mul = names.index("polynomial.poly_mul")
        series_mul = names.index("polynomial.series_mul")
        truncate = names.index("polynomial.truncate")
        in_syt = [False] * len(own)  # parents always precede their children
        for i, nid in enumerate(name_ids):
            name = names[nid]
            parent = parents[i]
            in_syt[i] = nid == syt or (parent >= 0 and in_syt[parent])
            self.calls[name] += 1
            self.inclusive[name] += ends[i] - starts[i]
            self.self_s[name] += own[i]
            self.work[name] += work[i]
            if nid == mul and in_syt[i]:
                self.poly_mul_in_syt_s += own[i]
            if nid == truncate and parent >= 0 and name_ids[parent] == series_mul:
                self.truncated_in += work[i]
                self.truncated_kept += out[i]
        for name, size in spans["distinct"].items():
            self.distinct[name] += size
        for name, value in spans["counters"].items():
            self.counters[name] += value
        for name, (hits, misses) in spans["caches"].items():
            self.cache_hits[name] += hits
            self.cache_calls[name] += hits + misses

    def hit_ratio(self, prefix: str) -> float:
        names = [name for name in self.cache_calls if name.startswith(prefix)]
        calls = sum(self.cache_calls[name] for name in names)
        return sum(self.cache_hits[name] for name in names) / calls if calls else 0.0

    def metrics(self, ops: int, in_process_s: float, overhead_ratio: float) -> dict[str, dict]:
        """Every per-layer metric with its unit, counts and times per operation.

        ``in_process_s`` is the ops' time inside the package, the base of
        ``polynomial.poly_mul.syt_share``.
        """
        def count(total: float) -> dict:
            return {"value": total / ops, "unit": "count"}

        def seconds(total: float) -> dict:
            return {"value": total / ops, "unit": "s"}

        def ratio(value: float) -> dict:
            return {"value": value, "unit": "ratio"}

        calls, own, inclusive = self.calls, self.self_s, self.inclusive
        statistics_self = sum(s for name, s in own.items() if name.startswith("statistics."))
        return {
            "polynomial.poly_mul.calls": count(calls["polynomial.poly_mul"]),
            "polynomial.poly_mul.term_pairs": count(self.work["polynomial.poly_mul"]),
            "polynomial.poly_mul.self_s": seconds(own["polynomial.poly_mul"]),
            "polynomial.poly_mul.syt_share": ratio(self.poly_mul_in_syt_s / in_process_s),
            "polynomial.series_mul.calls": count(calls["polynomial.series_mul"]),
            "polynomial.series_mul.kept_ratio": ratio(
                self.truncated_kept / self.truncated_in if self.truncated_in else 0.0),
            "polynomial.truncate.self_s": seconds(own["polynomial.truncate"]),
            "polynomial.divexact.calls": count(calls["polynomial.divexact"]),
            "polynomial.divexact.self_s": seconds(own["polynomial.divexact"]),
            "qanalog.pochhammer_inverse_series.calls":
                count(calls["qanalog.pochhammer_inverse_series"]),
            "qanalog.pochhammer_inverse_series.self_s":
                seconds(own["qanalog.pochhammer_inverse_series"]),
            "qanalog.q_multinomial.self_s": seconds(own["qanalog.q_multinomial"]),
            "qanalog.gaussian_binomial.calls": count(calls["qanalog.gaussian_binomial"]),
            "qanalog.cache_hit_ratio": ratio(self.hit_ratio("qanalog.")),
            "partitions.syt_count_q.calls": count(calls["partitions.syt_count_q"]),
            "partitions.syt_count_q.distinct_args":
                count(self.distinct["partitions.syt_count_q"]),
            "partitions.syt_count_q.self_s": seconds(own["partitions.syt_count_q"]),
            "partitions.q_eulerian_weight.calls": count(calls["partitions.q_eulerian_weight"]),
            "partitions.q_eulerian_weight.self_s": seconds(own["partitions.q_eulerian_weight"]),
            "partitions.partitions_of.cache_hit_ratio":
                ratio(self.hit_ratio("partitions.partitions_of")),
            "distributions.inv_gf_total.calls": count(calls["distributions.inv_gf_total"]),
            "distributions.inv_gf_total.distinct_caps":
                count(self.distinct["distributions.inv_gf_total"]),
            "distributions.inv_gf_total.s": seconds(inclusive["distributions.inv_gf_total"]),
            "distributions.des_gf_total.calls": count(calls["distributions.des_gf_total"]),
            "distributions.des_gf_total.s": seconds(inclusive["distributions.des_gf_total"]),
            "distributions.inversion_totals.s":
                seconds(inclusive["distributions.inversion_totals"]),
            "distributions.inv_gf.s": seconds(inclusive["distributions.inv_gf"]),
            "distributions.maj_inv_poly.cache_hit_ratio":
                ratio(self.hit_ratio("distributions.maj_inv_poly")),
            "distributions.q_eulerian_poly.cache_hit_ratio":
                ratio(self.hit_ratio("distributions.q_eulerian_poly")),
            "statistics.self_s": seconds(statistics_self),
            "permutations.permutation_stats.calls":
                count(calls["permutations.permutation_stats"]),
            "permutations.permutation_stats.self_s":
                seconds(own["permutations.permutation_stats"]),
            "permutations.statistic_distribution.s":
                seconds(inclusive["permutations.statistic_distribution"]),
            "compositions.compositions_yielded":
                count(self.counters["compositions.compositions_yielded"]),
            "compositions.statistic_distribution.s":
                seconds(inclusive["compositions.statistic_distribution"]),
            "compositions.macmahon_forward.calls": count(calls["compositions.macmahon_forward"]),
            "oeis.parse_bfile.s": seconds(inclusive["oeis.parse_bfile"]),
            "oeis.sequence_terms.s": seconds(inclusive["oeis.sequence_terms"]),
            "oeis.terms_checked": count(self.counters["oeis.terms_checked"]),
            "cli.cmd_table.self_s": seconds(own["cli.cmd_table"]),
            "cli.cmd_verify.s": seconds(inclusive["cli.cmd_verify"]),
            "trace.overhead_ratio": ratio(overhead_ratio),
        }
