"""Span tracer for the benchmark's traced runs.

Wraps the public functions behind the per-layer metrics in *every*
``compstats`` module namespace that holds them (``from .partitions import
syt_count_q`` gives ``distributions`` its own binding), and methods on their
class, so aliases such as ``__rmul__ = __mul__`` are wrapped too.  Each call
becomes a span (name, parent span, start, end and two integer work fields)
kept in flat arrays in memory and written out once at exit.

Run as a script it traces one CLI call::

    python3 perfbench/tracer.py SPANS_FILE table ic --max-n 14

Timed cold ops run the plain CLI entry point, which never imports this
module; the timed warm session checks with :func:`installed_wrappers` that
nothing is wrapped.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

MARK = "__perfbench_span__"


class Tracer:
    """Spans in flat arrays, plus distinct-argument sets, counters and cache stats."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.work = array("q")   # input size recorded by the span, e.g. term pairs
        self.out = array("q")    # output size recorded by the span, e.g. terms kept
        self.stack = [-1]
        self.distinct: dict[str, set] = {}
        self.counters: dict[str, int] = {}
        self.caches: dict[str, object] = {}

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def span(self, name, fn, work=None, out=None, distinct=None, accept=None, on_result=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``work(*args)`` and ``out(result)`` fill the work fields, ``distinct``
        maps the arguments to a key counted once, ``accept`` lets calls it
        rejects through unrecorded and ``on_result`` sees every result.
        """
        nid = self._name_id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        works, outs, stack = self.work, self.out, self.stack
        seen = self.distinct.setdefault(name, set()) if distinct else None

        def wrapper(*args, **kwargs):
            if accept is not None and not accept(*args):
                return fn(*args, **kwargs)
            if seen is not None:
                seen.add(distinct(*args, **kwargs))
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            works.append(work(*args) if work else 0)
            outs.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if out is not None:
                outs[i] = out(result)
            if on_result is not None:
                on_result(result)
            return result

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def count_yields(self, name, fn):
        """Wrap a generator function so the items it yields add to counter ``name``."""
        counters = self.counters
        counters[name] = 0

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters[name] += 1
                yield item

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path: str) -> None:
        """Write a JSON header line, then the raw span arrays."""
        caches = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            caches[name] = [info.hits, info.misses]
        header = {"names": self.names, "count": len(self.starts),
                  "distinct": {name: len(keys) for name, keys in self.distinct.items()},
                  "counters": self.counters, "caches": caches}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ids, self.parents, self.starts, self.ends,
                           self.work, self.out):
                column.tofile(handle)


def _compstats_modules() -> list:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "compstats" or name.startswith("compstats."))]


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every module-level name that refers to ``original``."""
    for module in _compstats_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _replace_on_class(cls, attr: str, make) -> None:
    """Wrap a method on its class, under every name that aliases it."""
    raw = cls.__dict__[attr]
    is_classmethod = isinstance(raw, classmethod)
    wrapper = make(raw.__func__ if is_classmethod else raw)
    for name, value in list(vars(cls).items()):
        if value is raw:
            setattr(cls, name, classmethod(wrapper) if is_classmethod else wrapper)


def _terms(value) -> int:
    return len(value._terms) if hasattr(value, "_terms") else 1


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    import compstats.cli  # noqa: F401  (loads every compstats module)
    from compstats import (cli, compositions, distributions, oeis, partitions,
                           permutations, polynomial, qanalog, statistics)

    Poly, Series = polynomial.Poly, polynomial.Series
    _replace_on_class(Poly, "__mul__", lambda fn: tracer.span(
        "polynomial.poly_mul", fn,
        accept=lambda a, b: isinstance(b, (Poly, int)),
        work=lambda a, b: len(a._terms) * _terms(b)))
    _replace_on_class(Series, "__mul__", lambda fn: tracer.span("polynomial.series_mul", fn))
    _replace_on_class(Poly, "truncate", lambda fn: tracer.span(
        "polynomial.truncate", fn, work=lambda a, caps: len(a._terms), out=_terms))
    _replace_on_class(distributions.DistTable, "inversions", lambda fn: tracer.span(
        "distributions.DistTable.inversions", fn))
    _replace_on_class(distributions.DistTable, "descents", lambda fn: tracer.span(
        "distributions.DistTable.descents", fn))

    def wrap(module, attr: str, **options) -> None:
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        _replace_everywhere(original, tracer.span(name, original, **options))

    def terms_checked(report) -> None:
        tracer.counters["oeis.terms_checked"] += report.terms_checked

    tracer.counters["oeis.terms_checked"] = 0
    wrap(polynomial, "divexact")
    for attr in ("pochhammer_inverse_series", "q_multinomial", "gaussian_binomial"):
        wrap(qanalog, attr)
    wrap(partitions, "syt_count_q", distinct=lambda shape, var="q": (tuple(shape), var))
    wrap(partitions, "q_eulerian_weight")
    wrap(distributions, "inv_gf_total", distinct=lambda cap: cap)
    for attr in ("des_gf_total", "inversion_totals", "inv_gf"):
        wrap(distributions, attr)
    for attr, value in list(vars(statistics).items()):
        if callable(value) and not attr.startswith("_") and value.__module__ == statistics.__name__:
            wrap(statistics, attr)
    wrap(permutations, "permutation_stats")
    wrap(permutations, "statistic_distribution")
    wrap(compositions, "statistic_distribution")
    wrap(compositions, "macmahon_forward")
    original = compositions.compositions_of
    _replace_everywhere(original,
                        tracer.count_yields("compositions.compositions_yielded", original))
    for attr in ("parse_bfile", "sequence_terms"):
        wrap(oeis, attr)
    wrap(oeis, "check_sequence", on_result=terms_checked)
    for attr in ("cmd_table", "cmd_verify", "main"):
        wrap(cli, attr)

    for module in _compstats_modules():
        for attr, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                short = module.__name__.rsplit(".", 1)[-1]
                tracer.caches[f"{short}.{attr}"] = value


def installed_wrappers() -> list[str]:
    """Names of every tracer wrapper bound in a compstats module or class."""
    found = set()
    for module in _compstats_modules():
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) else [value]
            for member in members:
                member = getattr(member, "__func__", member)
                if hasattr(member, MARK):
                    found.add(getattr(member, MARK))
    return sorted(found)


def main(argv: list[str]) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import compstats.cli
    try:
        return compstats.cli.main(cli_args)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
