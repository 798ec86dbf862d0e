"""Per-layer figures from the spans of a traced run.

Every workload reports the same figures, so each one is defined for any
mix of operations: an *operation* is a timed operation of a traced
round, and a *round* is the operations of one traced round plus one
set-up (set-up spans carry operation id -1, and every set-up does the
same work).  The figures are:

- ``document.load_ms``: time in ``load_document``, ``parse_document``
  and ``prepare`` per document loaded, over operations and set-ups;
- ``graph.validate_calls`` and ``graph.validate_ms``: calls of
  ``graph.validate`` per round and the time they take;
- ``entry.self_ms_p50``: per operation, the own time of the layer the
  operation enters (``cli`` for fixture-cli; ``kac``, ``feynman_kac``
  or ``diffuse`` for large-graphs; ``mc`` for mc-oracle), less the
  spans of the calls it makes into other layers; the median over
  operations;
- ``calls_per_op``: calls of traced public functions per operation;
- ``trace.overhead_pct``: the summed best times of the operations in
  traced rounds over those in plain rounds, minus 1.

``module_table`` breaks the same spans down by function for the
``layers.json`` file of a traced run.
"""

from __future__ import annotations

import statistics

_LOAD = ("document.load_document", "document.parse_document", "document.prepare")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def per_layer(tracer, bench, rounds, traced, setups: int) -> dict:
    """``rounds[i]`` is the range of operation ids of round i."""
    ops = {op for r, t in zip(rounds, traced) if t for op in r}
    n_rounds = sum(traced)
    in_ops = [s for s in tracer.spans if s.op in ops]
    in_setup = [s for s in tracer.spans if s.op == -1]
    own = tracer.self_seconds()
    out: dict[str, tuple[float, str]] = {}

    def per_round(names, value) -> float:
        return (sum(value(s) for s in in_ops if s.name in names) / n_rounds
                + sum(value(s) for s in in_setup if s.name in names) / setups)

    loads = per_round(("document.load_document",), lambda s: 1)
    out["document.load_ms"] = (per_round(_LOAD, lambda s: s.seconds) / loads * 1e3, "ms")
    out["graph.validate_calls"] = (per_round(("graph.validate",), lambda s: 1), "count")
    out["graph.validate_ms"] = (per_round(("graph.validate",), lambda s: s.seconds) * 1e3, "ms")

    # spans of one operation are contiguous and parents precede children
    entry: dict[int, str] = {}
    entry_self = dict.fromkeys(ops, 0.0)
    for s in in_ops:
        entry[s.id] = _layer(s.name) if s.parent not in entry else entry[s.parent]
        if _layer(s.name) == entry[s.id]:
            entry_self[s.op] += own[s.id]
    out["entry.self_ms_p50"] = (statistics.median(entry_self.values()) * 1e3, "ms")
    out["calls_per_op"] = (len(in_ops) / len(ops), "count")

    # samples[key][i] is the time of operation ``key`` in round i
    def best_total(in_traced: bool) -> float:
        return sum(min(t for t, tr in zip(times, traced) if tr == in_traced)
                   for times in bench.samples.values())

    out["trace.overhead_pct"] = (100.0 * (best_total(True) / best_total(False) - 1.0), "%")
    return out


def module_table(tracer, rounds, traced, setups: int) -> dict:
    """Per function: calls, inclusive and own seconds, per traced round and per set-up."""
    ops = {op for r, t in zip(rounds, traced) if t for op in r}
    n_rounds = sum(traced)
    own = tracer.self_seconds()
    table: dict[str, dict[str, dict[str, float]]] = {"round": {}, "setup": {}}
    for s in tracer.spans:
        if s.op in ops:
            part, n = table["round"], n_rounds
        elif s.op == -1:
            part, n = table["setup"], setups
        else:
            continue
        row = part.setdefault(s.name, {"calls": 0.0, "inclusive_s": 0.0, "self_s": 0.0})
        row["calls"] += 1 / n
        row["inclusive_s"] += s.seconds / n
        row["self_s"] += own[s.id] / n
    return table
