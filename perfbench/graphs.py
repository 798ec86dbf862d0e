"""Seeded graph documents and an independent survival solve to check against.

Every generator returns a graph document in the schema of
``graphreact.document`` (a plain dict), so the program reads the inputs
the way a user's would.  ``reference_survival`` assembles the survival
system straight from such a document with ``scipy.sparse`` and shares no
code with graphreact.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve


def chain_doc(gaps) -> dict:
    """v0 - c1 - ... - cm - a with the given consecutive gaps, unit radii."""
    m = len(gaps) - 1
    ids = ["v0"] + [f"c{j + 1}" for j in range(m)] + ["a"]
    roles = ["inert"] + ["active"] * m + ["exit"]
    return {
        "vertices": [{"id": i, "role": r} for i, r in zip(ids, roles)],
        "edges": [
            {"from": ids[j], "to": ids[j + 1], "length": float(gaps[j]), "radius": 1.0}
            for j in range(m + 1)
        ],
        "dimension": 3,
        "injection": {"vertex": "v0"},
    }


def random_graph_doc(
    rng: np.random.Generator,
    n: int,
    n_active: int,
    extra_edges: int = 0,
    explicit: bool = False,
    n_exit: int = 3,
    lengths: tuple[float, float] = (0.5, 1.5),
) -> dict:
    """Random tree (or tree plus ``extra_edges`` chords) with n vertices.

    n - n_exit core vertices form a random recursive tree; each exit is
    a fresh leaf on a distinct core vertex.  Radii are random, so derived
    weights are not uniform.  With ``explicit`` half of the core vertices
    get an explicit random weight row.  The injection point is a core
    vertex that is not active.
    """
    core = n - n_exit
    pairs = [(f"n{int(rng.integers(0, i))}", f"n{i}") for i in range(1, core)]
    for _ in range(extra_edges):
        i, j = rng.choice(core, size=2, replace=False)
        pairs.append((f"n{int(i)}", f"n{int(j)}"))
    hosts = rng.choice(core, size=n_exit, replace=False)
    pairs += [(f"n{int(h)}", f"e{k}") for k, h in enumerate(hosts)]
    picks = rng.choice(core, size=n_active + 1, replace=False)
    active = {f"n{int(i)}" for i in picks[:n_active]}
    start = f"n{int(picks[n_active])}"

    vertices = [
        {"id": f"n{i}", "role": "active" if f"n{i}" in active else "inert"}
        for i in range(core)
    ] + [{"id": f"e{k}", "role": "exit"} for k in range(n_exit)]
    edges = [
        {
            "from": u,
            "to": v,
            "length": float(rng.uniform(*lengths)),
            "radius": float(rng.uniform(0.5, 2.0)),
        }
        for u, v in pairs
    ]
    doc = {"vertices": vertices, "edges": edges, "dimension": 3,
           "injection": {"vertex": start}}
    if explicit:
        incident: dict[str, list[int]] = {}
        for k, (u, v) in enumerate(pairs):
            incident.setdefault(u, []).append(k)
            incident.setdefault(v, []).append(k)
        rows = {}
        for i in rng.choice(core, size=core // 2, replace=False):
            vid = f"n{int(i)}"
            raw = rng.uniform(0.2, 1.0, size=len(incident[vid]))
            rows[vid] = {str(k): float(x) for k, x in zip(incident[vid], raw / raw.sum())}
        doc["weights"] = rows
    return doc


def _weights(doc: dict) -> dict[str, list[tuple[int, str, float, float]]]:
    """Per vertex: (edge index, neighbour, length, p_v(e))."""
    d = doc.get("dimension", 3)
    out: dict[str, list] = {v["id"]: [] for v in doc["vertices"]}
    for k, e in enumerate(doc["edges"]):
        r = e.get("radius", 1.0) ** (d - 1)
        out[e["from"]].append([k, e["to"], e["length"], r])
        out[e["to"]].append([k, e["from"], e["length"], r])
    explicit = doc.get("weights", {})
    for vid, row in out.items():
        if vid in explicit:
            for item in row:
                item[3] = explicit[vid][str(item[0])]
        else:
            total = sum(item[3] for item in row)
            for item in row:
                item[3] /= total
    return {vid: [tuple(item) for item in row] for vid, row in out.items()}


def reference_survival(doc: dict, kappa: dict[str, float]) -> dict[str, float]:
    """Survival at every vertex with killing strength ``kappa[v]`` (finite).

    Exits hold 1; every other vertex v satisfies
    sum_e p_v(e) (F(t(e)) - F(v)) / l_e = kappa_v F(v).  The system is
    assembled from the document alone and solved by sparse LU.
    """
    ids = [v["id"] for v in doc["vertices"]]
    index = {vid: i for i, vid in enumerate(ids)}
    exits = {v["id"] for v in doc["vertices"] if v.get("role") == "exit"}
    entries: list[tuple[int, int, float]] = []
    b = np.zeros(len(ids))
    for vid, row in _weights(doc).items():
        i = index[vid]
        if vid in exits:
            entries.append((i, i, 1.0))
            b[i] = 1.0
            continue
        diag = -kappa.get(vid, 0.0)
        for _, other, length, p in row:
            entries.append((i, index[other], p / length))
            diag -= p / length
        entries.append((i, i, diag))
    rows, cols, vals = zip(*entries)
    a = coo_matrix((vals, (rows, cols)), shape=(len(ids), len(ids))).tocsc()
    f = spsolve(a, b)
    return {vid: float(f[index[vid]]) for vid in ids}


def active_ids(doc: dict) -> list[str]:
    return [v["id"] for v in doc["vertices"] if v.get("role") == "active"]
