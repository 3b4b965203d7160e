"""Numeric output checks for benchmark jobs.

Outputs are parsed and compared by value, never byte-wise, so a change may
reorder sums.  Every closed form the jobs print is linear in the shear
values, so `reference.json` stores, per job, the output for each edge of
the workload's edge list carrying a unit shear; the expected output for any
seed is the seeded combination of those responses.  Outputs that are not
linear (the Zygmund supremum) are compared for the default seed only.
"""

from __future__ import annotations

import json
import math
import re

from workloads import DEFAULT_SEED, TORUS_PAIR_DEPTH

REL = 1e-9          # closed forms and Gram matrix, relative to the sum of |terms|
ORACLE_ABS = 1e-6   # oracle against the closed form (acceptance criterion 1)
KEY_ABS = 1e-12     # grid abscissae
BAD_TOKEN = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def has_diagnostic(err: str) -> bool:
    """True if stderr carries the CLI's one-line JSON error diagnostic."""
    for line in err.splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if isinstance(doc, dict) and "error" in doc:
            return True
    return False


def _csv(out: str) -> tuple[list[str], list[list[str]]]:
    lines = out.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def parse_vector(kind: str, out: str) -> tuple[list, list[float]]:
    """(keys, values) of a linear job: keys label the entries (x, n or the
    target edge) and values is the part linear in the shears."""
    if kind in ("field", "oracle"):
        header, rows = _csv(out)
        if header != ["x", "value"]:
            raise ValueError(f"header {header}")
        return [float(r[0]) for r in rows], [float(r[1]) for r in rows]
    if kind == "fourier":
        header, rows = _csv(out)
        if header != ["n", "re", "im"]:
            raise ValueError(f"header {header}")
        return ([int(r[0]) for r in rows],
                [float(r[1]) for r in rows] + [float(r[2]) for r in rows])
    if kind == "hilbert_shear":
        data = json.loads(out)["data"]
        return data["edge"], [float(v) for v in data["partials_by_order"]] + [
            float(data["value"])]
    raise ValueError(f"{kind} is not linear in the shears")


def _keys_match(got, want) -> bool:
    return len(got) == len(want) and all(
        abs(g - w) <= KEY_ABS for g, w in zip(got, want))


def _combination(basis, values, k) -> tuple[float, float]:
    terms = [v * b[k] for v, b in zip(values, basis)]
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def check_linear(ref: dict, values, keys, got) -> str | None:
    if not _keys_match(keys, ref["keys"]):
        return f"keys {keys} differ from the reference"
    if len(got) != len(ref["basis"][0]):
        return f"{len(got)} values, reference has {len(ref['basis'][0])}"
    for k, g in enumerate(got):
        want, scale = _combination(ref["basis"], values, k)
        if not abs(g - want) <= REL * scale:
            return f"entry {k}: {g!r} vs reference {want!r}"
    return None


def check_oracle(ref: dict, values, keys, got) -> str | None:
    if not _keys_match(keys, ref["keys"]):
        return f"keys {keys} differ from the closed-form grid"
    for k, g in enumerate(got):
        want, _ = _combination(ref["basis"], values, k)
        if not abs(g - want) <= ORACLE_ABS:
            return f"x={keys[k]}: oracle {g!r} vs closed {want!r}"
    return None


def _close(got, want) -> bool:
    return abs(got - want) <= REL * abs(want)


def check_gram(ref: dict, doc: dict) -> str | None:
    data = doc["data"]
    g = data["gram"]
    a, b, c, d = g[0][0], g[0][1], g[1][0], g[1][1]
    if not abs(b - c) <= REL * max(abs(b), abs(c)):
        return f"Gram not symmetric: {b!r} vs {c!r}"
    if not (a > 0 and a * d - (0.5 * (b + c)) ** 2 > 0):
        return "Gram not positive definite"
    if not all(e > 0 for e in data["eigenvalues"]):
        return "nonpositive eigenvalue"
    for key in ("gram", "depth_prev_gram"):
        if [len(r) for r in data[key]] != [len(r) for r in ref[key]]:
            return f"{key} has another shape than the reference"
        for row, ref_row in zip(data[key], ref[key]):
            for x, y in zip(row, ref_row):
                if not _close(x, y):
                    return f"{key}: {x!r} vs reference {y!r}"
    if len(data["eigenvalues"]) != len(ref["eigenvalues"]):
        return "wrong number of eigenvalues"
    for x, y in zip(sorted(data["eigenvalues"]), sorted(ref["eigenvalues"])):
        if not _close(x, y):
            return f"eigenvalue {x!r} vs reference {y!r}"
    return None


def _bilinear(gram, t1, t2) -> tuple[float, float]:
    # t = c0 (1,-1,0) + c1 (0,1,-1) with c0 = t[0], c1 = t[0] + t[1]
    c1 = (t1[0], t1[0] + t1[1])
    c2 = (t2[0], t2[0] + t2[1])
    terms = [c1[i] * gram[i][j] * c2[j] for i in range(2) for j in range(2)]
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def check_pair(ref: dict, triples, doc: dict) -> str | None:
    data = doc["data"]
    t1, t2 = triples
    if data["t1"] != list(map(float, t1)) or data["t2"] != list(map(float, t2)):
        return "pair echoes other tangent vectors"
    for key, gram in (("value", ref["gram"]),
                      ("value_prev_depth", ref["depth_prev_gram"])):
        want, scale = _bilinear(gram, t1, t2)
        if not abs(data[key] - want) <= REL * scale:
            return f"{key}: {data[key]!r} vs Gram form {want!r}"
    return None


def check_zygmund(ref: dict, seed: int, doc: dict) -> str | None:
    row = doc["data"][0]
    sup = float(row["sup"])
    if not (math.isfinite(sup) and sup >= 0.0):
        return f"sup {sup!r} is not a finite nonnegative number"
    if seed == DEFAULT_SEED and not _close(sup, ref["default_seed_sup"]):
        return f"sup {sup!r} vs reference {ref['default_seed_sup']!r}"
    return None


def check_job(job, workload, reference: dict, seed: int,
              rc: int, out: str, err: str) -> str | None:
    """None if the job's run is valid, else a one-line reason it failed."""
    if rc != 0:
        return f"exit code {rc}"
    if has_diagnostic(err):
        return "diagnostic on stderr"
    if BAD_TOKEN.search(out):
        return "non-finite token in output"
    try:
        return _check_output(job, workload, reference, seed, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output ({exc})"


def _check_output(job, workload, reference, seed, out) -> str | None:
    if job.kind == "exact":
        want = reference["grid"][job.name]["lines"]
        return None if out.splitlines() == want else "differs from reference"
    if job.kind == "gram":
        return check_gram(reference["torus"][job.name], json.loads(out))
    if job.kind == "pair":
        ref = reference["torus"][f"gram_{TORUS_PAIR_DEPTH}"]
        return check_pair(ref, workload.triples, json.loads(out))
    ref = reference[workload.edge_set]
    if job.kind == "zygmund":
        return check_zygmund(ref["zygmund"], seed, json.loads(out))
    keys, got = parse_vector(job.kind, out)
    if job.kind == "oracle":
        return check_oracle(ref["hilbert_closed"], workload.values, keys, got)
    return check_linear(ref[job.name], workload.values, keys, got)
