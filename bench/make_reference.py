"""Record bench/reference.json from the current sources.

    PYTHONPATH=src python3 bench/make_reference.py

For every job whose output is linear in the shears it stores the output
for each edge of the workload's edge list carrying a unit shear (see
checks.py); for the seed-independent jobs it stores their output; for the
Zygmund supremum it stores the default seed's value.  Re-record only in a
change whose purpose is to alter the numbers the CLI prints or the
benchmark's jobs, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks            # noqa: E402
import workloads as wl   # noqa: E402
from shearfield.cli import run   # noqa: E402


def cli_output(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run(list(argv))
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return buf.getvalue()


def unit_responses(edges, make_jobs, scratch: Path) -> dict:
    """Per linear job: its keys and the output vector of each unit edge."""
    path = scratch / "unit.json"
    jobs = [j for j in make_jobs(str(path))
            if j.kind in ("field", "fourier", "hilbert_shear")]
    ref = {j.name: {"keys": None, "basis": []} for j in jobs}
    for edge in edges:
        wl.write_shears(path, [edge], [1.0])
        for job in jobs:
            keys, vec = checks.parse_vector(job.kind, cli_output(job.argv))
            ref[job.name]["keys"] = keys
            ref[job.name]["basis"].append(vec)
    return ref


def default_sup(name: str, scratch: Path) -> dict:
    workload = wl.build(name, wl.DEFAULT_SEED, scratch)
    job, = (j for j in workload.jobs if j.kind == "zygmund")
    sup = json.loads(cli_output(job.argv))["data"][0]["sup"]
    return {"default_seed_sup": sup}


def main() -> None:
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        scratch = Path(tmp)
        grid = unit_responses(wl.GRID_EDGES, wl.grid_jobs, scratch)
        grid["zygmund"] = default_sup("grid", scratch)
        for job in wl.grid_jobs(""):
            if job.kind == "exact":
                grid[job.name] = {"lines": cli_output(job.argv).splitlines()}
        deep = unit_responses(wl.DEEP_EDGES, wl.deep_jobs, scratch)
        deep["zygmund"] = default_sup("deep", scratch)
        torus = {}
        for job in wl.build("torus", wl.DEFAULT_SEED, scratch).jobs:
            if job.kind == "gram":
                data = json.loads(cli_output(job.argv))["data"]
                torus[job.name] = {k: data[k] for k in
                                   ("gram", "eigenvalues", "depth_prev_gram")}
    doc = {"grid": grid, "deep": deep, "torus": torus}
    (BENCH / "reference.json").write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
