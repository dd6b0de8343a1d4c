"""Correctness checks run on every benchmark round.

Two kinds: a digest of the program's outputs, compared with the committed
reference for the seeds that have one (`reference.json`), and invariants that
must hold for any seed.  The digests leave out the only nondeterministic
output, the wall-clock time per iteration.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Every IterationReport field except wall_ms, as the report is defined at the
# commit that introduced the benchmark.  Fields added later are not digested.
REPORT_FIELDS = ("iteration", "theta", "exploitability", "reward_row",
                 "reward_col", "pop_sizes", "clipped_sizes",
                 "oracle_branch_taken")
THETA_FIELDS = ("theta_row", "theta_col", "residual", "iterations_used")

EXPL_FLOOR = -1e-9


def _encode(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (int, str)):
        return repr(value)
    if hasattr(value, "tolist"):
        return _encode(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_encode(v) for v in value) + "]"
    raise TypeError(f"cannot digest {type(value).__name__}")


def reports_digest(cells: list) -> str:
    """sha256 over every cell's reports, all fields but wall_ms, floats exact."""
    h = hashlib.sha256()
    for reports in cells:
        for rep in reports:
            for name in REPORT_FIELDS:
                value = getattr(rep, name)
                if name == "theta":
                    value = [getattr(value, f) for f in THETA_FIELDS]
                h.update(f"{name}={_encode(value)};".encode())
        h.update(b"|")
    return h.hexdigest()


def _cell_errors(label, expl, rewards, pops, clipped) -> list:
    """Invariants of one cell's trajectory, given per-iteration sequences."""
    errors = []
    for it, (e, rw, pop, clip) in enumerate(zip(expl, rewards, pops, clipped)):
        if not math.isfinite(e) or e < EXPL_FLOOR:
            errors.append(f"{label} iter {it}: exploitability {e!r}")
        if not all(math.isfinite(r) for r in rw):
            errors.append(f"{label} iter {it}: non-finite reward {rw!r}")
        if any(c > p for c, p in zip(clip, pop)):
            errors.append(f"{label} iter {it}: clipped {clip} > population {pop}")
    for it, (a, b) in enumerate(zip(pops, pops[1:]), start=1):
        if any(y < x for x, y in zip(a, b)):
            errors.append(f"{label} iter {it}: population shrank {a} -> {b}")
    return errors


def reports_errors(cells: list, iterations: int) -> list:
    """Invariant violations in the reports of directly driven cells."""
    errors = []
    for i, reports in enumerate(cells):
        if len(reports) != iterations:
            errors.append(f"cell {i}: {len(reports)} reports, expected {iterations}")
        errors += _cell_errors(
            f"cell {i}",
            [r.exploitability for r in reports],
            [(r.reward_row, r.reward_col) for r in reports],
            [tuple(r.pop_sizes) for r in reports],
            [tuple(r.clipped_sizes) for r in reports])
    return errors


def read_metrics_csv(path) -> tuple:
    """(header, rows) of a metrics.csv, every field as the program wrote it."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        return header, list(reader)


def metrics_digest(header: list, rows: list) -> str:
    """sha256 of metrics.csv with the wall_ms column removed."""
    drop = header.index("wall_ms")
    h = hashlib.sha256()
    for line in [header] + rows:
        h.update((",".join(v for j, v in enumerate(line) if j != drop) + "\n").encode())
    return h.hexdigest()


def metrics_errors(header: list, rows: list, columns: list, cells: int,
                   iterations: int) -> list:
    """Invariant violations in a grid's metrics.csv."""
    if header != list(columns):
        return [f"metrics.csv header {header} != {list(columns)}"]
    errors = []
    if len(rows) != cells * iterations:
        errors.append(f"metrics.csv has {len(rows)} rows, expected "
                      f"{cells} cells x {iterations} iterations")
    col = {name: j for j, name in enumerate(header)}
    by_run: dict = {}
    for row in rows:
        by_run.setdefault(row[col["run_id"]], []).append(row)
    for run_id, run_rows in sorted(by_run.items()):
        run_rows.sort(key=lambda r: int(r[col["iteration"]]))
        if [int(r[col["iteration"]]) for r in run_rows] != list(range(iterations)):
            errors.append(f"run {run_id}: iterations are not 0..{iterations - 1}")

        def ints(*names):
            return [tuple(int(r[col[n]]) for n in names) for r in run_rows]

        errors += _cell_errors(
            f"run {run_id}",
            [float(r[col["exploitability"]]) for r in run_rows],
            [tuple(float(r[col[n]]) for n in ("reward_row", "reward_col",
                                               "joint_reward")) for r in run_rows],
            ints("pop_size_row", "pop_size_col"),
            ints("clipped_row", "clipped_col"))
    return errors


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def reference_digest(reference: dict, workload: str, seed: int):
    """The committed digest for (workload, seed), or None if there is none."""
    return reference.get(workload, {}).get(str(seed))
