#!/usr/bin/env python3
"""Check an `mgx_run --all --json` result set against the pinned grid.

usage: check_grid_reference.py RESULTS.json CELLS.tsv COUNT

CELLS.tsv is perfbench/reference/cells.tsv: one row per pinned cell,
keyed `workload|platform|scheme`, with the fields a performance change
must never move (a dotted name reads a nested record field). The result
set must hold exactly COUNT distinct cells, each equal to its row on
every pinned field. Both files are only read.
"""

import json
import sys


def load_cells(path):
    with open(path) as f:
        rows = [line.rstrip("\n").split("\t") for line in f if line.strip()]
    header, rows = rows[0], rows[1:]
    if header[0] != "# key":
        sys.exit(f"{path}: expected a '# key' header, got {header[0]!r}")
    return header[1:], {r[0]: [int(v) for v in r[1:]] for r in rows}


def field(record, name):
    for part in name.split("."):
        record = record[part]
    return record


def main(results_path, cells_path, count):
    fields, cells = load_cells(cells_path)
    with open(results_path) as f:
        records = json.load(f)["records"]
    keys = [f"{r['workload']}|{r['platform']}|{r['scheme']}"
            for r in records]
    errors = []
    if len(set(keys)) != len(keys) or len(keys) != count:
        errors.append(f"{len(set(keys))} distinct cells in {len(keys)} "
                      f"records, expected {count}")
    for key, r in zip(keys, records):
        if key not in cells:
            errors.append(f"{key}: not a pinned cell")
            continue
        for name, want in zip(fields, cells[key]):
            if field(r, name) != want:
                errors.append(f"{key}: {name} {field(r, name)}, "
                              f"pinned {want}")
    for e in errors[:20]:
        print(e)
    if errors:
        sys.exit(f"{len(errors)} mismatches against {cells_path}")
    print(f"{len(records)} cells match {cells_path}")


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]))
