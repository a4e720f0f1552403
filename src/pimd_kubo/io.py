"""CSV/JSON artifact writers with round-trip float formatting.

Floats are written with repr (shortest round-trip decimal), so identical
runs produce byte-identical files on any platform with IEEE doubles.
"""

import json

import numpy as np


def _fmt(x):
    return repr(float(x))


def write_series_csv(path, series):
    write_table_csv(path, ["t", "value", "std_error"],
                    [series.times, series.values, series.std_errors])


def write_table_csv(path, header, columns):
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_ensemble_csv(path, ensemble):
    n = ensemble.shape[1]
    write_table_csv(path, [f"x_{k + 1}" for k in range(n)], list(ensemble.T))


def write_meta_json(path, meta):
    with open(path, "w", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
