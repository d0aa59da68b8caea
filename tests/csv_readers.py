"""Readers for the CSV outputs the program only writes: loss.csv, keys.csv and
analogy.csv, read back by the round-trip and CLI tests."""

from __future__ import annotations

import csv
import math

import numpy as np

from slicevec.analysis import SimilarityMatrix
from slicevec.trainer import LossTrace


def load_loss_trace(path: str) -> LossTrace:
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["step", "avg_loss"]:
            raise ValueError(f"{path}: not a loss trace CSV")
        return LossTrace([(int(row[0]), float(row[1])) for row in reader])


def load_matrix(path: str) -> SimilarityMatrix:
    units = "distance"
    with open(path, "r", encoding="ascii", newline="") as fh:
        first = fh.readline()
        if first.startswith("#"):
            if "units:" in first:
                units = first.split("units:")[1].strip()
        else:
            fh.seek(0)
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "":
            raise ValueError(f"{path}: not a labeled matrix CSV")
        labels = tuple(header[1:])
        row_labels = []
        rows = []
        for line in reader:
            if not line:
                continue
            row_labels.append(line[0])
            rows.append([float(v) if v else math.nan for v in line[1:]])
    if tuple(row_labels) != labels:
        raise ValueError(f"{path}: row labels differ from the column labels")
    return SimilarityMatrix(labels, np.array(rows), units)
