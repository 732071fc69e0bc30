"""Interchange formats: KPI series CSVs."""

from .csvio import read_matrix, read_series, write_matrix

__all__ = ["read_matrix", "read_series", "write_matrix"]
