"""Sequential-scan baselines (the competitor in Figures 10-12)."""

from repro.scan.seqscan import scan_knn, scan_knn_many, scan_range, scan_range_many

__all__ = ["scan_knn", "scan_knn_many", "scan_range", "scan_range_many"]
