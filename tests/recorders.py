"""Recorders that tests install with a monkeypatch to see what ran."""

from __future__ import annotations

import canonica.factorizations as factorizations


def record_rotations(monkeypatch) -> list:
    """Record, per call of factorizations._diagonalize_clusters, the
    index lists of the clusters it rotates."""
    rotated = []
    original = factorizations._diagonalize_clusters

    def recorded(u, clusters, h, k, radius):
        rotated.append([list(idx) for idx in clusters])
        return original(u, clusters, h, k, radius)

    monkeypatch.setattr(factorizations, "_diagonalize_clusters", recorded)
    return rotated
