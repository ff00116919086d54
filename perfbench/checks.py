"""Reference answers and the comparisons that decide whether an answer is wrong.

References, per the package's own yardstick:

* ``lift_spectrum`` -- dense ``eigvalsh`` of the explicit lift;
* ``lift_eigenvectors`` -- ``len(selected) == kn``, each selected column's
  residual against the explicit lift, and full column rank;
* the CLI -- the same checks on the parsed output, ``verify`` reporting
  ``"passed": true``, and ``characters`` against the explicit lift's
  ``eigvalsh``.
"""

from __future__ import annotations

import hashlib

import numpy as np

import liftspectra as ls


def multiset_distance(values, reference) -> float:
    """Largest distance between eigenvalues of two multisets paired by real part."""
    values = np.asarray(values, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    if values.shape != reference.shape:
        return float("inf")
    if values.size == 0:
        return 0.0
    a = values[np.argsort(values.real, kind="stable")]
    b = reference[np.argsort(reference.real, kind="stable")]
    return float(np.max(np.abs(a - b)))


def dense_reference(graph, ctx) -> np.ndarray:
    """Eigenvalues of the explicit lift of an undirected base."""
    adjacency = ls.build_lift(graph, ctx).adjacency.astype(float)
    return np.linalg.eigvalsh(adjacency).astype(complex)


def spectrum_is_right(values, reference, tol: float) -> bool:
    values = np.asarray(values, dtype=complex)
    if np.max(np.abs(values.imag), initial=0.0) > tol:
        return False
    return multiset_distance(values, reference) <= tol


def eigvecs_answer(bundle):
    """Selected columns, their eigenvalues and ``kn`` from an eigenvector bundle."""
    cols = [bundle.columns[c] for c in bundle.selected_basis]
    vectors = np.column_stack([c.vector for c in cols]) if cols else np.zeros((bundle.kn, 0))
    values = np.array([c.eigenvalue for c in cols], dtype=complex)
    return vectors, values, bundle.kn


def digest(*parts) -> str:
    """Hash of exact answer bits: arrays (shape included), numbers or bytes."""
    h = hashlib.sha1()
    for part in parts:
        if not isinstance(part, bytes):
            part = np.ascontiguousarray(part)
            h.update(str(part.shape).encode())
            part = part.tobytes()
        h.update(part)
    return h.hexdigest()


def eigvecs_are_right(vectors, values, kn: int, adjacency, tol_residual: float) -> bool:
    if vectors.shape != (adjacency.shape[0], kn) or kn != adjacency.shape[0]:
        return False
    residual = np.linalg.norm(adjacency @ vectors - vectors * values[None, :], axis=0)
    bound = tol_residual * np.maximum(1.0, np.linalg.norm(vectors, axis=0))
    if np.any(residual > bound):
        return False
    return int(np.linalg.matrix_rank(vectors)) == kn


def spectrum_from_json(payload) -> np.ndarray:
    """Expand a ``spectrum`` subcommand report into its eigenvalue multiset."""
    values = []
    for entry in payload["eigenvalues"]:
        re, im = entry["value"]
        values.extend([complex(re, im)] * int(entry["count"]))
    return np.array(values, dtype=complex)


def eigvecs_from_json(payload):
    columns = payload["columns"]
    chosen = [columns[c] for c in payload["selected"]]
    kn = int(payload["kn"])
    if not chosen:
        return np.zeros((kn, 0), dtype=complex), np.zeros(0, dtype=complex), kn
    vectors = np.array(
        [[complex(re, im) for re, im in c["vector"]] for c in chosen], dtype=complex
    ).T
    values = np.array([complex(*c["eigenvalue"]) for c in chosen], dtype=complex)
    return vectors, values, kn


def lift_from_lines(text: str, labels: list[str]) -> np.ndarray:
    """Adjacency matrix from the ``lift`` subcommand's edge lines."""
    index = {label: i for i, label in enumerate(labels)}
    adjacency = np.zeros((len(labels), len(labels)))
    for line in text.splitlines():
        tail, head, mult = line.split()
        adjacency[index[tail], index[head]] += int(mult)
    return adjacency
