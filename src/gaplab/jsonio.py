"""JSON and CSV file formats shared by the CLI and the test suite.

Matrix files: {"rows": n, "cols": m, "entries": [[re, im], ...]} with
entries in row-major order.  Spectrum files: {"eigenvalues": [...],
"blocks": [matrix, ...]} with one orthonormal block per distinct
eigenvalue.  State files: a JSON array of states, each a list of
[re, im] pairs.  Curve CSVs: header "t,re_expectation,im_expectation",
17 significant digits.
"""

from __future__ import annotations

import json

import numpy as np

from .linalg import as_complex_matrix
from .sampling import DensityMatrix
from .spectra import SpectralDecomposition

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "save_matrix",
    "load_matrix",
    "load_density",
    "spectrum_to_json",
    "spectrum_from_json",
    "save_spectrum",
    "load_spectrum",
    "states_to_json",
    "states_from_json",
    "save_states",
    "load_states",
    "write_curve_csv",
    "sanitize",
    "dumps_canonical",
]

#: Largest max-entry defect allowed in a spectrum file's orthonormal blocks and their resolution of the identity.
ORTHONORMALITY_TOL = 1e-8


def _float_array(value, what: str) -> np.ndarray:
    """A JSON list of numbers (nested to any depth) as a float array; ValueError naming ``what`` otherwise."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, got {type(value).__name__}")
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must hold numbers: {exc}") from None


def matrix_to_json(M) -> dict:
    M = as_complex_matrix(M)
    entries = [[float(z.real), float(z.imag)] for z in M.ravel()]
    return {"rows": int(M.shape[0]), "cols": int(M.shape[1]), "entries": entries}


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        rows, cols, entries = int(obj["rows"]), int(obj["cols"]), obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    flat = _float_array(entries, "matrix JSON 'entries'")
    if len(flat) != rows * cols:
        raise ValueError(
            f"matrix JSON has {len(flat)} entries, expected {rows * cols}"
        )
    if flat.ndim != 2 or flat.shape[1] != 2:
        raise ValueError("matrix entries must be [re, im] pairs")
    M = (flat[:, 0] + 1j * flat[:, 1]).reshape(rows, cols)
    return as_complex_matrix(M)


def save_matrix(path, M) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(M), fh)
        fh.write("\n")


def load_matrix(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))


def load_density(path) -> DensityMatrix:
    """Load a dense density matrix file and put it in spectral form."""
    return DensityMatrix.from_matrix(load_matrix(path))


def spectrum_to_json(spec: SpectralDecomposition) -> dict:
    return {
        "eigenvalues": [float(v) for v in spec.values],
        "blocks": [matrix_to_json(b) for b in spec.blocks],
    }


def spectrum_from_json(obj) -> SpectralDecomposition:
    if not isinstance(obj, dict) or "eigenvalues" not in obj or "blocks" not in obj:
        raise ValueError("spectrum JSON must have 'eigenvalues' and 'blocks'")
    values = _float_array(obj["eigenvalues"], "spectrum JSON 'eigenvalues'")
    if values.ndim != 1 or values.size == 0:
        raise ValueError("eigenvalues must be a nonempty list")
    if np.any(np.diff(values) <= 0):
        raise ValueError("eigenvalues must be strictly increasing")
    if not isinstance(obj["blocks"], list):
        raise ValueError(f"spectrum JSON 'blocks' must be a JSON array, got {type(obj['blocks']).__name__}")
    blocks = [matrix_from_json(b) for b in obj["blocks"]]
    if len(blocks) != values.size:
        raise ValueError("block count does not match eigenvalue count")
    dim = blocks[0].shape[0]
    for b in blocks:
        if b.shape[0] != dim:
            raise ValueError("blocks have inconsistent ambient dimension")
        defect = np.abs(b.conj().T @ b - np.eye(b.shape[1])).max()
        if defect > ORTHONORMALITY_TOL:
            raise ValueError(f"block columns are not orthonormal (defect {defect:.3e})")
    V = np.hstack(blocks)
    if V.shape[1] != dim:
        raise ValueError(f"block ranks sum to {V.shape[1]}, expected dimension {dim}")
    defect = np.abs(V @ V.conj().T - np.eye(dim)).max()
    if defect > ORTHONORMALITY_TOL:
        raise ValueError(f"blocks do not resolve the identity (defect {defect:.3e})")
    return SpectralDecomposition(values=values, basis_matrix=V, multiplicities=np.array([b.shape[1] for b in blocks]))


def save_spectrum(path, spec: SpectralDecomposition) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spectrum_to_json(spec), fh)
        fh.write("\n")


def load_spectrum(path) -> SpectralDecomposition:
    with open(path, encoding="utf-8") as fh:
        return spectrum_from_json(json.load(fh))


def states_to_json(states) -> list:
    S = np.asarray(states, dtype=np.complex128)
    if S.ndim == 1:
        S = S[None, :]
    return [[[float(z.real), float(z.imag)] for z in row] for row in S]


def states_from_json(obj) -> np.ndarray:
    arr = _float_array(obj, "states JSON")
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("states JSON must be an array of [re, im] pair lists")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def save_states(path, states) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(states_to_json(states), fh)
        fh.write("\n")


def load_states(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return states_from_json(json.load(fh))


def write_curve_csv(path, times, values) -> None:
    """Expectation curve CSV: t, real part, imaginary part at 17 digits."""
    ts = np.asarray(times, dtype=float).ravel()
    vs = np.asarray(values, dtype=np.complex128).ravel()
    if ts.size != vs.size:
        raise ValueError("times and values must have equal length")
    rows = zip(ts.tolist(), vs.real.tolist(), vs.imag.tolist())
    text = "".join(f"{t:.17g},{re:.17g},{im:.17g}\n" for t, re, im in rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,re_expectation,im_expectation\n" + text)


def sanitize(obj, path: str = ""):
    """Convert nested numpy containers to plain JSON-safe Python values.

    ``path`` is the JSON path of ``obj`` (empty at the top), so that a
    non-finite value is refused by its path, e.g. ``checks[1].bound``.
    """
    if isinstance(obj, dict):
        return {str(k): sanitize(v, f"{path}.{k}" if path else str(k)) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [sanitize(v, f"{path}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        if not np.isfinite(val):
            raise ValueError(f"non-finite value at {path or 'the top level'} of the JSON payload: {val!r}")
        return val
    if isinstance(obj, (np.complexfloating, complex)):
        raise ValueError("complex values must be split into re/im before serialization")
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(sanitize(obj), sort_keys=True, indent=2) + "\n"
