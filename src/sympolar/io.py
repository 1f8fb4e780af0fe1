"""JSON serialization for polytopes and capacity certificates.

Rationals travel as decimal-free ``"p/q"`` (or plain integer) strings; the
reader rejects any floating-point literal so no approximate value can leak
into the exact pipeline.  Every file the program writes goes through
``atomic_write_text`` (temp file + rename), so no write is left half done.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from fractions import Fraction
from pathlib import Path

from sympolar.capacity import FACET_NORMALS, VERTICES
from sympolar.geometry import Polytope, convex_hull

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


class MalformedInputError(ValueError):
    """An on-disk artifact does not conform to the exact JSON schema."""


def _reject_float(value: str):
    raise MalformedInputError(
        f"floating-point literal {value!r} is not allowed; use 'p/q' strings"
    )


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise MalformedInputError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value):
            raise MalformedInputError(f"not a 'p/q' rational: {value!r}")
        return Fraction(value)
    raise MalformedInputError(f"expected a rational, got {type(value).__name__}")


def atomic_write_text(path: Path, text: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        # mkstemp creates the file owner-only; give it the mode of a plain open
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def polytope_to_dict(P: Polytope) -> dict:
    return {
        "dim": P.dim,
        "vertices": [[str(c) for c in v] for v in P.vertices],
    }


def polytope_from_dict(data) -> Polytope:
    if not isinstance(data, dict):
        raise MalformedInputError("polytope JSON must be an object")
    try:
        dim = data["dim"]
        raw_vertices = data["vertices"]
    except (KeyError, TypeError) as exc:
        raise MalformedInputError(f"polytope JSON missing field: {exc}") from exc
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise MalformedInputError(f"invalid dimension: {dim!r}")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise MalformedInputError("polytope JSON needs a nonempty vertex list")
    points = []
    for row in raw_vertices:
        if not isinstance(row, list) or len(row) != dim:
            raise MalformedInputError(f"vertex {row!r} does not have {dim} coordinates")
        points.append(tuple(parse_rational(c) for c in row))
    return convex_hull(points)


def write_polytope(path, P: Polytope):
    atomic_write_text(Path(path), json.dumps(polytope_to_dict(P), indent=1) + "\n")


def _read_exact_json(path, what: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise MalformedInputError(f"cannot read {what} file {path}: {exc}") from exc
    try:
        return json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"invalid JSON in {path}: {exc}") from exc


def read_polytope(path) -> Polytope:
    return polytope_from_dict(_read_exact_json(path, "polytope"))


def certificate_to_dict(cert) -> dict:
    return {
        "kind": cert.kind,
        "indices": [{"index": i, "sign": s} for i, s in cert.indices],
        "coeffs": [str(c) for c in cert.coeffs],
        "objective": str(cert.objective),
    }


def certificate_fields_from_dict(data) -> tuple[str, tuple, tuple, Fraction]:
    """Parse the schema fields; generator resolution happens against a polytope."""
    if not isinstance(data, dict):
        raise MalformedInputError("certificate JSON must be an object")
    try:
        kind = data["kind"]
        raw_indices = data["indices"]
        raw_coeffs = data["coeffs"]
        raw_objective = data["objective"]
    except (KeyError, TypeError) as exc:
        raise MalformedInputError(f"certificate JSON missing field: {exc}") from exc
    if kind not in (VERTICES, FACET_NORMALS):
        raise MalformedInputError(f"unknown certificate kind: {kind!r}")
    if not isinstance(raw_indices, list) or not isinstance(raw_coeffs, list):
        raise MalformedInputError("certificate indices and coeffs must be lists")
    indices = []
    for entry in raw_indices:
        if (
            not isinstance(entry, dict)
            or not all(type(entry.get(key)) is int for key in ("index", "sign"))
            or entry["sign"] not in (-1, 1)
        ):
            raise MalformedInputError(f"invalid index entry: {entry!r}")
        indices.append((entry["index"], entry["sign"]))
    coeffs = tuple(parse_rational(c) for c in raw_coeffs)
    if len(coeffs) != len(indices):
        raise MalformedInputError("coefficient and index counts differ")
    return kind, tuple(indices), coeffs, parse_rational(raw_objective)


def write_certificate(path, cert):
    atomic_write_text(Path(path), json.dumps(certificate_to_dict(cert), indent=1) + "\n")


def read_certificate_fields(path):
    return certificate_fields_from_dict(_read_exact_json(path, "certificate"))
