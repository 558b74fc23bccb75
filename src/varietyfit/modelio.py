"""Model serialization and computer-algebra script export.

A model file is a self-describing JSON document holding one polynomial
(exponent list plus coefficient list against the "grlex" ordering) and the
fit metadata needed to reproduce or audit it. In memory it is a ModelFile:
the Poly itself plus that metadata; the exponent list is written from the
Poly's basis and checked against it on load. JSON floats round-trip
bit-exactly through Python, which keeps reloaded coefficients identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cloud import NormalizationRecord
from .fitting import MapFit, RationalPoly, intersected_map, map_polynomial
from .polynomials import Poly, enumerate_monomials

__all__ = [
    "ModelFile",
    "export_singular_script",
    "load_model",
    "save_model",
]

ORDERING_TAG = "grlex"
# Model kind -> basis degree per unit of the fitted degree: a map model is
# the leading kernel element (degree D), an intersected one the sum of
# squares of the kernel basis (degree 2D).
MODEL_KINDS = {"map": 1, "intersected": 2}


@dataclass(frozen=True)
class ModelFile:
    """One fitted polynomial plus provenance metadata."""

    poly: Poly
    degree: int
    lam: float
    kernel_dim: int
    kind: str = "map"
    seed: int | None = None
    normalization: NormalizationRecord | None = None

    @classmethod
    def from_fit(
        cls,
        fit: MapFit,
        intersected: bool = False,
        seed: int | None = None,
        normalization: NormalizationRecord | None = None,
    ) -> "ModelFile":
        # intersected_map returns the map polynomial itself when the fit's
        # table has full rank; kind names the polynomial written.
        poly = intersected_map(fit) if intersected else map_polynomial(fit)
        return cls(
            poly=poly,
            degree=fit.degree,
            lam=fit.lam,
            kernel_dim=fit.kernel_dim,
            kind="intersected" if poly.basis.degree != fit.degree else "map",
            seed=seed,
            normalization=normalization,
        )


def save_model(model: ModelFile, path) -> None:
    basis = model.poly.basis
    doc = {
        "n": basis.n,
        "degree": model.degree,
        "ordering": ORDERING_TAG,
        "exponents": [list(alpha) for alpha in basis.exponents],
        "coefficients": [float(c) for c in model.poly.coeffs],
        "lambda": model.lam,
        "kernel_dim": model.kernel_dim,
        "kind": model.kind,
        "seed": model.seed,
        "normalization": None
        if model.normalization is None
        else {
            "scale": [float(s) for s in model.normalization.scale],
            "offset": [float(o) for o in model.normalization.offset],
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _finite_floats(values, length: int) -> np.ndarray | None:
    # The list as floats, or None unless it holds exactly `length` finite
    # JSON numbers (booleans and nulls are not numbers here).
    if not isinstance(values, list) or len(values) != length:
        return None
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        return None
    try:
        out = np.array([float(v) for v in values])
    except OverflowError:
        return None
    return out if np.isfinite(out).all() else None


def load_model(path) -> ModelFile:
    """Read a model file, checking its shape, key types and finiteness,
    that its exponent list is the whole grlex basis up to its largest degree,
    and that its kind is "map" (basis degree == degree) or "intersected"
    (basis degree == 2 * degree).

    A malformed file raises ValueError naming the path and the field.
    """

    def bad(field: str, what: str) -> ValueError:
        return ValueError(f"{path}: model field {field!r} {what}")

    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not a JSON model file ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(
            f"{path}: model file must hold a JSON object, got {type(doc).__name__}"
        )
    for key in ("n", "degree", "exponents", "coefficients", "lambda", "kernel_dim"):
        if key not in doc:
            raise bad(key, "is missing")
    if doc.get("ordering") != ORDERING_TAG:
        raise bad("ordering", f"must be {ORDERING_TAG!r}, got {doc.get('ordering')!r}")
    for key, least in (("n", 1), ("degree", 0), ("kernel_dim", 0)):
        if not _is_int(doc[key]) or doc[key] < least:
            raise bad(key, f"must be an integer >= {least}, got {doc[key]!r}")
    n = doc["n"]
    exponents = doc["exponents"]
    if not (
        isinstance(exponents, list)
        and exponents
        and all(
            isinstance(alpha, list)
            and len(alpha) == n
            and all(_is_int(e) and e >= 0 for e in alpha)
            for alpha in exponents
        )
    ):
        raise bad(
            "exponents", f"must be a non-empty list of {n} non-negative integers per term"
        )
    # len(basis) is a binomial, so a file whose length is wrong is refused
    # before any enumeration: the work stays bounded by the file's size.
    basis = enumerate_monomials(n, max(sum(alpha) for alpha in exponents))
    if len(exponents) != len(basis) or basis.exponents != tuple(map(tuple, exponents)):
        raise bad(
            "exponents",
            f"must list the grlex basis of degree <= {basis.degree} in {n} variables",
        )
    coefficients = _finite_floats(doc["coefficients"], len(exponents))
    if coefficients is None:
        raise bad("coefficients", f"must be a list of {len(exponents)} finite numbers")
    lam = _finite_floats([doc["lambda"]], 1)
    if lam is None:
        raise bad("lambda", f"must be a finite number, got {doc['lambda']!r}")
    kind = doc.get("kind", "map")
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise bad("kind", f"must be one of {list(MODEL_KINDS)}, got {kind!r}")
    if basis.degree != MODEL_KINDS[kind] * doc["degree"]:
        raise bad(
            "degree",
            f"{doc['degree']} does not fit a {kind!r} model of basis degree {basis.degree}",
        )
    seed = doc.get("seed")
    if seed is not None and not _is_int(seed):
        raise bad("seed", f"must be an integer or null, got {seed!r}")
    norm = doc.get("normalization")
    record = None
    if norm is not None:
        scale = offset = None
        if isinstance(norm, dict):
            scale = _finite_floats(norm.get("scale"), n)
            offset = _finite_floats(norm.get("offset"), n)
        if scale is None or offset is None:
            raise bad(
                "normalization",
                f"must be null or hold 'scale' and 'offset', {n} finite numbers each",
            )
        try:
            record = NormalizationRecord(scale=scale, offset=offset)
        except ValueError as exc:
            raise bad("normalization", f"is refused: {exc}") from None
    return ModelFile(
        poly=Poly(basis, coefficients),
        degree=doc["degree"],
        lam=float(lam[0]),
        kernel_dim=doc["kernel_dim"],
        kind=kind,
        seed=seed,
        normalization=record,
    )


def _var_names(n: int) -> list[str]:
    if n <= 3:
        return ["x", "y", "z"][:n]
    return [f"x{j + 1}" for j in range(n)]


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _poly_str(f: RationalPoly) -> str:
    names = _var_names(f.basis.n)
    parts: list[str] = []
    for alpha, q in zip(f.basis.exponents, f.coeffs):
        if q == 0:
            continue
        factors = []
        for name, e in zip(names, alpha):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        mag = abs(q)
        if not mono:
            body = _frac_str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_frac_str(mag)}*{mono}"
        if not parts:
            parts.append(body if q > 0 else f"-{body}")
        else:
            parts.append(f"{' + ' if q > 0 else ' - '}{body}")
    return "".join(parts) if parts else "0"


def export_singular_script(f: RationalPoly) -> str:
    """Script for an external computer-algebra system that computes the
    real radical, minimal primes, and dimension of the ideal of f.

    Requires exact rational coefficients (see rationalize).
    """
    if not isinstance(f, RationalPoly):
        raise TypeError("export requires a RationalPoly with exact coefficients")
    names = ",".join(_var_names(f.basis.n))
    return (
        'LIB "realrad.lib"; LIB "primdec.lib";\n'
        f"ring R = 0,({names}),lp;\n"
        f"poly f = {_poly_str(f)};\n"
        "ideal I2 = realrad(ideal(f));\n"
        "minAssGTZ(I2);\n"
        "dim(std(I2));\n"
    )
