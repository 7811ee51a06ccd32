"""Command-line surface.

Matrices travel as JSON documents ``{"dim": d, "entries": [[re, im], ...],
"label": "..."}`` with entries in row-major order.  Each quantity has one
route per operand: ``radius --shift`` solves the angle system
(``shift_radius``), ``radius --matrix`` the level set (``radius_bisect``);
the determinant oracle is cross-checked by ``verify`` only.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import verify as verify_mod
from .determinants import (capped_kernel_det, capped_kernel_det_matrix,
                           discriminant, kernel_det, kernel_det_matrix,
                           mixed_identity_residual, relative_residual)
from .errors import ToolkitError, TorusSpectrumError
from .harnack import are_harnack_equivalent
from .kernel import (UNIT_CIRCLE_TOL, DiscGrid, has_torus_spectrum, rho_kernel,
                     torus_nullspace)
from .linalg import as_cmatrix
from .radius import omega_of_rho_curve, radius_bisect, shift_radius
from .shifts import make_shift, normalized_shift
from .structure import STRUCTURE_TOL, NullProfile, circle_null_vectors, null_profile
from .verify import _fmt


def _pair(x: complex) -> list:
    """A complex number as its JSON pair [re, im]."""
    return [float(x.real), float(x.imag)]


def load_matrix(path: str) -> np.ndarray:
    """The matrix of a JSON document; ValueError (a usage error) when the
    document is malformed."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        dim, entries = int(raw["dim"]), raw["entries"]
        if len(entries) != dim * dim:
            raise ValueError(f"matrix document has {len(entries)} entries, expected {dim ** 2}")
        flat = np.array([complex(re, im) for re, im in entries])
    except TypeError as exc:  # an entry, the dim or the document of the wrong JSON type
        raise ValueError(f"{path} is not a matrix document: {exc}") from exc
    return as_cmatrix(flat.reshape(dim, dim))


def save_matrix(path: str, m, label: str | None = None) -> None:
    a = as_cmatrix(m)
    doc = {"dim": a.shape[0], "entries": [_pair(x) for x in a.ravel()]}
    if label is not None:
        doc["label"] = label
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _finite_float(text: str) -> float:
    """The argparse type of every float option: nan, inf and text that is
    not a number are usage errors (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _finite_complex(text: str) -> complex:
    """The argparse type of --z: 're,im', both parts finite."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 're,im', got {text!r}")
    return complex(*map(_finite_float, parts))


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


# ------------------------------------------------------------- subcommands

def _require_one_operand(args) -> None:
    if (args.shift is None) == (args.matrix is None):
        raise UsageError("exactly one of --shift or --matrix is required")


def _cmd_radius(args) -> int:
    _require_one_operand(args)
    if args.shift is not None:
        b = 1.0 if args.weight is None else args.weight
        if not b > 0:
            raise UsageError("--weight must be positive")
        # w_rho(b S) = b w_rho(S); shift_radius solves b = 1
        res = shift_radius(args.shift, args.rho)
        res = replace(res, value=b * res.value, bracket=(b * res.bracket[0], b * res.bracket[1]))
    else:
        if args.weight is not None:
            raise UsageError("--weight applies to shifts only")
        res = radius_bisect(load_matrix(args.matrix), args.rho)
    stats = {k: _pair(v) if isinstance(v, complex) else v for k, v in res.stats.items()}
    payload = {"value": res.value, "method": res.method, "omega": res.omega,
               "residual": res.residual, "bracket": list(res.bracket), "stats": stats}
    omega = "" if res.omega is None else f" omega={_fmt(res.omega)}"
    _emit(payload, args.json,
          [f"value={_fmt(res.value)} method={res.method}{omega} residual={res.residual:.3e}"])
    return 0


def _kernel_operand(args) -> np.ndarray:
    _require_one_operand(args)
    if args.matrix is not None:
        if args.normalized or args.weight is not None:
            raise UsageError("--normalized and --weight apply to shifts only")
        return load_matrix(args.matrix)
    if args.normalized:
        if args.weight is not None:
            raise UsageError("--normalized sets the weight; --weight does not apply")
        return normalized_shift(args.shift, args.rho)
    return make_shift(args.shift, 1.0 if args.weight is None else args.weight)


def _cmd_kernel(args) -> int:
    t = _kernel_operand(args)
    z = args.z
    if abs(abs(z) - 1.0) <= UNIT_CIRCLE_TOL and has_torus_spectrum(t):
        raise TorusSpectrumError("matrix has unit-circle spectrum; |z| = 1 is not allowed")
    values = np.linalg.eigvalsh(rho_kernel(t, z, args.rho))
    if args.format == "json":
        print(json.dumps({"z": _pair(z), "rho": args.rho,
                          "eigenvalues": [float(v) for v in values]}, indent=2))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(["index", "eigenvalue"])
        for i, v in enumerate(values):
            writer.writerow([i, repr(float(v))])
    return 0


def _cmd_nullspace(args) -> int:
    _require_one_operand(args)
    if not args.tol > 0:
        raise UsageError("--tol must be positive")
    z = args.z
    payload: dict = {"z": _pair(z), "rho": args.rho}
    lines = []
    if args.matrix is not None:
        vecs = torus_nullspace(load_matrix(args.matrix), args.rho, z, args.tol)
    else:
        profile = null_profile(args.shift, args.rho, tol=args.tol)
        vecs = circle_null_vectors(args.shift, args.rho, [z], args.tol)
        # the closed form is antisymmetric by construction: score the
        # extraction, rotated back to z = 1 by diag(conj(z)^k)
        extracted = NullProfile.from_vector(np.conj(z) ** np.arange(args.shift + 1) * vecs[0],
                                            args.rho, profile.radius, args.tol)
        payload["antisymmetry_residual"] = extracted.antisymmetry_residual
        payload["zero_pattern"] = list(profile.zero_pattern)
        payload["support"] = list(profile.support)
        lines.append(f"antisymmetry_residual={extracted.antisymmetry_residual:.3e} "
                     f"support={list(profile.support)}")
    fixed = []
    for v in vecs:
        lead = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
        fixed.append(v * np.conj(lead / abs(lead)))
    payload["nullity"] = len(vecs)
    payload["vectors"] = [[_pair(x) for x in v] for v in fixed]
    lines.insert(0, f"nullity={len(vecs)}")
    for v in fixed:
        lines.append("vector: " + " ".join(f"{x.real:+.8f}{x.imag:+.8f}j" for x in v))
    _emit(payload, args.json, lines)
    return 0


_HARNACK_NOTES = {
    "rotation": ("weighted-shift pair (rotation route): the constants are exact in angle "
                 "on the ring and the verdict holds at every unit-circle point; "
                 "the verdict is the null-space condition"),
    "sampled": ("sampled route: the constants are ring-sampled lower bounds and the "
                "verdict holds at the sampled unit-circle points; "
                "the verdict is the null-space condition"),
}


def _cmd_harnack(args) -> int:
    t1 = load_matrix(args.t1)
    t0 = load_matrix(args.t0)
    grid = DiscGrid(radii=tuple(float(r) for r in args.grid_radii.split(",")),
                    angles_per_radius=args.angles)
    verdict, evidence = are_harnack_equivalent(t1, t0, args.rho, grid,
                                               torus_angles=args.torus)
    dims1, dims0 = evidence.nullspaces.nullities()
    payload = {
        "equivalent": verdict,
        "nullspace_equal": bool(evidence.nullspaces),
        "constant_nullity": evidence.constant_nullity,
        "nullities": {"t1": sorted(dims1), "t0": sorted(dims0)},
        "worst_principal_angle_residual": float(np.max(evidence.nullspaces.residuals)),
        "c_squared_forward": evidence.forward.c_squared,
        "c_squared_backward": evidence.backward.c_squared,
        "stats_forward": evidence.forward.stats,
        "stats_backward": evidence.backward.stats,
        "note": _HARNACK_NOTES[evidence.nullspaces.route],
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_detcheck(args) -> int:
    rec_k = kernel_det(args.m, args.a, args.rho)
    rec_c = capped_kernel_det(args.m, args.a, args.rho)
    lu_k = float(np.linalg.det(kernel_det_matrix(args.m, args.a, args.rho)))
    lu_c = float(np.linalg.det(capped_kernel_det_matrix(args.m, args.a, args.rho)))
    payload = {
        "m": args.m, "a": args.a, "rho": args.rho,
        "kernel_det": rec_k, "kernel_det_lu": lu_k,
        "capped_det": rec_c, "capped_det_lu": lu_c,
        "kernel_residual": relative_residual(rec_k, lu_k),
        "capped_residual": relative_residual(rec_c, lu_c),
        "discriminant": discriminant(args.a, args.rho),
    }
    if args.m >= 2:
        payload["mixed_identity_residual"] = mixed_identity_residual(args.m, args.a, args.rho)
    lines = [f"{k}={_fmt(v)}" for k, v in payload.items()]
    _emit(payload, args.json, lines)
    return 0


def _cmd_omega_curve(args) -> int:
    rho_max = args.rho_max if args.rho_max is not None else args.n + 2 - 0.05
    curve = omega_of_rho_curve(args.n, np.linspace(args.rho_min, rho_max, args.samples))
    rows = [["rho", "omega", "radius"]]
    for rho, omega in curve:
        rows.append([repr(rho), repr(omega), repr(shift_radius(args.n, rho).value)])
    out = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        csv.writer(out).writerows(rows)
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_verify(args) -> int:
    criteria = set(args.only.split(",")) if args.only else None
    report = verify_mod.run_battery(n_max=args.n_max, seed=args.seed, criteria=criteria)
    if args.format == "json":
        rendered = json.dumps(report.to_json_dict(), indent=2)
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(report.to_csv_rows())
        rendered = buf.getvalue()
    else:
        rendered = report.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
            if not rendered.endswith("\n"):
                fh.write("\n")
        summary = report.summary
        print(f"{summary['passed']}/{summary['total']} checks passed "
              f"({summary['failed']} failed); report written to {args.out}")
    else:
        print(rendered)
    return 0 if report.ok else 1


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rho-toolkit",
        description="Numerical radii, operatorial kernels, and Harnack "
                    "domination for finite complex matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("radius", help="compute a rho-numerical radius")
    p.add_argument("--shift", type=int, help="use the truncated shift of size N+1")
    p.add_argument("--matrix", help="matrix JSON file")
    p.add_argument("--weight", type=_finite_float, help="shift weight (B > 0, default 1)")
    p.add_argument("--rho", type=_finite_float, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_radius)

    p = sub.add_parser("kernel", help="eigenvalues of the kernel at a point")
    p.add_argument("--matrix")
    p.add_argument("--shift", type=int)
    p.add_argument("--normalized", action="store_true",
                   help="normalize the shift to radius one at the given rho")
    p.add_argument("--weight", type=_finite_float, help="shift weight (default 1)")
    p.add_argument("--z", type=_finite_complex, required=True,
                   help="evaluation point as 're,im'")
    p.add_argument("--rho", type=_finite_float, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("nullspace", help="kernel null space on the unit circle")
    p.add_argument("--matrix")
    p.add_argument("--shift", type=int, help="use the normalized shift (profile included)")
    p.add_argument("--rho", type=_finite_float, required=True)
    p.add_argument("--z", type=_finite_complex, default="1,0")
    p.add_argument("--tol", type=_finite_float, default=STRUCTURE_TOL)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_nullspace)

    p = sub.add_parser("harnack", help="Harnack equivalence certificate")
    p.add_argument("--t1", required=True)
    p.add_argument("--t0", required=True)
    p.add_argument("--rho", type=_finite_float, required=True)
    p.add_argument("--grid-radii", default="0.999", help="radii in (0, 1); scored on the largest")
    p.add_argument("--angles", type=int, default=64)
    p.add_argument("--torus", type=int, default=256)
    p.set_defaults(func=_cmd_harnack)

    p = sub.add_parser("detcheck", help="determinant recurrences vs LU oracle")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=_finite_float, required=True)
    p.add_argument("--rho", type=_finite_float, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_detcheck)

    p = sub.add_parser("omega-curve", help="auxiliary angle as a function of rho")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho-min", type=_finite_float, default=1.05)
    p.add_argument("--rho-max", type=_finite_float, default=None)
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_omega_curve)

    p = sub.add_parser("verify", help="run the quantitative verification battery")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--only", help="comma-separated criterion ids, e.g. c01,c04")
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: the tree costs more than a radius solve
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"numeric error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
