"""The benchmark's workloads: seeded inputs, the timed call, and the check.

Each workload turns a seed into a plan: a list of cycles, each a list of
requests.  Only the generated inputs reach the toolkit.  A request's
``execute`` is the timed part; its ``judge`` runs afterwards, outside the
timed and the traced regions, and compares the answer with a reference from
``oracles`` at the tolerance the request states.

Failures are counted by kind.  ``KNOWN_FAILURES`` lists the kinds the seed
commit already shows.  A failed item is marked ``known`` only where the
workload can tell, from the request alone, that the seed commit fails it in
that way: a grid error where the disc grid's own resolution misses the
tolerance, the one pinned refusal, the red c08 checks.  Any other failure
makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import oracles

GRID_TOL = 1e-5  # grid-route tolerance of the toolkit's own checks (c01 bisection, c11)
SHIFT_TOL = 1e-8  # agreement of the two shift routes (c02)
STRUCTURE_TOL = 1e-7  # antisymmetry and rotation residuals (c05, c06)
# The toolkit's default disc grid samples 256 unit-circle angles and refines
# the witness ring to 512, so at rho = 2 its answer is the numerical radius
# maximised over 512 equispaced angles (oracles.sampled_numerical_radius).
GRID_ANGLES = 512
# How close an answer must come to that sampled maximum to count as the known
# grid error; the bisection stops at 1e-8 relative, about 1e-7 here.
GRID_AGREE = 1e-6

KNOWN_FAILURES = {
    "radius-dense": {
        "grid-error": "random dense input at rho = 2 answered below the dense-angle "
                      "radius by more than 1e-5 (the disc grid misses the worst point)",
        "SingularError": "rotated nilpotent refused: the numerically computed spectral "
                         "radius makes the first bracket probe's pencil singular",
    },
    "battery": {
        "c08": "case-2 monotone decrease family, red by design at the seed commit",
    },
}


class Refused(Exception):
    """The CLI answered with its numeric-error exit code; ``kind`` is the
    toolkit exception class it named."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class Verdict:
    """One checked item: a request, or one check of a battery report."""

    name: str
    ok: bool
    kind: str = ""  # failure kind, "" when ok
    err: float | None = None  # |answer - reference| where one exists
    tol: float | None = None
    detail: str = ""
    known: bool = False  # a failure the seed commit shows on this very item

    @property
    def err_over_tol(self) -> float | None:
        if self.err is None or not self.tol:
            return None
        return self.err / self.tol


@dataclass
class Request:
    name: str
    params: dict
    tol: float
    args: tuple = field(default=(), repr=False)


def _complex_gaussian(rng, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _haar_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(_complex_gaussian(rng, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _shift(n: int, b: float) -> np.ndarray:
    return np.diag(np.full(n, b, dtype=complex), 1)


def _write_matrix(path: str, m: np.ndarray) -> None:
    """The CLI's matrix document: {"dim": d, "entries": [[re, im], ...]}."""
    doc = {"dim": int(m.shape[0]),
           "entries": [[float(x.real), float(x.imag)] for x in m.ravel()]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


class Workload:
    """Defaults shared by the workloads."""

    def expected_refusal(self, req: Request, kind: str) -> bool:
        """Whether the seed commit refuses this request with this kind."""
        return False


class RadiusDense(Workload):
    """`rho-toolkit radius --matrix f --rho r --json`, in process.

    Family a: complex Gaussian matrices at rho = 2, checked against the
    dense-angle numerical radius.  Family b: U (b S_n) U* with U Haar
    unitary and b in [0.5, 2], checked against b w_rho(S_n).  Every cycle
    runs the same fixed list of sizes and rho values; the seed draws only the
    entries, U and b, so every run does the same mix.
    """

    name = "radius-dense"
    cycles = 1  # one cycle, about 16 s of scaled time, fills a run
    # (family, d, rho) with rho given as a number or as "n+2" / "n+4", n = d - 1.
    # Mostly small sizes, so the median and the tail are order statistics of
    # many similar requests; the sizes up to 21 carry most of the time.  The
    # tail has ten requests beyond it: the five of d >= 10 and five of the
    # nine at d = 8, so it falls inside the d = 8 group, not on the edge
    # between two sizes, where it would jump with the seed.
    template = (
        ("a", 3, 2.0), ("b", 3, "n+2"), ("a", 3, 2.0), ("b", 3, 1.5),
        ("a", 4, 2.0), ("b", 4, 2.0), ("a", 4, 2.0), ("b", 4, 3.0),
        ("a", 5, 2.0), ("b", 5, "n+4"), ("a", 5, 2.0), ("b", 5, 1.5),
        ("a", 6, 2.0), ("b", 6, 2.0), ("a", 6, 2.0), ("b", 6, "n+2"),
        ("a", 7, 2.0), ("b", 7, 3.0), ("a", 8, 2.0), ("b", 8, "n+4"),
        ("a", 3, 2.0), ("b", 3, 2.0), ("a", 4, 2.0), ("b", 4, "n+4"),
        ("a", 5, 2.0), ("b", 5, 3.0), ("a", 6, 2.0), ("b", 6, 1.5),
        ("a", 8, 2.0), ("b", 8, "n+2"), ("a", 7, 2.0), ("b", 8, 1.5),
        ("a", 8, 2.0), ("b", 8, 2.0), ("a", 8, 2.0), ("b", 8, 3.0),
        ("a", 10, 2.0), ("b", 10, 1.5), ("a", 12, 2.0), ("b", 12, 2.0),
        ("a", 21, 2.0), ("b", 21, "n+2"),
    )
    # A rotated nilpotent at d = 21, rho = n + 2 is refused with SingularError
    # for a few percent of draws, and a refusal costs 2% of a solve.  Drawing
    # it from the seed would make a run's cost swing with that coin, so this
    # request draws from a fixed stream chosen to hit the refusal: every run
    # shows it, and a fix shows as a lower fail_frac.
    pinned = {("b", 21, "n+2"): (40, 21)}

    def __init__(self, toolkit, workdir: str):
        self.cli = toolkit.cli
        self.shift_radius = toolkit.radius.shift_radius
        self.dir = os.path.join(workdir, "radius-dense")

    def plan(self, seed: int) -> list[list[Request]]:
        os.makedirs(self.dir, exist_ok=True)
        rng = np.random.default_rng([seed, 1])
        plan = []
        for c in range(self.cycles):
            cycle = []
            for slot, (family, d, rho_spec) in enumerate(self.template):
                n = d - 1
                rho = float(n + int(rho_spec[2:])) if isinstance(rho_spec, str) else rho_spec
                name = f"{family}-d{d:02d}-rho{rho:g}-c{c:02d}-{slot:02d}"
                if family == "a":
                    m = _complex_gaussian(rng, d)
                    params = {"family": "a", "d": d, "rho": rho}
                else:
                    pinned = self.pinned.get((family, d, rho_spec))
                    draw = rng if pinned is None else np.random.default_rng(pinned)
                    b = float(draw.uniform(0.5, 2.0))
                    u = _haar_unitary(draw, d)
                    m = u @ _shift(n, b) @ np.conj(u).T
                    params = {"family": "b", "d": d, "rho": rho, "b": b,
                              "pinned": pinned is not None}
                path = os.path.join(self.dir, f"{name}.json")
                _write_matrix(path, m)
                cycle.append(Request(name, params, GRID_TOL,
                                     args=(["radius", "--matrix", path, "--rho", repr(rho),
                                            "--json"], m)))
            plan.append(cycle)
        return plan

    def warm_up(self) -> None:
        path = os.path.join(self.dir, "warm-up.json")
        _write_matrix(path, np.diag(np.full(2, 0.5, dtype=complex), 1))
        self.execute(Request("warm-up", {}, GRID_TOL,
                             args=(["radius", "--matrix", path, "--rho", "2.0", "--json"], None)))

    def execute(self, req: Request):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(req.args[0])
        if code == 3:
            text = err.getvalue().strip()
            kind = text.split(":")[1].strip() if text.count(":") >= 2 else "numeric error"
            raise Refused(kind, text)
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return json.loads(out.getvalue())["value"]

    def reference(self, req: Request) -> float:
        p = req.params
        if p["family"] == "a":
            return oracles.numerical_radius(req.args[1])
        return oracles.rotated_shift_radius(p["d"] - 1, p["b"], p["rho"], self.shift_radius)

    def expected_refusal(self, req: Request, kind: str) -> bool:
        return kind == "SingularError" and req.params.get("pinned", False)

    def judge(self, req: Request, answer) -> list[Verdict]:
        ref = self.reference(req)
        err = abs(answer - ref)
        detail = f"answer={answer!r} reference={ref!r}"
        if err <= req.tol:
            return [Verdict(req.name, True, "", err, req.tol, detail)]
        known = False
        if req.params["family"] == "a":
            # A grid error is known where the 512-angle maximum itself misses
            # the tolerance and the answer reaches that maximum.
            grid = oracles.sampled_numerical_radius(req.args[1], GRID_ANGLES)
            detail += f" grid{GRID_ANGLES}={grid!r}"
            known = ref - grid > req.tol - GRID_AGREE and grid - GRID_AGREE <= answer < ref
        return [Verdict(req.name, False, "grid-error" if known else "wrong-answer", err,
                        req.tol, detail, known)]


class ShiftFamily(Workload):
    """`shift_radius(n, rho)` and `determinant_radius(n, rho)` for n = 1..24.

    Each cycle holds one request per n in each regime: rho drawn uniformly
    from the oscillatory regime (1, n+2) and from the real-root regime
    (n+2, n+6].  Cycle c < 8 also holds the closed-form points of
    n = c + 1, c + 9 and c + 17: rho = 2, rho = n + 2 and rho = 1 (the
    determinant route is not defined at rho = 1, so only the shift route
    runs there).  A small, a middle and a large n in each cycle keep the
    cycles alike, so a run's figures do not depend on how many cycles it
    holds.  No (n, rho) pair repeats within a run.
    """

    name = "shift-family"
    cycles = 64
    n_max = 24
    closed_form_cycles = 8

    def __init__(self, toolkit, workdir: str):
        self.rt = toolkit

    def plan(self, seed: int) -> list[list[Request]]:
        rng = np.random.default_rng([seed, 2])
        plan = []
        for c in range(self.cycles):
            points = []
            for n in range(1, self.n_max + 1):
                points.append((n, float(rng.uniform(1.0, n + 2.0))))
                points.append((n, float(n + 2.0 + (1.0 - rng.random()) * 4.0)))
            if c < self.closed_form_cycles:
                for n in range(c + 1, self.n_max + 1, self.closed_form_cycles):
                    points += [(n, 2.0), (n, float(n + 2)), (n, 1.0)]
            plan.append([Request(f"n{n:02d}-rho{rho:.6f}-c{c:02d}", {"n": n, "rho": rho},
                                 SHIFT_TOL) for n, rho in points])
        return plan

    def warm_up(self) -> None:
        self.rt.shift_radius(3, 2.5)
        self.rt.determinant_radius(3, 2.5)

    def execute(self, req: Request):
        n, rho = req.params["n"], req.params["rho"]
        by_shift = self.rt.shift_radius(n, rho).value
        by_det = self.rt.determinant_radius(n, rho).value if rho > 1.0 else None
        return by_shift, by_det

    def judge(self, req: Request, answer) -> list[Verdict]:
        n, rho = req.params["n"], req.params["rho"]
        by_shift, by_det = answer
        closed = oracles.closed_form_shift_radius(n, rho)
        if closed is not None:
            err = max(abs(v - closed) for v in answer if v is not None)
            detail = f"shift={by_shift!r} det={by_det!r} closed_form={closed!r}"
        else:
            err = abs(by_shift - by_det)
            detail = f"shift={by_shift!r} det={by_det!r}"
        ok = err <= req.tol
        return [Verdict(req.name, ok, "" if ok else "wrong-answer", err, req.tol, detail)]


def _rho_sweep(n: int) -> list[float]:
    """The rho sweep of the battery's null-profile and rotation criteria."""
    return [1.2, 1.5, 2.0, 3.0, float(n + 2), float(n + 4)]


class HarnackPart(Workload):
    """Harnack equivalence at rho = 2 plus the null-profile structure checks.

    Each cycle holds, for n = 1..6, one `are_harnack_equivalent` pair: the
    rho = 2 canonical form with a seeded phase against the normalized shift
    for even n (expected equivalent), the middle-coordinate phase twist for
    odd n (expected not equivalent).  With each pair come `null_profile`
    plus `rotation_family_check` requests over the battery's rho sweep for
    that n, so (n, rho) keys repeat in every cycle.  Phases stay 0.2 away
    from 0 (mod 2 pi), where the twist is the identity and the expected
    verdict flips.
    """

    name = "harnack-part"
    cycles = 64
    pair_n = range(1, 7)

    def __init__(self, toolkit, workdir: str):
        self.rt = toolkit
        self.roots = np.exp(2j * np.pi * np.arange(16) / 16)

    @staticmethod
    def _pair(n: int, theta: float) -> tuple[np.ndarray, np.ndarray, bool]:
        a = 1.0 / math.cos(math.pi / (n + 2))
        s = _shift(n, a)
        t = s.copy()
        if n % 2 == 0:
            p = n // 2
            t[p - 1, p] = a * np.exp(1j * theta)
            t[p, p + 1] = a * np.exp(-1j * theta)
            return t, s, True
        twist = np.ones(n + 1, dtype=complex)
        twist[(n + 1) // 2] = np.exp(1j * theta)
        return np.conj(twist)[:, None] * s * twist[None, :], s, False

    def plan(self, seed: int) -> list[list[Request]]:
        rng = np.random.default_rng([seed, 3])
        plan = []
        for c in range(self.cycles):
            cycle = []
            for n in self.pair_n:
                theta = float(rng.uniform(0.2, 2.0 * math.pi - 0.2))
                t1, t0, expected = self._pair(n, theta)
                cycle.append(Request(f"pair-n{n}-theta{theta:.6f}-c{c:02d}",
                                     {"kind": "pair", "n": n, "theta": theta,
                                      "expected": expected}, 0.0, args=(t1, t0)))
                cycle += [Request(f"profile-n{n}-rho{rho:g}-c{c:02d}",
                                  {"kind": "profile", "n": n, "rho": rho}, STRUCTURE_TOL)
                          for rho in _rho_sweep(n)]
            plan.append(cycle)
        return plan

    def warm_up(self) -> None:
        t1, t0, _ = self._pair(1, 1.0)
        grid = self.rt.DiscGrid(radii=(0.5,), angles_per_radius=4, torus_angles=4)
        self.rt.are_harnack_equivalent(t1, t0, 2.0, grid, torus_angles=4)
        self.rt.null_profile(2, 2.5)

    def execute(self, req: Request):
        p = req.params
        if p["kind"] == "pair":
            verdict, _ = self.rt.are_harnack_equivalent(req.args[0], req.args[1], 2.0)
            return verdict
        profile = self.rt.null_profile(p["n"], p["rho"], tol=STRUCTURE_TOL)
        rotation = self.rt.rotation_family_check(p["n"], p["rho"], self.roots,
                                                 tol=STRUCTURE_TOL)
        return profile.antisymmetry_residual, rotation

    def judge(self, req: Request, answer) -> list[Verdict]:
        p = req.params
        if p["kind"] == "pair":
            ok = answer == p["expected"]
            return [Verdict(req.name, ok, "" if ok else "wrong-verdict", None, None,
                            f"verdict={answer} expected={p['expected']}")]
        err = max(answer)
        ok = err <= req.tol
        return [Verdict(req.name, ok, "" if ok else "wrong-answer", err, req.tol,
                        f"antisymmetry={answer[0]!r} rotation={answer[1]!r}")]


class Battery(Workload):
    """`run_battery(n_max=None, seed, criteria=...)` with the default pool.

    One request is one pass of the battery over ``criteria`` and every check
    is one checked item.  The criteria left out (c01, c05, c06, c07, c09,
    c11) take 56 of the full battery's 57 s serial; their work is the
    bisections, shift solves, null-profile sweeps and Harnack pairs that
    radius-dense, shift-family and harnack-part time request by request.
    Without them a pass takes about a second, so a run holds enough passes
    for a median, and it still holds the pool and all 18 red c08 checks.
    No criterion kept uses the seed, so the passes are alike: a cache kept
    across passes shows here as it would to a user who runs the battery
    again.
    """

    name = "battery"
    cycles = 512  # far more passes than a run holds
    criteria = ("c00", "c02", "c03", "c04", "c08", "c10", "c12")

    def __init__(self, toolkit, workdir: str):
        self.verify = toolkit.verify
        self.seed = 0

    def plan(self, seed: int) -> list[list[Request]]:
        self.seed = seed
        return [[Request(f"battery-p{c:03d}", {"seed": seed}, 0.0)] for c in range(self.cycles)]

    def warm_up(self) -> None:
        self.verify.run_battery(n_max=None, seed=self.seed, criteria={"c00", "c04", "c10"})

    def execute(self, req: Request):
        return self.verify.run_battery(n_max=None, seed=req.params["seed"],
                                       criteria=set(self.criteria))

    def judge(self, req: Request, answer) -> list[Verdict]:
        verdicts = []
        for c in answer.checks:
            err = None
            if (isinstance(c.expected, (int, float)) and isinstance(c.computed, (int, float))
                    and not isinstance(c.computed, bool) and c.tolerance > 0):
                err = abs(float(c.computed) - float(c.expected))
            red = not c.passed and c.id.startswith("c08-")
            kind = "" if c.passed else "c08" if red else "check-failed"
            verdicts.append(Verdict(c.id, bool(c.passed), kind, err, c.tolerance or None,
                                    f"expected={c.expected!r} computed={c.computed!r}", red))
        return verdicts


WORKLOADS = {w.name: w for w in (RadiusDense, ShiftFamily, HarnackPart, Battery)}
