"""Critical-point search and linking-geometry estimators.

The search itself is damped Newton on the gradient in energy coefficients,
seeded by a localized ansatz on the positive subspace. The linking
quantities (sphere level on the positive sphere, bounded max over the
negative cone plus a ray) are estimated separately; they bracket the
energy of the solutions Newton finds but are not used to drive it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .functional import (
    HessianModel,
    Nonlinearity,
    a_gradient,
    a_value_and_gradient,
    hessian_model,
)
from .operator import SpectralDecomposition
from .torus import GridField, TorusDomain, min_image, translate


class NoConvergence(RuntimeError):
    """Newton ran out of iterations or the line search stalled."""


class TrivialCollapse(RuntimeError):
    """The iterate shrank into the basin of u = 0."""


@dataclass(frozen=True)
class SolverOptions:
    newton_tol: float = 1e-10
    max_iters: int = 200
    backtrack: float = 0.5
    sufficient_decrease: float = 1e-4
    tikhonov: float = 1e-8
    tikhonov_cap: float = 1e-2
    deflation_radius: float = 0.5
    collapse_norm: float = 1e-3

    def __post_init__(self) -> None:
        for name in (
            "newton_tol",
            "backtrack",
            "sufficient_decrease",
            "tikhonov",
            "tikhonov_cap",
            "deflation_radius",
            "collapse_norm",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_iters <= 0:
            raise ValueError("max_iters must be positive")
        if not self.backtrack < 1:
            raise ValueError("backtrack factor must lie in (0, 1)")


@dataclass(frozen=True)
class SolutionRecord:
    """A converged critical point and Newton's own account of the run.

    One entry per iteration: residual_history the gradient norm before
    each step (and at the end), step_history the accepted line-search
    step, mu_history the Tikhonov mu of the Newton direction, or None
    where steepest descent on the merit was taken. A record rebuilt from
    a stored field has empty histories. Morse data is not Newton's to
    keep: `hessian_census` computes it on request.
    """

    field: GridField
    energy: float
    residual: float
    norm_k: float
    iterations: int
    residual_history: tuple[float, ...]
    step_history: tuple[float, ...]
    mu_history: tuple[float | None, ...]
    domain_fingerprint: dict
    potential_fingerprint: dict
    nonlinearity_fingerprint: dict

    def to_dict(self) -> dict:
        return {
            "energy": self.energy,
            "residual": self.residual,
            "norm_k": self.norm_k,
            "iterations": self.iterations,
            "residual_history": list(self.residual_history),
            "step_history": list(self.step_history),
            "mu_history": list(self.mu_history),
            "domain": self.domain_fingerprint,
            "potential": self.potential_fingerprint,
            "nonlinearity": self.nonlinearity_fingerprint,
            "values": [float(v) for v in self.field.flat],
        }


def _fingerprints(
    S: SpectralDecomposition, nl: Nonlinearity
) -> tuple[dict, dict, dict]:
    d = S.domain
    dom = {"dim": d.dim, "cells": d.cells, "samples_per_cell": d.samples_per_cell}
    return dom, S.potential.to_dict(), nl.to_dict()


def initial_ansatz(
    center: Sequence[float],
    width: float,
    amplitude: float,
    domain: TorusDomain,
    S: SpectralDecomposition,
) -> GridField:
    """Gaussian bump at `center`, projected onto the positive subspace.

    Distances wrap around the torus (minimum image), so the bump is
    periodic and centering near the edge behaves the same as centering
    at 0.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    if len(center) != domain.dim:
        raise ValueError("center has wrong dimension")
    sq = np.zeros(domain.shape)
    for axis, c in enumerate(center):
        d = min_image(domain.axis_coords() - float(c), domain.cells)
        shape = [1] * domain.dim
        shape[axis] = domain.points_per_axis
        sq = sq + (d.reshape(shape)) ** 2
    bump = amplitude * np.exp(-sq / (2.0 * width**2))
    a = S.a_from_values(bump)
    a[: S.j] = 0.0
    return S.field_from_a(a)


def draw_ansatz(
    rng: np.random.Generator, domain: TorusDomain
) -> tuple[NDArray[np.float64], float, float]:
    """Random (center, width, amplitude) for initial_ansatz, in that draw order.

    Centers are uniform on the torus, widths in [0.3, 0.9], amplitudes
    in +-[4, 16] with a fair sign.
    """
    k = float(domain.cells)
    center = rng.uniform(-k / 2, k / 2, size=domain.dim)
    width = float(rng.uniform(0.3, 0.9))
    # below ~|a| = 10 in energy norm every start here drains into u = 0
    amplitude = float(rng.uniform(4.0, 16.0) * (1.0 if rng.uniform() < 0.5 else -1.0))
    return center, width, amplitude


def _newton_direction(
    H: HessianModel,
    g: NDArray[np.float64],
    opts: SolverOptions,
) -> tuple[NDArray[np.float64] | None, float | None]:
    """(direction, the Tikhonov mu it was solved with), or (None, None)
    when no ridge up to `tikhonov_cap` gives a finite step."""
    # Ridge mu*diag(sign lambda) pushes Hessian eigenvalues away from zero
    # on both sides instead of shifting the whole spectrum.
    mu = opts.tikhonov
    while mu <= opts.tikhonov_cap:
        try:
            d = H.solve(-g, mu)
        except scipy.linalg.LinAlgError:
            d = None
        if d is not None and np.all(np.isfinite(d)):
            return d, mu
        mu *= 10.0
    return None, None


KERNEL_TAU = 1e-4


def kernel_split(
    mu: NDArray[np.float64], tau: float = KERNEL_TAU
) -> tuple[NDArray[np.bool_], float]:
    """Mask of Hessian eigenvalues with |mu| < tau * scale, and the scale.

    scale is the spectral radius max |mu|; `hessian_census` and the
    reduction's kernel block both split the spectrum here.
    """
    scale = float(np.abs(mu).max())
    return np.abs(mu) < tau * scale, scale


def hessian_census(S: SpectralDecomposition, nl: Nonlinearity, a: NDArray[np.float64]) -> dict:
    """Morse data of the Hessian at a, from one model and one eigvalsh.

    negative_hessian_count counts eigenvalues below -tau*scale and
    kernel_dim_estimate those within tau*scale of zero, tau = KERNEL_TAU:
    the split the reduction uses, so the two views agree. Both read the
    model's one Ritz route, its K. hessian_backend is "dense" only when
    more rows are active than there are modes and K is the dense
    Hessian, else "low-rank"; hessian_subspace_dim is the order of K,
    which is N when the frame is the whole space.
    """
    H = hessian_model(S, nl, a)
    mu = H.eigenvalues()
    near, _ = kernel_split(mu)
    return {
        "negative_hessian_count": int(((mu < 0) & ~near).sum()),
        "kernel_dim_estimate": int(near.sum()),
        "hessian_backend": H.backend,
        "hessian_subspace_dim": H.subspace_dim,
    }


def find_critical_point(
    init: GridField,
    S: SpectralDecomposition,
    nl: Nonlinearity,
    opts: SolverOptions = SolverOptions(),
) -> SolutionRecord:
    """Damped Newton for grad J = 0 from `init`.

    The step solves (H + mu*diag(sign lambda)) d = -g through
    `hessian_model`: by the r x r capacitance of the r active rows, with
    no invariant subspace built, or on the dense Hessian when more rows
    are active than there are modes. The line search backtracks
    on the merit 0.5*|g|^2 and falls back to steepest descent for that
    merit whenever there is no Newton direction or it is not a descent
    direction. The accepted trial's energy and gradient carry over to
    the next iteration: every point is evaluated once.
    Iterates sliding under ``opts.collapse_norm`` abort with
    TrivialCollapse: u = 0 is a critical point, just not one worth
    returning. Nothing is kept between calls.
    """
    S.require_gap()
    a = S.a_from_field(init)
    J, g = a_value_and_gradient(S, nl, a)
    history: list[float] = []
    steps: list[float] = []
    mus: list[float | None] = []
    for iteration in range(opts.max_iters):
        r = float(np.linalg.norm(g))
        history.append(r)
        if not np.isfinite(r):
            raise NoConvergence(f"residual not finite at step {iteration}")
        if float(np.linalg.norm(a)) < opts.collapse_norm:
            raise TrivialCollapse(
                f"iterate norm fell below {opts.collapse_norm:g} at step {iteration}"
            )
        if r <= opts.newton_tol:
            return _make_record(a, J, g, S, nl, iteration, history, steps, mus)
        H = hessian_model(S, nl, a)
        d, mu = _newton_direction(H, g, opts)
        merit_grad = H.matvec(g)
        slope = float(merit_grad @ d) if d is not None else 0.0
        if slope >= 0:  # no Newton direction or not a descent one: steepest descent
            d, mu = -merit_grad, None
            slope = -float(merit_grad @ merit_grad)
        phi0 = 0.5 * r * r
        step = 1.0
        for _ in range(60):
            trial = a + step * d
            J_trial, g_trial = a_value_and_gradient(S, nl, trial)
            if 0.5 * float(g_trial @ g_trial) <= phi0 + opts.sufficient_decrease * step * slope:
                break
            step *= opts.backtrack
        else:
            raise NoConvergence(
                f"line search stalled at residual {r:.3e} (step {iteration})"
            )
        a, J, g = trial, J_trial, g_trial
        steps.append(step)
        mus.append(mu)
    raise NoConvergence(f"no convergence in {opts.max_iters} iterations")


def _make_record(
    a: NDArray[np.float64],
    J: float,
    g: NDArray[np.float64],
    S: SpectralDecomposition,
    nl: Nonlinearity,
    iterations: int = 0,
    history: Sequence[float] = (),
    steps: Sequence[float] = (),
    mus: Sequence[float | None] = (),
) -> SolutionRecord:
    """The record of the point a, with J and g its energy and gradient."""
    dom_fp, pot_fp, nl_fp = _fingerprints(S, nl)
    return SolutionRecord(
        field=S.field_from_a(a),
        energy=float(J),
        residual=float(np.linalg.norm(g)),
        norm_k=float(np.linalg.norm(a)),
        iterations=iterations,
        residual_history=tuple(history),
        step_history=tuple(steps),
        mu_history=tuple(mus),
        domain_fingerprint=dom_fp,
        potential_fingerprint=pot_fp,
        nonlinearity_fingerprint=nl_fp,
    )


def validate_solution(
    rec: SolutionRecord,
    S: SpectralDecomposition,
    nl: Nonlinearity,
    thresholds: tuple[float, float],
    rng: np.random.Generator | None = None,
) -> dict[str, tuple[bool, float]]:
    """Post-hoc checks on a record: size, level, residual, symmetry.

    thresholds = (norm floor, energy floor), both measured fixtures.
    Returns {check: (passed, measured)}; the residual is recomputed from
    the stored field rather than trusted from the record.
    """
    eps1, eps2 = thresholds
    rng = rng if rng is not None else np.random.default_rng(0)
    a = S.a_from_field(rec.field)
    J, g = a_value_and_gradient(S, nl, a)
    checks: dict[str, tuple[bool, float]] = {}
    norm_k = float(np.linalg.norm(a))
    checks["norm_floor"] = (norm_k >= eps1, norm_k)
    checks["energy_floor"] = (float(J) >= eps2, float(J))
    res = float(np.linalg.norm(g))
    checks["residual"] = (res <= 1e-10, res)
    k = rec.field.domain.cells
    worst = 0.0
    for _ in range(3):
        b = tuple(int(s) for s in rng.integers(0, k, size=rec.field.domain.dim))
        Jb = a_value_and_gradient(S, nl, S.a_from_field(translate(rec.field, b)))[0]
        worst = max(worst, abs(float(Jb) - float(J)))
    tol = 1e-12 * max(1.0, abs(float(J)))
    checks["translation_invariance"] = (worst <= tol, worst)
    return checks


def sphere_level(
    S: SpectralDecomposition,
    nl: Nonlinearity,
    r: float,
    samples: int = 64,
    rng: np.random.Generator | None = None,
) -> float:
    """Estimate inf of J over the radius-r sphere in the positive subspace.

    Random sampling picks a starting point; projected gradient descent
    then slides along the sphere (step, renormalize) with backtracking.
    The result is an upper estimate of the infimum, which is the safe
    side for the lower bound of the linking sandwich.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    S.require_gap()
    rng = rng if rng is not None else np.random.default_rng(0)
    n = S.num_modes
    j = S.j

    def value(a: NDArray[np.float64]) -> float:
        return a_value_and_gradient(S, nl, a)[0]

    best: NDArray[np.float64] | None = None
    best_J = np.inf
    for _ in range(max(1, samples)):
        z = np.zeros(n)
        z[j:] = S.random_coefficients(rng)[j:] / (1.0 + np.abs(S.eigenvalues[j:]))
        z *= r / np.linalg.norm(z)
        Jz = value(z)
        if Jz < best_J:
            best_J, best = Jz, z
    assert best is not None

    def descent(a: NDArray[np.float64], f: float) -> NDArray[np.float64] | None:
        g = a_gradient(S, nl, a)
        g[:j] = 0.0
        tangent = g - (g @ a) / (r * r) * a
        if float(np.linalg.norm(tangent)) <= 1e-12 * max(1.0, abs(f)):
            return None
        return -tangent

    def to_sphere(a: NDArray[np.float64]) -> NDArray[np.float64]:
        return a * (r / np.linalg.norm(a))

    # descent on J is ascent on -J
    neg_J = _climb(
        lambda a: -value(a), descent, to_sphere, best, -best_J,
        step=0.5, cap=1.0, rise=1e-12, iters=400,
    )
    return float(-neg_J)


class LinkingBound(NamedTuple):
    value: float
    boundary_sup: float


def linking_upper_bound(
    S: SpectralDecomposition,
    nl: Nonlinearity,
    z_k: GridField,
    rho: float,
    samples: int = 32,
    rng: np.random.Generator | None = None,
) -> LinkingBound:
    """Max of J over {y + t*z_k : y negative-subspace, t >= 0, norm <= rho}.

    Projected gradient ascent from several starts (random interior
    points plus a scan along the ray t*z_k). Also reports the sup of J
    over the boundary of that half-ball; the geometry is usable once
    that sup sits at essentially zero.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    S.require_gap()
    rng = rng if rng is not None else np.random.default_rng(0)
    za = S.a_from_field(z_k)
    zn = float(np.linalg.norm(za))
    if abs(zn - 1.0) > 1e-8:
        raise ValueError("z_k must have unit energy norm")
    if float(np.linalg.norm(za[: S.j])) > 1e-8:
        raise ValueError("z_k must lie in the positive subspace")
    j = S.j
    n = S.num_modes

    def embed(x: NDArray[np.float64]) -> NDArray[np.float64]:
        a = np.zeros(n)
        a[:j] = x[:j]
        return a + x[-1] * za

    def value(x: NDArray[np.float64]) -> float:
        return a_value_and_gradient(S, nl, embed(x))[0]

    def grad(x: NDArray[np.float64]) -> NDArray[np.float64]:
        g = a_gradient(S, nl, embed(x))
        return np.concatenate([g[:j], [float(g @ za)]])

    def ascent(x: NDArray[np.float64], f: float) -> NDArray[np.float64] | None:
        d = grad(x)
        if np.hypot(np.linalg.norm(d[:j]), d[-1]) <= 1e-12 * max(1.0, abs(f)):
            return None
        return d

    def clip(x: NDArray[np.float64]) -> NDArray[np.float64]:
        y, t = x[:j], max(x[-1], 0.0)
        norm = np.hypot(np.linalg.norm(y), t)
        if norm > rho:
            y = y * (rho / norm)
            t = t * (rho / norm)
        return np.concatenate([y, [t]])

    def draw() -> tuple[NDArray[np.float64], float]:
        return S.random_coefficients(rng)[:j], abs(rng.standard_normal())

    # states x = [y, t]: negative-subspace part y and ray coordinate t
    starts: list[NDArray[np.float64]] = []
    for t in np.linspace(0.05 * rho, 0.95 * rho, 12):
        starts.append(np.concatenate([np.zeros(j), [t]]))
    for _ in range(max(0, samples)):
        y, t = draw()
        norm = np.hypot(np.linalg.norm(y), t)
        scale = rho * rng.uniform(0.0, 0.95) / max(norm, 1e-30)
        starts.append(np.concatenate([y * scale, [t * scale]]))
    starts.sort(key=lambda x: -value(x))

    best_val = -np.inf
    for x in starts[:4]:
        Jc = _climb(
            value, ascent, clip, x, value(x),
            step=0.5, cap=1.0, rise=1e-14, iters=400,
        )
        best_val = max(best_val, Jc)

    boundary = _boundary_sup(j, rho, samples, draw, value, grad)
    return LinkingBound(float(best_val), float(boundary))


def _boundary_sup(j, rho, samples, draw, value, grad) -> float:
    # Two faces: the t=0 slab (J <= 0 there, sup 0 at the origin) and the
    # radius-rho sphere cap with t >= 0. Sample both, then tangential
    # ascent on the cap from the best sample.
    sup = value(np.zeros(j + 1))  # origin, exactly J(0) = 0
    best_x, best_J = None, -np.inf
    for _ in range(max(4, samples)):
        y, t = draw()
        norm = np.hypot(np.linalg.norm(y), t)
        x = np.concatenate([y * (rho / norm), [t * (rho / norm)]])
        Jc = value(x)
        sup = max(sup, Jc)
        if Jc > best_J:
            best_x, best_J = x, Jc
        # rim of the t=0 slab belongs to both faces
        rim = np.concatenate([x[:j] / np.linalg.norm(x[:j]) * rho, [0.0]])
        sup = max(sup, value(rim))

    def tangential(x: NDArray[np.float64], f: float) -> NDArray[np.float64] | None:
        radial = x / rho
        full = grad(x)
        tang = full - (full @ radial) * radial
        return None if np.linalg.norm(tang) <= 1e-12 else tang

    def to_cap(x: NDArray[np.float64]) -> NDArray[np.float64]:
        x[-1] = max(x[-1], 0.0)
        return x * (rho / np.linalg.norm(x))

    Jc = _climb(
        value, tangential, to_cap, best_x, best_J,
        step=0.25, cap=0.5, rise=1e-14, iters=200,
    )
    return max(sup, Jc)


def _climb(value, direction, retract, x, fx, *, step, cap, rise, iters) -> float:
    """Backtracking ascent of `value` from x, where fx = value(x).

    Each iteration asks direction(x, fx) for an ascent direction (None
    stops), then halves the step from its last accepted length until
    retract(x + step*d) raises the value by more than rise*|fx| (retract
    gets a fresh array and may modify it); an accepted step doubles, up
    to `cap`. Stops when the step falls to 1e-14. Returns the last
    accepted value.
    """
    for _ in range(iters):
        d = direction(x, fx)
        if d is None:
            break
        while step > 1e-14:
            trial = retract(x + step * d)
            ft = value(trial)
            if ft > fx + rise * abs(fx):
                x, fx = trial, ft
                step = min(step * 2.0, cap)
                break
            step *= 0.5
        else:
            break
    return fx


def orbit_distance(
    u: GridField,
    v: GridField,
    S: SpectralDecomposition,
) -> tuple[float, tuple[int, ...]]:
    """Distance in the energy norm between u and the translation orbit of v.

    min_b |||u - v(. + b)|||^2 = |a_u|^2 + |a_v|^2 - 2 a_u . a_v(. + b), every
    overlap from one FFT (S.overlaps); the shifts within rounding of the
    minimum are measured again exactly (S.translate), and ties resolve to
    the lexicographically smallest shift so the answer is deterministic.
    """
    au, av = S.a_from_field(u), S.a_from_field(v)
    nu, nv = float(au @ au), float(av @ av)
    squares = nu + nv - 2.0 * S.overlaps(au, av)
    best = np.inf
    best_shift: tuple[int, ...] = (0,) * u.domain.dim
    for i in np.flatnonzero(squares <= squares.min() + 1e-10 * (nu + nv)):
        b = tuple(int(c) for c in np.unravel_index(i, (u.domain.cells,) * u.domain.dim))
        d = float(np.linalg.norm(au - S.translate(av, [-c for c in b])))
        if d < best - 1e-15:
            best, best_shift = d, b
    return best, best_shift


def same_orbit(
    u: GridField, v: GridField, S: SpectralDecomposition, radius: float
) -> bool:
    return orbit_distance(u, v, S)[0] <= radius


def deflated_search(
    known: list[SolutionRecord],
    tries: int,
    S: SpectralDecomposition,
    nl: Nonlinearity,
    opts: SolverOptions = SolverOptions(),
    rng: np.random.Generator | None = None,
) -> list[SolutionRecord]:
    """Hunt for solutions geometrically distinct from `known`.

    Randomized Gaussian ansatz per try (center, width, amplitude, sign);
    converged results within deflation_radius of any known or newly
    found orbit are discarded. Failures of individual tries are normal
    and silent; the caller sees only the survivors.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    found: list[SolutionRecord] = []
    pool = list(known)
    for _ in range(max(0, tries)):
        init = initial_ansatz(*draw_ansatz(rng, S.domain), S.domain, S)
        try:
            rec = find_critical_point(init, S, nl, opts)
        except (NoConvergence, TrivialCollapse):
            continue
        if any(
            same_orbit(rec.field, other.field, S, opts.deflation_radius)
            for other in pool
        ):
            continue
        found.append(rec)
        pool.append(rec)
    return found
