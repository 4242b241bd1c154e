import dataclasses
import itertools
import sys

import numpy as np
import pytest
import scipy.linalg

from gapbumps import cli, functional, multibump, presets, reduction, solver, torus
from gapbumps.functional import HessianModel, Nonlinearity, a_value_and_gradient, hessian_model
from gapbumps.multibump import (
    CentersCollide,
    GluingUnstable,
    SeparationTooSmall,
    build_problem,
    bump_energy_split,
    periodic_separation,
    solve_multibump,
    superposition_compare,
)
from gapbumps.operator import PeriodicPotential, SpectralDecomposition, diagonalize
from gapbumps.reduction import GapReference, detect_kernel, joint_kernel_matrix
from gapbumps.solver import NoConvergence, SolverOptions, find_critical_point, initial_ansatz
from gapbumps.torus import GridField, TorusDomain, embed_with_cutoff, l2_norm, translate


class TestGeometry:
    def test_minimum_image_separation(self):
        assert periodic_separation([(0,), (6,)], 8) == pytest.approx(2.0)
        assert periodic_separation([(0,), (3,)], 8) == pytest.approx(3.0)
        assert periodic_separation([(0, 0), (4, 4)], 16) == pytest.approx(np.sqrt(32))

    def test_superpose_places_copies(self, kb8, S8):
        glued = S8.field_from_a(build_problem(kb8, [(0,), (4,)], S8).glued_a)
        x = S8.domain.axis_coords()
        peaks = np.sort(x[np.argsort(glued.values)[-2:]])
        # the grid covers [-4, 4), so the copy at 4 sits at the wrapped
        # representative -4
        assert peaks[0] == pytest.approx(-4.0, abs=S8.domain.spacing)
        assert peaks[1] == pytest.approx(0.0, abs=S8.domain.spacing)

    def test_coincident_centers_rejected(self, kb8, S8):
        with pytest.raises(CentersCollide):
            build_problem(kb8, [(0,), (8,)], S8)  # 8 = 0 mod 8

    def test_copies_are_rotations_not_grid_shifts(self, kb8, S8, potential, monkeypatch):
        # the base and its kernel block embedded into a 16-cell torus once,
        # then turned to each center: the grid sums of the translated copies
        assert kb8.l == 1
        S16 = diagonalize(potential, TorusDomain(1, 16, 16))
        centers = [(0,), (5,), (11,)]
        copies = [translate(embed_with_cutoff(kb8.base.field, S16.domain), (-b[0],)) for b in centers]
        kernel = embed_with_cutoff(kb8.S.field_from_a(kb8.E[:, 0]), S16.domain)
        columns = [S16.a_from_field(translate(kernel, (-b[0],))) for b in centers]

        def grid_shift(*args):
            raise AssertionError("the gluing shifted a field on the grid")

        for module in list(sys.modules.values()):
            if getattr(module, "translate", None) is torus.translate:
                monkeypatch.setattr(module, "translate", grid_shift)
        prob = build_problem(kb8, centers, S16)
        glued = S16.a_from_field(GridField(S16.domain, sum(c.values for c in copies)))
        assert np.linalg.norm(prob.glued_a - glued) <= 1e-13 * np.linalg.norm(glued)
        assert np.abs(prob.joint_raw - np.column_stack(columns)).max() <= 1e-13
        # on the base's own torus the kernel block is turned as it is
        assert np.array_equal(joint_kernel_matrix(kb8, [(0,)], S8), kb8.E)

    def test_problem_carries_the_joint_block(self, kb8, S8):
        prob = build_problem(kb8, [(0,), (4,)], S8)
        assert prob.m == 2
        assert prob.joint_dim == 2 * kb8.l
        assert prob.l_sep == pytest.approx(4.0)


class TestSolve:
    def test_single_bump_returns_the_base(self, kb8, S8, nl, base8):
        res = solve_multibump(build_problem(kb8, [(0,)], S8), S8, nl)
        assert res.reduced_coords_norm == 0.0
        assert res.correction_norm <= 1e-9
        assert np.abs(res.field.values - base8.field.values).max() <= 1e-8

    def test_two_bumps_converge_on_the_small_torus(self, kb8, S8, nl, base8):
        res = solve_multibump(build_problem(kb8, [(0,), (4,)], S8), S8, nl)
        assert res.residual <= 1e-9
        assert res.drift <= SolverOptions().deflation_radius
        # both Voronoi halves carry roughly one base level each
        assert len(res.bump_energies) == 2
        for e in res.bump_energies:
            assert e == pytest.approx(base8.energy, rel=0.05)

    def test_empty_kernel_block_glues_without_reduced_steps(self, potential, nl):
        # a threshold below every Hessian eigenvalue leaves the joint block
        # empty: the reduced gradient has size 0 and the loop stops at once
        S16 = diagonalize(potential, TorusDomain(1, 16, 16))
        A = presets.BASE_ANSATZ
        init = initial_ansatz(A["center"], A["width"], A["amplitude"], S16.domain, S16)
        kb = detect_kernel(find_critical_point(init, S16, nl), S16, nl, tau=1e-12)
        assert kb.l == 0
        res = solve_multibump(build_problem(kb, [(0,), (8,)], S16), S16, nl)
        assert res.phase2_iters == 0
        assert res.reduced_coords_norm == 0.0
        assert res.residual <= 1e-8

    def test_translation_equivariance(self, kb8, S8, nl):
        res0 = solve_multibump(build_problem(kb8, [(0,), (4,)], S8), S8, nl)
        res1 = solve_multibump(build_problem(kb8, [(1,), (5,)], S8), S8, nl)
        moved = translate(res0.field, (-1,))
        assert np.abs(res1.field.values - moved.values).max() <= 1e-8

    def test_reflection_symmetry(self, kb8, S8, nl):
        # base is even about 0 and the centers {0, 4} are symmetric about
        # x = 2, so the glued solution satisfies u(2+s) = u(2-s)
        res = solve_multibump(build_problem(kb8, [(0,), (4,)], S8), S8, nl)
        vals = res.field.values
        n = S8.domain.points_per_axis
        m = S8.domain.samples_per_cell
        for j in range(n):
            # x_j = -4 + j/m; the mirror 4 - x_j sits at grid index 12m - j mod n
            mirror = (12 * m - j) % n
            assert vals[j] == pytest.approx(vals[mirror], abs=1e-8)

    def test_mass_is_nearly_additive(self, kb8, S8, nl, base8):
        res = solve_multibump(build_problem(kb8, [(0,), (4,)], S8), S8, nl)
        assert l2_norm(res.field) ** 2 == pytest.approx(
            2 * l2_norm(base8.field) ** 2, rel=0.01
        )

    def test_energy_density_partitions_the_level(self, kb8, S8, nl, degenerate):
        # the bump energies are J's own terms split by nearest center, on
        # the torus grid and on the evaluation grid of every dealias factor
        res = solve_multibump(build_problem(kb8, [(0,), (4,)], S8), S8, nl)
        J = a_value_and_gradient(S8, nl, S8.a_from_field(res.field))[0]
        assert sum(res.bump_energies) == pytest.approx(J, rel=1e-12)
        S2, _, rec, _ = degenerate
        weights = (None, PeriodicPotential(amplitude=0.5, shift=-2.0))
        for S, u, centers in ((S8, res.field, ((0,), (4,))), (S2, rec.field, ((0, 0), (1, 1)))):
            for factor, weight in itertools.product((1.0, 1.5, 3.0), weights):
                nl_f = Nonlinearity(weight=weight, dealias_factor=factor)
                J = a_value_and_gradient(S, nl_f, S.a_from_field(u))[0]
                split = bump_energy_split(u, S, nl_f, centers)
                assert sum(split) == pytest.approx(J, rel=1e-12, abs=0), (S.domain.dim, factor, weight)


class TestErrorPaths:
    def test_small_separation_rejected(self, kb8, S8, nl):
        prob = build_problem(kb8, [(0,), (2,)], S8)
        with pytest.raises(SeparationTooSmall):
            solve_multibump(prob, S8, nl)

    def test_floor_admits_the_attempt_but_cannot_force_success(self, kb8, S8, nl, monkeypatch):
        prob = build_problem(kb8, [(0,), (3,)], S8)
        # at this separation the bumps interact strongly enough that the
        # reduced critical point falls outside the trust ball; lowering
        # the floor bypasses the up-front guard, and the failure is then
        # reported from the phase that hit it
        monkeypatch.setattr(multibump, "SEPARATION_FLOOR", 3.0)
        with pytest.raises(NoConvergence, match="phase 2"):
            solve_multibump(prob, S8, nl)

    def test_decomposition_must_be_the_problems(self, kb8, S8, nl):
        prob = build_problem(kb8, [(0,), (4,)], S8)
        with pytest.raises(ValueError, match="prob.S"):
            solve_multibump(prob, diagonalize(S8.potential, S8.domain), nl)

    def test_nonlinearity_must_be_the_kernels(self, kb8, S8, monkeypatch):
        prob = build_problem(kb8, [(0,), (4,)], S8)

        def no_numerics(*args, **kwargs):
            raise AssertionError("solve_multibump corrected before checking nl")

        monkeypatch.setattr(multibump, "_projected_newton", no_numerics)
        with pytest.raises(ValueError, match="prob.kb.nl"):
            solve_multibump(prob, S8, Nonlinearity(p=5.0))

    def test_drift_guard_trips(self, kb8, S8, nl):
        prob = build_problem(kb8, [(0,), (4,)], S8)
        with pytest.raises(GluingUnstable):
            solve_multibump(prob, S8, nl, SolverOptions(deflation_radius=1e-15))


def test_newton_callers_diagonalize_no_hessian(tmp_path, potential, nl, monkeypatch):
    # Morse data is taken by `solve` alone: Newton, a loaded record and
    # the gluing's polish each certify by residual, not by a spectrum
    S = diagonalize(potential, TorusDomain(1, 32, 16))
    A = presets.BASE_ANSATZ
    init = initial_ansatz(A["center"], A["width"], A["amplitude"], S.domain, S)
    base = find_critical_point(init, S, nl)
    kb = detect_kernel(base, S, nl, tau=presets.TAU_FORCED)
    path = tmp_path / "base.json"
    cli._write_json(path, base.to_dict())
    cfg = cli.load_config(None)  # resolves the mid-gap shift from band spectra
    # diagonalize eigensolves Bloch fibers, not a Hessian: hand it S instead
    monkeypatch.setattr(cli, "diagonalize", lambda V, domain: S)

    calls, bindings = [], []
    originals = (scipy.linalg.eigh, scipy.linalg.eigvalsh)
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("gapbumps")]
    for owner in [scipy.linalg, *modules]:
        for name in ("eigh", "eigvalsh"):
            fn = getattr(owner, name, None)
            if fn in originals:
                def wrapped(A, *args, _fn=fn, _name=name, **kwargs):
                    calls.append((_name, A.shape[0]))
                    return _fn(A, *args, **kwargs)

                monkeypatch.setattr(owner, name, wrapped)
                bindings.append(f"{owner.__name__}.{name}")
    assert {"scipy.linalg.eigh", "scipy.linalg.eigvalsh", "gapbumps.operator.eigh"} <= set(bindings)
    rec = find_critical_point(init, S, nl)
    loaded, _, _ = cli._record_from_file(str(path), cfg)
    res = solve_multibump(build_problem(kb, [(0,), (16,)], S), S, nl)
    assert rec.residual <= 1e-10 and loaded.residual <= 1e-10 and res.residual <= 1e-8
    assert calls == []


def test_close_glue_factors_only_capacitances(potential, nl, monkeypatch):
    # three bumps 6 cells apart at k = 32 keep 377 of the 512 rows active
    # at the glued point; every Hessian solve and count of the correction,
    # the reduced step and the polish factors a matrix of order r + l (or
    # the l x l reduced Hessian), and no dense Hessian or eigenfield
    # product is formed
    S = diagonalize(potential, TorusDomain(1, 32, 16))
    A = presets.BASE_ANSATZ
    base = find_critical_point(initial_ansatz(A["center"], A["width"], A["amplitude"], S.domain, S), S, nl)
    kb = detect_kernel(base, S, nl, tau=presets.TAU_FORCED)
    prob = build_problem(kb, [(0,), (6,), (12,)], S)

    def refuse(*args, **kwargs):
        raise AssertionError("a dense Hessian or eigenfield product was formed")

    monkeypatch.setattr(functional, "a_hessian", refuse)
    monkeypatch.setattr(SpectralDecomposition, "a_form", refuse)
    sizes, orders = {prob.joint_dim}, []
    real_model, real_dsytrf = functional.hessian_model, scipy.linalg.lapack.dsytrf

    def model(*args, **kwargs):
        H = real_model(*args, **kwargs)
        sizes.add(H.G.size + H.X.shape[1])
        return H

    def dsytrf(A, *args, **kwargs):
        orders.append(A.shape[0])
        return real_dsytrf(A, *args, **kwargs)

    for module in (multibump, reduction, solver):
        monkeypatch.setattr(module, "hessian_model", model)
    monkeypatch.setattr(scipy.linalg.lapack, "dsytrf", dsytrf)
    res = solve_multibump(prob, S, nl)
    assert res.phase2_iters >= 1 and res.residual <= 1e-8
    assert orders and set(orders) <= sizes
    assert max(sizes) < S.num_modes + prob.joint_dim


def _chain(m, spacing):
    return [(i * spacing,) for i in range(m)]


class TestGluedCertificate:
    """The gluing measures its joint block's gap once, by a count pair at
    +-t on the first model it counts, and certifies every later model of
    the problem by Weyl's inequality from that one: the certificate
    against the counts, the fallback where no gap is measured, and the
    factorizations spent."""

    @pytest.fixture(scope="class")
    def S48(self, potential):
        return diagonalize(potential, TorusDomain(1, 48, 16))

    @staticmethod
    def _spy(monkeypatch):
        """(orders of every LDL^T, shifts of every inertia count, (LDL^T,
        iterations, models) of every corrector call) from now on."""
        ldlts, shifts, corrector = [], [], []
        ldlt, count, newton = functional._ldlt, HessianModel.negative_count, multibump._projected_newton

        def counted_ldlt(A):
            ldlts.append(A.shape[0])
            return ldlt(A)

        def counted_count(model, sigma):
            shifts.append(sigma)
            return count(model, sigma)

        def counted_newton(*args, **kwargs):
            before = len(ldlts)
            out = newton(*args, **kwargs)
            corrector.append((len(ldlts) - before, out[1], out[2]))
            return out

        monkeypatch.setattr(functional, "_ldlt", counted_ldlt)
        monkeypatch.setattr(HessianModel, "negative_count", counted_count)
        monkeypatch.setattr(multibump, "_projected_newton", counted_newton)
        return ldlts, shifts, corrector

    def test_the_start_gap_lies_between_the_shift_and_the_base_gap(self, kb32):
        s, t = 0.5 / kb32.eta, GapReference.at_start(kb32).gap
        assert t == 0.5 * (kb32.gap + s) and s < t < kb32.gap
        assert GapReference.at_start(dataclasses.replace(kb32, gap=0.9 * s)) is None
        assert GapReference.at_start(dataclasses.replace(kb32, gap=2.0 - s)) is None

    def test_certified_models_never_degenerate(self, kb32, S48, nl, monkeypatch):
        # every iterate that steps, on a model of its own or a chord step,
        # of m = 2 at spacings 4-16, m = 3 at 4-10, and "0;24" embedded on
        # k = 48: where the certificate holds, the counts of a model there
        # read "not degenerate"
        certify = GapReference.certifies
        verdicts = []

        def counted_anyway(reference, S, nl, a, ceiling, H=None):
            certified = certify(reference, S, nl, a, ceiling, H)
            model = hessian_model(S, nl, a, prob.joint_raw) if H is None else H
            verdicts.append((certified, model.complement_degenerates(ceiling), H is None))
            return certified

        monkeypatch.setattr(GapReference, "certifies", counted_anyway)
        problems = [build_problem(kb32, _chain(2, l), kb32.S) for l in range(4, 17)]
        problems += [build_problem(kb32, _chain(3, l), kb32.S) for l in range(4, 11)]
        problems.append(build_problem(kb32, [(0,), (24,)], S48))
        for prob in problems:  # the spy reads the block of the problem being glued
            assert solve_multibump(prob, prob.S, nl).residual <= 1e-8
        assert any(c and not chord for c, _, chord in verdicts)
        assert any(c and chord for c, _, chord in verdicts)
        assert not any(c and degenerate for c, degenerate, _ in verdicts)

    @pytest.mark.parametrize("centers, ldlt, pair", [("0;6;12", 8, True), ("0;16", 1, False)])
    def test_one_count_pair_per_problem(self, kb32, nl, monkeypatch, centers, ldlt, pair):
        # "0;6;12" runs 3 corrector iterates on 2 models: the first model
        # factors for its +-t pair and its step, the chord iterate after it
        # certifies from its weights and factors nothing, the second model
        # factors for its step (12 LDL^T and 6 counts when every iterate
        # counts); "0;16" meets the corrector's tolerance at the glued
        # start and builds no model
        prob = build_problem(kb32, [(int(c),) for c in centers.split(";")], kb32.S)
        ldlts, shifts, corrector = self._spy(monkeypatch)
        solve_multibump(prob, prob.S, nl)
        t = GapReference.at_start(kb32).gap
        assert len(ldlts) == ldlt and shifts == ([t, -t] if pair else [])
        assert sum(n for n, _, _ in corrector) == sum(m for _, _, m in corrector) + 2 * pair

    def test_superposition_counts_one_pair_per_problem(self, kb32, monkeypatch):
        # the singles' solve_w certify from the base; the joint problem
        # counts once, at its first sample point, for every sample point
        points = [kb32.delta0 * np.array(p) for p in ([0.0, 0.0], [0.1, -0.1], [0.2, 0.05], [-0.15, 0.1])]
        _, shifts, _ = self._spy(monkeypatch)
        _, _, rows = superposition_compare(kb32, [(0,), (12,)], points)
        t = GapReference.at_start(kb32).gap
        assert shifts == [t, -t] and sum(r["newton_iters"] for r in rows) >= 2
        assert all(min(1, r["newton_iters"]) <= r["models"] <= r["newton_iters"] for r in rows)

    @pytest.mark.parametrize("fallback", ["no margin", "rising count"])
    def test_without_a_gap_every_model_counts_with_the_same_result(self, kb32, nl, monkeypatch, fallback):
        prob = build_problem(kb32, _chain(3, 6), kb32.S)
        certified = solve_multibump(prob, prob.S, nl)
        t = GapReference.at_start(kb32).gap
        if fallback == "no margin":  # t <= s: no reference to measure
            prob = dataclasses.replace(prob, kb=dataclasses.replace(kb32, gap=0.4 * kb32.gap))
        else:  # the count at +t rises: the measured reference is dropped
            count = HessianModel.negative_count
            monkeypatch.setattr(HessianModel, "negative_count", lambda H, sigma: count(H, sigma) + (sigma == t))
        ldlts, shifts, corrector = self._spy(monkeypatch)
        counted = solve_multibump(prob, prob.S, nl)
        iters = sum(i for _, i, _ in corrector)
        models = sum(m for _, _, m in corrector)
        s = 0.5 / kb32.eta
        # one LDL^T per model for its step, two per iterate for its counts
        if fallback == "no margin":
            assert all(n == m + 2 * i for n, i, m in corrector)
            assert shifts == [s, -s] * iters
        else:
            assert sum(n for n, _, _ in corrector) == models + 2 * iters + 2
            assert shifts == [t, -t] + [s, -s] * iters
        assert (iters, models) == (3, 2) and len(ldlts) == 12 + 2 * (fallback != "no margin")
        assert counted.field.values.tobytes() == certified.field.values.tobytes()
        assert counted.phase2_iters == certified.phase2_iters
        assert counted.residual == certified.residual
