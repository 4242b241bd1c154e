import contextlib
import copy
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapbumps import cli, functional, presets, verify
from gapbumps.cli import (
    _NUMERIC_ERRORS,
    ConfigError,
    _record_from_file,
    load_config,
    main,
    read_field_csv,
    write_field_csv,
)
from gapbumps.operator import PeriodicPotential, midgap_shift
from gapbumps.solver import hessian_census
from gapbumps.torus import GridField, TorusDomain, translate
from gapbumps.verify import LemmaReport, VerificationSession


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("GAPBUMPS_OUT", str(out))
    return out


@pytest.fixture(scope="module")
def solution_k8(tmp_path_factory):
    """Path of a `solve --k 8 --seed 7` record, shared by the argument checks."""
    out = tmp_path_factory.mktemp("solve-k8")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("GAPBUMPS_OUT", str(out))
        assert main(["solve", "--k", "8", "--seed", "7"]) == 0
    return str(out / "solution.json")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestConfig:
    def test_defaults_load(self):
        cfg = load_config(None)
        assert cfg.domain.cells == 8
        assert cfg.potential.amplitude == 30.0
        # auto-midgap resolved to a number for computations
        assert cfg.potential.shift == pytest.approx(6.995077, abs=1e-5)
        assert cfg.raw["potential"]["shift"] == "auto-midgap"

    def test_file_round_trip(self, tmp_path):
        first = load_config(None)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(first.to_dict()))
        second = load_config(str(path))
        assert second.raw == first.raw
        assert second.potential == first.potential
        assert second.nonlinearity == first.nonlinearity
        assert second.solver == first.solver

    def test_partial_file_merges_over_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"domain": {"cells": 4}, "seed": 9}')
        cfg = load_config(str(path))
        assert cfg.domain.cells == 4
        assert cfg.domain.samples_per_cell == 16
        assert cfg.seed == 9

    @pytest.mark.parametrize("axes, counted", [(None, 2), ([0, 1], 2), ([1], 1)])
    def test_auto_midgap_counts_the_axes_the_cosine_acts_on(self, tmp_path, axes, counted):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"domain": {"dim": 2}, "potential": {"axes": axes}}))
        assert load_config(str(path)).potential.shift == midgap_shift(30.0, counted)

    def test_auto_midgap_without_a_gap_exits_2(self, outdir, tmp_path, capsys):
        # amplitude 5 has a 1-d gap, but the 2-d band 1 overlaps band 2
        cfg = tmp_path / "weak.json"
        cfg.write_text('{"domain": {"dim": 2, "samples_per_cell": 8}, "potential": {"amplitude": 5.0}}')
        assert main(["--config", str(cfg), "spectrum"]) == 2
        assert "no gap" in capsys.readouterr().err
        assert not (outdir / "manifest.json").exists()

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"potental": {}}')
        with pytest.raises(ConfigError, match="potental"):
            load_config(str(path))

    def test_syntax_error_reports_position(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": \n  oops}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"nonlinearity": {"dealias_factor": "1.5"}}', "nonlinearity.dealias_factor"),
            ('{"domain": {"cells": 8.7}}', "domain.cells"),
            ('{"domain": {"dim": true}}', "domain.dim"),
            ('{"seed": true}', "seed"),
            ('{"ansatz": {"width": 0}}', "ansatz.width"),
            ('{"potential": {"amplitude": 0.0}}', "no gap"),
            ('{"solver": {"max_iters": 7.9}}', "solver.max_iters"),
            ('{"nonlinearity": {"h": {"amplitud": 5}}}', "nonlinearity.h.amplitud"),
            ('{"potential": {"amplitude": "30"}, "nonlinearity": {"p": "4"}}', "potential.amplitude"),
            ('{"nonlinearity": {"p": "4"}}', "nonlinearity.p"),
            ('{"potential": {"axes": [0.7]}}', "potential.axes"),
            ('{"potential": {"samples": [1, "2"]}}', "potential.samples"),
            ('{"potential": {"shift": "midgap"}}', "potential.shift"),
            ('{"ansatz": {"amplitude": "6"}}', "ansatz.amplitude"),
            ('{"ansatz": {"center": ["0"]}}', "ansatz.center"),
            ('{"nonlinearity": {"h": 1.0}}', "nonlinearity.h"),
            ('{"ansatz": {"amplitude": Infinity}}', "ansatz.amplitude"),
            ('{"ansatz": {"center": [NaN]}}', "ansatz.center"),
        ],
        ids=[
            "dealias_string", "cells_float", "dim_bool", "seed_bool", "width_zero", "no_gap",
            "max_iters_float", "weight_typo", "amplitude_string", "p_string", "axes_float",
            "samples_string", "shift_string", "ansatz_amplitude_string", "center_string",
            "weight_number", "amplitude_infinity", "center_nan",
        ],
    )
    def test_json_types_and_values_are_strict(self, tmp_path, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message.replace(".", r"\.")):
            load_config(str(path))
        assert main(["--config", str(path), "spectrum"]) == 2

    @pytest.mark.parametrize(
        "source, section, axes",
        [
            ("config", "potential", [5]),
            ("config", "potential", [-1]),
            ("config", "nonlinearity.h", [1]),
            ("record", "potential", [5]),
            ("record", "nonlinearity.h", [-1]),
        ],
        ids=["config_axis_5", "config_axis_negative", "config_weight_axis_1",
             "record_axis_5", "record_weight_axis_negative"],
    )
    def test_axes_outside_the_domain_exit_2(self, outdir, tmp_path, capsys, source, section, axes):
        # on the 1-d domain only axis 0 exists; skipping the others would
        # leave a constant potential or weight
        def put(d: dict) -> None:
            if section == "potential":
                d.setdefault("potential", {})["axes"] = axes
            else:
                d.setdefault("nonlinearity", {})["h"] = {"amplitude": 0.5, "shift": -2.0, "axes": axes}

        path = tmp_path / "axes.json"
        if source == "config":
            cfg: dict = {}
            put(cfg)
            path.write_text(json.dumps(cfg))
            argv = ["--config", str(path), "spectrum"]
        else:
            assert main(["solve", "--k", "8", "--seed", "7"]) == 0
            rec = json.loads((outdir / "solution.json").read_text())
            put(rec)
            path.write_text(json.dumps(rec))
            argv = ["reduce", "--solution", str(path)]
        capsys.readouterr()
        assert main(argv) == 2
        assert f"{section}.axes" in capsys.readouterr().err

    def test_null_defaults_take_their_types(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            '{"potential": {"amplitude": 30, "axes": [0]}, "ansatz": {"center": [0]},'
            ' "nonlinearity": {"h": {"amplitude": 0.5, "shift": -2}}}'
        )
        cfg = load_config(str(path))
        assert cfg.potential.axes == (0,) and cfg.ansatz["center"] == [0]
        assert cfg.nonlinearity.weight == PeriodicPotential(amplitude=0.5, shift=-2.0)
        assert load_config(None).config_hash == "44f18bbd7a2c0168"

    def test_flag_overrides_apply(self):
        cfg = load_config(None, {"domain.cells": 4, "seed": 77})
        assert cfg.domain.cells == 4
        assert cfg.seed == 77

    def test_hash_tracks_content(self):
        a = load_config(None)
        b = load_config(None, {"seed": 1})
        assert a.config_hash != b.config_hash
        assert a.config_hash == load_config(None).config_hash


class TestFieldCsv:
    def test_round_trip(self, tmp_path, rng):
        d = TorusDomain(2, 2, 8)
        f = GridField(d, rng.standard_normal(d.shape))
        p = tmp_path / "f.csv"
        write_field_csv(p, f)
        back = read_field_csv(p, d)
        assert np.array_equal(back.values, f.values)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_bytes_are_those_of_a_row_by_row_csv_writer(self, tmp_path, rng, dim):
        # the reference writes one csv row of repr'd floats per point; the
        # signs, exponents and signed zeros below cover every repr form
        import csv

        d = TorusDomain(dim, 4, 8)
        values = rng.standard_normal(d.shape) * 10.0 ** rng.integers(-20, 20, d.shape)
        values.reshape(-1)[:3] = [0.0, -0.0, 1e300]
        f = GridField(d, values)
        reference = tmp_path / "reference.csv"
        with reference.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{i + 1}" for i in range(dim)] + ["value"])
            rows = zip(*(g.reshape(-1) for g in d.meshgrid()), f.flat)
            for row in rows:
                writer.writerow([repr(float(v)) for v in row])
        p = tmp_path / "f.csv"
        write_field_csv(p, f)
        assert p.read_bytes() == reference.read_bytes()

    def test_wrong_length_rejected(self, tmp_path):
        d = TorusDomain(1, 2, 8)
        p = tmp_path / "f.csv"
        write_field_csv(p, GridField.zeros(d))
        with pytest.raises(ConfigError):
            read_field_csv(p, TorusDomain(1, 4, 8))


class TestCommands:
    def test_bands_and_spectrum(self, outdir):
        assert main(["bands", "--bands", "4", "--quasimomenta", "8", "--modes", "16"]) == 0
        assert main(["spectrum", "--k", "4"]) == 0
        gap = json.loads((outdir / "gap.json").read_text())
        assert gap["certified"] and gap["j"] == 4
        lines = (outdir / "bands.csv").read_text().splitlines()
        assert lines[0] == "theta,band,lambda"
        assert len(lines) == 1 + 8 * 4

    def test_manifest_lists_existing_artifacts(self, outdir):
        assert main(["spectrum", "--k", "4"]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == "spectrum"
        for name in manifest["artifacts"]:
            assert (outdir / name).exists()
        assert manifest["versions"]["gapbumps"]

    def test_spectrum_without_gap_fails_numerically(self, outdir, tmp_path, capsys):
        cfg = tmp_path / "flat.json"
        cfg.write_text('{"potential": {"amplitude": 0.0, "shift": 0.0}, "domain": {"cells": 1}}')
        for command in ("spectrum", "solve"):
            assert main(["--config", str(cfg), command]) == 3
            err = capsys.readouterr().err
            assert "spectral gap" in err and "try 'auto-midgap'" in err
        assert not (outdir / "manifest.json").exists()

    def test_config_error_exit_code(self, outdir, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"solver": {"backtrack": 2.0}}')
        assert main(["--config", str(cfg), "spectrum"]) == 2

    def test_infinite_gap_edge_is_strict_json(self, outdir, tmp_path):
        # no positive eigenvalue: beta is infinite, the gap is still certified
        cfg = tmp_path / "high.json"
        cfg.write_text('{"potential": {"shift": 5000.0}}')
        assert main(["--config", str(cfg), "spectrum", "--k", "2"]) == 0
        for name in ("gap.json", "manifest.json"):
            json.loads((outdir / name).read_text(), parse_constant=_reject_constant)
        gap = json.loads((outdir / "gap.json").read_text())
        assert gap["certified"] and gap["j"] == 32
        assert gap["beta"] is None
        assert 0.0 < gap["alpha"] < 5000.0

    def test_single_bump_separation_is_strict_json(self, outdir, solution_k8):
        # one center has no second bump: the separation is unbounded
        assert main(["multibump", "--base", solution_k8, "--centers", "0"]) == 0
        text = (outdir / "multibump.json").read_text()
        assert json.loads(text, parse_constant=_reject_constant)["separation"] is None

    def test_solve_and_gluing_stay_off_the_dense_route(self, outdir, monkeypatch):
        # a localized 1-d bump keeps fewer rows than modes, so `solve --k 64`
        # and gluing two bumps at k = 32 build no dense model
        dense = []
        real = functional._grid_hessian

        def recorded(*args):
            dense.append(args[0].num_modes)
            return real(*args)

        monkeypatch.setattr(functional, "_grid_hessian", recorded)
        assert main(["solve", "--k", "64"]) == 0
        monkeypatch.setenv("GAPBUMPS_OUT", str(outdir / "k32"))
        assert main(["solve", "--k", "32"]) == 0
        base = str(outdir / "k32" / "solution.json")
        assert main(["multibump", "--base", base, "--centers", "0;16"]) == 0
        assert not dense

    def test_solve_manifest_times_each_phase(self, outdir):
        assert main(["solve", "--k", "8", "--seed", "7"]) == 0
        timings = json.loads((outdir / "manifest.json").read_text())["timings"]
        assert set(timings) == {"diagonalize_s", "newton_s", "census_s", "total_s"}
        assert timings["diagonalize_s"] + timings["newton_s"] + timings["census_s"] <= timings["total_s"] + 2e-3
        record = json.loads((outdir / "solution.json").read_text())
        assert not any(key.endswith("_s") or "time" in key for key in record)

    @pytest.mark.parametrize(
        "argv, phases",
        [
            (["reduce", "--solution", "{base}"], {"load_s", "classify_s", "profile_s"}),
            (["multibump", "--base", "{base}", "--centers", "0;4"], {"load_s", "glue_s"}),
            (["sweep", "--base", "{base}", "--seps", "4"], {"load_s", "sweep_s"}),
        ],
        ids=["reduce", "multibump", "sweep"],
    )
    def test_manifest_times_each_phase(self, outdir, solution_k8, argv, phases):
        assert main([a.format(base=solution_k8) for a in argv]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        timings = manifest["timings"]
        assert set(timings) == phases | {"total_s"}
        assert sum(timings[p] for p in phases) <= timings["total_s"] + 2e-3
        for name in manifest["artifacts"]:
            if name.endswith(".json"):
                result = json.loads((outdir / name).read_text())
                assert not any(key.endswith("_s") or "time" in key for key in result)

    @pytest.mark.parametrize(
        "argv",
        [
            ["bands", "--bands", "4", "--quasimomenta", "8"],
            ["spectrum", "--k", "4"],
            ["solve", "--k", "8", "--seed", "7"],
            ["reduce", "--solution", "{base}"],
            ["multibump", "--base", "{base}", "--centers", "0;4"],
            ["sweep", "--base", "{base}", "--seps", "4"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_manifest_lists_the_files_written_in_order(self, outdir, solution_k8, monkeypatch, argv):
        written = []
        for name in ("_write_json", "_write_csv"):

            def recording(path, *rest, write=getattr(cli, name)):
                written.append(path.name)
                write(path, *rest)

            monkeypatch.setattr(cli, name, recording)
        assert main([a.format(base=solution_k8) for a in argv]) == 0
        assert written[-1] == "manifest.json"
        assert json.loads((outdir / "manifest.json").read_text())["artifacts"] == written[:-1]
        assert sorted(p.name for p in outdir.iterdir()) == sorted(written)

    def test_solution_explains_its_newton_run(self, solution_k8):
        with open(solution_k8) as fh:
            rec = json.loads(fh.read())
        assert len(rec["step_history"]) == len(rec["mu_history"]) == rec["iterations"]
        # every row is active at k = 8, and still r <= N
        assert rec["hessian_backend"] == "low-rank" and "hessian_subspace_dim" not in rec
        loaded, S, nl = _record_from_file(solution_k8, load_config(None))
        assert loaded.iterations == 0
        assert loaded.residual_history == ()
        assert loaded.step_history == () and loaded.mu_history == ()
        assert hessian_census(S, nl, S.a_from_field(loaded.field))["hessian_backend"] == "low-rank"

    @pytest.mark.parametrize(
        "k, census",
        [(8, (10, 0, "low-rank")), (64, (66, 0, "low-rank"))],
        ids=["k8", "k64"],
    )
    def test_solution_census_is_that_of_its_field(self, outdir, k, census):
        assert main(["solve", "--k", str(k)]) == 0
        rec = json.loads((outdir / "solution.json").read_text())
        loaded, S, nl = _record_from_file(str(outdir / "solution.json"), load_config(None))
        expected = hessian_census(S, nl, S.a_from_field(loaded.field))
        assert tuple(rec[key] for key in expected) == tuple(expected.values()) == census

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["reduce", "--solution", "{base}", "--tau", "0"], "--tau"),
            (["multibump", "--base", "{base}", "--centers", "0;4", "--tau", "-1"], "--tau"),
            (["sweep", "--base", "{base}", "--seps", "8,4"], "--seps"),
            (["sweep", "--base", "{base}", "--seps", "0,4"], "--seps"),
            (["sweep", "--base", "{base}", "--m", "0", "--seps", "4"], "--m"),
            (["sweep", "--base", "{base}", "--m", "-2", "--seps", "4"], "--m"),
            (["multibump", "--base", "{base}", "--centers", "0;4", "--k", "3"], "--k"),
            (["solve", "--k", "8", "--ansatz-width", "0"], "ansatz.width"),
            (["solve", "--ansatz-center", "zero"], "--ansatz-center"),
            (["bands", "--modes", "16", "--bands", "40"], "--bands"),
            (["bands", "--quasimomenta", "-1"], "--quasimomenta"),
            (["--config", "{flat}", "spectrum"], "no gap"),
            (["multibump", "--base", "{base}", "--centers", "0;x"], "--centers"),
            (["multibump", "--base", "{base}", "--centers", "0;4.5"], "--centers"),
            (["reduce", "--solution", "{base}", "--tau", "1e-14"], "--tau"),
            (["reduce", "--solution", "{base}", "--tau", "inf"], "--tau"),
            (["solve", "--k", "8", "--seed", "-1"], "seed"),
            (["verify", "--seed", "-1"], "seed"),
            (["--config", "{negseed}", "solve", "--k", "8"], "seed"),
            (["multibump", "--base", "{base}", "--k", "32", "--centers", "0;32"], "--centers"),
            (["multibump", "--base", "{base}", "--centers", "0;2"], "--centers"),
            (["solve", "--ansatz-center", "nan"], "ansatz.center"),
            (["solve", "--ansatz-amplitude", "inf"], "ansatz.amplitude"),
            (["--config", "{nonfinite}", "solve", "--k", "8"], "ansatz.amplitude"),
            (["--config", "{flat_domain}", "spectrum", "--k", "8"], "domain"),
            (["solve", "--k", "8", "--tries", "0"], "--tries"),
            (["solve", "--k", "8", "--tries", "-3"], "--tries"),
            (["--config", "{negweight}", "solve"], "nonnegative"),
        ],
        ids=[
            "reduce_tau_zero", "multibump_tau_negative", "seps_descending", "seps_zero",
            "sweep_m_zero", "sweep_m_negative",
            "target_below_base", "ansatz_width_zero", "ansatz_center_text",
            "bands_above_modes", "quasimomenta_negative", "midgap_without_gap",
            "center_text", "center_fraction", "reduce_empty_block",
            "reduce_tau_inf", "solve_seed_negative", "verify_seed_negative",
            "config_seed_negative", "centers_collide", "centers_below_floor",
            "ansatz_center_nan", "ansatz_amplitude_inf", "config_infinity", "flag_into_number",
            "tries_zero", "tries_negative", "weight_negative_on_the_grid",
        ],
    )
    def test_bad_arguments_exit_2(self, outdir, tmp_path, solution_k8, capsys, argv, message):
        flat = tmp_path / "flat.json"
        flat.write_text('{"potential": {"amplitude": 0.0}}')
        negseed = tmp_path / "negseed.json"
        negseed.write_text('{"seed": -1}')
        nonfinite = tmp_path / "nonfinite.json"
        nonfinite.write_text('{"ansatz": {"amplitude": Infinity}}')
        flat_domain = tmp_path / "flat_domain.json"
        flat_domain.write_text('{"domain": 8}')
        # cos(2 pi x) + cos(2 pi y) + 1.5 passes the one-axis probe (minimum
        # 0.5) but reaches -0.5 on the 2-d grid
        negweight = tmp_path / "negweight.json"
        negweight.write_text(json.dumps({
            "domain": {"dim": 2, "cells": 3, "samples_per_cell": 8},
            "potential": {"shift": presets.DEGENERATE_SHIFT, "axes": [0]},
            "nonlinearity": {"h": {"amplitude": 1.0, "shift": -1.5}},
            "ansatz": {"width": 0.4},
        }))
        files = dict(
            flat=flat, negseed=negseed, nonfinite=nonfinite, flat_domain=flat_domain,
            negweight=negweight,
        )
        argv = [a.format(base=solution_k8, **files) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    @pytest.mark.parametrize(
        "out, argv, message",
        [
            ("{blocker}", ["spectrum", "--k", "2"], "GAPBUMPS_OUT"),
            ("{blocker}/out", ["spectrum", "--k", "2"], "GAPBUMPS_OUT"),
            ("{tmp}/out", ["reduce", "--solution", "{tmp}/dir.json"], "dir.json"),
            ("{tmp}/out", ["--config", "{tmp}/latin1.json", "spectrum"], "latin1.json"),
            ("{tmp}/out", ["reduce", "--solution", "{tmp}/latin1.json"], "latin1.json"),
            ("{tmp}/out", ["reduce", "--solution", "{tmp}/latin1.csv"], "latin1.csv"),
        ],
        ids=[
            "out_is_a_file", "out_under_a_file", "solution_is_a_directory",
            "config_not_utf8", "record_not_utf8", "csv_not_utf8",
        ],
    )
    def test_unusable_outside_files_exit_2(self, tmp_path, monkeypatch, capsys, out, argv, message):
        (tmp_path / "blocker").write_text("")
        (tmp_path / "dir.json").mkdir()
        for name in ("latin1.json", "latin1.csv"):
            (tmp_path / name).write_bytes('{"seed": "\u00e9"}'.encode("latin-1"))
        fill = lambda text: text.format(tmp=tmp_path, blocker=tmp_path / "blocker")
        monkeypatch.setenv("GAPBUMPS_OUT", fill(out))
        assert main([fill(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    @pytest.mark.parametrize(
        "text, message",
        [("", "expected 2 columns"), ("x1,value\n0,abc\n", "abc"),
         ("x1,value\n" + "0,nan\n" * 128, "finite")],
        ids=["empty", "text_value", "nan_values"],
    )
    def test_malformed_field_csv_exits_2(self, outdir, tmp_path, capsys, text, message):
        path = tmp_path / "field.csv"
        path.write_text(text)
        assert main(["reduce", "--solution", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    def test_numeric_errors_have_their_own_types(self, outdir, capsys):
        assert not any(issubclass(ValueError, t) for t in _NUMERIC_ERRORS)
        # an overflowing ansatz ends Newton at once instead of reaching LAPACK
        with np.errstate(all="ignore"):
            assert main(["solve", "--k", "8", "--ansatz-amplitude", "1e150"]) == 3
        assert "NoConvergence: residual not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("failure", ["raises", "drops_a_near_value"])
    def test_a_failed_kernel_split_exits_3(self, outdir, solution_k8, monkeypatch, capsys, failure):
        # Lanczos that gives up, or that returns the far side of the split
        # in place of its near eigenvalue, is a numeric failure, not a crash
        import scipy.sparse.linalg

        eigsh = scipy.sparse.linalg.eigsh

        def failing(*args, **kwargs):
            if failure == "raises":
                raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))
            vals, vecs = eigsh(*args, **kwargs)
            vals[np.argmax(np.abs(vals))] = vals[np.argmin(np.abs(vals))]
            return vals, vecs

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing)
        assert main(["reduce", "--solution", solution_k8]) == 3
        err = capsys.readouterr().err
        assert err.startswith("NoConvergence: ") and "Traceback" not in err

    def test_a_record_with_the_old_subspace_dim_loads(self, outdir, solution_k8, tmp_path):
        # records written before the kernel split counted by inertia carry
        # hessian_subspace_dim; the field is all a loader reads
        old = json.loads(Path(solution_k8).read_text()) | {"hessian_subspace_dim": 128}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(old))
        assert main(["reduce", "--solution", str(path)]) == 0
        assert json.loads((outdir / "reduce.json").read_text())["l"] == 1

    def test_the_zero_field_at_tau_one_exits_3(self, outdir, tmp_path, capsys):
        # H = D at u = 0: every eigenvalue sits on the threshold
        # tau * scale = 1, where the counts put the -1s in the block and
        # Lanczos cannot split a two-point spectrum; a numeric failure,
        # not a traceback
        path = tmp_path / "zero.csv"
        write_field_csv(path, GridField.zeros(TorusDomain(1, 8, 16)))
        assert main(["reduce", "--solution", str(path), "--tau", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("NoConvergence: ") and "Traceback" not in err

    def test_verify_manifest_times_each_check(self, outdir, monkeypatch):
        report = LemmaReport(0, seconds={"check_spectral_gap": 0.25, "determinism": 0.5})
        monkeypatch.setattr(cli, "run_verification", lambda seed: report)
        assert main(["verify"]) == 0
        timings = json.loads((outdir / "manifest.json").read_text())["timings"]
        assert (timings["spectral_gap_s"], timings["determinism_s"]) == (0.25, 0.5)
        assert "seconds" not in json.loads((outdir / "report.json").read_text())

    def test_failed_sweep_row_keeps_the_report_strict(self, outdir, monkeypatch):
        def one_failed_row(kb, m, l_values, S, opts=None):
            return [{"l_sep": 4.0, "centers": [(0,), (4,)], "failed": "NoConvergence: stub"}]

        def multibump_only(seed):
            report = LemmaReport(seed)
            report.entries.extend(VerificationSession(seed).check_multibump())
            return report

        monkeypatch.setattr(verify, "separation_sweep", one_failed_row)
        monkeypatch.setattr(cli, "run_verification", multibump_only)
        assert main(["verify"]) == 4
        text = (outdir / "report.json").read_text()
        entries = json.loads(text, parse_constant=_reject_constant)["entries"]
        decay = next(e for e in entries if e["name"] == "multibump_decay")
        assert not decay["passed"]
        assert decay["measured"]["w_norms"] == decay["measured"]["x_norms"] == [None]
        # the two-bump witness is the sweep's row at separation 16, absent here
        witness = next(e for e in entries if e["name"] == "multibump_witnesses")
        assert not witness["passed"]
        assert witness["measured"]["residual_2bump"] is None
        assert witness["measured"]["bump_energy_dev"][0] is None

    def test_missing_solution_file(self, outdir):
        assert main(["reduce", "--solution", "nowhere.json"]) == 2

    def test_solve_writes_deterministic_artifacts(self, tmp_path, monkeypatch):
        blobs = []
        for sub in ("a", "b"):
            monkeypatch.setenv("GAPBUMPS_OUT", str(tmp_path / sub))
            assert main(["solve", "--k", "8", "--seed", "7"]) == 0
            blobs.append(
                (
                    (tmp_path / sub / "solution.json").read_bytes(),
                    (tmp_path / sub / "solution.csv").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1]
        rec = json.loads(blobs[0][0])
        assert rec["residual"] <= 1e-10
        assert len(rec["values"]) == 128

    def test_collapse_exits_numerically(self, outdir, tmp_path):
        cfg = tmp_path / "tiny.json"
        cfg.write_text('{"ansatz": {"amplitude": 0.2}}')
        assert main(["--config", str(cfg), "solve", "--k", "8"]) == 3

    def test_out_of_memory_exits_numerically(self, outdir, tmp_path, capsys, monkeypatch):
        # a dealiased grid of 1e9 times the torus grid cannot be allocated;
        # the refusal is raised here without allocating anything
        def refuse(*args):
            raise MemoryError("Unable to allocate 7.3 TiB for an array")

        monkeypatch.setattr(functional, "_interpolation_rows", refuse)
        cfg = tmp_path / "huge.json"
        cfg.write_text('{"nonlinearity": {"dealias_factor": 1e9}}')
        assert main(["--config", str(cfg), "solve", "--k", "8"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("out of memory: Unable to allocate") and err.count("\n") == 1
        assert not (outdir / "manifest.json").exists()

    def test_reduce_on_a_solve_artifact(self, outdir):
        assert main(["solve", "--k", "8", "--seed", "7"]) == 0
        assert main(["reduce", "--solution", str(outdir / "solution.json")]) == 0
        summary = json.loads((outdir / "reduce.json").read_text())
        assert summary["l"] == 1
        assert summary["morse_index"] == 0
        assert not summary["degenerate"]
        lines = (outdir / "reduce.csv").read_text().splitlines()
        assert lines[0] == "axis,h,I,dI_norm"
        assert len(lines) == 1 + 7  # stencil 3 -> 7 sample offsets per axis

    def test_reduce_recomputes_stripped_diagnostics(self, outdir, tmp_path):
        assert main(["solve", "--k", "8", "--seed", "7"]) == 0
        rec = json.loads((outdir / "solution.json").read_text())
        for key in ("energy", "residual", "norm_k"):
            del rec[key]
        path = tmp_path / "stripped.json"
        path.write_text(json.dumps(rec))
        assert main(["reduce", "--solution", str(path)]) == 0
        assert json.loads((outdir / "reduce.json").read_text())["l"] == 1

    def test_reduce_refuses_a_record_that_is_not_critical(self, outdir, tmp_path, capsys):
        assert main(["solve", "--k", "8", "--seed", "7"]) == 0
        rec = json.loads((outdir / "solution.json").read_text())
        rec["potential"]["shift"] += 0.5
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(rec))
        assert main(["reduce", "--solution", str(path)]) == 2
        assert "edited.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [["--stencil", "0"], ["--radius", "100"]],
        ids=["stencil_below_1", "radius_beyond_delta0"],
    )
    def test_reduce_profile_flags_are_checked(self, outdir, capsys, flag):
        assert main(["solve", "--k", "8", "--seed", "7"]) == 0
        path = str(outdir / "solution.json")
        assert main(["reduce", "--solution", path, *flag]) == 2
        assert flag[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda rec: rec["domain"].update(samples_per_cell=12), "samples_per_cell"),
            (lambda rec: rec.update(values=rec["values"][:-3]), "128 values"),
            (lambda rec: rec["domain"].pop("cells"), "domain.cells"),
            (lambda rec: rec["domain"].update(cells=8.0), "domain.cells"),
            (lambda rec: rec["nonlinearity"].update(dealias_factor="1.5"), "nonlinearity.dealias_factor"),
            (lambda rec: rec.update(potential=[]), "potential"),
            (lambda rec: rec["potential"].pop("shift"), "potential.shift"),
            (lambda rec: rec["nonlinearity"].pop("p"), "nonlinearity.p"),
            (lambda rec: rec["domain"].update(walls=0), "domain.walls"),
            (lambda rec: rec["potential"].update(amplitude="30"), "potential.amplitude"),
            (lambda rec: rec["nonlinearity"].update(h={"amplitud": 5}), "nonlinearity.h.amplitud"),
            (lambda rec: rec["nonlinearity"].update(p="4"), "nonlinearity.p"),
        ],
        ids=[
            "samples_per_cell", "short_values", "no_cells", "float_cells", "dealias_string",
            "potential_list", "no_shift", "no_p", "unknown_domain_field", "amplitude_string",
            "weight_typo", "p_string",
        ],
    )
    def test_reduce_refuses_a_malformed_record(self, outdir, tmp_path, capsys, edit, where):
        assert main(["solve", "--k", "8", "--seed", "7"]) == 0
        rec = json.loads((outdir / "solution.json").read_text())
        edit(rec)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(rec))
        assert main(["reduce", "--solution", str(path)]) == 2
        err = capsys.readouterr().err
        assert "malformed.json" in err and where in err

    @pytest.mark.parametrize(
        "text", ["5", "null", '"domain potential nonlinearity values"'],
        ids=["number", "null", "string"],
    )
    def test_reduce_refuses_a_record_that_is_not_an_object(self, outdir, tmp_path, capsys, text):
        path = tmp_path / "scalar.json"
        path.write_text(text)
        assert main(["reduce", "--solution", str(path)]) == 2
        assert "scalar.json" in capsys.readouterr().err

    def test_reduce_accepts_a_field_csv(self, outdir):
        assert main(["solve", "--k", "8", "--seed", "7"]) == 0
        assert main(["reduce", "--solution", str(outdir / "solution.csv")]) == 0
        assert json.loads((outdir / "reduce.json").read_text())["l"] == 1

    def test_multibump_and_sweep(self, outdir):
        assert main(["solve", "--k", "8", "--seed", "7"]) == 0
        base = str(outdir / "solution.json")
        assert main(["multibump", "--base", base, "--centers", "0;4"]) == 0
        result = json.loads((outdir / "multibump.json").read_text())
        assert result["residual"] <= 1e-8
        assert len(result["bump_energies"]) == 2

        assert main(["sweep", "--base", base, "--m", "2", "--seps", "4,8"]) == 0
        summary = json.loads((outdir / "sweep.json").read_text())
        # separation 8 collides on the 8-cell torus and is marked, not fatal
        assert summary["rows_failed"] == 1
        assert "failed" in summary["rows"][1]
        assert summary["monotone_w"] is None

    @pytest.mark.parametrize(
        "argv",
        [["multibump", "--centers", "0;16"], ["sweep", "--m", "2", "--seps", "16"]],
        ids=["multibump", "sweep"],
    )
    def test_k_names_the_target_torus_for_a_csv_base(self, outdir, solution_k8, argv):
        # the CSV base is read on the 8-cell config domain, glued on 32 cells
        base = solution_k8.replace(".json", ".csv")
        assert main([*argv, "--base", base, "--k", "32"]) == 0
        result = json.loads((outdir / f"{argv[0]}.json").read_text())
        row = result["rows"][0] if "rows" in result else result
        assert row["residual"] <= 1e-8


# what _record_from_file reads of a record: its sections, their required
# keys and the field values; the numbers among them
_RECORD_KEYS = [
    ("domain",), ("domain", "dim"), ("domain", "cells"), ("domain", "samples_per_cell"),
    ("potential",), ("potential", "kind"), ("potential", "amplitude"), ("potential", "shift"),
    ("nonlinearity",), ("nonlinearity", "p"), ("values",),
]
_RECORD_NUMBERS = [
    ("potential", "amplitude"), ("potential", "shift"), ("nonlinearity", "p"),
]


def _get(record, path):
    for key in path:
        record = record[key]
    return record


def _set(record, path, value):
    """`record` with the entry at `path` replaced by `value` (() is the record)."""
    if not path:
        return value
    _get(record, path[:-1])[path[-1]] = value
    return record


@st.composite
def _fuzzed(draw, record):
    """A deep copy of `record` with one change that makes it invalid."""
    rec = copy.deepcopy(record)
    n = len(rec["values"])
    kind = draw(st.sampled_from(["drop", "type", "non-finite", "length"]))
    if kind == "length":
        size = draw(st.integers(0, 2 * n).filter(lambda m: m != n))
        rec["values"] = (rec["values"] * 2)[:size]
        return rec
    entry = ("values", draw(st.integers(0, n - 1)))
    if kind == "drop":
        path = draw(st.sampled_from(_RECORD_KEYS))
        del _get(rec, path[:-1])[path[-1]]
        return rec
    if kind == "type":
        path = draw(st.sampled_from([(), *_RECORD_KEYS, entry]))
        current = _get(rec, path)
        value = draw(
            st.sampled_from(["x", True, None, [], {}]).filter(
                lambda v: type(v) is not type(current)
            )
        )
        return _set(rec, path, value)
    path = draw(st.sampled_from([*_RECORD_NUMBERS, entry]))
    return _set(rec, path, draw(st.sampled_from([math.nan, math.inf, -math.inf])))


@pytest.fixture(scope="module")
def record_k8(solution_k8):
    return json.loads(Path(solution_k8).read_text())


class TestRecordProperties:
    @settings(max_examples=12, deadline=None)
    @given(shift=st.integers(0, 7), sign=st.sampled_from([1.0, -1.0]))
    def test_json_and_csv_round_trip_bit_for_bit(self, tmp_path_factory, record_k8, shift, sign):
        # translates and the negative of a critical point are critical points
        # of the even, shift-invariant energy; the reader keeps the field verbatim
        cfg = load_config(None)
        field = GridField(cfg.domain, np.asarray(record_k8["values"]))
        field = GridField(cfg.domain, sign * translate(field, (shift,)).values)
        out = tmp_path_factory.mktemp("round-trip")
        cli._write_json(out / "rec.json", record_k8 | {"values": list(field.flat)})
        write_field_csv(out / "rec.csv", field)
        for name in ("rec.json", "rec.csv"):
            rec, _, _ = _record_from_file(str(out / name), cfg)
            assert rec.field.values.tobytes() == field.values.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_fuzzed_record_exits_2(self, tmp_path_factory, record_k8, data):
        rec = data.draw(_fuzzed(record_k8), label="record")
        out = tmp_path_factory.mktemp("fuzz")
        path = out / "fuzzed.json"
        path.write_text(json.dumps(rec))
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("GAPBUMPS_OUT", str(out))
            assert main(["reduce", "--solution", str(path)]) == 2


# leaf config fields: values the schema and every constructor accept, and
# values of another JSON type
_NUMBER_WRONG = ["x", True, None, [], {}]
_CONFIG_FIELDS = {
    ("domain", "dim"): (st.sampled_from([1, 2]), [*_NUMBER_WRONG, 1.5]),
    ("domain", "cells"): (st.integers(1, 64), [*_NUMBER_WRONG, 8.5]),
    ("domain", "samples_per_cell"): (st.sampled_from([8, 16, 32]), [*_NUMBER_WRONG, 16.0]),
    ("potential", "amplitude"): (st.floats(10.0, 50.0), _NUMBER_WRONG),
    ("potential", "axes"): (st.sampled_from([None, [0]]), ["x", True, {}, 0, [0.5]]),
    ("nonlinearity", "p"): (st.floats(3.0, 6.0), _NUMBER_WRONG),
    ("nonlinearity", "dealias_factor"): (st.floats(1.0, 3.0), _NUMBER_WRONG),
    ("solver", "newton_tol"): (st.floats(1e-12, 1e-6), _NUMBER_WRONG),
    ("solver", "max_iters"): (st.integers(1, 500), [*_NUMBER_WRONG, 200.0]),
    ("solver", "backtrack"): (st.floats(0.1, 0.9), _NUMBER_WRONG),
    ("seed",): (st.integers(0, 2**32), [*_NUMBER_WRONG, 0.5]),
    ("ansatz", "width"): (st.floats(0.1, 2.0), _NUMBER_WRONG),
    ("ansatz", "amplitude"): (st.floats(-10.0, 10.0), _NUMBER_WRONG),
}


def _nested(flat: dict) -> dict:
    """{("a", "b"): v} as {"a": {"b": v}}."""
    out: dict = {}
    for path, value in flat.items():
        node = out
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return out


@st.composite
def _config_fields(draw) -> dict:
    paths = draw(st.lists(st.sampled_from(sorted(_CONFIG_FIELDS)), unique=True))
    return {path: draw(_CONFIG_FIELDS[path][0], label=".".join(path)) for path in paths}


class TestConfigProperties:
    @settings(max_examples=40, deadline=None)
    @given(fields=_config_fields())
    def test_given_fields_load_over_the_defaults(self, tmp_path_factory, fields):
        path = tmp_path_factory.mktemp("config") / "cfg.json"
        path.write_text(json.dumps(_nested(fields)))
        cfg = load_config(str(path))
        expected = copy.deepcopy(cli._DEFAULT_CONFIG)
        for where, value in fields.items():
            _set(expected, where, value)
        assert cfg.raw == expected
        assert (cfg.domain.dim, cfg.domain.cells) == (expected["domain"]["dim"], expected["domain"]["cells"])
        assert cfg.nonlinearity.p == expected["nonlinearity"]["p"]
        assert cfg.nonlinearity.dealias_factor == expected["nonlinearity"]["dealias_factor"]
        assert cfg.seed == expected["seed"]

    @settings(max_examples=40, deadline=None)
    @given(fields=_config_fields(), data=st.data())
    def test_a_field_of_the_wrong_type_exits_2_and_is_named(self, tmp_path_factory, fields, data):
        where = data.draw(st.sampled_from(sorted(_CONFIG_FIELDS)), label="field")
        fields[where] = data.draw(st.sampled_from(_CONFIG_FIELDS[where][1]), label="value")
        path = tmp_path_factory.mktemp("config") / "cfg.json"
        path.write_text(json.dumps(_nested(fields)))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["--config", str(path), "spectrum"]) == 2
        assert f"'{'.'.join(where)}'" in err.getvalue()
