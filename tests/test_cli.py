"""Command-line interface and curve-file round trips."""
import dataclasses
import json
import math

import numpy as np
import pytest

import gbspline.cli
import gbspline.refine
from gbspline import (
    SplineCurve,
    build_family,
    build_local_basis,
    eval_basis_function,
    eval_curve,
    form_piecewise,
    load_curve,
    nonzero_basis_values,
    save_curve,
    validate_open_knot_vector,
)
from gbspline.cli import main
from gbspline.errors import CurveFileError
from conftest import make_basis

FIG_KNOTS = [0, 0, 0, 0, 0, .5, 1, 1, 1, 1, 1]


def write_demo_curve(path, knots=FIG_KNOTS, degree=4, dim=2, kind="trigonometric",
                     seed=0):
    rng = np.random.default_rng(seed)
    spans = sum(1 for a, b in zip(knots, knots[1:]) if b > a)
    n = len(knots) - degree - 1
    doc = {
        "degree": degree,
        "knots": list(map(float, knots)),
        "families": [{"kind": kind, "omega": math.pi / 2} for _ in range(spans)],
        "control_points": rng.uniform(-1, 1, (n, dim)).round(6).tolist(),
    }
    path.write_text(json.dumps(doc))
    return doc


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


class TestCurveFile:
    def test_round_trip_is_exact(self, tmp_path):
        src = tmp_path / "c.json"
        write_demo_curve(src, seed=3)
        kv, fam, cpts = load_curve(src)
        out = tmp_path / "copy.json"
        save_curve(out, kv, fam, cpts)
        kv2, fam2, cpts2 = load_curve(out)
        assert kv2.knots.tolist() == kv.knots.tolist()
        assert cpts2.tolist() == cpts.tolist()
        assert fam2.omegas.tolist() == fam.omegas.tolist()

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        doc = write_demo_curve(path)
        doc["extra"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(CurveFileError):
            load_curve(path)

    def test_control_point_count_must_match(self, tmp_path):
        path = tmp_path / "c.json"
        doc = write_demo_curve(path)
        doc["control_points"] = doc["control_points"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(CurveFileError):
            load_curve(path)

    def test_family_count_must_match(self, tmp_path):
        path = tmp_path / "c.json"
        doc = write_demo_curve(path)
        doc["families"] = doc["families"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(CurveFileError):
            load_curve(path)

    @pytest.mark.parametrize("field", ["knots", "omega", "control_points"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
    def test_non_finite_numbers_rejected(self, tmp_path, field, bad):
        path = tmp_path / "c.json"
        doc = write_demo_curve(path)
        if field == "knots":
            doc["knots"][5] = bad
        elif field == "omega":
            doc["families"][0]["omega"] = bad
        else:
            doc["control_points"][2][1] = bad
        path.write_text(json.dumps(doc))   # json writes NaN, Infinity and big integers
        with pytest.raises(CurveFileError, match="finite"):
            load_curve(path)

    def test_linear_kind_needs_no_omega(self, tmp_path):
        path = tmp_path / "c.json"
        doc = write_demo_curve(path, kind="linear")
        for entry in doc["families"]:
            del entry["omega"]
        path.write_text(json.dumps(doc))
        kv, fam, cpts = load_curve(path)
        assert fam.kinds == ("linear", "linear")

    EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, -1.7976931348623157e308]

    @pytest.mark.parametrize("dim", [None, 3])
    def test_round_trip_keeps_every_bit(self, tmp_path, dim):
        knots = [0, 0, 0, 1, 2, 3, 3, 3]   # integers, as a file may hold them
        kv, fam = validate_open_knot_vector(knots, 2), build_family(knots, omega=0.1 + 0.2)
        cpts = np.array(self.EXTREMES * 3)[:5 * (dim or 1)]
        cpts = cpts if dim is None else cpts.reshape(5, dim)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_curve(first, kv, fam, cpts)
        kv2, fam2, cpts2 = load_curve(first)
        assert kv2.knots.tobytes() == np.array(knots, dtype=float).tobytes()
        assert fam2.omegas.tobytes() == fam.omegas.tobytes() and fam2.kinds == fam.kinds
        assert cpts2.shape == (5, dim or 1)
        assert cpts2.tobytes() == cpts.reshape(5, -1).tobytes()
        save_curve(second, kv2, fam2, cpts2)
        assert second.read_bytes() == first.read_bytes()

    def test_written_layout(self, tmp_path):
        """The same document `json.dump(doc, indent=2)` wrote, one top-level
        field per line."""
        src, out = tmp_path / "c.json", tmp_path / "copy.json"
        write_demo_curve(src, seed=5, dim=3)
        kv, fam, cpts = load_curve(src)
        save_curve(out, kv, fam, cpts)
        doc = {"degree": kv.degree, "knots": [float(x) for x in kv.knots],
               "families": [{"kind": k, "omega": float(w)} for k, w in zip(fam.kinds, fam.omegas)],
               "control_points": [[float(x) for x in row] for row in cpts]}
        text = out.read_text()
        assert json.loads(text) == json.loads(json.dumps(doc, indent=2))
        lines = text.splitlines()
        assert len(lines) == 6 and lines[0] == "{" and lines[-1] == "}" and text.endswith("}\n")
        assert [line.split(":")[0].strip() for line in lines[1:-1]] == [
            '"degree"', '"knots"', '"families"', '"control_points"']

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_save_refuses_non_finite_numbers(self, tmp_path, bad):
        knots = [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0]
        kv, fam = validate_open_knot_vector(knots, 2), build_family(knots)
        cpts = np.zeros((4, 2))
        cpts[2, 1] = bad
        path = tmp_path / "c.json"
        message = rf"^control point 2 must be finite, got \[0.0, {bad}\]$"
        with pytest.raises(CurveFileError, match=message):
            save_curve(path, kv, fam, cpts)
        assert not path.exists()
        bad_fam = dataclasses.replace(fam, omegas=np.array([1.0, bad]))
        with pytest.raises(CurveFileError, match=rf"^omega 1 must be finite, got \[{bad}\]$"):
            save_curve(path, kv, bad_fam, np.zeros((4, 2)))
        assert not path.exists()

    # messages as the per-number checks gave them before lists were checked whole
    @pytest.mark.parametrize("edits, message", [
        ({("knots", 2): True}, "knot must be a number, got True"),
        ({("families", 1): {"kind": "trigonometric", "omega": "1.5"}},
         "omega must be a number, got '1.5'"),
        ({("families", 0): {"kind": "linear", "omega": "1.5"}, ("families", 1): 7},
         "omega must be a number, got '1.5'"),
        ({("control_points", 1, 1): None}, "control point component must be a number, got None"),
        ({("control_points", 1): 7}, "each control point must be a nonempty list"),
        ({("control_points", 1): []}, "each control point must be a nonempty list"),
        ({("control_points", 2): [1, 2, 3]}, "control points must share one dimension"),
        ({("control_points", 1, 0): math.nan, ("control_points", 2): [1]},
         "control point component must be finite, got nan"),
    ])
    def test_rejections_name_the_first_bad_entry(self, tmp_path, edits, message):
        doc = {"degree": 1, "knots": [0, 0, 0.5, 1, 1], "families": [{"kind": "linear"}] * 2,
               "control_points": [[0, 0], [1, 2], [2, -1]]}
        for keys, value in edits.items():
            target = doc
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CurveFileError) as info:
            load_curve(path)
        assert type(info.value) is CurveFileError and str(info.value) == message

    @pytest.mark.parametrize("knots", [[0] * 5 + [0.2, 0.4, 0.6, 0.8] + [1] * 4,
                                       [0] * 4 + [0.2, 0.4, 0.6, 0.8] + [1] * 5])
    def test_an_end_knot_past_degree_plus_one_copies_is_a_file_error(self, tmp_path, knots):
        doc = {"degree": 3, "knots": knots, "families": [{"kind": "linear"}] * 5,
               "control_points": [[float(i)] for i in range(len(knots) - 4)]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CurveFileError, match=r"^knot [01]\.0 has multiplicity 5 > 4$"):
            load_curve(path)


class TestCommands:
    def test_eval_writes_samples(self, tmp_path):
        src = tmp_path / "c.json"
        write_demo_curve(src)
        out = tmp_path / "samples.csv"
        assert main(["eval", "--curve", str(src), "--samples", "100",
                     "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["t", "f0", "f1"]
        assert data.shape == (101, 3)
        assert data[0, 0] == 0.0 and data[-1, 0] == 1.0

    def test_eval_zero_samples_single_row(self, tmp_path):
        src = tmp_path / "c.json"
        write_demo_curve(src)
        out = tmp_path / "one.csv"
        assert main(["eval", "--curve", str(src), "--samples", "0",
                     "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert data.shape == (1, 3)
        assert data[0, 0] == 0.0

    def test_insert_grows_knots_and_control_points(self, tmp_path):
        src = tmp_path / "c.json"
        write_demo_curve(src)
        out = tmp_path / "refined.json"
        assert main(["insert", "--curve", str(src), "--at", "0.25",
                     "--at", "0.75", "--out", str(out)]) == 0
        kv, fam, cpts = load_curve(out)
        assert kv.m == 13
        assert len(cpts) == 8

    def test_insert_preserves_samples(self, tmp_path):
        src = tmp_path / "c.json"
        write_demo_curve(src, seed=21)
        refined = tmp_path / "refined.json"
        main(["insert", "--curve", str(src), "--at", "0.25", "--out", str(refined)])
        csv0, csv1 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["eval", "--curve", str(src), "--samples", "200", "--out", str(csv0)])
        main(["eval", "--curve", str(refined), "--samples", "200", "--out", str(csv1)])
        _, d0 = read_csv(csv0)
        _, d1 = read_csv(csv1)
        assert np.max(np.abs(d0 - d1)) <= 1e-8

    def test_elevate_preserves_samples(self, tmp_path):
        src = tmp_path / "c.json"
        write_demo_curve(src, knots=[0, 0, 0, 0, 1, 1, 1, 1], degree=3, seed=2)
        refined = tmp_path / "up.json"
        assert main(["elevate", "--curve", str(src), "--by", "1",
                     "--out", str(refined)]) == 0
        csv0, csv1 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["eval", "--curve", str(src), "--samples", "200", "--out", str(csv0)])
        main(["eval", "--curve", str(refined), "--samples", "200", "--out", str(csv1)])
        _, d0 = read_csv(csv0)
        _, d1 = read_csv(csv1)
        assert np.max(np.abs(d0 - d1)) <= 1e-8

    def test_greville_prints_abscissae(self, tmp_path, capsys):
        src = tmp_path / "c.json"
        write_demo_curve(src, knots=[0, 0, 0, .5, 1, 1, 1], degree=2, kind="linear")
        assert main(["greville", "--curve", str(src)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        np.testing.assert_allclose([float(x) for x in lines], [0, .25, .75, 1],
                                   atol=1e-10)

    def test_basis_csv_columns(self, tmp_path):
        src = tmp_path / "c.json"
        write_demo_curve(src)
        out = tmp_path / "basis.csv"
        assert main(["basis", "--curve", str(src), "--samples", "50",
                     "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["t"] + [f"N{i}" for i in range(6)]
        np.testing.assert_allclose(data[:, 1:].sum(axis=1), 1.0, atol=1e-9)

    def test_check_passes_on_good_curve(self, tmp_path):
        src = tmp_path / "c.json"
        write_demo_curve(src)
        assert main(["check", "--curve", str(src)]) == 0

    @pytest.mark.parametrize("kind", ["trigonometric", "exponential"])
    def test_check_degree_one_non_linear(self, tmp_path, capsys, kind):
        # the degree-1 space {u, v} holds no constants: partition of unity
        # does not apply, and continuity alone decides
        src = tmp_path / "c.json"
        write_demo_curve(src, knots=[0, 0, .5, 1, 1], degree=1, kind=kind)
        assert main(["check", "--curve", str(src)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "partition of unity: not applicable (degree 1 with non-linear generators)"
        assert lines[1].startswith("breakpoint continuity: max jump ")
        assert lines[2] == "OK"

    def test_check_degree_one_linear_reports_deviation(self, tmp_path, capsys):
        src = tmp_path / "c.json"
        write_demo_curve(src, knots=[0, 0, .5, 1, 1], degree=1, kind="linear")
        assert main(["check", "--curve", str(src)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("partition of unity: max deviation ")
        assert float(lines[0].rsplit(" ", 1)[1]) <= 1e-9
        assert lines[2] == "OK"

    def test_domain_error_exit_code(self, tmp_path, capsys):
        src = tmp_path / "c.json"
        write_demo_curve(src)
        out = tmp_path / "bad.json"
        code = main(["insert", "--curve", str(src), "--at", "1.5",
                     "--out", str(out)])
        assert code == 1
        assert "KnotOutsideActiveRegion" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["insert", "--at", "0.3"], ["elevate", "--by", "1"]])
    def test_refinement_builds_two_bases(self, tmp_path, monkeypatch, args):
        """A 3-D curve is refined in one projection: source and target basis,
        public builds or `refined_spline`'s builds from ladder values."""
        calls = []

        def counting(build):
            return lambda *a, **kw: calls.append(1) or build(*a, **kw)

        for module in (gbspline.cli, gbspline.refine):
            monkeypatch.setattr(module, "build_local_basis", counting(build_local_basis))
        monkeypatch.setattr(gbspline.refine, "_basis_rows", counting(gbspline.refine._basis_rows))
        src = tmp_path / "c.json"
        write_demo_curve(src, dim=3, seed=4)
        assert main([args[0], "--curve", str(src), *args[1:],
                     "--out", str(tmp_path / "r.json")]) == 0
        assert len(calls) == 2

    def test_exponential_overflow_is_a_file_error(self, tmp_path, capsys):
        src = tmp_path / "c.json"
        doc = write_demo_curve(src, kind="exponential")
        doc["families"][1]["omega"] = 2000.0   # omega * h = 1000: sinh overflows
        src.write_text(json.dumps(doc))
        assert main(["eval", "--curve", str(src), "--samples", "4"]) == 2
        err = capsys.readouterr().err
        assert "CurveFileError" in err and "[0.5, 1.0]" in err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        src = tmp_path / "c.json"
        doc = write_demo_curve(src)
        doc["control_points"] = doc["control_points"][:-1]
        src.write_text(json.dumps(doc))
        assert main(["check", "--curve", str(src)]) == 2
        assert "CurveFileError" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["eval", "--curve", str(tmp_path / "nope.json"),
                     "--samples", "5"]) == 2

    def test_env_tolerance_override(self, tmp_path, monkeypatch):
        src = tmp_path / "c.json"
        write_demo_curve(src)
        monkeypatch.setenv("GBS_TOL", "1e-9")
        assert main(["check", "--curve", str(src)]) == 0

    @pytest.mark.parametrize("via_env", [False, True])
    def test_interval_below_caller_tolerance(self, tmp_path, monkeypatch, via_env):
        src = tmp_path / "c.json"
        doc = write_demo_curve(src, knots=[0, 0, 0, 0, 0, .5, .5 + 1e-9, 1, 1, 1, 1, 1],
                               dim=3)
        # one family per interval longer than the tolerance
        doc["families"] = doc["families"][:2]
        src.write_text(json.dumps(doc))
        if via_env:
            monkeypatch.setenv("GBS_TOL", "1e-8")
        tol = [] if via_env else ["--tol", "1e-8"]
        out = str(tmp_path / "r.json")
        assert main(["check", "--curve", str(src), *tol]) == 0
        assert main(["greville", "--curve", str(src), *tol]) == 0
        assert main(["insert", "--curve", str(src), "--at", "0.3", "--out", out, *tol]) == 0
        assert main(["elevate", "--curve", str(src), "--by", "1", "--out", out, *tol]) == 0

    def test_multidimensional_round_trip(self, tmp_path):
        src = tmp_path / "c.json"
        write_demo_curve(src, dim=3, seed=5)
        refined = tmp_path / "r.json"
        assert main(["insert", "--curve", str(src), "--at", "0.4",
                     "--out", str(refined)]) == 0
        _, _, cpts = load_curve(refined)
        assert cpts.shape == (7, 3)


class TestSampledOutputs:
    """`eval`, `basis` and `check` sample through one batch call each; their
    output is byte for byte what per-sample scalar library calls give."""

    CURVES = {
        "trig-2d": dict(),
        "exp-3d-double-knot": dict(knots=[0] * 4 + [.3, .5, .5, .8] + [1] * 4, degree=3,
                                   dim=3, kind="exponential", seed=1),
        "linear-1d-short-interval": dict(knots=[0] * 3 + [.4, .4 + 1e-11, .7] + [1] * 3,
                                         degree=2, dim=1, kind="linear", seed=2),
    }

    @staticmethod
    def csv(header, rows):
        return "\n".join([",".join(header)] + [",".join(repr(float(x)) for x in row)
                                               for row in rows]) + "\n"

    @pytest.fixture(params=list(CURVES))
    def curve_file(self, request, tmp_path):
        src = tmp_path / "c.json"
        doc = write_demo_curve(src, **self.CURVES[request.param])
        knots = doc["knots"]
        # one family per interval longer than the default tolerance
        doc["families"] = doc["families"][:sum(b - a > 1e-10 for a, b in zip(knots, knots[1:]))]
        src.write_text(json.dumps(doc))
        kv, fam, cpts = load_curve(src)
        return src, kv, fam, cpts, build_local_basis(kv, fam)

    def test_eval(self, curve_file, tmp_path):
        src, kv, fam, cpts, basis = curve_file
        curve = SplineCurve(kv=kv, fam=fam, cpts=cpts)
        ts = np.linspace(0.0, 1.0, 301)
        want = self.csv(["t"] + [f"f{k}" for k in range(cpts.shape[1])],
                        [[t, *eval_curve(curve, basis, float(t))] for t in ts])
        out = tmp_path / "e.csv"
        assert main(["eval", "--curve", str(src), "--samples", "300", "--out", str(out)]) == 0
        assert out.read_text() == want

    def test_basis(self, curve_file, tmp_path):
        src, kv, fam, cpts, basis = curve_file
        ts = np.linspace(0.0, 1.0, 61)
        want = self.csv(["t"] + [f"N{i}" for i in range(kv.n_basis)],
                        [[t] + [eval_basis_function(basis, i, float(t))
                                for i in range(kv.n_basis)] for t in ts])
        out = tmp_path / "b.csv"
        assert main(["basis", "--curve", str(src), "--samples", "60", "--out", str(out)]) == 0
        assert out.read_text() == want

    def test_check(self, curve_file, capsys):
        src, kv, fam, cpts, basis = curve_file
        pu = max(abs(float(nonzero_basis_values(basis, float(t))[1].sum()) - 1.0)
                 for t in np.linspace(0.0, 1.0, 501))
        piece, br, jump = form_piecewise(cpts, basis), kv.active_region(), 0.0
        for j in range(1, len(br) - 1):
            if br[j] - br[j - 1] > 1e-10 and br[j + 1] - br[j] > 1e-10:
                x = float(br[j])
                diff = piece.value(x) - piece.value(np.nextafter(x, -np.inf))
                jump = max(jump, float(np.max(np.abs(diff))))
        want = (f"partition of unity: max deviation {pu:.3e}\n"
                f"breakpoint continuity: max jump {jump:.3e}\nOK\n")
        assert main(["check", "--curve", str(src)]) == 0
        assert capsys.readouterr().out == want


def test_successive_calls_share_no_state(tmp_path, monkeypatch, capsys):
    """main() parses with one parser per process; each call starts from the
    defaults."""
    tols = []

    def recording(kv, fam, tol):
        tols.append(tol)
        return build_local_basis(kv, fam, tol)

    monkeypatch.setattr(gbspline.cli, "build_local_basis", recording)
    src = tmp_path / "c.json"
    write_demo_curve(src)
    assert main(["check", "--curve", str(src), "--tol", "1e-8"]) == 0
    assert main(["eval", "--curve", str(src), "--samples", "3"]) == 0
    assert main(["greville", "--curve", str(src), "--tol", "1e-9", "--coef-tol", "1e-3"]) == 0
    assert main(["basis", "--curve", str(src), "--samples", "3",
                 "--out", str(tmp_path / "b.csv")]) == 0
    assert tols == [1e-8, 1e-10, 1e-9, 1e-10]
    for at in ("0.25", "0.75"):
        out = tmp_path / f"r{at}.json"
        assert main(["insert", "--curve", str(src), "--at", at, "--out", str(out)]) == 0
        kv, _, _ = load_curve(out)
        assert kv.knots[5:7].tolist() == sorted([float(at), 0.5])


class TestTolerances:
    @pytest.mark.parametrize("args, env, named", [
        (["--coef-tol", "nan"], None, "--coef-tol"),
        (["--coef-tol", "-1"], None, "--coef-tol"),
        (["--tol", "nan"], None, "--tol"),
        (["--tol", "inf"], None, "--tol"),
        (["--tol", "-1"], None, "--tol"),
        (["--tol", "0"], None, "--tol"),
        ([], "nan", "GBS_TOL"),
        ([], "-1e-9", "GBS_TOL"),
    ])
    def test_rejected_with_the_name(self, tmp_path, monkeypatch, capsys, args, env, named):
        src = tmp_path / "c.json"
        write_demo_curve(src)
        if env is not None:
            monkeypatch.setenv("GBS_TOL", env)
        assert main(["check", "--curve", str(src), *args]) == 2
        assert f"{named} must be finite and positive" in capsys.readouterr().err

    def test_nan_coefficient_tolerance_writes_nothing(self, tmp_path):
        """nan made every agreement test false, so an insertion that fails its
        Taylor check used to write a curve off by 7.3e-6."""
        p, n = 5, 64
        knots = [0.0] * p + np.linspace(0, 1, n + 1).tolist() + [1.0] * p
        cpts = np.random.default_rng(0).uniform(-1, 1, (n + p, 1))
        src, out = tmp_path / "c.json", tmp_path / "r.json"
        save_curve(src, validate_open_knot_vector(knots, p),
                   build_family(knots, omega=math.pi / 2), cpts)
        assert main(["insert", "--curve", str(src), "--at", "0.010703125",
                     "--coef-tol", "nan", "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("knots", [[0.0] * 8, [0.0] * 4 + [1e-12] * 4])
@pytest.mark.parametrize("command", [["eval", "--samples", "4"], ["check"],
                                     ["basis", "--samples", "4", "--out", "b.csv"]])
def test_knots_without_a_positive_interval(tmp_path, capsys, knots, command):
    src = tmp_path / "c.json"
    src.write_text(json.dumps({"degree": 3, "knots": knots, "families": [],
                               "control_points": [[0.0]] * 4}))
    args = [str(tmp_path / a) if a.endswith(".csv") else a for a in command]
    assert main([args[0], "--curve", str(src), *args[1:]]) == 2
    assert "CurveFileError" in capsys.readouterr().err
