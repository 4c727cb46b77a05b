import filecmp
import json
import os
import math
import subprocess
import sys
import time

import pytest

from speclab import covers, poly
from speclab.cli import run, run_manifest


def out_json(tmp_path, name, argv):
    path = tmp_path / name
    code = run(argv + ["--out", str(path)])
    return code, json.loads(path.read_text())


class TestExamples:
    def test_specialize_quadratic(self, tmp_path, capsys):
        code, data = out_json(
            tmp_path, "s.json", ["specialize", "--cover", "T^2 - 2", "--t0", "7"]
        )
        assert code == 0
        rep = data["results"]["report"]
        assert rep["m"] == 47 and rep["disc_field"] == 188
        assert "specialize: ok" in capsys.readouterr().out

    def test_specialize_cubic(self, tmp_path):
        code, data = out_json(
            tmp_path, "c.json", ["specialize", "--cubic", "0;T;T", "--t0", "1"]
        )
        assert code == 0
        rep = data["results"]["report"]
        assert rep["group"] == "S3" and rep["d_K"] == -31

    def test_exponent_table(self, tmp_path):
        code, data = out_json(
            tmp_path,
            "e.json",
            ["exponent", "--order", "2", "--indices", "2,2,2,2,2,2"],
        )
        assert code == 0
        r = data["results"]
        assert r["e"] == 1 and r["alpha"] == 1 and r["genus"] == 2
        assert r["eq1"]["holds"] and not r["eq2"]["holds"]

    def test_certify(self, tmp_path):
        code, data = out_json(
            tmp_path, "cert.json", ["certify", "--poly", "T^4 + 1", "--d", "3"]
        )
        assert code == 0
        cert = data["results"]["certificate"]
        assert cert["p"] == 3 and cert["v_p_d"] == 1

    def test_local(self, tmp_path):
        code, data = out_json(
            tmp_path,
            "l.json",
            ["local", "--poly", "T^2 + 1", "--d", "-1", "--place", "infinity"],
        )
        assert code == 0
        assert data["results"]["status"] == "insoluble"

    def test_local_place_oo_is_infinity(self, tmp_path):
        statuses = []
        for place in ("oo", "infinity"):
            code, data = out_json(
                tmp_path,
                f"l_{place}.json",
                ["local", "--poly", "T^2 + 1", "--d", "-1", "--place", place],
            )
            assert code == 0
            statuses.append(data["results"]["status"])
        assert statuses == ["insoluble", "insoluble"]

    def test_local_past_the_factoring_cap(self, tmp_path, monkeypatch):
        # named for the degree cap factor_over_Q once had: P of degree 26 with
        # real roots, and the curve is built without factorising P
        calls = []
        for module in (poly, covers):
            monkeypatch.setattr(module, "factor_over_Q", calls.append)
        code, data = out_json(
            tmp_path,
            "l26.json",
            ["local", "--poly", "T^26-2", "--d", "3", "--place", "3"],
        )
        assert code == 0
        assert data["results"]["status"] == "insoluble"
        assert calls == []

    def test_beckmann(self, tmp_path):
        code, data = out_json(
            tmp_path, "b.json", ["beckmann", "--cover", "T^2 - 2", "--t0", "3"]
        )
        assert code == 0
        entries = data["results"]["entries"]
        assert any(e["p"] == 7 and e["inertia_order"] == 2 for e in entries)

    def test_census_counts(self, tmp_path):
        code, data = out_json(
            tmp_path, "n.json", ["census", "--n", "2", "--N", "2", "--H", "2"]
        )
        assert code == 0
        assert data["results"]["counts"]["P"] == 92

    def test_census_fields(self, tmp_path):
        code, data = out_json(tmp_path, "f.json", ["census", "--x", "10"])
        assert code == 0
        assert data["results"]["discriminants"] == [-3, -4, 5, -7, -8, 8]

    def test_s3_survey(self, tmp_path):
        code, data = out_json(
            tmp_path,
            "sv.json",
            ["s3-survey", "--D", "0", "--H", "2", "--samples", "500", "--seed", "3"],
        )
        assert code == 0
        assert data["results"]["survey"]["exhaustive"] is True

    def test_twist_scan(self, tmp_path):
        code, data = out_json(
            tmp_path,
            "tw.json",
            [
                "twist-scan",
                "--cover",
                "T^8 + 3*T^6 + 4*T^4 + 6*T^2 + 4",
                "--t0",
                "1",
                "--bound",
                "400",
            ],
        )
        assert code == 0
        rows = data["results"]["admissible"]
        assert rows[0]["p"] == 193 and rows[0]["d"] == 386


class TestExitCodes:
    def test_bad_poly_is_error(self, capsys):
        assert run(["specialize", "--cover", "T^2 -", "--t0", "1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknowns_exit_2(self, tmp_path, capsys):
        # tiny height starves the point search, leaving unknown twists
        code = run(
            [
                "lgratio",
                "--cover",
                "T^4 + 2*T^2 + 2",
                "--grid",
                "30",
                "--height",
                "2",
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        assert "unknowns present" in capsys.readouterr().out

    @pytest.mark.parametrize("cmd", ["specialize", "beckmann"])
    def test_zero_denominator_is_error(self, capsys, cmd):
        assert run([cmd, "--cover", "T^2-2", "--t0", "1/0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "denominator 0" in err

    def test_missing_subcommand(self):
        assert run([]) == 1

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_empty_survey_is_error(self, capsys, samples):
        assert run(["s3-survey", "--D", "1", "--H", "2", "--samples", samples]) == 1
        assert capsys.readouterr().err.startswith("error: need sample_size >= 1")

    def test_fit_grid_checked_before_search(self, monkeypatch, capsys):
        def searched(*args, **kwargs):
            raise AssertionError("searched before checking the grid")

        monkeypatch.setattr("speclab.cli.twist_density_series", searched)
        argv = ["density", "--cover", "T^6-T-1", "--grid", "10,100,1000", "--schedule", "4", "--fit"]
        assert run(argv) == 1
        assert "need at least 4 grid points" in capsys.readouterr().err


    def test_bad_place_is_named(self, capsys):
        argv = ["local", "--poly", "T^2 + 1", "--d", "-1", "--place", "abc"]
        assert run(argv) == 1
        assert "place must be 'infinity' or a prime" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["hasse-scan", "lgratio"])
    def test_zero_height_is_error(self, capsys, cmd):
        grid = ["--x", "10"] if cmd == "hasse-scan" else ["--grid", "10"]
        assert run([cmd, "--cover", "T^4+1", *grid, "--height", "0"]) == 1
        assert capsys.readouterr().err == "error: need H >= 1\n"

    def test_empty_schedule_is_named(self, capsys):
        argv = ["density", "--cover", "T^6-T-1", "--grid", "100,200", "--schedule", ","]
        assert run(argv) == 1
        assert "schedule" in capsys.readouterr().err


class TestManifest:
    def test_replay_is_byte_identical(self, tmp_path, capsys):
        args = [
            "density",
            "--cover",
            "T^3 - 2",
            "--grid",
            "20,40",
            "--out",
            str(tmp_path / "a.json"),
            "--csv",
            str(tmp_path / "a.csv"),
            "--manifest",
            str(tmp_path / "m.json"),
        ]
        assert run(args) in (0, 2)
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["subcommand"] == "density"
        assert "timestamp" in manifest
        # redirect outputs and replay from the manifest
        manifest["parameters"]["out"] = str(tmp_path / "b.json")
        manifest["parameters"]["csv"] = str(tmp_path / "b.csv")
        (tmp_path / "m2.json").write_text(json.dumps(manifest))
        assert run_manifest(str(tmp_path / "m2.json")) in (0, 2)
        assert filecmp.cmp(tmp_path / "a.json", tmp_path / "b.json", shallow=False)
        assert filecmp.cmp(tmp_path / "a.csv", tmp_path / "b.csv", shallow=False)
        assert "timestamp" not in (tmp_path / "a.json").read_text()

    @staticmethod
    def _run_and_replay(tmp_path, argv):
        """Run argv with a manifest, replay the manifest into a second file,
        and return the exit code, the results and whether the replay's
        output is byte-identical."""
        code = run(argv + ["--out", str(tmp_path / "a.json"), "--manifest", str(tmp_path / "m.json")])
        manifest = json.loads((tmp_path / "m.json").read_text())
        manifest["parameters"]["out"] = str(tmp_path / "b.json")
        (tmp_path / "m2.json").write_text(json.dumps(manifest))
        replayed = run_manifest(str(tmp_path / "m2.json"))
        same = filecmp.cmp(tmp_path / "a.json", tmp_path / "b.json", shallow=False)
        results = json.loads((tmp_path / "a.json").read_text())["results"]
        return code, replayed, results, same

    def test_local_every_place(self, tmp_path):
        argv = ["local", "--n", "2", "--poly", "T^4+1", "--d", "3"]
        code, replayed, results, same = self._run_and_replay(tmp_path, argv)
        assert code == replayed == 0 and same
        assert results == {"status": "insoluble", "places": {"2": "insoluble", "infinity": "soluble"}}

    def test_hasse_scan(self, tmp_path):
        argv = ["hasse-scan", "--cover", "T^8 + 3*T^6 + 4*T^4 + 6*T^2 + 4", "--x", "10", "--height", "20"]
        code, replayed, results, same = self._run_and_replay(tmp_path, argv)
        assert code == replayed == 0 and same
        res = results["result"]
        assert (res["locally_obstructed"], res["soluble_with_points"]) == (12, 1)
        assert res["candidates"] == [] and res["unknown"] == []

    def test_specialize_at_infinity(self, tmp_path):
        # deg P even: the fiber above t0 = oo is Q(sqrt lc) = Q, and the
        # point is written as its dataclass fields
        argv = ["specialize", "--cover", "T^4+1", "--t0", "oo"]
        code, replayed, results, same = self._run_and_replay(tmp_path, argv)
        assert code == replayed == 0 and same
        rep = results["report"]
        assert (rep["group"], rep["m"], rep["t0"]) == ("C1", 1, {"u": 1, "v": 0})

    def test_density_fit_replay(self, tmp_path):
        # the manifest records the boolean --fit, and the replay passes it on
        argv = ["density", "--cover", "T^2 - 2", "--grid", "20,40,80,160", "--fit"]
        code, replayed, results, same = self._run_and_replay(tmp_path, argv)
        assert code == replayed == 0 and same
        assert json.loads((tmp_path / "m.json").read_text())["parameters"]["fit"] is True
        assert results["series"]["unknown"] == [0, 0, 0, 0]
        assert results["fit"]["alpha"] == pytest.approx(0.4985, abs=1e-4)

    def test_exponent_beta(self, tmp_path):
        argv = ["exponent", "--order", "6", "--indices", "2,3,3,3,3,3,3", "--q", "3"]
        code, replayed, results, same = self._run_and_replay(tmp_path, argv)
        assert code == replayed == 0 and same
        assert results["beta"] == "1/4" and results["e"] == "2/9"

    def test_csv_header(self, tmp_path):
        run(
            [
                "density",
                "--cover",
                "T^3 - 2",
                "--grid",
                "20",
                "--csv",
                str(tmp_path / "s.csv"),
                "--out",
                str(tmp_path / "s.json"),
            ]
        )
        head = (tmp_path / "s.csv").read_text().splitlines()[0]
        assert head == "x,ratio_lower,ratio_upper,unknowns"


def test_stdout_json_when_no_out(capsys):
    code = run(["exponent", "--order", "2", "--indices", "2,2,2,2,2,2"])
    assert code == 0
    out = capsys.readouterr().out
    body = out[out.index("{") :]
    assert json.loads(body)["command"] == "exponent"


def test_readme_density_example(capsys):
    # the density example of README.md, run as written (default heights)
    t = time.monotonic()
    code = run(["density", "--cover", "T^6-T-1", "--grid", "100,1000,3000,10000", "--fit"])
    elapsed = time.monotonic() - t
    assert code in (0, 2)
    out = capsys.readouterr().out
    fit = json.loads(out[out.index("{") :])["results"]["fit"]
    assert math.isfinite(fit["alpha"]) and math.isfinite(fit["residual"])
    print(f"README density example (alpha {fit['alpha']:.3f}): PASS ({elapsed:.1f}s)")
    assert elapsed < 30


def test_python_m_runs_the_command():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "speclab.cli", "specialize", "--cover", "T^2-2", "--t0", "7"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "specialize: ok"
