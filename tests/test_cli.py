import json
import subprocess
import sys

import pytest

EXAMPLE_SPEC = {
    "latent": {"kind": "inar1", "lambda": 1.62, "alpha": 0.52},
    "reporting": {"q": 0.33, "omega": 1.0},
}
IMAGE_SPEC = {
    "latent": {
        "kind": "geom_inf",
        "lambda": 0.820441988950,
        "beta": 0.1716,
        "gamma": 0.3484,
    },
    "reporting": {"q": 1.0, "omega": 1.0},
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "inarq", *args],
        capture_output=True,
        text=True,
    )


def write_spec(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestSimulate:
    def test_writes_csv_and_summary(self, tmp_path):
        spec = write_spec(tmp_path, EXAMPLE_SPEC)
        out = tmp_path / "series.csv"
        res = run_cli("simulate", spec, "--t", "2000", "--seed", "7", "--out", str(out))
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "t,count"
        assert len(lines) == 2001
        summary = json.loads(res.stdout)
        assert set(summary) >= {"mean", "variance", "acf_1"}
        assert summary["mean"] > 0

    def test_observed_mean_near_target(self, tmp_path):
        spec = write_spec(tmp_path, EXAMPLE_SPEC)
        out = tmp_path / "series.csv"
        res = run_cli("simulate", spec, "--t", "200000", "--seed", "7", "--out", str(out))
        summary = json.loads(res.stdout)
        # observed stationary mean 0.33 * 1.62 / 0.48; generous 3-sigma margin
        assert abs(summary["mean"] - 1.11375) < 0.025

    def test_identity_reporting_matches_latent(self, tmp_path):
        full = dict(EXAMPLE_SPEC, reporting={"q": 1.0, "omega": 0.0})
        bare = {"latent": EXAMPLE_SPEC["latent"]}
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("simulate", write_spec(tmp_path, full, "f.json"),
                "--t", "500", "--seed", "3", "--out", str(out1))
        run_cli("simulate", write_spec(tmp_path, bare, "b.json"),
                "--t", "500", "--seed", "3", "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_length_is_input_error(self, tmp_path):
        spec = write_spec(tmp_path, EXAMPLE_SPEC)
        res = run_cli("simulate", spec, "--t", "0", "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 2
        assert "length" in res.stderr

    def test_malformed_json_is_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        res = run_cli("simulate", str(path), "--t", "10", "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 2
        assert "JSON" in res.stderr
        # an integer too large for a float, bytes that are not UTF-8, nesting too deep
        for doc in (
            b'{"latent": {"kind": "inar1", "lambda": 1' + b"0" * 400 + b', "alpha": 0.5}}',
            b'{"latent": {"kind": "inar1", "lambda": 1.0, "alpha": 0.5, "x": "\xe9"}}',
            b"[" * 100_000 + b"]" * 100_000,
        ):
            path.write_bytes(doc)
            res = run_cli("simulate", str(path), "--t", "10", "--out", str(tmp_path / "x.csv"))
            assert res.returncode == 2, res.stderr[-300:]
            assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1

    def test_invariant_violation_names_parameter(self, tmp_path):
        bad = {"latent": {"kind": "inar1", "lambda": 1.0, "alpha": 1.2}}
        res = run_cli("simulate", write_spec(tmp_path, bad), "--t", "10",
                      "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 2
        assert "survival probability" in res.stderr

    def test_unsampleable_rate_is_input_error(self, tmp_path):
        bad = {"latent": {"kind": "inar1", "lambda": 1e300, "alpha": 0.5}}
        res = run_cli("simulate", write_spec(tmp_path, bad), "--t", "10",
                      "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 2
        assert res.stderr.startswith("error:")
        assert "immigration rate" in res.stderr
        assert "Traceback" not in res.stderr

    def test_mixed_fields_rejected(self, tmp_path):
        bad = {"latent": {"kind": "inar1", "lambda": 1.0, "alpha": 0.3, "gamma": 0.1}}
        res = run_cli("simulate", write_spec(tmp_path, bad), "--t", "10",
                      "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 2


class TestTransform:
    def test_to_fully_observed(self, tmp_path):
        spec = write_spec(tmp_path, EXAMPLE_SPEC)
        res = run_cli("transform", spec, "--to", "inf")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert round(doc["lambda"], 6) == 0.820442
        assert doc["beta"] == 0.1716
        assert doc["gamma"] == 0.3484

    def test_echo_at_current_probability(self, tmp_path):
        spec = write_spec(tmp_path, EXAMPLE_SPEC)
        res = run_cli("transform", spec, "--to", "q=0.33")
        doc = json.loads(res.stdout)
        assert doc["reporting"]["q"] == 0.33
        assert round(doc["latent"]["lambda"], 9) == 1.62
        assert round(doc["latent"]["beta"], 9) == 0.52
        assert round(doc["latent"]["gamma"], 9) == 0.0

    def test_out_of_range_exits_3_with_interval(self, tmp_path):
        spec = write_spec(tmp_path, EXAMPLE_SPEC)
        res = run_cli("transform", spec, "--to", "q=0.2")
        assert res.returncode == 3
        doc = json.loads(res.stderr)
        assert doc["admissible_interval"] == [0.33, 1.0]

    def test_round_trip_through_canonical(self, tmp_path):
        spec = write_spec(tmp_path, EXAMPLE_SPEC)
        inf_doc = run_cli("transform", spec, "--to", "inf").stdout
        inf_path = tmp_path / "inf.json"
        inf_path.write_text(inf_doc, encoding="utf-8")
        res = run_cli("transform", str(inf_path), "--to", "canonical")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["lambda"] == 1.62
        assert doc["alpha"] == 0.52
        assert doc["q"] == 0.33

    def test_infinite_rate_is_input_error(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text(
            '{"latent": {"kind": "inar1", "lambda": Infinity, "alpha": 0.5}}', encoding="utf-8"
        )
        res = run_cli("transform", str(path), "--to", "inf")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error:")
        assert "finite" in res.stderr
        assert "Traceback" not in res.stderr

    def test_overflowing_canonical_rate_is_input_error(self, tmp_path):
        # Valid finite inputs whose canonical rate lambda*(beta+gamma)*(1-gamma)/beta overflows.
        doc = {"latent": {"kind": "geom_inf", "lambda": 9e18, "beta": 1e-300, "gamma": 0.5}}
        res = run_cli("transform", write_spec(tmp_path, doc), "--to", "canonical")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error:")
        assert "finite" in res.stderr
        assert "Traceback" not in res.stderr

    def test_heterogeneous_reporting_rejected(self, tmp_path):
        spec = write_spec(tmp_path, dict(EXAMPLE_SPEC, reporting={"q": 0.33, "omega": 0.9}))
        res = run_cli("transform", spec, "--to", "inf")
        assert res.returncode == 2
        assert "omega" in res.stderr


class TestExpand:
    def test_worked_example_rows(self, tmp_path):
        spec = write_spec(tmp_path, IMAGE_SPEC)
        res = run_cli("expand", spec, "--cutoff", "0.005")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "i,alpha_i"
        weights = [round(float(line.split(",")[1]), 2) for line in lines[1:]]
        assert weights == [0.17, 0.06, 0.02, 0.01]

    def test_first_order_spec_gives_one_row(self, tmp_path):
        spec = write_spec(tmp_path, EXAMPLE_SPEC)
        res = run_cli("expand", spec, "--cutoff", "0.005")
        assert len(res.stdout.splitlines()) == 2

    def test_non_terminating_cutoff_rejected(self, tmp_path):
        spec = write_spec(tmp_path, IMAGE_SPEC)
        res = run_cli("expand", spec, "--cutoff", "0")
        assert res.returncode == 2

    def test_oversized_expansion_is_input_error(self, tmp_path):
        # About 6.7e9 weights stay above this cutoff; the count is taken before
        # any is listed, so the command fails at once without allocating them.
        spec = write_spec(tmp_path, {"lambda": 1, "beta": 5e-8, "gamma": 0.9999999})
        res = run_cli("expand", spec, "--cutoff", "1e-300")
        assert res.returncode == 2
        assert res.stderr.startswith("error:") and "lag weights" in res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""


class TestCurve:
    def test_grid_rows_and_endpoints(self, tmp_path):
        spec = write_spec(tmp_path, EXAMPLE_SPEC)
        out = tmp_path / "curve.csv"
        res = run_cli("curve", spec, "--grid", "68", "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "q_Y,lambda_Y,beta_Y,gamma_Y"
        assert len(lines) == 69
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        assert first == [0.33, 1.62, 0.52, 0.0]
        assert last[0] == 1.0
        assert [round(v, 4) for v in last[1:]] == [0.8204, 0.1716, 0.3484]

    def test_grid_too_small_rejected(self, tmp_path):
        spec = write_spec(tmp_path, EXAMPLE_SPEC)
        res = run_cli("curve", spec, "--grid", "1", "--out", str(tmp_path / "c.csv"))
        assert res.returncode == 2

    def test_grid_too_large_rejected_before_allocating(self, tmp_path):
        spec = write_spec(tmp_path, EXAMPLE_SPEC)
        res = run_cli("curve", spec, "--grid", "100000000000", "--out", str(tmp_path / "c.csv"))
        assert res.returncode == 2
        assert res.stderr.startswith("error:") and "grid size" in res.stderr
        assert not (tmp_path / "c.csv").exists()


class TestCheck:
    def test_equivalent_specs_pass(self, tmp_path):
        a = write_spec(tmp_path, EXAMPLE_SPEC, "a.json")
        b = write_spec(tmp_path, IMAGE_SPEC, "b.json")
        res = run_cli("check", a, b, "--t", "50000", "--reps", "1", "--seed", "5")
        assert res.returncode == 0, res.stdout
        doc = json.loads(res.stdout)
        assert doc["verdict"] == "pass"

    def test_perturbed_rate_fails(self, tmp_path):
        a = write_spec(tmp_path, EXAMPLE_SPEC, "a.json")
        bumped = {
            "latent": {"kind": "inar1", "lambda": 1.62 * 1.1, "alpha": 0.52},
            "reporting": {"q": 0.33},
        }
        b = write_spec(tmp_path, bumped, "b.json")
        res = run_cli("check", a, b, "--t", "10000", "--reps", "1", "--seed", "5")
        assert res.returncode == 1
        assert json.loads(res.stdout)["verdict"] == "fail"


class TestAppendix:
    def test_writes_trace_and_passing_report(self, tmp_path):
        spec = write_spec(tmp_path, EXAMPLE_SPEC)
        out = tmp_path / "trace.csv"
        res = run_cli("appendix", spec, "--t", "20000", "--seed", "11", "--out", str(out))
        assert res.returncode == 0, res.stdout
        doc = json.loads(res.stdout)
        assert doc["all_passed"] is True
        assert len(doc["checks"]) == 5
        assert out.read_text().splitlines()[0] == "t,x,x_tilde,u_total,v_total"
        long_lines = (tmp_path / "trace_long.csv").read_text().splitlines()
        assert long_lines[0] == "t,i,kind,count"

    def test_heterogeneous_reporting_rejected(self, tmp_path):
        spec = write_spec(tmp_path, dict(EXAMPLE_SPEC, reporting={"q": 0.33, "omega": 0.5}))
        res = run_cli("appendix", spec, "--t", "100", "--out", str(tmp_path / "t.csv"))
        assert res.returncode == 2

    def test_undefined_z_fails_with_strict_json(self, tmp_path):
        # Nobody is ever observed, so the first-observation checks have a zero
        # standard error and an estimate off their target: z is undefined.
        doc = {"latent": {"kind": "inar1", "lambda": 1e-9, "alpha": 0.5},
               "reporting": {"q": 0.5}}
        spec = write_spec(tmp_path, doc)
        res = run_cli("appendix", spec, "--t", "1000", "--seed", "1",
                      "--out", str(tmp_path / "tr.csv"))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr

        def reject(name):
            raise ValueError(f"non-strict JSON constant {name}")

        doc = json.loads(res.stdout, parse_constant=reject)
        checks = {c["name"]: c for c in doc["checks"]}
        assert checks["first_obs_mean"]["z"] is None
        assert not checks["first_obs_mean"]["passed"]
        assert checks["first_obs_rates"]["z"] is None
        assert not checks["first_obs_rates"]["passed"]

    def test_requires_first_order_latent(self, tmp_path):
        spec = write_spec(tmp_path, IMAGE_SPEC)
        res = run_cli("appendix", spec, "--t", "100", "--out", str(tmp_path / "t.csv"))
        assert res.returncode == 2


class TestImports:
    def test_cli_import_loads_no_scipy(self):
        code = (
            "import sys, inarq.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"


class TestDeterminism:
    def test_simulate_reproduces_bytes(self, tmp_path):
        spec = write_spec(tmp_path, EXAMPLE_SPEC)
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            res = run_cli("simulate", spec, "--t", "3000", "--seed", "13", "--out", str(out))
            outs.append((res.stdout, out.read_bytes()))
        assert outs[0] == outs[1]

    def test_appendix_reproduces_bytes(self, tmp_path):
        spec = write_spec(tmp_path, EXAMPLE_SPEC)
        outs = []
        for name in ("t1.csv", "t2.csv"):
            out = tmp_path / name
            res = run_cli("appendix", spec, "--t", "3000", "--seed", "13", "--out", str(out))
            outs.append((res.stdout, out.read_bytes()))
        assert outs[0] == outs[1]
