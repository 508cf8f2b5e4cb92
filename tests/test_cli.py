import json
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from inarq import (
    GeomInarSpec,
    Inar1Spec,
    InarError,
    ReportingSpec,
    UnderreportedModel,
    canonicalize,
    cli,
    joint_pmf_oracle,
    shift_reporting,
)
from inarq.processes import _MAX_STEPS, _binomial_table

README = Path(__file__).resolve().parents[1] / "README.md"

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


def reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


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

    @pytest.mark.parametrize("doc, key, where", [
        # q inside the latent object would otherwise load as fully observed.
        ({"latent": {"kind": "inar1", "lambda": 1.62, "alpha": 0.52, "q": 0.33}},
         "q", "'latent' of kind 'inar1'"),
        ({"latent": EXAMPLE_SPEC["latent"], "reporting": {"q": 0.33, "omgea": 0.5}},
         "omgea", "'reporting'"),
        ({"latent": EXAMPLE_SPEC["latent"], "reportng": {"q": 0.33}},
         "reportng", "the model spec"),
    ], ids=["q_in_latent", "misspelt_omega", "misspelt_reporting"])
    def test_unknown_key_is_input_error(self, tmp_path, capsys, doc, key, where):
        assert cli.main(["transform", write_spec(tmp_path, doc), "--to", "canonical"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {where} has unknown key {key!r}"), err


class TestReadme:
    def test_simulate_example_line(self, tmp_path):
        text = README.read_text(encoding="utf-8")
        made_with = re.search(r"was made with numpy (\S+?);", text).group(1)
        if np.__version__ != made_with:
            pytest.skip(f"the README example was made with numpy {made_with}, "
                        f"this is numpy {np.__version__}")
        spec = re.search(r"## Model spec files.*?```json\n(.*?)```", text, re.S).group(1)
        command, printed = re.search(r"\ninarq (simulate .*)\n# (.*)\n", text).groups()
        (tmp_path / "model.json").write_text(spec, encoding="utf-8")
        res = subprocess.run([sys.executable, "-m", "inarq", *command.split()],
                             capture_output=True, text=True, cwd=tmp_path)
        assert res.returncode == 0, res.stderr[-300:]
        assert res.stdout == printed + "\n"


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

    @pytest.mark.parametrize("target", ["q=nan", "q=inf"])
    def test_non_finite_target_is_input_error(self, tmp_path, capsys, target):
        assert cli.main(["transform", write_spec(tmp_path, EXAMPLE_SPEC), "--to", target]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: target reporting probability must be finite"), err

    def test_iid_class_with_decay_canonicalizes(self, tmp_path):
        spec = write_spec(tmp_path, {"lambda": 2.0, "beta": 0.0, "gamma": 0.5})
        res = run_cli("transform", spec, "--to", "canonical")
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == {"lambda": 2.0, "alpha": 0.0, "q": 1.0}

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

    def test_first_row_is_exactly_canonical(self, tmp_path):
        # the shift formula, evaluated at the lower end, rounds gamma to 1.8e-17 here
        doc = {"latent": {"kind": "inar1", "lambda": 18.49, "alpha": 0.16},
               "reporting": {"q": 0.81}}
        out = tmp_path / "curve.csv"
        res = run_cli("curve", write_spec(tmp_path, doc), "--grid", "68", "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert out.read_text().splitlines()[1] == "0.81,18.49,0.16,0"

    def test_iid_class_rejected(self, tmp_path):
        spec = write_spec(tmp_path, {"lambda": 2.0, "beta": 0.0, "gamma": 0.5})
        res = run_cli("curve", spec, "--grid", "10", "--out", str(tmp_path / "c.csv"))
        assert res.returncode == 2
        assert res.stderr.startswith("error:") and "i.i.d. class" in res.stderr

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

    def test_iid_class_with_decay_passes(self, tmp_path):
        a = write_spec(tmp_path, {"lambda": 2.0, "beta": 0.0, "gamma": 0.0}, "a.json")
        b = write_spec(tmp_path, {"lambda": 2.0, "beta": 0.0, "gamma": 0.5}, "b.json")
        res = run_cli("check", a, b, "--t", "10000", "--reps", "1", "--seed", "5")
        assert res.returncode == 0, res.stdout + res.stderr
        assert json.loads(res.stdout)["verdict"] == "pass"

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

    def test_changed_alpha_fails_on_the_canonical_form(self, tmp_path):
        # alpha 0.52 -> 0.56 at the same rate and q: another class.
        a = write_spec(tmp_path, EXAMPLE_SPEC, "a.json")
        moved = dict(EXAMPLE_SPEC, latent={"kind": "inar1", "lambda": 1.62, "alpha": 0.56})
        b = write_spec(tmp_path, moved, "b.json")
        res = run_cli("check", a, b, "--t", "10000", "--reps", "1", "--seed", "1")
        assert res.returncode == 1, res.stderr
        doc = json.loads(res.stdout, parse_constant=reject_constant)
        assert "canonical_form" in doc["failed_gates"] and doc["verdict"] == "fail"


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

    def test_nobody_observed_passes_with_strict_json(self, tmp_path):
        # With lambda = 1e-9 nobody is observed, which is what the model
        # predicts: no first observation is within the gates' reach.
        doc = {"latent": {"kind": "inar1", "lambda": 1e-9, "alpha": 0.5},
               "reporting": {"q": 0.5}}
        spec = write_spec(tmp_path, doc)
        res = run_cli("appendix", spec, "--t", "1000", "--seed", "1",
                      "--out", str(tmp_path / "tr.csv"))
        assert res.returncode == 0, res.stdout
        doc = json.loads(res.stdout, parse_constant=reject_constant)
        checks = {c["name"]: c for c in doc["checks"]}
        assert checks["first_obs_mean"]["estimate"] == 0.0
        assert checks["first_obs_mean"]["p_value"] > 0.99

    def test_sparse_trace_passes_with_strict_json(self, tmp_path):
        # The few observed individuals all fall in one batch; the
        # re-observation count needs no batches, so its z is still defined.
        doc = {"latent": {"kind": "inar1", "lambda": 0.002, "alpha": 0.5},
               "reporting": {"q": 0.5}}
        spec = write_spec(tmp_path, doc)
        res = run_cli("appendix", spec, "--t", "1000", "--seed", "1",
                      "--out", str(tmp_path / "tr.csv"))
        assert res.returncode == 0, res.stdout
        assert "Traceback" not in res.stderr
        doc = json.loads(res.stdout, parse_constant=reject_constant)
        checks = {c["name"]: c for c in doc["checks"]}
        assert checks["reobservation_fraction"]["z"] is not None
        assert checks["reobservation_fraction"]["p_value"] is not None
        assert checks["reobservation_fraction"]["passed"]

    def test_input_error_from_the_checks_writes_no_files(self, tmp_path, monkeypatch, capsys):
        def fail(*args):
            raise InarError("rejected by the checks")

        monkeypatch.setattr(cli, "individual_level_checks", fail)
        spec = write_spec(tmp_path, EXAMPLE_SPEC)
        out = tmp_path / "tr.csv"
        assert cli.main(["appendix", spec, "--t", "100", "--out", str(out)]) == 2
        assert "rejected by the checks" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "tr_long.csv").exists()

    def test_unrepresentable_image_exits_2_without_files(self, tmp_path):
        # lambda * q underflows to 0, so the fully observed image the checks
        # read has no valid rate: an input error, and no CSV is written.
        doc = {"latent": {"kind": "inar1", "lambda": 1e-200, "alpha": 0.5},
               "reporting": {"q": 1e-200}}
        spec = write_spec(tmp_path, doc)
        out = tmp_path / "tr.csv"
        res = run_cli("appendix", spec, "--t", "100", "--out", str(out))
        assert res.returncode == 2 and res.stderr.startswith("error:"), res.stderr
        assert not out.exists()

    def test_requires_first_order_latent(self, tmp_path):
        spec = write_spec(tmp_path, IMAGE_SPEC)
        res = run_cli("appendix", spec, "--t", "100", "--out", str(tmp_path / "t.csv"))
        assert res.returncode == 2


def limit_memory():
    """Cap the child's address space at 1 GiB, so a large allocation fails at once."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


SLOW_DECAY = {"kind": "geom_inf", "beta": 0.0009, "gamma": 0.999}


class TestWorkBound:
    # A first-order simulate spec lays out few chains whatever its rate, but
    # its counts must stay below 2**53 to be summed exactly.
    @pytest.mark.parametrize("command, latent, bound", [
        ("simulate", {"kind": "inar1", "lambda": 9e18, "alpha": 0.5}, 1 << 53),
        ("simulate", {"kind": "inar1", "lambda": 1e17, "alpha": 0.5}, 1 << 53),
        ("appendix", {"kind": "inar1", "lambda": 1e17, "alpha": 0.5}, 1 << 24),
        ("check", dict(SLOW_DECAY, **{"lambda": 1e4}), 1 << 24),
    ], ids=["simulate_9e18", "simulate_1e17", "appendix_1e17", "check_slow_decay"])
    def test_oversized_first_block_is_input_error(self, tmp_path, command, latent, bound):
        spec = write_spec(tmp_path, {"latent": latent})
        args = {
            "simulate": ("--t", "1", "--out", str(tmp_path / "x.csv")),
            "appendix": ("--t", "1", "--out", str(tmp_path / "x.csv")),
            "check": (spec, "--t", "10000", "--reps", "1"),
        }[command]
        res = subprocess.run([sys.executable, "-m", "inarq", command, spec, *args],
                             capture_output=True, text=True, preexec_fn=limit_memory)
        assert res.returncode == 2, res.stderr[-300:]
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
        assert f"the bound {bound}" in res.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command, spec_doc, args", [
        ("simulate", EXAMPLE_SPEC, ("--t", str(10**11))),
        ("simulate", EXAMPLE_SPEC, ("--t", "10", "--burn-in", str(10**11))),
        ("appendix", {"latent": {"kind": "inar1", "lambda": 1e-9, "alpha": 0.5}},
         ("--t", str(10**11))),
        ("check", EXAMPLE_SPEC, ("--t", str(10**11), "--reps", "1")),
        ("check", EXAMPLE_SPEC, ("--t", "10000", "--reps", str(10**8))),
    ], ids=["simulate_t", "simulate_burn_in", "appendix_sparse_t", "check_t", "check_reps"])
    def test_step_count_is_input_error(self, tmp_path, command, spec_doc, args):
        spec = write_spec(tmp_path, spec_doc)
        out = tmp_path / "x.csv"
        operands = (spec, write_spec(tmp_path, IMAGE_SPEC, "image.json")) if command == "check" \
            else (spec, "--out", str(out))
        res = subprocess.run([sys.executable, "-m", "inarq", command, *operands, *args],
                             capture_output=True, text=True, preexec_fn=limit_memory, timeout=60)
        assert res.returncode == 2, res.stderr[-300:]
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
        assert f"more than the bound {_MAX_STEPS}" in res.stderr
        assert res.stdout == "" and not out.exists()

    def test_long_appendix_trace_is_input_error(self, tmp_path):
        # The worked example's first block is small, but 1e8 steps would lay
        # out about 3.4e8 appearances at once.
        spec = write_spec(tmp_path, EXAMPLE_SPEC)
        res = subprocess.run([sys.executable, "-m", "inarq", "appendix", spec, "--t", "100000000",
                              "--out", str(tmp_path / "x.csv")],
                             capture_output=True, text=True, preexec_fn=limit_memory)
        assert res.returncode == 2, res.stderr[-300:]
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
        assert str(1 << 24) in res.stderr
        assert not (tmp_path / "x.csv").exists()

    def test_oversized_oracle_is_input_error(self, tmp_path):
        # Observed mean 2000: the pair-law oracle's table would pass 2048
        # states a side, so check rejects it before simulating.
        spec = write_spec(tmp_path, {"latent": {"kind": "inar1", "lambda": 1000.0, "alpha": 0.5}})
        res = subprocess.run([sys.executable, "-m", "inarq", "check", spec, spec,
                              "--t", "10000", "--reps", "1"],
                             capture_output=True, text=True, preexec_fn=limit_memory)
        assert res.returncode == 2, res.stderr[-300:]
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
        assert "observed mean 2000" in res.stderr and "2048" in res.stderr
        assert res.stdout == ""

    def test_oversized_second_spec_is_input_error(self, tmp_path):
        # Only the first spec's class builds the oracle, but the second
        # spec's observed mean is held to the same table size before any draw.
        spec = write_spec(tmp_path, EXAMPLE_SPEC)
        huge = write_spec(tmp_path, {"latent": {"kind": "inar1", "lambda": 1e9, "alpha": 0.5}},
                          "huge.json")
        res = subprocess.run([sys.executable, "-m", "inarq", "check", spec, huge,
                              "--t", "10000", "--reps", "1"],
                             capture_output=True, text=True, preexec_fn=limit_memory)
        assert res.returncode == 2, res.stderr[-300:]
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
        assert "the second spec's observed mean 2e+09" in res.stderr
        assert res.stdout == ""

    def test_admissible_slow_decay_runs(self, tmp_path):
        spec = write_spec(tmp_path, {"latent": dict(SLOW_DECAY, **{"lambda": 1.0})})
        res = subprocess.run([sys.executable, "-m", "inarq", "simulate", spec, "--t", "10",
                              "--out", str(tmp_path / "x.csv")],
                             capture_output=True, text=True, preexec_fn=limit_memory)
        assert res.returncode == 0, res.stderr[-300:]
        # Its canonical latent mean is 11110, but check bounds the oracle's
        # table by the observed mean, 10, so it draws and gives a verdict.
        res = subprocess.run([sys.executable, "-m", "inarq", "check", spec, spec,
                              "--t", "10000", "--reps", "1"],
                             capture_output=True, text=True, preexec_fn=limit_memory)
        assert res.returncode in (0, 1), res.stderr[-300:]
        assert json.loads(res.stdout)["verdict"] in ("pass", "fail")


class TestParser:
    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        from inarq.cli import build_parser, main

        spec = write_spec(tmp_path, EXAMPLE_SPEC)
        out = tmp_path / "x.csv"
        assert main(["transform", spec, "--to", "canonical"]) == 0
        canonical = json.loads(capsys.readouterr().out)
        assert canonical == {"lambda": 1.62, "alpha": 0.52, "q": 0.33}
        with pytest.raises(SystemExit) as exc:  # an argparse error: --t is required
            main(["simulate", spec, "--out", str(out)])
        assert exc.value.code == 2 and "--t" in capsys.readouterr().err
        # A different subcommand after the error parses with its own defaults.
        assert main(["simulate", spec, "--t", "50", "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 50
        assert out.read_text().count("\n") == 51
        assert main(["expand", spec]) == 0
        assert capsys.readouterr().out == "i,alpha_i\n1,0.52\n"
        assert build_parser() is build_parser()
        # The cached parser, after all of that, parses as a fresh one does.
        for argv in (["simulate", spec, "--t", "50", "--out", str(out)], ["expand", spec]):
            fresh = build_parser.__wrapped__()
            assert vars(build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))


class TestStrictJson:
    def test_every_json_stdout_is_strict(self, tmp_path):
        def reject(name):
            raise ValueError(f"non-strict JSON constant {name}")

        example = write_spec(tmp_path, EXAMPLE_SPEC, "a.json")
        image = write_spec(tmp_path, IMAGE_SPEC, "b.json")
        out = str(tmp_path / "out.csv")
        commands = [
            ("simulate", example, "--t", "2000", "--out", out),
            ("simulate", write_spec(tmp_path, {"latent": {"kind": "inar1", "lambda": 1e-9,
                                                          "alpha": 0.5}}, "c.json"),
             "--t", "5", "--out", out),  # an all-zero series: acf_1 undefined
            ("transform", example, "--to", "inf"),
            ("transform", example, "--to", "canonical"),
            ("transform", example, "--to", "q=0.5"),
            ("curve", example, "--out", out),
            ("check", example, image, "--t", "10000", "--reps", "1"),
            ("appendix", example, "--t", "2000", "--out", out),
        ]
        for args in commands:
            res = run_cli(*args)
            assert res.returncode in (0, 1), (args, res.stderr[-300:])
            assert isinstance(json.loads(res.stdout, parse_constant=reject), dict), args


class TestImports:
    def test_export_list_resolves_once(self):
        import inarq

        assert len(inarq.__all__) == len(set(inarq.__all__))
        missing = [name for name in inarq.__all__ if not hasattr(inarq, name)]
        assert missing == []

    def test_cli_import_loads_no_scipy(self):
        code = (
            "import sys, inarq.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

    def test_every_command_runs_without_scipy_or_hypothesis(self, tmp_path):
        # numpy is the only runtime dependency: with the test-only packages
        # unimportable, each command of the README tour runs in one child.
        example = write_spec(tmp_path, EXAMPLE_SPEC, "a.json")
        image = write_spec(tmp_path, IMAGE_SPEC, "b.json")
        out = str(tmp_path / "out.csv")
        commands = [
            ["simulate", example, "--t", "2000", "--out", out],
            ["transform", example, "--to", "inf"],
            ["transform", example, "--to", "q=0.5"],
            ["transform", example, "--to", "canonical"],
            ["expand", image, "--cutoff", "0.005"],
            ["curve", example, "--out", out],
            ["check", example, image, "--t", "10000", "--reps", "1"],
            ["appendix", example, "--t", "2000", "--out", out],
        ]
        code = (
            "import json, sys\n"
            "sys.modules['scipy'] = sys.modules['hypothesis'] = None\n"
            "from inarq.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps(codes))\n"
        )
        res = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr[-500:]
        codes = json.loads(res.stdout.splitlines()[-1])
        assert codes[:6] == [0] * 6 and set(codes[6:]) <= {0, 1}, (codes, res.stderr[-500:])


class TestDeterminism:
    def test_simulate_reproduces_bytes(self, tmp_path):
        spec = write_spec(tmp_path, EXAMPLE_SPEC)
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            res = run_cli("simulate", spec, "--t", "3000", "--seed", "13", "--out", str(out))
            outs.append((res.stdout, out.read_bytes()))
        assert outs[0] == outs[1]

    def test_check_reproduces_bytes(self, tmp_path):
        a = write_spec(tmp_path, EXAMPLE_SPEC, "a.json")
        b = write_spec(tmp_path, IMAGE_SPEC, "b.json")
        outs = [run_cli("check", a, b, "--t", "10000", "--reps", "2", "--seed", "13")
                for _ in range(2)]
        assert outs[0].returncode in (0, 1), outs[0].stderr
        assert outs[0].stdout == outs[1].stdout

    def test_appendix_reproduces_bytes(self, tmp_path):
        spec = write_spec(tmp_path, EXAMPLE_SPEC)
        outs = []
        for name in ("t1.csv", "t2.csv"):
            out = tmp_path / name
            res = run_cli("appendix", spec, "--t", "3000", "--seed", "13", "--out", str(out))
            outs.append((res.stdout, out.read_bytes()))
        assert outs[0] == outs[1]


# One spec per simulate route; DENSE_SPEC is the benchmark's omega < 1 spec.
DENSE_SPEC = {"latent": {"kind": "geom_inf", "lambda": 20.0, "beta": 0.3, "gamma": 0.4},
              "reporting": {"q": 0.5, "omega": 0.8}}
THINNED_DENSE_SPEC = {"latent": {"kind": "geom_inf", "lambda": 10.0, "beta": 0.5, "gamma": 0.2},
                      "reporting": {"q": 0.9}}
IID_SPEC = {"latent": {"kind": "geom_inf", "lambda": 3.0, "beta": 0.0, "gamma": 0.5},
            "reporting": {"q": 0.4}}


# Law tests of simulate output: counts LAW_SPACING steps apart are close to
# independent for every spec below (the lag-40 autocorrelation is at most
# 0.7**40, about 6e-7), so their class counts are multinomial and each
# chi-square test has level LAW_LEVEL.
LAW_T, LAW_SPACING, LAW_LEVEL = 200_000, 40, 1e-3


def chi_square_p(observed, probs):
    expected = probs / probs.sum() * observed.sum()
    assert expected.min() >= 5.0, expected
    stat = float(((observed - expected) ** 2 / expected).sum())
    return float(sps.chi2.sf(stat, observed.size - 1))


def law_p_values(values, joint):
    """p-values of chi-square tests of the marginal law (in up to 10 classes of
    about equal mass) and of the lag-1 pair law (4 x 4 classes) of ``values``
    against the pair pmf ``joint``, on counts ``LAW_SPACING`` steps apart."""
    pmf = joint.sum(axis=1)

    def classes(m):
        edges = np.unique(np.searchsorted(np.cumsum(pmf), np.arange(1, m) / m) + 1)
        return edges, np.concatenate(([0], edges))

    starts = np.arange(0, values.size - LAW_SPACING, LAW_SPACING)
    edges, bounds = classes(10)
    seen = np.bincount(np.searchsorted(edges, values[starts + LAW_SPACING // 2], side="right"),
                       minlength=edges.size + 1)
    p_marginal = chi_square_p(seen, np.add.reduceat(pmf, bounds))
    edges, bounds = classes(4)
    a, b = (np.searchsorted(edges, values[starts + k], side="right") for k in (0, 1))
    k = edges.size + 1
    seen = np.bincount(a * k + b, minlength=k * k)
    cells = np.add.reduceat(np.add.reduceat(joint, bounds, axis=0), bounds, axis=1)
    return p_marginal, chi_square_p(seen, cells.ravel())


def observed_pair_law(doc):
    """Exact stationary law of two consecutive observed counts of a spec, from
    the pair-law oracle of its class. Under omega < 1 the latent pair law is
    that of the latent class, and each count of a pair is then reported whole
    with probability 1 - omega, independently."""
    model = spec_model(doc)
    omega = doc.get("reporting", {}).get("omega", 1.0)
    if omega < 1.0:
        model = UnderreportedModel(model.latent, 1.0)
    joint = joint_pmf_oracle(model)
    if omega == 1.0:
        return joint
    q = doc["reporting"]["q"]
    report = (1.0 - omega) * np.eye(joint.shape[0]) + omega * _binomial_table(q, joint.shape[0] - 1)
    return report.T @ joint @ report


def spec_model(doc):
    lat = doc["latent"]
    beta = lat.get("alpha", lat.get("beta"))
    return UnderreportedModel(GeomInarSpec(lat["lambda"], beta, lat.get("gamma", 0.0)),
                              doc.get("reporting", {}).get("q", 1.0))


class TestSimulateRoute:
    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """The kernels `simulate` reaches through inarq.cli's names, in call order,
        each with the spec (or reporting spec) it was given."""
        calls = []
        for name in ("simulate_inar1", "simulate_inar_inf", "apply_reporting"):
            def spy(*args, _real=getattr(cli, name), _name=name, **kwargs):
                calls.append((_name, args[1] if _name == "apply_reporting" else args[0]))
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli, name, spy)
        return calls

    def simulate(self, tmp_path, doc, t_len=100, seed=1):
        out = tmp_path / "x.csv"
        argv = ["simulate", write_spec(tmp_path, doc), "--t", str(t_len), "--seed", str(seed),
                "--out", str(out)]
        assert cli.main(argv) == 0
        return np.loadtxt(out, delimiter=",", skiprows=1, dtype=np.int64)[:, 1]

    def test_each_spec_reaches_its_kernels(self, tmp_path, kernel_calls, capsys):
        worked, iid = spec_model(EXAMPLE_SPEC), spec_model(IID_SPEC)
        dense = canonicalize(UnderreportedModel(spec_model(DENSE_SPEC).latent, 1.0))
        thinned = canonicalize(spec_model(THINNED_DENSE_SPEC))
        assert (dense.lambda_star, dense.alpha_star) == pytest.approx((28.0, 0.7))
        expected = [
            # Image mean 1.1: the image, laid out by gaps, with no thinning.
            (EXAMPLE_SPEC, [("simulate_inar_inf", shift_reporting(worked, 1.0).latent)]),
            (IMAGE_SPEC, [("simulate_inar_inf", spec_model(IMAGE_SPEC).latent)]),
            # Latent mean 40 under omega < 1: the latent class's canonical form,
            # thinned once into the latent series, then the spec's own reporting.
            (DENSE_SPEC, [("simulate_inar1", Inar1Spec(dense.lambda_star, dense.alpha_star)),
                          ("apply_reporting", ReportingSpec(q=dense.q_star)),
                          ("apply_reporting", ReportingSpec(q=0.5, omega=0.8))]),
            # Observed mean 24: the canonical form and one thinning by q_star.
            (THINNED_DENSE_SPEC, [
                ("simulate_inar1", Inar1Spec(thinned.lambda_star, thinned.alpha_star)),
                ("apply_reporting", ReportingSpec(q=thinned.q_star))]),
            # beta = 0: i.i.d. Poisson with the observed mean, no gap draw.
            (IID_SPEC, [("simulate_inar1", Inar1Spec(shift_reporting(iid, 1.0).latent.lambda_,
                                                     0.0))]),
            # A first-order latent series under omega < 1 is drawn as written.
            (dict(EXAMPLE_SPEC, reporting={"q": 0.33, "omega": 0.5}), [
                ("simulate_inar1", Inar1Spec(1.62, 0.52)),
                ("apply_reporting", ReportingSpec(q=0.33, omega=0.5))]),
        ]
        for doc, kernels in expected:
            kernel_calls.clear()
            self.simulate(tmp_path, doc)
            assert kernel_calls == kernels, doc
        capsys.readouterr()

    @pytest.mark.parametrize("doc, seeds", [
        (EXAMPLE_SPEC, (901, 902)),
        (THINNED_DENSE_SPEC, (911, 912)),
        (DENSE_SPEC, (921, 922)),
        (IID_SPEC, (931, 932)),
    ], ids=["image_layout", "canonical_thinned_once", "dense_omega", "iid"])
    def test_output_has_the_oracle_law(self, tmp_path, reseed_once, capsys, doc, seeds):
        joint = observed_pair_law(doc)

        def check(seed):
            p_marginal, p_pairs = law_p_values(self.simulate(tmp_path, doc, LAW_T, seed), joint)
            assert min(p_marginal, p_pairs) > LAW_LEVEL, (p_marginal, p_pairs)

        reseed_once(check, *seeds)
        capsys.readouterr()
