"""End-to-end CLI runs: outputs, determinism, exit codes."""

import json
import os
import subprocess
import sys

import bohrap
from bohrap.cli import main


def _run(argv):
    return main(argv)


class TestRieszCheck:
    def test_exact_means(self, tmp_path):
        out = tmp_path / "r"
        assert _run(["riesz-check", "--cuts", "2,3", "--seed", "1",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "riesz-check.json").read_text())
        assert doc["riesz_property_holds"] is True
        assert all(row["is_one"] for row in doc["stage_means"])
        assert (out / "riesz-check.csv").read_text().startswith(
            "x,series,value,error")

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "basis": [{"name": "one", "value": 1.0},
                      {"name": "s", "value": 0.4}],
            "unit": "one",
            "stages": [{"p": 2, "spacers": ["0", "s", "0"]}],
            "seed": 3,
        }))
        out = tmp_path / "r"
        assert _run(["riesz-check", "--config", str(cfg),
                     "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["seed"] == 3
        assert man["command"] == "riesz-check"
        assert "config_sha256" in man and "timestamp" in man


class TestDeterminism:
    def test_replay_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["bourgain-scan", "--cuts", "4,4,4,4", "--k-max", "2",
                "--samples", "4096", "--seed", "5"]
        assert _run(args + ["--out", str(a)]) == 0
        assert _run(args + ["--out", str(b)]) == 0
        assert ((a / "bourgain-scan.json").read_text()
                == (b / "bourgain-scan.json").read_text())

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 11}))
        out = tmp_path / "r"
        assert _run(["kac-clt", "--q", "4", "--samples", "2000",
                     "--config", str(cfg), "--seed", "12",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "kac-clt.json").read_text())
        assert doc["seed"] == 12


class TestSubcommands:
    def test_kac_moments(self, tmp_path):
        out = tmp_path / "r"
        assert _run(["kac-moments", "--exponents", "2,4", "--seed", "0",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "kac-moments.json").read_text())
        assert doc["value"] == "3/16"

    def test_guenais(self, tmp_path):
        out = tmp_path / "r"
        assert _run(["guenais", "--cuts", "4,4", "--k", "2",
                     "--samples", "4096", "--seed", "1",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "guenais.json").read_text())
        assert len(doc["partial_sums"]) == 2

    def test_fejer(self, tmp_path):
        out = tmp_path / "r"
        assert _run(["fejer", "--cuts", "4,4", "--q-indices", "0", "--m", "1",
                     "--samples", "4096", "--seed", "2",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "fejer.json").read_text())
        assert doc["symbolic_exact"] is True

    def test_flatness(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"family": {"kind": "littlewood", "n": 3,
                        "coefficients": [1, -1, 1]}, "seed": 4}))
        out = tmp_path / "r"
        assert _run(["flatness", "--config", str(cfg), "--samples", "4096",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "flatness.json").read_text())
        assert 0 < doc["flatness_ratio"]["value"] <= 1.05
        assert doc["ultraflat_deviation"] > 0

    def test_prikhodko(self, tmp_path):
        out = tmp_path / "r"
        assert _run(["prikhodko", "--sizes", "8,16", "--m-n", "4",
                     "--eps-n", "1/4", "--samples", "4096", "--seed", "6",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "prikhodko.json").read_text())
        assert len(doc["records"]) == 2
        csv_text = (out / "prikhodko.csv").read_text()
        assert "local_l1_distortion" in csv_text
        assert "global_mean_abs" in csv_text

    def test_degree_report(self, tmp_path):
        out = tmp_path / "r"
        assert _run(["degree-report", "--cuts", "3,3", "--seed", "7",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "degree-report.json").read_text())
        assert doc["all_hold"] is True


class TestStartup:
    def test_import_leaves_scipy_stats_unloaded(self):
        src = os.path.dirname(os.path.dirname(bohrap.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, bohrap.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "False"


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path):
        # cut number below 2 is rejected with a named-field diagnostic
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "basis": [{"name": "one", "value": 1.0}],
            "unit": "one",
            "stages": [{"p": 1, "spacers": ["0", "0"]}],
        }))
        assert _run(["riesz-check", "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == 2

    def test_missing_stages_is_2(self, tmp_path):
        assert _run(["riesz-check", "--out", str(tmp_path / "r")]) == 2

    def test_budget_error_is_3(self, tmp_path):
        # one spacer pushes a lattice exponent past the Monte Carlo limb
        # range, so the integration budget is refused up front
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "basis": [{"name": "one", "value": 1.0}],
            "unit": "one",
            "stages": [{"p": 3,
                        "spacers": ["0", f"{2 ** 140}*one", "0", "0"]}],
        }))
        assert _run(["bourgain-scan", "--config", str(cfg), "--k-max", "1",
                     "--window", "1", "--samples", "1024", "--seed", "1",
                     "--out", str(tmp_path / "r")]) == 3
