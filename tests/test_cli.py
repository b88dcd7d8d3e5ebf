"""End-to-end CLI runs: outputs, determinism, exit codes."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import bohrap
import bohrap.criteria
from bohrap import bohrint
from bohrap import flatness as flatness_module
from bohrap.appoly import APPoly
from bohrap.cli import main


def _run(argv):
    return main(argv)


#: A unimodular family over two symbols, so flatness runs on seeded points.
_FAMILY = {"kind": "unimodular", "n": 4,
           "basis": [{"name": "a", "value": 1.0}, {"name": "b", "value": 2 ** 0.5}],
           "frequencies": ["0", "a", "b", "a + b"],
           "coefficients": [0.0, 0.3, 1.1, 2.0]}


def _config(tmp_path, doc):
    return _text_config(tmp_path, json.dumps(doc))


def _text_config(tmp_path, text):
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    return ["--config", str(cfg)]


def _stage_config(tmp_path, stage):
    return _config(tmp_path, {
        "basis": [{"name": "one", "value": 1.0}, {"name": "s", "value": 0.4}],
        "unit": "one",
        "stages": [stage],
    })


def _family_config(tmp_path, family):
    return _config(tmp_path, {"family": family})


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
        assert "threads" not in man


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["bourgain-scan", "--cuts", "4,4,4,4", "--k-max", "2",
         "--samples", "4096"],
        ["riesz-check", "--cuts", "3,4,2"],
        ["kac-clt", "--q", "16", "--samples", "2000"],
        ["kac-moments", "--exponents", "2,4,6"],
        ["guenais", "--cuts", "4,4", "--k", "2", "--samples", "2048"],
        ["fejer", "--cuts", "4,4", "--q-indices", "0", "--m", "1",
         "--samples", "2048"],
        ["prikhodko", "--sizes", "8,16", "--m-n", "4", "--eps-n", "1/4",
         "--samples", "2048"],
        ["degree-report", "--cuts", "3,3"],
        ["flatness", "--samples", "2048", _FAMILY],
        pytest.param(["flatness", "--samples", "2048",
                      {"kind": "prikhodko", "n": 16, "m_n": 4, "eps_n": "1/4"}],
                     id="flatness-prikhodko"),
    ], ids=lambda argv: argv[0])
    def test_replay_byte_identical(self, tmp_path, argv):
        # A flatness case ends with the family of its config.
        if isinstance(argv[-1], dict):
            argv = argv[:-1] + _family_config(tmp_path, argv[-1])
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run(argv + ["--seed", "5", "--out", str(a)]) == 0
        assert _run(argv + ["--seed", "5", "--out", str(b)]) == 0
        names = sorted(f.name for f in a.iterdir())
        assert names == sorted(f.name for f in b.iterdir())
        for name in names:
            if name == "manifest.json":
                ma, mb = (json.loads((d / name).read_text()) for d in (a, b))
                ma.pop("timestamp"), mb.pop("timestamp")
                assert ma == mb
            else:
                assert (a / name).read_text() == (b / name).read_text(), name

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

    @pytest.mark.parametrize("family, exact", [
        ({"kind": "littlewood", "n": 3, "coefficients": [1, -1, 1]}, False),
        ({**_FAMILY, "n": 3, "frequencies": ["0", "a", "a + b"],
          "coefficients": [0.0, 0.5, 1.0]}, True)])
    def test_flatness_labels_exact_deviation(self, tmp_path, family, exact):
        # Frequencies 0, alpha, 2 alpha have dependent differences, so the
        # deviation is a sampled maximum; 0, a, a + b give the exact value.
        out = tmp_path / "r"
        assert _run(["flatness", *_config(tmp_path, {"family": family, "seed": 4}),
                     "--samples", "4096", "--out", str(out)]) == 0
        doc = json.loads((out / "flatness.json").read_text())
        assert doc["ultraflat_exact"] is exact
        csv_text = (out / "flatness.csv").read_text()
        assert "ultraflat_exact" not in csv_text

    def test_flatness_decides_exactness_once(self, tmp_path, monkeypatch):
        # The deviation and its label come from one exactness decision.
        calls = []
        rule = flatness_module.affinely_independent
        monkeypatch.setattr(flatness_module, "affinely_independent",
                            lambda freqs: calls.append(1) or rule(freqs))
        out = tmp_path / "r"
        assert _run(["flatness", *_config(tmp_path, {"family": _FAMILY, "seed": 4}),
                     "--samples", "4096", "--out", str(out)]) == 0
        assert len(calls) == 1

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

    def test_kac_clt_leaves_scipy_stats_unloaded(self):
        src = os.path.dirname(os.path.dirname(bohrap.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys\n"
                "from bohrap.criteria import kac_clt_diagnostics\n"
                "kac_clt_diagnostics(4, 100, seed=0)\n"
                "print('scipy.stats' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "False"


    def test_import_starts_no_thread_and_integrals_join_helpers(self):
        # Importing the CLI loads no thread pool; a one-batch integral runs
        # its two half batches on this thread and one helper, which it
        # joins before it returns; a one-unit tensor grid (the 128 nodes of
        # a Littlewood n = 64 flatness ratio) starts no thread; and a
        # four-batch integral joins its helper threads too.
        src = os.path.dirname(os.path.dirname(bohrap.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import os, sys, threading\n"
                "import bohrap.cli\n"
                "import numpy as np\n"
                "from bohrap.bohrint import MC_BATCH, Budget, bohr_integral_multi\n"
                "from bohrap.flatness import PolyFamilySpec, build_family, flatness_ratio\n"
                "from bohrap.riesz import build_polynomial, make_independent_params\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "started = []\n"
                "start = threading.Thread.start\n"
                "def record(self):\n"
                "    started.append(self.name)\n"
                "    start(self)\n"
                "threading.Thread.start = record\n"
                "p = build_polynomial(make_independent_params([16], seed=1), 0)\n"
                "n = threading.active_count()\n"
                "print(len(started))\n"
                "bohr_integral_multi([np.abs], [p], Budget(samples=MC_BATCH))\n"
                "print(threading.active_count() - n, *started)\n"
                "started.clear()\n"
                "est = flatness_ratio(build_family(PolyFamilySpec('littlewood', 64)))\n"
                "print(est.method, est.nodes_or_samples, len(started))\n"
                "bohr_integral_multi([np.abs], [p], Budget(samples=4 * MC_BATCH))\n"
                "print(threading.active_count() - n)\n"
                "print('concurrent.futures' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == ["0", "0", "bohrap-mc", "tensor-quadrature",
                                      "128", "0", "0", "False"]


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

    @pytest.mark.parametrize("case", [
        lambda t: ["riesz-check", "--cuts", "3,x"],
        lambda t: ["prikhodko", "--sizes", "8,x"],
        lambda t: ["fejer", "--cuts", "4,4", "--q-indices", "a"],
        lambda t: ["prikhodko", "--sizes", "8", "--eps-n", "abc"],
        lambda t: ["prikhodko", "--sizes", "8", "--eps-n", "1/0"],
        lambda t: ["kac-moments", "--exponents", "2,y"],
        lambda t: ["degree-report", "--cuts", "3,3", "--indices", "0,z"],
        lambda t: ["riesz-check", *_stage_config(
            t, {"p": "two", "spacers": ["0", "s", "0"]})],
        lambda t: ["riesz-check", *_stage_config(
            t, {"p": 2, "spacers": ["0", "1/0*s", "0"]})],
        lambda t: ["flatness", *_family_config(
            t, {"kind": "littlewood", "n": "eight"})],
        lambda t: ["kac-clt", "--q", "4", "--samples", "100",
                   *_config(t, [1, 2])],
        lambda t: ["kac-clt", "--q", "4", "--samples", "100",
                   *_config(t, {"seed": "abc"})],
        lambda t: ["flatness", *_family_config(
            t, {**_FAMILY, "n": 2, "frequencies": ["0", "a"],
                "coefficients": ["x", 0.0]})],
        lambda t: ["kac-clt", "--q", "4", "--samples", "100", "--seed", "-1"],
        lambda t: ["riesz-check", *_config(
            t, {"basis": [{"name": 7, "value": 1.0}],
                "stages": [{"p": 2, "spacers": ["0", "0", "0"]}]})],
        lambda t: ["riesz-check", *_config(
            t, {"basis": [{"name": ["a"], "value": 1.0}],
                "stages": [{"p": 2, "spacers": ["0", "0", "0"]}]})],
        lambda t: ["flatness", *_family_config(
            t, {"kind": "littlewood", "n": 3, "coefficients": 5})],
        lambda t: ["riesz-check", *_config(
            t, {"basis": [{"name": "one", "value": 1.0}], "stages": 5})],
        lambda t: ["riesz-check", *_config(
            t, {"basis": [{"name": "one", "value": 1.0}], "unit": ["one"],
                "stages": [{"p": 2, "spacers": ["0", "0", "0"]}]})],
        lambda t: ["flatness", *_config(t, {"family": 5})],
        lambda t: ["flatness", *_family_config(
            t, {**_FAMILY, "frequencies": 5})],
        lambda t: ["flatness", *_family_config(
            t, {**_FAMILY, "n": 2, "frequencies": ["0", 7],
                "coefficients": [0.0, 0.3]})],
        lambda t: ["flatness", *_family_config(
            t, {**_FAMILY, "n": 2, "frequencies": ["0", "1" * 5000 + "*a"],
                "coefficients": [0.0, 0.3]})],
        lambda t: ["prikhodko", "--sizes", "8", "--b", "inf"],
        # JSON values that Python would coerce quietly are refused.
        lambda t: ["riesz-check", *_stage_config(
            t, {"p": 2.9, "spacers": ["0", "s", "0"]})],
        lambda t: ["riesz-check", *_stage_config(
            t, {"p": True, "spacers": ["0", "0"]})],
        lambda t: ["riesz-check", *_stage_config(
            t, {"p": "2", "spacers": ["0", "s", "0"]})],
        lambda t: ["riesz-check", *_stage_config(t, {"p": 2, "spacers": "0s0"})],
        lambda t: ["riesz-check", *_config(
            t, {"basis": {"name": "one", "value": 1.0},
                "stages": [{"p": 2, "spacers": ["0", "0", "0"]}]})],
        lambda t: ["kac-clt", "--q", "4", "--samples", "100",
                   *_config(t, {"seed": 3.7})],
        lambda t: ["kac-clt", "--q", "4", "--samples", "100",
                   *_config(t, {"seed": True})],
        lambda t: ["kac-clt", "--q", "4", "--samples", "100",
                   *_config(t, {"seed": "3"})],
        lambda t: ["flatness", *_family_config(
            t, {"kind": "littlewood", "n": 4.0})],
        lambda t: ["flatness", *_family_config(
            t, {"kind": "prikhodko", "n": 8, "m_n": 2.5})],
        lambda t: ["flatness", *_family_config(
            t, {**_FAMILY, "n": 3, "frequencies": "0ab",
                "coefficients": [0.0, 0.3, 1.1]})],
        lambda t: ["flatness", *_family_config(
            t, {**_FAMILY, "coefficients": "0000"})],
        lambda t: ["riesz-check", *_config(
            t, {"basis": [{"name": "one", "value": "1.0"},
                          {"name": "s", "value": 0.4}],
                "stages": [{"p": 2, "spacers": ["0", "s", "0"]}]})],
        lambda t: ["riesz-check", *_config(
            t, {"basis": [{"name": "one", "value": 1.0},
                          {"name": "s", "value": True}],
                "stages": [{"p": 2, "spacers": ["0", "s", "0"]}]})],
        lambda t: ["flatness", *_family_config(
            t, {"kind": "littlewood", "n": 3, "coefficients": [True, -1, 1.0]})],
        lambda t: ["flatness", *_family_config(
            t, {**_FAMILY, "basis": [{"name": "a", "value": "1"},
                                     {"name": "b", "value": 2 ** 0.5}]})],
        lambda t: ["flatness", *_family_config(
            t, {"kind": "newman", "n": 3, "coefficients": [1, True, 0]})],
        lambda t: ["flatness", *_family_config(
            t, {**_FAMILY, "coefficients": [0.0, True, 1.1, 2.0]})],
        lambda t: ["flatness", *_family_config(
            t, {**_FAMILY, "coefficients": [0.0, float("inf"), 1.1, 2.0]})],
        lambda t: ["flatness", *_family_config(
            t, {**_FAMILY, "coefficients": [0.0, float("nan"), 1.1, 2.0]})],
        lambda t: ["riesz-check", *_config(
            t, {"basis": [{"name": "one", "value": 1.0},
                          {"name": "s", "value": 10 ** 400}],
                "stages": [{"p": 2, "spacers": ["0", "s", "0"]}]})],
        lambda t: ["riesz-check", "--config", str(t / "missing.json")],
        lambda t: ["riesz-check", *_text_config(t, "{stages")],
        lambda t: ["riesz-check", "--cuts", ","],
        lambda t: ["flatness", *_config(t, {"seed": 3})],
        lambda t: ["kac-moments", "--exponents", "1,-1"],
        lambda t: ["kac-moments", "--exponents", "100000,-1"],
    ], ids=["cuts", "sizes", "q-indices", "eps-n", "eps-n-zero-den",
            "exponents", "indices", "stage-p", "spacer-zero-den", "family-n",
            "config-not-object", "config-seed", "unimodular-phase",
            "negative-seed", "basis-name", "basis-name-list",
            "littlewood-coefficients", "stages-not-list", "unit-list",
            "family-not-object", "frequencies-not-list", "frequency-not-text",
            "frequency-digits", "interval-inf", "stage-p-float", "stage-p-bool",
            "stage-p-text", "spacers-text", "basis-object", "seed-float",
            "seed-bool", "seed-text", "family-n-float", "m-n-float",
            "frequencies-text", "coefficients-text", "basis-value-text",
            "basis-value-bool", "littlewood-bool-float",
            "family-basis-value-text", "newman-bool", "unimodular-phase-bool",
            "unimodular-phase-inf", "unimodular-phase-nan", "basis-value-huge",
            "config-missing", "config-not-json", "cuts-empty", "family-missing",
            "exponent-negative-after-odd", "exponent-negative-after-oversize"])
    def test_malformed_input_is_2(self, tmp_path, case, capsys):
        # No --seed: it would hide a malformed config seed.
        argv = case(tmp_path) + ["--out", str(tmp_path / "r")]
        assert _run(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("out", [
        lambda t: t / "file", lambda t: t / "file" / "sub"],
        ids=["out-is-file", "out-under-file"])
    def test_unwritable_out_is_2(self, tmp_path, out, capsys):
        # An --out path that cannot be a directory is refused without a
        # traceback, as an unreadable config is.
        (tmp_path / "file").write_text("")
        assert _run(["kac-moments", "--exponents", "2", "--seed", "1",
                     "--out", str(out(tmp_path))]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write results: ")

    @pytest.mark.parametrize("argv", [
        ["bourgain-scan", "--cuts", "4,4", "--strategy", "greedy"],
        ["riesz-check", "--cuts", "3,3", "--samples", "5"],
        ["kac-moments", "--exponents", "2", "--samples", "5"],
        ["degree-report", "--cuts", "3,3", "--samples", "5"],
    ], ids=["scan-strategy", "riesz-check-samples", "kac-moments-samples",
            "degree-report-samples"])
    def test_removed_flag_is_usage_error(self, tmp_path, argv):
        # Flags a command does not read are refused by argparse.
        with pytest.raises(SystemExit) as exc:
            _run(argv + ["--seed", "1", "--out", str(tmp_path / "r")])
        assert exc.value.code == 2

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

    def test_oversize_cosine_product_is_3(self, tmp_path, capsys):
        # The symbolic product of cos^64 over four symbols would hold 65^4,
        # about 1.8e7, terms; it is refused before it is expanded.
        start = time.perf_counter()
        assert _run(["kac-moments", "--exponents", "64,64,64,64", "--seed", "1",
                     "--out", str(tmp_path / "r")]) == 3
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith("error: ")

    def test_oversize_cosine_pair_count_is_3(self, tmp_path, capsys):
        # cos^100000 has 100001 terms, within the support cap, but its power
        # alone adds about 10^10 pairs; it is refused before any product.
        start = time.perf_counter()
        assert _run(["kac-moments", "--exponents", "100000", "--seed", "1",
                     "--out", str(tmp_path / "r")]) == 3
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith("error: ")

    def test_cosine_cap_checked_before_formula(self, tmp_path, monkeypatch):
        # The refusal comes before the binomial formula: with a formula that
        # raises, --exponents 100000 still exits 3.
        def formula(exponents):
            raise AssertionError("formula computed before the cap check")

        monkeypatch.setattr(bohrap.criteria, "kac_moment_formula", formula)
        assert _run(["kac-moments", "--exponents", "100000", "--seed", "1",
                     "--out", str(tmp_path / "r")]) == 3

    def test_support_cap_is_3(self, tmp_path, capsys):
        # The exact product of four 64-cut stages would hold about 10^13
        # terms; the fold at stage 1 is refused before it is formed.
        assert _run(["riesz-check", "--cuts", "64,64,64,64", "--seed", "1",
                     "--out", str(tmp_path / "r")]) == 3
        assert capsys.readouterr().err.startswith("error: ")


class TestReadme:
    def test_python_example_runs(self):
        # The README's one ```python block runs as written.
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = text.split("```python\n")[1:]
        assert len(blocks) == 1
        code = blocks[0].split("```")[0]
        src = os.path.dirname(os.path.dirname(bohrap.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       capture_output=True, text=True, timeout=120)


class TestThreadCount:
    """README commands write the same bytes on one thread and on two."""

    @pytest.mark.parametrize("command", ["bourgain-scan", "kac-clt", "guenais",
                                         "fejer"])
    def test_readme_command_same_bytes(self, tmp_path, monkeypatch, command):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (line,) = [l for l in text.splitlines() if l.startswith(f"bohrap {command} ")]
        argv = line.split()[1:]
        assert argv[-2:] == ["--out", "results"]
        samplers = []
        sample = bohrint.TorusEvaluator.sample

        def seen(ev, rng, n):
            samplers.append(threading.current_thread().name)
            return sample(ev, rng, n)

        monkeypatch.setattr(bohrint.TorusEvaluator, "sample", seen)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        for w in (1, 2):
            monkeypatch.setattr(bohrint, "_MAX_WORKERS", w)
            samplers.clear()
            assert _run(argv[:-1] + [str(tmp_path / str(w))]) == 0
            # Monte Carlo batches run on the helper too; kac-clt draws its
            # one sample on the calling thread.
            assert ("bohrap-mc" in samplers) == (w == 2 and command != "kac-clt")
        names = sorted(f.name for f in (tmp_path / "1").iterdir())
        assert names == sorted(f.name for f in (tmp_path / "2").iterdir())
        for name in names:
            if name != "manifest.json":
                assert ((tmp_path / "1" / name).read_bytes()
                        == (tmp_path / "2" / name).read_bytes()), name


class TestTracingTargets:
    """perfbench/tracing.py wraps the program through these attributes."""

    @staticmethod
    def _targets():
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod.TARGETS

    def test_each_target_is_one_function(self):
        for name, places in self._targets().items():
            objs = [getattr(importlib.import_module(m), a) for m, a in places]
            assert inspect.isfunction(objs[0]), name
            assert all(o is objs[0] for o in objs), name

    def test_appoly_product_and_constructor_wrappable(self):
        assert "__mul__" in APPoly.__dict__
        assert isinstance(APPoly.__dict__["from_terms"], classmethod)
