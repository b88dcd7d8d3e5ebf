"""Fast tests of the benchmark's own references and bookkeeping.

    python3 -m pytest -q perfbench/test_refs.py

None of these import the program under test except the last, which
checks the workloads' exponent bookkeeping against ``bohrap.riesz``.
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refs  # noqa: E402
import workloads  # noqa: E402


def test_kluyver_closed_forms():
    w = refs.checked_kluyver([3])
    assert w[1] == pytest.approx(1.0, abs=1e-9)
    assert w[2] == pytest.approx(4.0 / math.pi, abs=1e-9)
    # W_3(1) = 1.5745972375...
    assert w[3] == pytest.approx(1.5745972375, abs=1e-8)


def test_trinomial_lattice_counts():
    moments = refs.checked_trinomial_moments()
    assert moments == {2: Fraction(5, 3), 3: Fraction(31, 9), 4: Fraction(71, 9)}


def test_lattice_mean_of_independent_stages_is_one():
    # Riesz property: the mean of prod |P_k|^2 is exactly 1.
    exps = workloads.stage_exponent_vectors(workloads.SHARED_STAGES[0])
    assert refs.lattice_mean(exps, [1] * len(exps)) == 1


def test_lattice_mean_fourth_moment_of_independent_phases():
    # p independent phases: E|sum|^4 / p^2 = (2p - 1) / p.
    p = 5
    exps = [tuple(int(i == j) for i in range(p)) for j in range(p)]
    assert refs.lattice_mean([exps], [2]) == Fraction(2 * p - 1, p)


def test_factorization_identity():
    w = refs.checked_kluyver([4, 64])
    assert refs.product_mean_abs(w[64], 64, 2) == pytest.approx((w[64] / 8.0) ** 2)
    # W_q(1) / sqrt(q) falls toward sqrt(pi)/2 from above (Kluyver values
    # 0.8995462 and 0.8870951 at q = 4 and 64).
    assert refs.product_mean_abs(w[4], 4, 1) == pytest.approx(0.8995462, abs=1e-7)
    assert refs.product_mean_abs(w[64], 64, 1) == pytest.approx(0.8870951, abs=1e-7)
    assert math.sqrt(math.pi) / 2 < w[64] / 8.0 < w[4] / 2.0


def test_kluyver_cache_round_trip(tmp_path):
    cache = tmp_path / "kluyver.json"
    first = refs.checked_kluyver([3], cache)
    assert refs.checked_kluyver([3], cache) == first
    cache.write_text('{"1": 1.5, "2": 1.2732395447351628, "3": 1.57}')
    with pytest.raises(RuntimeError):
        refs.checked_kluyver([3], cache)


def test_specs_are_seeded_whole_rounds():
    for wl in workloads.WORKLOADS.values():
        a = wl.specs(3, 2)
        assert a == wl.specs(3, 2)
        assert a != wl.specs(4, 2)
        assert a[0]["warmup"] and a[0]["kind"] not in wl.probe_kinds
        per_round = len(wl.round_specs(3, 0))
        assert len(a) == 1 + 2 * per_round
        assert [s["id"] for s in a] == list(range(len(a)))


def test_exponent_vectors_match_program():
    sys.path.insert(0, str(HERE.parent / "src"))
    pytest.importorskip("bohrap")
    spec = workloads.WORKLOADS["shared"].specs(5, 1)[2]
    _, params = workloads.WORKLOADS["shared"].prepare(spec, None)
    from bohrap.riesz import stage_exponents
    want = workloads.stage_exponent_vectors(spec["spacers"])
    for k, exps in enumerate(want):
        got = [tuple(int(c) for c in f.coeffs) for f in stage_exponents(params, k)]
        assert got == exps


def test_tracer_self_time_and_restore():
    sys.path.insert(0, str(HERE.parent / "src"))
    pytest.importorskip("bohrap")
    import bohrap.riesz
    from bohrap.appoly import APPoly
    from tracing import Tracer
    plain = (bohrap.riesz.build_polynomial, APPoly.__dict__["from_terms"],
             APPoly.__mul__)
    tracer = Tracer()
    tracer.install()
    try:
        assert bohrap.riesz.build_polynomial is not plain[0]
        tracer.op = 0
        params = bohrap.riesz.make_independent_params([3, 2], seed=1)
        p = bohrap.riesz.build_polynomial(params, 1)
        p * p
    finally:
        tracer.uninstall()
    assert (bohrap.riesz.build_polynomial, APPoly.__dict__["from_terms"],
            APPoly.__mul__) == plain
    totals = tracer.layer_totals({0: 2.0})
    assert totals["riesz.build_polynomial"]["calls"] == 1
    assert totals["appoly.mul"]["calls"] == 1
    assert tracer.counts[0]["appoly.mul.terms_out"] == len(p * p)
    build = totals["riesz.build_polynomial"]
    inner = totals["riesz.stage_exponents"]["s"] + totals["appoly.from_terms"]["s"]
    assert build["self_s"] == pytest.approx(build["s"] - inner)
