"""Acceptance criteria, one test per criterion, exact tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion.  Every check here is exact arithmetic; the only tolerances are
the stated runtime budgets and minimum sample counts.
"""

import hashlib
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from ordfield.claims import (
    VerifierCert,
    check_verifier,
    derivative_claim,
)
from ordfield.cli import main as cli_main
from ordfield.demos import demo_dlim, demo_lhopital, demo_mvt, demo_taylor
from ordfield.fields import Field
from ordfield.functions import (
    StepQ,
    StepQX,
    derivative_certificate,
    evaluate,
    local_constancy,
    parse_name,
    ratio_bounds_check,
)
from ordfield.laurent import (
    RF_ONE,
    RF_X,
    RF_ZERO,
    rf_const,
    valuation,
    x_pow,
)
from ordfield.literals import parse_elem
from ordfield.rationals import pow2
from ordfield.transcript import parse_kv_line

from conftest import accept_rf, run_demo, wide_ratfuncs, wide_rationals
from field_axioms import check_ordered_field_triple

SEED = 20260810
FIXTURES = Path(__file__).resolve().parents[1] / "src" / "ordfield" / "fixtures"


def _report(num: int, ok: bool, msg: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {msg}")
    assert ok, f"criterion {num}: {msg}"


# --- randomized sample pools (module scope, deterministic) ----------------


@pytest.fixture(scope="module")
def q_samples():
    """>= 10^3 nonzero rationals with magnitudes spanning 2^-200..2^200."""
    return wide_rationals(random.Random(SEED + 2), 1000)


@pytest.fixture(scope="module")
def qx_samples():
    """>= 10^3 nonzero elements of Q(x): valuations -20..20, coefficient
    magnitudes <= 2^64."""
    return wide_ratfuncs(random.Random(SEED + 3), 1000)


# --- demo fixtures (defaults, timed, reused by criteria 5-8 and 10) -------


@pytest.fixture(scope="module")
def dlim_q_run():
    t0 = time.perf_counter()
    code, text = run_demo(demo_dlim, Field.Q)
    return code, text, time.perf_counter() - t0


@pytest.fixture(scope="module")
def dlim_qx_run():
    t0 = time.perf_counter()
    code, text = run_demo(demo_dlim, Field.QX)
    return code, text, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mvt_run():
    return run_demo(demo_mvt)


@pytest.fixture(scope="module")
def lhopital_run():
    return run_demo(demo_lhopital)


@pytest.fixture(scope="module")
def taylor2_run():
    return run_demo(demo_taylor, 2)


# --- criteria --------------------------------------------------------------


def test_criterion_1_ordered_field_axioms():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    for _ in range(10_000):
        a = F(rng.randint(-(1 << 32), 1 << 32), rng.randint(1, 1 << 32))
        b = F(rng.randint(-(1 << 32), 1 << 32), rng.randint(1, 1 << 32))
        c = F(rng.randint(-(1 << 32), 1 << 32), rng.randint(1, 1 << 32))
        check_ordered_field_triple(a, b, c, F(0), F(1))
    rng = random.Random(SEED + 1)
    for _ in range(10_000):
        check_ordered_field_triple(
            accept_rf(rng), accept_rf(rng), accept_rf(rng), RF_ZERO, RF_ONE
        )
    elapsed = time.perf_counter() - t0
    _report(
        1,
        elapsed < 10.0,
        f"ordered-field axioms on 10^4 random triples in each of Q and Q(x) "
        f"({elapsed:.2f}s < 10s)",
    )


def test_criterion_2_step_q_envelope(q_samples):
    half, two = F(1, 2), F(2)
    for t in q_samples:
        rc = ratio_bounds_check(StepQ(), t)
        assert rc.passed
        assert half < rc.ratio < two
    _report(
        2,
        True,
        f"1/2 < |StepQ(t)/t| < 2 exactly on {len(q_samples)} samples "
        f"spanning 2^-200..2^200",
    )


def test_criterion_3_step_qx_envelope(qx_samples):
    lower, upper = RF_X, x_pow(-1)
    for t in qx_samples:
        rc = ratio_bounds_check(StepQX(), t)
        assert rc.passed
        assert lower < rc.ratio < upper
    _report(
        3,
        True,
        f"x < |StepQX(t)/t| < 1/x exactly on {len(qx_samples)} samples "
        f"(valuations -20..20)",
    )


def test_criterion_4_local_constancy_and_zero_derivative(q_samples, qx_samples):
    eps_q = [F(1), pow2(-16), pow2(-128)]
    eps_qx = [rf_const(F(1)), rf_const(pow2(-16)), x_pow(3)]
    for fn, samples, eps_schedule in (
        (StepQ(), q_samples, eps_q),
        (StepQX(), qx_samples, eps_qx),
    ):
        for t in samples:
            value, radius = local_constancy(fn, t)
            for k in range(1, 11):
                h = radius * F(k, 11) * (1 if k % 2 else -1)
                assert evaluate(fn, t + h) == value
            cert = derivative_certificate(fn, t)
            rep = check_verifier(
                VerifierCert(derivative_claim(fn, t, cert.value), cert.rule, ""),
                eps_schedule,
                0,
            )
            assert rep.passed
            assert all(not r.dist for r in rep.records)  # exactly zero
    _report(
        4,
        True,
        "step functions exactly constant on 10 probes inside each certified "
        "radius; difference quotients exactly 0 under the referee",
    )


def test_criterion_5_dlim_q(dlim_q_run):
    code, text, elapsed = dlim_q_run
    deep_eps = f"eps=1/{2**128} "
    deep_delta = f"delta=1/{2**512} "
    ok = (
        code == 0
        and elapsed < 1.0
        and deep_eps in text
        and deep_delta in text
        and "verdict=fail" not in text
    )
    _report(
        5,
        ok,
        f"demo dlim --field q exit 0, eps down to 2^-128, refutations down "
        f"to delta = 2^-512 ({elapsed:.2f}s < 1s)",
    )


def test_criterion_6_dlim_qx(dlim_qx_run):
    code, text, elapsed = dlim_qx_run
    assert code == 0 and elapsed < 5.0
    assert "verdict=fail" not in text
    # infinitesimal challenges up to x^64 * 2^-64 are present
    assert f"delta=1/{2**64}*x^64 " in text
    # every refutation record is exact: recompute each one from its line
    fn = parse_name(Field.QX, "diffq(step_qx,0)", "function name")
    n_refutations = 0
    for line in text.splitlines():
        if not line.startswith("check ") or "kind=falsifier" not in line:
            continue
        _, kv = parse_kv_line(line)
        w = parse_elem(Field.QX, kv["w"])
        delta = parse_elem(Field.QX, kv["delta"])
        eps = parse_elem(Field.QX, kv["eps"])
        assert RF_ZERO < abs(w) < delta
        assert abs(evaluate(fn, w) - RF_ZERO) >= eps
        n_refutations += 1
    assert n_refutations == 130  # m = 0..64, k in {0, 64}
    _report(
        6,
        True,
        f"demo dlim --field qx exit 0 with infinitesimal deltas x^m*2^-64, "
        f"all {n_refutations} refutation records recomputed exactly "
        f"({elapsed:.2f}s < 5s)",
    )


def test_criterion_7_mvt(mvt_run):
    code, text = mvt_run
    assert code == 0
    assert "mvt a=1 b=2 fa=1 fb=0 gap=-1" in text
    bounds = [ln for ln in text.splitlines() if ln.startswith("bound ")]
    assert len(bounds) >= 100
    for line in bounds:
        _, kv = parse_kv_line(line)
        edge = parse_elem(Field.Q, kv["edge"])
        point = parse_elem(Field.Q, kv["point"])
        radius = parse_elem(Field.Q, kv["radius"])
        assert radius > 0
        # the radius is justified by one exact squaring inequality
        if kv["side"] == "below":
            assert edge == point + radius and edge * edge < 2
        else:
            assert edge == point - radius and edge * edge > 2
    reports = [ln for ln in text.splitlines() if ln.startswith("report ")]
    assert len(reports) == 2 * len(bounds)
    assert all("verdict=pass" in ln for ln in reports)
    # the landmark interior points sit on the expected sides of sqrt(2)
    assert any("point=3/2 " in ln and "side=above" in ln for ln in bounds)
    assert any("point=7/5 " in ln and "side=below" in ln for ln in bounds)
    _report(
        7,
        True,
        f"demo mvt exit 0: f(2)-f(1) = -1 with {len(bounds)} interior points, "
        f"each radius justified by an exact squaring inequality, all "
        f"continuity and zero-derivative certificates referee-passed",
    )


def test_criterion_8_lhopital_and_taylor(lhopital_run, taylor2_run, capsys):
    lh_code, lh_text = lhopital_run
    ty_code, ty_text = taylor2_run
    assert lh_code == 0 and ty_code == 0

    def conclusion_refuted(text: str, fn_name: str) -> bool:
        lines = text.splitlines()
        claim_id = None
        for ln in lines:
            if ln.startswith("claim ") and f"fn={fn_name} " in ln and "candidate=0" in ln:
                claim_id = parse_kv_line(ln)[1]["id"]
        assert claim_id is not None
        cert = [
            ln
            for ln in lines
            if ln.startswith("cert ")
            and f"claim={claim_id} " in ln
            and "kind=falsifier" in ln
        ]
        assert len(cert) == 1 and "eps=1/2" in cert[0]
        checks = [
            ln
            for ln in lines
            if ln.startswith("check ") and f"claim={claim_id} " in ln
        ]
        # every scheduled delta refuted: defaults go down to 2^-512
        assert len(checks) == 513
        return all("verdict=pass" in ln for ln in checks)

    assert conclusion_refuted(lh_text, "quotient(step_q,identity)")
    assert conclusion_refuted(ty_text, "quotient(outer_square_step,pow:2)")
    assert "verdict=fail" not in lh_text
    assert "verdict=fail" not in ty_text
    # n = 1 is a usage error (exit 2)
    assert cli_main(["demo", "taylor", "--n", "1"]) == 2
    capsys.readouterr()
    _report(
        8,
        True,
        "demo lhopital and demo taylor --n 2 exit 0 with hypothesis "
        "certificates passed and candidate-0 conclusions refuted at eps = 1/2 "
        "for all 513 deltas; demo taylor --n 1 exits 2",
    )


def test_criterion_9_series_oracle(rng):
    from oracle_series import expand, s_add, s_div, s_mul, s_sub, series_equal

    rng = random.Random(SEED + 9)
    checked = 0
    t0 = time.perf_counter()
    for _ in range(1000):
        a = accept_rf(rng)
        b = accept_rf(rng)
        sa, sb = expand(a), expand(b)
        assert series_equal(expand(a + b), s_add(sa, sb))
        assert series_equal(expand(a - b), s_sub(sa, sb))
        assert series_equal(expand(a * b), s_mul(sa, sb))
        if b:
            assert series_equal(expand(a / b), s_div(sa, sb))
        if a and b:
            assert valuation(a * b) == valuation(a) + valuation(b)
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        9,
        True,
        f"Q(x) arithmetic agrees with the 32-term long-division series "
        f"oracle on {checked} random pairs; valuation additivity exact "
        f"({elapsed:.1f}s)",
    )


def test_criterion_10_transcript_determinism(
    dlim_q_run, dlim_qx_run, mvt_run, lhopital_run, taylor2_run
):
    reruns = {
        "dlim q": (dlim_q_run[1], lambda: run_demo(demo_dlim, Field.Q)),
        "dlim qx": (dlim_qx_run[1], lambda: run_demo(demo_dlim, Field.QX)),
        "mvt": (mvt_run[1], lambda: run_demo(demo_mvt)),
        "lhopital": (lhopital_run[1], lambda: run_demo(demo_lhopital)),
        "taylor": (taylor2_run[1], lambda: run_demo(demo_taylor, 2)),
    }
    for name, (first, run) in reruns.items():
        _, text = run()
        assert text.encode() == first.encode(), name
    _report(
        10,
        True,
        "two identical runs of each demo produce byte-identical transcripts",
    )


# SHA-256 of each default transcript; a refactor must leave every byte as is.
GOLDEN_DIGESTS = {
    "dlim q": "89b84716fa113200eaa6e77c08ca6d46a9f2e33a78157e42617693bf65ab9ffa",
    "dlim qx": "406fdab56feeb2977b24a34e93909adf9c6a8fd39d29bf352b3b56ecf65df76b",
    "mvt": "b1e0e986981ca138b250e32d448bc6d4fea1845487b10faddf1a451ecfcd6d6e",
    "lhopital": "4a113568b513b663ac06d4caa87276d8793be402a15f9ee50c0613471357c6c5",
    "taylor": "155e738fea1e9083e6dbc74387c57656b290dda774216e1b1ad22a87e4dc3e4f",
    "dlim_q_falsifier.claim": "cdf3fb3a3926600f4fd6d5f7de44168430401b0c4d0d8c576602da0b388d871a",
    "dlim_qx_falsifier.claim": "5b9dedc484a378f66b5dfe6b91949bf237f3f4d4628a48b9ef396976f7cca6b6",
}


def test_golden_transcript_digests(
    dlim_q_run, dlim_qx_run, mvt_run, lhopital_run, taylor2_run, capsys
):
    texts = {
        "dlim q": dlim_q_run[1],
        "dlim qx": dlim_qx_run[1],
        "mvt": mvt_run[1],
        "lhopital": lhopital_run[1],
        "taylor": taylor2_run[1],
    }
    capsys.readouterr()
    for name in ("dlim_q_falsifier.claim", "dlim_qx_falsifier.claim"):
        assert cli_main(["claim", str(FIXTURES / name)]) == 0
        texts[name] = capsys.readouterr().out
    for name, text in texts.items():
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_DIGESTS[name], name


# SHA-256 of the paths the default transcripts miss: each side of a
# TwoSided witness and Taylor orders past 2, at shallow schedules.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "demo lhopital --candidate 7/5",
            "dda66a265d68fec2886c2ddae31741f5c72c51c10826b63e60e8efaa60aabcb4",
        ),
        (
            "demo lhopital --candidate -3",
            "cab2da56c94cf0d3d3b451b2cc1cf8b610a99bb0a91cdc7ff3fcfbd8cf6f4c45",
        ),
        (
            "demo taylor --n 3 --candidate 1/8",
            "cff7c368b7301685a5403c8d7f83c7e107bcf65847c660df2513a1662a0bfa94",
        ),
        (
            "demo taylor --n 4 --candidate 2",
            "d98279756fca8cb7504cbb5d0e58d0f64e70b931cc520207149f538d8155b5f7",
        ),
    ],
)
def test_candidate_and_taylor_order_digests(argv, digest, capsys):
    assert cli_main(argv.split() + ["--eps-depth", "20", "--delta-depth", "20"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
