"""Counting identities: the basic existence identity for difference sets,
its divisible analogue, the proportional-scaling residual, and the combined
refutation pipeline for Singer-parameter claims."""

import math

import pytest

from diffam import admissibility, groups
from diffam.admissibility import (
    dds_counting_identity,
    ds_admissible,
    proportional_pair_admissible,
    refute_result3,
)
from diffam.algebra import prime_power
from diffam.designs import DDSParams, DSParams


def test_ds_admissible_examples():
    v = ds_admissible(DSParams(7, 3, 1))
    assert v.ok and v.lhs == 6 and v.rhs == 6
    v = ds_admissible(DSParams(170, 42, 10))
    assert not v.ok
    assert v.lhs == 1690 and v.rhs == 1722
    assert ds_admissible(DSParams(85, 21, 5)).ok
    assert ds_admissible(DSParams(13, 4, 1)).ok
    assert ds_admissible(DSParams(5, 5, 5)).ok  # full-group set
    assert ds_admissible(DSParams(10, 1, 0)).ok


def test_ds_admissible_range_notes():
    v = ds_admissible(DSParams(3, 3, 4))
    assert not v.ok and v.note
    v = ds_admissible(DSParams(4, 5, 1))
    assert not v.ok and v.note


def test_verdict_str_mentions_both_sides():
    text = str(ds_admissible(DSParams(170, 42, 10)))
    assert "1690" in text and "1722" in text


def test_proportional_residual():
    v = proportional_pair_admissible(DSParams(85, 21, 5), 2)
    assert not v.ok
    assert v.lhs == 64  # (85 - 21) * (2 - 1)
    assert v.rhs == 0
    v3 = proportional_pair_admissible(DSParams(85, 21, 5), 3)
    assert not v3.ok and v3.lhs == 128


def test_proportional_mu_one_and_full_group():
    assert proportional_pair_admissible(DSParams(85, 21, 5), 1).ok
    assert proportional_pair_admissible(DSParams(5, 5, 5), 3).ok


def test_proportional_validation():
    with pytest.raises(ValueError):
        proportional_pair_admissible(DSParams(85, 21, 5), 0)
    with pytest.raises(ValueError):
        proportional_pair_admissible(DSParams(170, 42, 10), 2)  # base inadmissible


def test_proportional_residual_matches_direct_check():
    """Whenever the residual is nonzero the scaled triple must also fail the
    plain counting identity, and conversely (for nonempty blocks)."""
    for v in range(2, 60):
        for k in range(1, v):
            num = k * (k - 1)
            if num % (v - 1) != 0:
                continue
            params = DSParams(v, k, num // (v - 1))
            if not ds_admissible(params).ok:
                continue
            for mu in range(1, 5):
                verdict = proportional_pair_admissible(params, mu)
                scaled_ok = ds_admissible(params.scaled(mu)).ok
                assert verdict.ok is scaled_ok
                assert verdict.lhs == (v - k) * (mu - 1)


def test_scaled_k1_triples_fail():
    params = DSParams(10, 1, 0)
    assert ds_admissible(params).ok
    scaled = params.scaled(3)
    assert scaled == DSParams(30, 3, 0)
    assert not ds_admissible(scaled).ok
    assert proportional_pair_admissible(params, 3).lhs == 18


def test_dds_counting_identity():
    v = dds_counting_identity(DDSParams(85, 2, 42, 42, 10))
    assert v.ok
    assert v.lhs == 42 * 41
    assert v.rhs == 42 + 10 * 168
    v = dds_counting_identity(DDSParams(7, 2, 6, 6, 2))
    assert v.ok and v.lhs == 30
    v = dds_counting_identity(DDSParams(7, 2, 6, 6, 3))
    assert not v.ok and v.lhs == 30 and v.rhs == 42


def test_refute_result3_hyperplane_claim():
    verdict = refute_result3(4, 4, 3, 2)
    assert not verdict.ok
    assert not verdict.singer_case
    assert verdict.base == DSParams(85, 21, 5)
    assert verdict.mu == 2
    assert verdict.triple == DSParams(170, 42, 10)
    assert verdict.evidence.lhs == 1690 and verdict.evidence.rhs == 1722
    assert verdict.residual.lhs == 64


def test_refute_result3_singer_case_survives():
    verdict = refute_result3(4, 4, 3, 1)
    assert verdict.ok and verdict.singer_case
    assert verdict.triple == DSParams(85, 21, 5)
    assert verdict.mu == 1


def test_refute_result3_small_case():
    verdict = refute_result3(3, 3, 2, 2)
    assert not verdict.ok
    assert verdict.base == DSParams(13, 4, 1)
    assert verdict.mu == 2
    assert verdict.triple == DSParams(26, 8, 2)
    assert verdict.residual.lhs == 9  # (13 - 4) * (2 - 1)


def test_refute_result3_hypothesis_validation():
    with pytest.raises(ValueError):
        refute_result3(6, 3, 1, 1)
    with pytest.raises(ValueError):
        refute_result3(4, 2, 3, 1)
    with pytest.raises(ValueError):
        refute_result3(4, 4, 2, 1)
    with pytest.raises(ValueError):
        refute_result3(4, 3, 3, 1)  # gcd(m, e) = 3
    with pytest.raises(ValueError):
        refute_result3(3, 3, 2, 3)  # h > e


def test_refute_result3_consistency_sweep():
    """Identity evidence, residual, and the mu = 1 criterion must agree on
    every hypothesis-satisfying tuple with q^m <= 1024."""
    for q in range(2, 33):
        if prime_power(q) is None:
            continue
        m = 3
        while q**m <= 1024:
            for e in range(1, q):
                if (q - 1) % e != 0 or math.gcd(m, e) != 1:
                    continue
                for h in range(1, e + 1):
                    verdict = refute_result3(q, m, e, h)
                    assert verdict.ok is verdict.singer_case
                    assert verdict.ok is ((e, h) == (q - 1, 1))
                    assert verdict.evidence.ok is verdict.ok
            m += 1


def test_refute_result3_refuses_large_parameters_before_work(monkeypatch):
    def never(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(admissibility, "prime_power", never)
    monkeypatch.setattr(groups, "factorize", never)
    for args, name in (
        ((10**18 + 3, 3, 1, 1), "q = 1000000000000000003"),
        ((3, 10**7 + 1, 2, 1), "m = 10000001"),
        ((3, 100001, 2, 1), "m = 100001"),
    ):
        with pytest.raises(ValueError, match=name):
            refute_result3(*args)


def test_refute_result3_prints_up_to_the_digit_limit():
    # 2*m*log10(3) = 4294.6 digits for m = 4501, just inside the default 4300
    verdict = refute_result3(3, 4501, 2, 2)
    assert not verdict.ok
    assert "fails" in str(verdict.evidence)
