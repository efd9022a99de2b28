"""Parameter arithmetic for difference sets and their divisible variants.

Everything here is exact integer counting.  A (v, k, lambda) difference set
produces k*(k-1) ordered differences spread evenly over v - 1 nonzero
elements, so

    lambda * (v - 1) = k * (k - 1)

is necessary.  Scaling an admissible triple to (mu*v, mu*k, mu*lambda)
leaves the two sides differing by mu*(mu - 1)*k*(v - k)/(v - 1), so a
nondegenerate scaled triple stays admissible only when mu = 1; the reported
residual drops the positive factors and keeps the telling one,
(v - k)*(mu - 1).  The divisible analogue counts subgroup and non-subgroup
differences separately:

    k * (k - 1) = lambda1 * (n - 1) + lambda2 * n * (m - 1).

These verdicts carry both sides of the identity they test, so a refutation
is printable evidence rather than a bare boolean.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from math import gcd, log10

from .groups import GROUP_ORDER_CAP, prime_power
from .designs import DDSParams, DSParams, ds_lambda

__all__ = [
    "IdentityVerdict",
    "Result3Verdict",
    "ds_admissible",
    "ds_lambda",
    "proportional_pair_admissible",
    "dds_counting_identity",
    "refute_result3",
]


class IdentityVerdict(namedtuple("IdentityVerdict", "ok identity lhs rhs note", defaults=("",))):
    """One counting identity, evaluated: ok iff lhs == rhs (and any range
    condition noted in ``note`` holds)."""

    __slots__ = ()

    def __str__(self) -> str:
        status = "holds" if self.ok else "fails"
        text = f"{self.identity}: {self.lhs} vs {self.rhs} ({status})"
        return f"{text}; {self.note}" if self.note else text


def ds_admissible(params: DSParams) -> IdentityVerdict:
    """Necessary counting condition lambda*(v-1) = k*(k-1), plus the range
    condition 0 <= lambda <= k <= v."""
    lhs = params.lam * (params.v - 1)
    rhs = params.k * (params.k - 1)
    note = ""
    range_ok = 0 <= params.lam <= params.k <= params.v
    if not range_ok:
        note = f"range violated: need 0 <= {params.lam} <= {params.k} <= {params.v}"
    return IdentityVerdict(lhs == rhs and range_ok, "lambda*(v-1) = k*(k-1)", lhs, rhs, note)


def proportional_pair_admissible(params: DSParams, mu: int) -> IdentityVerdict:
    """Whether the scaled triple (mu*v, mu*k, mu*lambda) of an admissible
    triple can itself be admissible: the identity residual factors as
    (v - k)*(mu - 1), so only mu = 1 or the degenerate v = k survive.

    The factored residual presumes a nonempty block (k >= 1): for k = 0 the
    scaled triple is again (mu*v, 0, 0) and satisfies the counting identity
    trivially, so this verdict is only meaningful for k >= 1."""
    if mu < 1:
        raise ValueError(f"scale factor must be positive, got {mu}")
    base = ds_admissible(params)
    if not base.ok:
        raise ValueError(f"base triple {params} is not admissible: {base}")
    residual = (params.v - params.k) * (mu - 1)
    return IdentityVerdict(
        residual == 0,
        "(v-k)*(mu-1) = 0",
        residual,
        0,
        f"scaled triple {params.scaled(mu)}",
    )


def dds_counting_identity(params: DDSParams) -> IdentityVerdict:
    """Necessary counting condition for an (m, n, k, lambda1, lambda2)
    divisible difference set: k*(k-1) = lambda1*(n-1) + lambda2*n*(m-1)."""
    lhs = params.k * (params.k - 1)
    rhs = params.lam1 * (params.n - 1) + params.lam2 * params.n * (params.m - 1)
    return IdentityVerdict(
        lhs == rhs, "k*(k-1) = lambda1*(n-1) + lambda2*n*(m-1)", lhs, rhs
    )


class Result3Verdict(
    namedtuple("Result3Verdict", "ok singer_case base mu triple evidence residual")
):
    """Admissibility of the scaled hyperplane triple

        ( h*(q^m - 1)/e, h*(q^(m-1) - 1)/e, h*(q^(m-2) - 1)/e ),

    which is the classical ((q^m-1)/(q-1), ...) triple scaled by
    mu = h*(q-1)/e.  ``ok`` (equivalently ``singer_case``) holds exactly for
    (e, h) = (q-1, 1), i.e. mu = 1; otherwise ``evidence`` is the failing
    counting identity of the scaled triple."""

    __slots__ = ()


def refute_result3(q: int, m: int, e: int, h: int) -> Result3Verdict:
    """Evaluate the scaled hyperplane triple for dimension m over GF(q) with
    divisor e of q - 1 and 1 <= h <= e, gcd(m, e) = 1.

    Returns a verdict that is ok only in the unscaled case (e, h) = (q-1, 1);
    in every other case the verdict carries the failing identity
    lambda*(v-1) = k*(k-1) of the scaled triple and the nonzero residual
    (v0 - k0)*(mu - 1) of the base triple (v0, k0, lambda0).

    A q above GROUP_ORDER_CAP^2 (too large to factor by trial division), or
    a triple whose counts (about 2*m*log10(q) digits) would be too long for
    Python to print, is refused before q is factored or raised to a power.
    """
    if q > GROUP_ORDER_CAP**2:
        raise ValueError(
            f"q = {q} exceeds {GROUP_ORDER_CAP}^2, the largest q this check factors"
        )
    # 0 means no limit, as before Python 3.10.7, which lacks the getter
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if q > 1 and digit_limit and 2 * m * log10(q) > digit_limit:
        raise ValueError(
            f"m = {m} gives counts of about {round(2 * m * log10(q))} digits for q = {q}, "
            f"more than the {digit_limit} digits Python prints"
        )
    if prime_power(q) is None:
        raise ValueError(f"{q} is not a prime power")
    if m < 3:
        raise ValueError(f"need dimension >= 3, got {m}")
    if e < 1 or (q - 1) % e != 0:
        raise ValueError(f"{e} does not divide q - 1 = {q - 1}")
    if gcd(m, e) != 1:
        raise ValueError(f"gcd(m, e) = gcd({m}, {e}) != 1")
    if not 1 <= h <= e:
        raise ValueError(f"need 1 <= h <= e, got h={h}, e={e}")
    base = DSParams(
        (q**m - 1) // (q - 1),
        (q ** (m - 1) - 1) // (q - 1),
        (q ** (m - 2) - 1) // (q - 1),
    )
    mu = h * (q - 1) // e
    triple = base.scaled(mu)
    singer_case = e == q - 1 and h == 1
    evidence = ds_admissible(triple)
    residual = proportional_pair_admissible(base, mu)
    if evidence.ok != singer_case or residual.ok != singer_case:
        raise RuntimeError(
            f"inconsistent verdict for (q,m,e,h)=({q},{m},{e},{h})"
        )  # the identities make these equivalent
    return Result3Verdict(singer_case, singer_case, base, mu, triple, evidence, residual)


# ---------------------------------------------------------------------------
# the check command (``diffam check``, whose parser is in diffam.cli)
# ---------------------------------------------------------------------------


def _print_identity(verdict, label: str) -> None:
    relation = "=" if verdict.lhs == verdict.rhs else "!="
    print(f"  {label}: {verdict.lhs} {relation} {verdict.rhs}")
    if verdict.note:
        print(f"  {verdict.note}")


def _refuse_unprintable(values: dict) -> None:
    """Refuse, before any output, a value the check would print whose
    decimal text passes Python's int-to-str digit limit, naming it (as
    refute_result3 refuses its parameters)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for name, x in values.items():
        if limit and abs(x) >= 10**limit:
            raise ValueError(
                f"{name} has more than {limit} digits, more than Python prints"
            )


def cmd_check(args) -> int:
    if args.what == "ds":
        _refuse_unprintable({"v": args.v, "k": args.k, "lambda": args.lam})
        params = DSParams(args.v, args.k, args.lam)
        verdict = ds_admissible(params)
        _refuse_unprintable({"lambda*(v-1)": verdict.lhs, "k*(k-1)": verdict.rhs})
        print(f"ds {params}: {'ADMISSIBLE' if verdict.ok else 'INADMISSIBLE'}")
        _print_identity(verdict, "lambda*(v-1) vs k*(k-1)")
        return 0 if verdict.ok else 1
    if args.what == "dds":
        values = (args.m, args.n, args.k, args.lam1, args.lam2)
        _refuse_unprintable(dict(zip(("m", "n", "k", "lambda1", "lambda2"), values)))
        params = DDSParams(*values)
        verdict = dds_counting_identity(params)
        _refuse_unprintable(
            {"k*(k-1)": verdict.lhs, "lambda1*(n-1) + lambda2*n*(m-1)": verdict.rhs}
        )
        print(f"dds {params}: {'CONSISTENT' if verdict.ok else 'INCONSISTENT'}")
        _print_identity(verdict, "k*(k-1) vs lambda1*(n-1) + lambda2*n*(m-1)")
        return 0 if verdict.ok else 1
    if args.what == "proportional":
        _refuse_unprintable({"v": args.v, "k": args.k, "lambda": args.lam, "mu": args.mu})
        params = DSParams(args.v, args.k, args.lam)
        # the base identity is printed when it fails; once it holds,
        # 0 <= lambda <= k <= v, so mu*v bounds every other printed value
        base = ds_admissible(params)
        _refuse_unprintable(
            {"lambda*(v-1)": base.lhs, "k*(k-1)": base.rhs, "mu*v": args.mu * args.v}
        )
        verdict = proportional_pair_admissible(params, args.mu)
        scaled = params.scaled(args.mu)
        status = "ADMISSIBLE" if verdict.ok else "INADMISSIBLE"
        print(f"proportional {params} scaled by {args.mu} -> {scaled}: {status}")
        _print_identity(verdict, "(v-k)*(mu-1) vs 0")
        return 0 if verdict.ok else 1
    # result3
    verdict = refute_result3(args.q, args.m, args.e, args.h)
    header = f"result3 (q,m,e,h)=({args.q},{args.m},{args.e},{args.h})"
    if verdict.ok:
        print(f"{header}: VALID (hyperplane case e=q-1, h=1), triple {verdict.triple}")
        return 0
    print(f"{header}: REFUTED")
    print(
        f"  base triple {verdict.base} scaled by mu={verdict.mu} "
        f"claims {verdict.triple}"
    )
    _print_identity(verdict.evidence, "lambda*(v-1) vs k*(k-1)")
    _print_identity(verdict.residual, "(v-k)*(mu-1) vs 0")
    return 1
