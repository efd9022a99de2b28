"""The benchmark's workloads: what one pass runs, and its pinned oracle.

A CLI workload is a list of ``Op``: one ``diffam construct`` or ``diffam
verify`` child process each, run in order in the work directory, so that
later operations read the files earlier ones wrote.  The ``sweep`` workload
is one in-process child that builds and re-verifies many small designs.

Expected status lines, sha256 digests of written files and sweep design
digests are pinned in ``pins.json``.  They were recorded from the seed
release of diffam, whose files the test suite checks byte for byte, and
every pass is compared with them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

PINS = json.loads((Path(__file__).parent / "pins.json").read_text(encoding="utf-8"))

WORKLOADS = ("sweep", "cyclic-large", "big-blocks", "ext-products")

# Candidate orders for cyclic-large: 16 values spread evenly over the orders
# in [122000, 128000] whose prime divisors are all 1 mod 3.  An eighth of the
# group-order cap keeps each construct near 2 s on a 2-vCPU VM, so a run
# holds enough passes for a steady median; the work per element is the
# same as at the cap.
CYCLIC_LARGE_ORDERS = (
    122173, 122557, 122941, 123367, 123703, 124123, 124477, 124873,
    125227, 125569, 125899, 126307, 126697, 127063, 127447, 127813,
)
CYCLIC_SMOKE_ORDERS = (1951, 2107)


@dataclass(frozen=True)
class Op:
    phase: str  # "construct" or "verify"
    args: tuple[str, ...]
    line: str  # the exact line expected on stdout
    out: str | None = None  # file written by a construct
    sha256: str | None = None  # its pinned digest


def _construct(pins: dict, args: tuple[str, ...], out: str) -> Op:
    pin = pins[out]
    return Op("construct", ("construct",) + args + ("--out", out), pin["line"], out, pin["sha256"])


def _verify(pins: dict, path: str) -> Op:
    return Op("verify", ("verify", path), pins[path]["verify"])


def cli_ops(workload: str, seed: int, smoke: bool) -> list[Op]:
    size = "smoke" if smoke else "full"
    if workload == "cyclic-large":
        orders = CYCLIC_SMOKE_ORDERS if smoke else CYCLIC_LARGE_ORDERS
        v = random.Random(seed).choice(orders)
        pins = PINS["cyclic-large"][size][str(v)]
        return [
            _construct(pins, ("furino", "--v", str(v), "--k", "3"), "cyclic.json"),
            _verify(pins, "cyclic.json"),
        ]
    pins = PINS[workload][size]
    if workload == "big-blocks":
        m8, m7, d, e = ("4", "3", "3", "2") if smoke else ("8", "7", "7", "2")
        return [
            _construct(pins, ("singer", "--q", "3", "--m", m8), "singer-a.json"),
            _verify(pins, "singer-a.json"),
            _construct(pins, ("singer", "--q", "3", "--m", m7), "singer-b.json"),
            _construct(pins, ("dds-product", "--ds", "singer-b.json", "--h", "3"), "dds.json"),
            _verify(pins, "dds.json"),
            _construct(pins, ("result3star", "--q", "3", "--d", d, "--e", e, "--h", "2"), "r3.json"),
            _verify(pins, "r3.json"),
        ]
    if workload == "ext-products":
        ext = "4,7" if smoke else "4,25,49"
        cyclo = "7,13" if smoke else "7,13,19"
        written = ("hdm.json", "furino.json", "trivial.json", "product.json", "cyclo.json")
        return [
            _construct(pins, ("units-hdm", "--factors", ext, "--k", "3"), "hdm.json"),
            _construct(pins, ("furino", "--factors", ext, "--k", "3"), "furino.json"),
            _construct(pins, ("trivial-ds", "--k", "3"), "trivial.json"),
            _construct(
                pins,
                ("product", "--ddf-g", "trivial.json", "--ddf-h", "furino.json", "--dm", "hdm.json"),
                "product.json",
            ),
            _construct(pins, ("cyclotomic-half", "--factors", cyclo, "--k", "3"), "cyclo.json"),
        ] + [_verify(pins, path) for path in written]
    raise ValueError(f"unknown CLI workload {workload!r}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation by trial division, kept apart from diffam's own."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _divisors_ok(factors: dict, k: int, power: bool) -> bool:
    return all(((p**a if power else p) - 1) % k == 0 for p, a in factors.items())


def sweep_items(seed: int, smoke: bool) -> list[list]:
    """The criterion-2 sweep of the acceptance tests, v <= 1000 and k in
    {3, 5}: cyclic and product-ring unit-orbit families and their halves.
    The seed fixes only the order in which they are built."""
    top = 100 if smoke else 1000
    items = []
    for k in (3, 5):
        for v in range(2, top + 1):
            fac = factorize(v)
            for kind, power in (("cyclic", False), ("ring", True)):
                if _divisors_ok(fac, k, power):
                    items.append([kind, v, k, False])
                    if (v * k) % 2 == 1:
                        items.append([kind, v, k, True])
    random.Random(seed).shuffle(items)
    return items


def sweep_key(item) -> str:
    kind, v, k, half = item
    return f"{kind}:{v}:{k}:{int(half)}"


def sweep_expected_blocks(item) -> int:
    _, v, k, half = item
    return (v - 1) // (2 * k if half else k)
