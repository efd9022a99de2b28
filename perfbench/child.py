"""Child process of the benchmark.

    child.py [--spans PATH] cli ARGS...   run ``diffam.cli.main(ARGS)``
    child.py [--spans PATH] sweep SPEC    build and re-verify the designs in SPEC

With ``--spans`` the diffam functions are wrapped by ``tracer`` before any
work starts and the spans are written to PATH at exit.  The untraced CLI
operations of the benchmark do not come here: they run ``python -m
diffam.cli`` exactly as a user would.

The sweep prints one JSON object: the summed seconds spent in construction
(``build_ring`` + ``furino_ddf``) and in the caller's own ``verify_df``
calls, the times of ``speed.reference_loop`` run between designs, and per
design ``[blocks, verified, digest]``, where the digest is the first 16 hex
digits of sha256 over ``repr(family.blocks)``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from time import perf_counter

from speed import probe_gap


def sweep(items) -> dict:
    from diffam import algebra, constructions, designs

    construct_s = verify_s = 0.0
    results = []
    probes = []
    probe_every = max(1, len(items) // 10)
    for i, (kind, v, k, half) in enumerate(items):
        if i % probe_every == 0:
            probes += probe_gap()
        try:
            orders = [p**a for p, a in sorted(algebra.factorize(v).items())]
            t0 = perf_counter()
            base = v if kind == "cyclic" else algebra.build_ring(orders)
            family = constructions.furino_ddf(base, k, half=half)
            t1 = perf_counter()
            ok = designs.verify_df(family, (k - 1) // 2 if half else k - 1).ok
            t2 = perf_counter()
        except Exception as exc:  # one broken design must not hide the others
            results.append([None, False, f"{type(exc).__name__}: {exc}"])
            continue
        construct_s += t1 - t0
        verify_s += t2 - t1
        digest = hashlib.sha256(repr(family.blocks).encode()).hexdigest()[:16]
        results.append([len(family.blocks), ok, digest])
    probes += probe_gap()
    return {"construct_s": construct_s, "verify_s": verify_s, "probes": probes, "results": results}


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        from diffam import cli

        code = tracer.call("cli.main", cli.main, (rest,), {}) if tracer else cli.main(rest)
    elif mode == "sweep":
        with open(rest[0], encoding="utf-8") as handle:
            items = json.load(handle)
        print(json.dumps(sweep(items)))
        code = 0
    else:
        print(f"child.py: unknown mode {mode!r}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
