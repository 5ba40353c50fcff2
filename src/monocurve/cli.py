"""Batch command-line front end.

Five commands: info, generators, syzygies, verify, sweep.  Output is
text or JSON; exit code 0 means every check passed, 1 means some check
failed, 2 means the input was unusable.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import generators as gens
from . import polyring, semigroup, syzygy
from .report import VerificationReport
from .semigroup import CurveParams, ParameterError, make_params


@dataclass
class RunConfig:
    command: str
    m0: int | None = None
    d: int | None = None
    p: int | None = None
    bound: int = 5
    samples: int = 1000
    seed: int = 0
    fmt: str = "text"
    output: str | None = None
    deep: bool = True
    p_range: tuple[int, int] = (2, 5)
    a_range: tuple[int, int] = (1, 3)
    d_range: tuple[int, int] = (1, 4)
    b_range: str = "1..p"


def verification_bundle(params: CurveParams, bound: int, samples: int, seed: int,
                        deep: bool = True) -> list[VerificationReport]:
    """Every verification report the tool knows how to produce."""
    return [
        semigroup.verify_minimal_multiples(params),
        gens.verify_groebner_generators(params),
        gens.verify_minimality(params, deep=deep),
        gens.verify_ideal_equality(params),
        gens.verify_standard_monomials(params, bound),
        syzygy.verify_syzygy_basis(params),
        syzygy.verify_excluded_leading_forms(params, bound),
        syzygy.verify_order_projection(params, samples=samples, seed=seed),
    ]


def _emit(config: RunConfig, text: str):
    if config.output:
        with open(config.output, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _params_lines(params: CurveParams) -> list[str]:
    mp_found = semigroup.min_multiple_of_mp(params)
    m0_found = semigroup.min_multiple_of_m0(params)
    return [
        f"p = {params.p}, m0 = {params.m0}, d = {params.d}, a = {params.a}, b = {params.b}",
        f"generators: {', '.join(map(str, params.generators))}",
        f"smallest m with m*m_p = n*m0 + m_i:  (m, n, i) = {mp_found}"
        f"  [identity {semigroup.mp_multiple_identity(params)}]",
        f"smallest n with n*m0 = m*m_p + m_i:  (n, m, i) = {m0_found}"
        f"  [identity {semigroup.m0_multiple_identity(params)}]",
    ]


def _cmd_info(config: RunConfig) -> int:
    params = make_params(config.m0, config.d, config.p)
    if config.fmt == "json":
        payload = {
            "params": params.to_dict(),
            "mp_multiple": list(semigroup.min_multiple_of_mp(params)),
            "m0_multiple": list(semigroup.min_multiple_of_m0(params)),
        }
        _emit(config, json.dumps(payload, indent=2))
    else:
        _emit(config, "\n".join(_params_lines(params)))
    return 0


def _cmd_generators(config: RunConfig) -> int:
    params = make_params(config.m0, config.d, config.p)
    order = polyring.WeightOrder(params)
    gset = gens.groebner_generators(params)
    patil = gens.patil_generators(params)
    if config.fmt == "json":
        payload = {
            "params": params.to_dict(),
            "counts": {"groebner": len(gset), "classical": len(patil)},
            "groebner": [
                {
                    "label": lab,
                    "terms": polyring.poly_to_json(order, g),
                    "leading_monomial": list(order.leading_monomial(g)),
                }
                for lab, g in gset.labeled()
            ],
            "classical": [
                {"label": lab, "terms": polyring.poly_to_json(order, g)}
                for lab, g in patil.labeled()
            ],
        }
        _emit(config, json.dumps(payload, indent=2))
    else:
        lines = [f"closed-form basis ({len(gset)} elements):"]
        for lab, g in gset.labeled():
            lm = polyring.mono_to_name(order.leading_monomial(g))
            lines.append(f"  {lab} = {polyring.format_poly(order, g)}   [lead {lm}]")
        lines.append(f"classical basis ({len(patil)} elements):")
        for lab, g in patil.labeled():
            lines.append(f"  {lab} = {polyring.format_poly(order, g)}")
        _emit(config, "\n".join(lines))
    return 0


def _cmd_syzygies(config: RunConfig) -> int:
    params = make_params(config.m0, config.d, config.p)
    morder = syzygy.ModuleOrder(params)
    sset = syzygy.syzygy_basis(params)
    if config.fmt == "json":
        payload = {
            "params": params.to_dict(),
            "counts": sset.counts(),
            "elements": [
                {
                    "label": lab,
                    "terms": syzygy.mod_elem_to_json(morder, g),
                    "leading_term": syzygy.term_to_json(morder.leading_term(g)[0]),
                }
                for lab, g in sset.labeled()
            ],
        }
        _emit(config, json.dumps(payload, indent=2))
    else:
        counts = sset.counts()
        lines = [
            f"syzygy basis: {counts['A']} A + {counts['B']} B + {counts['L']} L"
            f" = {counts['total']} elements"
        ]
        for lab, g in sset.labeled():
            lines.append(f"  {lab} = {syzygy.format_mod_elem(morder, g)}")
        _emit(config, "\n".join(lines))
    return 0


def _cmd_verify(config: RunConfig) -> int:
    params = make_params(config.m0, config.d, config.p)
    reports = verification_bundle(
        params, config.bound, config.samples, config.seed, deep=config.deep
    )
    passed = all(r.passed for r in reports)
    if config.fmt == "json":
        payload = {
            "params": params.to_dict(),
            "passed": passed,
            "counts": {
                "generators": len(gens.groebner_generators(params)),
                "syzygies": syzygy.syzygy_basis(params).counts(),
            },
            "checks": [rec for r in reports for rec in r.to_records()],
        }
        _emit(config, json.dumps(payload, indent=2))
    else:
        lines = _params_lines(params)
        for r in reports:
            for c in r.checks:
                status = "pass" if c.passed else "FAIL"
                detail = f"  ({c.detail})" if c.detail else ""
                lines.append(f"[{status}] {c.name}{detail}")
                if c.witness is not None:
                    lines.append(f"        witness: {json.dumps(c.witness)}")
        lines.append("result: " + ("all checks passed" if passed else "CHECKS FAILED"))
        _emit(config, "\n".join(lines))
    return 0 if passed else 1


def _cmd_sweep(config: RunConfig) -> int:
    p_lo, p_hi = config.p_range
    a_lo, a_hi = config.a_range
    d_lo, d_hi = config.d_range
    b_lo, b_hi = (1, p_hi) if config.b_range == "1..p" else _parse_range(config.b_range)
    grid = [
        (p, a, b, d)
        for p in range(p_lo, p_hi + 1)
        for a in range(a_lo, a_hi + 1)
        for b in range(b_lo, min(b_hi, p) + 1)
        for d in range(d_lo, d_hi + 1)
    ]
    if not grid:
        raise ParameterError("the parameter grid is empty")
    entries = []
    failed = skipped = 0
    for p, a, b, d in grid:
        m0 = a * p + b
        try:
            params = make_params(m0, d, p)
        except ParameterError as exc:
            skipped += 1
            entries.append(
                {"p": p, "a": a, "b": b, "d": d, "m0": m0,
                 "status": "skip", "reason": str(exc)}
            )
            continue
        reports = verification_bundle(
            params, config.bound, config.samples, config.seed, deep=False
        )
        ok = all(r.passed for r in reports)
        if not ok:
            failed += 1
        entry = {
            "p": p, "a": a, "b": b, "d": d, "m0": m0,
            "status": "pass" if ok else "fail",
        }
        if not ok:
            entry["failures"] = [
                rec for r in reports for rec in r.to_records()
                if rec["status"] == "fail"
            ]
        entries.append(entry)
    ran = len(entries) - skipped
    summary = {"ran": ran, "passed": ran - failed, "failed": failed, "skipped": skipped}
    if config.fmt == "json":
        _emit(config, json.dumps({"entries": entries, "summary": summary}, indent=2))
    else:
        lines = []
        for e in entries:
            tag = e["status"]
            line = f"p={e['p']} a={e['a']} b={e['b']} d={e['d']} m0={e['m0']}: {tag}"
            if tag == "skip":
                line += f" ({e['reason']})"
            lines.append(line)
        lines.append(
            f"summary: {summary['ran']} verified, {summary['passed']} passed,"
            f" {summary['failed']} failed, {summary['skipped']} skipped"
        )
        _emit(config, "\n".join(lines))
    return 0 if failed == 0 else 1


_COMMANDS = {
    "info": _cmd_info,
    "generators": _cmd_generators,
    "syzygies": _cmd_syzygies,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def run(config: RunConfig) -> int:
    try:
        return _COMMANDS[config.command](config)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _parse_range(text: str) -> tuple[int, int]:
    """'lo..hi', or a single value, as a non-empty integer range."""
    lo, _, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi or lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo..hi with integers, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _b_range(text: str) -> str:
    if text != "1..p":
        _parse_range(text)
    return text


def _bound(text: str) -> int:
    """An exponent cap; the enumerations need at least 2."""
    try:
        bound = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if bound < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {bound}")
    return bound


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monocurve",
        description=(
            "Construct and verify the closed-form Groebner basis of an "
            "arithmetic-sequence monomial curve ideal and of its first "
            "syzygy module, using exact rational arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, triple=True):
        if triple:
            p.add_argument("--m0", type=int, required=True, help="smallest generator")
            p.add_argument("--d", type=int, required=True, help="common difference")
            p.add_argument("--p", type=int, required=True, help="number of steps")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", default=None, help="write output to this path")

    common(sub.add_parser("info", help="parameters and minimal-multiple data"))
    common(sub.add_parser("generators", help="dump both generating sets"))
    common(sub.add_parser("syzygies", help="dump the syzygy basis"))

    v = sub.add_parser("verify", help="full verification for one parameter triple")
    common(v)
    v.add_argument("--bound", type=_bound, default=5, help="exponent cap for enumerations")
    v.add_argument("--samples", type=int, default=1000, help="sampled projection checks")
    v.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    v.add_argument("--shallow", action="store_true",
                   help="skip the one-left-out redundancy closures")

    s = sub.add_parser("sweep", help="verification across a parameter grid")
    s.add_argument("--p", type=_parse_range, default="2..5", help="range lo..hi")
    s.add_argument("--a", type=_parse_range, default="1..3", help="range lo..hi")
    s.add_argument("--b", type=_b_range, default="1..p", help="range lo..hi, or 1..p")
    s.add_argument("--d", type=_parse_range, default="1..4", help="range lo..hi")
    s.add_argument("--bound", type=_bound, default=4)
    s.add_argument("--samples", type=int, default=200)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--format", choices=("text", "json"), default="text")
    s.add_argument("--output", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "sweep":
        config = RunConfig(
            command="sweep",
            bound=args.bound,
            samples=args.samples,
            seed=args.seed,
            fmt=args.format,
            output=args.output,
            p_range=args.p,
            a_range=args.a,
            d_range=args.d,
            b_range=args.b,
        )
    else:
        config = RunConfig(
            command=args.command,
            m0=args.m0,
            d=args.d,
            p=args.p,
            fmt=args.format,
            output=args.output,
            bound=getattr(args, "bound", 5),
            samples=getattr(args, "samples", 1000),
            seed=getattr(args, "seed", 0),
            deep=not getattr(args, "shallow", False),
        )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
