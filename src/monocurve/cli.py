"""Batch command-line front end.

Five commands: info, generators, syzygies, verify, sweep.  Each command
returns its verdict and its lines (text) or payload (JSON); ``run`` alone
renders them, newline-joined or as two-space JSON, writes the result and
turns the outcome into the exit code: 0 when every check passed, 1 when
some check failed, 2 when the input was unusable or did not fit in
memory, with one ``error:`` line on stderr and no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import generators as gens
from . import polyring, semigroup, syzygy
from .report import VerificationReport
from .semigroup import CurveParams, ParameterError, make_params


def verification_bundle(curve: syzygy.Curve, bound: int, samples: int, seed: int,
                        deep: bool = True, drawn: dict | None = None) -> list[VerificationReport]:
    """Every verification report the tool knows how to produce.

    drawn, when given, keeps the sampled projection terms between calls,
    per (p, b) shape the first draw of each symbol, at most one term per
    symbol; the draws depend on nothing else but samples and seed, and a
    term's verdict on its symbol alone (syzygy.verify_order_projection).
    sweep passes one dict per p, so it holds at most p shapes; verify
    passes none, so its draws stop at the first failing sample.
    """
    return [
        semigroup.verify_minimal_multiples(curve.params),
        gens.verify_groebner_generators(curve),
        gens.verify_minimality(curve, deep=deep),
        gens.verify_ideal_equality(curve),
        gens.verify_standard_monomials(curve, bound),
        syzygy.verify_syzygy_basis(curve),
        syzygy.verify_excluded_leading_forms(curve, bound),
        syzygy.verify_order_projection(curve, samples=samples, seed=seed, drawn=drawn),
    ]


def _emit(args: argparse.Namespace, text: str):
    if args.output:
        # _output checks the directory; a full or failing device shows only here
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")  # the newline print adds on stdout
        except OSError as exc:
            raise ParameterError(f"cannot write {args.output!r}: {exc.strerror or exc}") from None
        return
    try:
        print(text, flush=True)
    except OSError as exc:
        # Point the stdout descriptor at devnull, so that the interpreter's
        # last flush at exit stays silent.  When the reader has gone
        # (BrokenPipeError) the command still returns the exit code of the
        # work it did; any other failure, such as a full device, is an
        # unwritable output.  A stream with no descriptor (io.StringIO)
        # has nothing to flush.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            fd = None
        if fd is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            raise ParameterError(f"cannot write to stdout: {exc.strerror or exc}") from None


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


def _cmd_info(args: argparse.Namespace) -> tuple[bool, list[str] | dict]:
    params = make_params(args.m0, args.d, args.p)
    if args.format == "text":
        return True, _params_lines(params)
    return True, {
        "params": params.to_dict(),
        "mp_multiple": list(semigroup.min_multiple_of_mp(params)),
        "m0_multiple": list(semigroup.min_multiple_of_m0(params)),
    }


def _cmd_generators(args: argparse.Namespace) -> tuple[bool, list[str] | dict]:
    params = make_params(args.m0, args.d, args.p)
    order = polyring.WeightOrder(params)
    gset = gens.groebner_generators(params)
    patil = gens.patil_generators(params)
    if args.format == "text":
        lines = [f"closed-form basis ({len(gset)} elements):"]
        for lab, g in gset.labeled():
            lm = polyring.mono_to_name(order.leading_monomial(g))
            lines.append(f"  {lab} = {polyring.format_poly(order, g)}   [lead {lm}]")
        lines.append(f"classical basis ({len(patil)} elements):")
        for lab, g in patil.labeled():
            lines.append(f"  {lab} = {polyring.format_poly(order, g)}")
        return True, lines
    return True, {
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


def _cmd_syzygies(args: argparse.Namespace) -> tuple[bool, list[str] | dict]:
    params = make_params(args.m0, args.d, args.p)
    morder = syzygy.ModuleOrder(params)
    sset = syzygy.syzygy_basis(params)
    counts = sset.counts()
    if args.format == "text":
        lines = [
            f"syzygy basis: {counts['A']} A + {counts['B']} B + {counts['L']} L"
            f" = {counts['total']} elements"
        ]
        for lab, g in sset.labeled():
            lines.append(f"  {lab} = {syzygy.format_mod_elem(morder, g)}")
        return True, lines
    elements = []
    for lab, g in sset.labeled():
        # the terms sorted once: the first is the leading term
        terms = syzygy.mod_elem_to_json(morder, g)
        lead = {"expo": terms[0]["expo"], "basis": terms[0]["basis"]}
        elements.append({"label": lab, "terms": terms, "leading_term": lead})
    return True, {"params": params.to_dict(), "counts": counts, "elements": elements}


def _cmd_verify(args: argparse.Namespace) -> tuple[bool, list[str] | dict]:
    params = make_params(args.m0, args.d, args.p)
    curve = syzygy.Curve(params)
    reports = verification_bundle(
        curve, args.bound, args.samples, args.seed, deep=not args.shallow
    )
    passed = all(r.passed for r in reports)
    if args.format == "text":
        lines = _params_lines(params)
        for r in reports:
            for c in r.checks:
                status = "pass" if c.passed else "FAIL"
                detail = f"  ({c.detail})" if c.detail else ""
                lines.append(f"[{status}] {c.name}{detail}")
                if c.witness is not None:
                    lines.append(f"        witness: {json.dumps(c.witness)}")
        lines.append("result: " + ("all checks passed" if passed else "CHECKS FAILED"))
        return passed, lines
    return passed, {
        "params": params.to_dict(),
        "passed": passed,
        "counts": {
            "generators": len(curve.gset),
            "syzygies": curve.counts,
        },
        "checks": [rec for r in reports for rec in r.to_records()],
    }


def _cmd_sweep(args: argparse.Namespace) -> tuple[bool, list[str] | dict]:
    p_lo, p_hi = args.p
    a_lo, a_hi = args.a
    d_lo, d_hi = args.d
    b_lo, b_hi = args.b or (1, p_hi)
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
    # the triples of one (p, b) draw the same projection terms: draw them
    # once, keep each symbol's first draw, and drop them when p, the
    # grid's outer loop, moves on
    drawn, drawn_p = {}, None
    for p, a, b, d in grid:
        if p != drawn_p:
            drawn, drawn_p = {}, p
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
            syzygy.Curve(params), args.bound, args.samples, args.seed, deep=False, drawn=drawn
        )
        ok = all(r.passed for r in reports)
        entry = {"p": p, "a": a, "b": b, "d": d, "m0": m0, "status": "pass" if ok else "fail"}
        if not ok:
            failed += 1
            entry["failures"] = [
                rec for r in reports for rec in r.to_records()
                if rec["status"] == "fail"
            ]
        entries.append(entry)
    ran = len(entries) - skipped
    summary = {"ran": ran, "passed": ran - failed, "failed": failed, "skipped": skipped}
    if args.format == "json":
        return failed == 0, {"entries": entries, "summary": summary}
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
    return failed == 0, lines


_COMMANDS = {
    "info": _cmd_info,
    "generators": _cmd_generators,
    "syzygies": _cmd_syzygies,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def run(args: argparse.Namespace) -> int:
    """Run the parsed command, render its output once, write it, and
    return its exit code: 0 when every check passes, 1 when one fails,
    and 2, with one ``error:`` line on stderr, on unusable input or an
    input that does not fit in memory."""
    try:
        passed, out = _COMMANDS[args.command](args)
        _emit(args, json.dumps(out, indent=2) if args.format == "json" else "\n".join(out))
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: the input does not fit in memory; try a smaller p", file=sys.stderr)
        return 2
    return 0 if passed else 1


def _parse_range(text: str) -> tuple[int, int]:
    """'lo..hi', or a single value, as a non-empty integer range."""
    lo, dots, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo..hi with integers, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _b_range(text: str) -> tuple[int, int] | None:
    """A range of remainders b >= 1, or None for "1..p" (every b of each p)."""
    if text == "1..p":
        return None
    lo, hi = _parse_range(text)
    if lo < 1:
        raise argparse.ArgumentTypeError(f"b starts at 1, got {text!r}")
    return lo, hi


def _at_least(low: int):
    """An argparse type for integers no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


# the exponent-box checks need a cap of at least 2
_bound = _at_least(2)
_samples = _at_least(0)


def _output(path: str) -> str:
    """A file path in an existing, writable directory."""
    if not path:
        raise argparse.ArgumentTypeError("the output path is empty")
    if "\0" in path:
        # os.path.isdir says False here, and open would raise ValueError
        raise argparse.ArgumentTypeError(f"{path!r} holds a null byte")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is a directory")
    folder = os.path.dirname(path) or "."
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise argparse.ArgumentTypeError(f"cannot write into the directory of {path!r}")
    return path


def _add_arguments(name: str, parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Give the parser of one command its options and their defaults."""
    if name == "sweep":
        parser.add_argument("--p", type=_parse_range, default="2..5", help="range lo..hi")
        parser.add_argument("--a", type=_parse_range, default="1..3", help="range lo..hi")
        parser.add_argument("--b", type=_b_range, default="1..p", help="range lo..hi, or 1..p")
        parser.add_argument("--d", type=_parse_range, default="1..4", help="range lo..hi")
        parser.add_argument("--bound", type=_bound, default=4)
        parser.add_argument("--samples", type=_samples, default=200)
        parser.add_argument("--seed", type=int, default=0)
    else:
        parser.add_argument("--m0", type=int, required=True, help="smallest generator")
        parser.add_argument("--d", type=int, required=True, help="common difference")
        parser.add_argument("--p", type=int, required=True, help="number of steps")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--output", type=_output, default=None,
                        help="write output to this path")
    if name == "verify":
        parser.add_argument("--bound", type=_bound, default=5,
                            help="exponent cap for detail counts and witness searches")
        parser.add_argument("--samples", type=_samples, default=1000,
                            help="sampled projection checks")
        parser.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
        parser.add_argument("--shallow", action="store_true",
                            help="skip the no-redundant-generator check")
    return parser


def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser with every command's parser under it: it
    prints the top-level help, and the error of an argv that names no
    command or leaves an argument over."""
    parser = argparse.ArgumentParser(
        prog="monocurve",
        description=(
            "Construct and verify the closed-form Groebner basis of an "
            "arithmetic-sequence monomial curve ideal and of its first "
            "syzygy module, using exact rational arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("info", "parameters and minimal-multiple data"),
        ("generators", "dump both generating sets"),
        ("syzygies", "dump the syzygy basis"),
        ("verify", "full verification for one parameter triple"),
        ("sweep", "verification across a parameter grid"),
    ):
        _add_arguments(name, sub.add_parser(name, help=text))
    return parser


def main(argv=None) -> int:
    """Parse argv (sys.argv[1:] when None) and run its command.

    A command is parsed by its own parser alone, the one the full tree
    would hand it to, under the same prog, so its help and usage errors
    read the same: building the other commands' parsers costs more than
    the parse.  Any other argv (no command, the top-level help, an
    unknown command, an argument left over) goes to the full tree.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        parser = _add_arguments(argv[0], argparse.ArgumentParser(prog="monocurve " + argv[0]))
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return run(args)
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
