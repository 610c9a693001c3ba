"""Command-line driver.

One subcommand per question: characteristic polynomial, roots, member
spectrum, Ziegler restriction, exponents, exact freeness, the criteria
battery, deletion pairs, incidence orderings, finite-plane scans, and a
verify command that runs every invariant the library knows against a
single input file.

Exit codes: 0 on success, 1 for usage or parse problems, 2 when an
internal consistency assertion fails (InvariantViolation).

Every command accepts --format text (default) or --format json-lines;
the JSON field names are stable and documented in the README.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from .arrangement import (
    Arrangement,
    CharPoly,
    format_arrangement,
    load_arrangement,
    parse_arrangement,
)
from .derivations import (
    AT_INFINITY,
    exponents,
    format_multiarrangement,
    load_multiarrangement,
    ziegler_restriction,
)
from .errors import InvariantViolation, LinarrError, ParseError, PreconditionError
from .exactalg import PRIME, _RE_INT, _shown
from .freeness import (
    PLANE_PRIME_CAP,
    decide_free,
    deletion_pair,
    external_candidates,
    run_criteria,
    verify_root_window,
)


def _integer(text: str) -> int:
    """An integer argument in the file grammar's ASCII digits."""
    if _RE_INT.match(text):
        try:
            return int(text)
        except ValueError:  # past the int-string digit limit
            pass
    raise argparse.ArgumentTypeError(f"not an integer: {_shown(text)}")


def _parse_target(text: str):
    if text == "infinity":
        return AT_INFINITY
    if text.startswith("member:"):
        return _integer(text.removeprefix("member:"))
    raise argparse.ArgumentTypeError("target must be 'infinity' or 'member:<index>'")


def _target_label(target):
    return "infinity" if target == AT_INFINITY else int(target)


def _load_arr(path: str, load=load_arrangement):
    try:
        return load(path)
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc.strerror or exc}") from None


# ------------------------------------------------------------- subcommands


def _cmd_chi(args):
    chi = _load_arr(args.file).char_poly()
    factored = chi.factored_str()
    text = str(chi) if factored in (None, str(chi)) else f"{chi} = {factored}"
    record = {"n": chi.n, "b2": chi.b2, "poly": str(chi), "factored": factored}
    return [record], [text]


def _cmd_roots(args):
    roots = _load_arr(args.file).char_poly().roots()
    record = {
        "classification": roots.classification,
        "low": str(roots.low),
        "high": str(roots.high),
        "discriminant": roots.discriminant,
    }
    return [record], [f"{roots.low}, {roots.high} ({roots.classification})"]


def _cmd_spectrum(args):
    counts = Counter(_load_arr(args.file).n_counts)
    pairs = sorted(counts.items())
    records = [{"value": v, "count": c} for v, c in pairs]
    return records, [f"{v} {c}" for v, c in pairs]


def _cmd_ziegler(args):
    A = _load_arr(args.file)
    M = ziegler_restriction(A, args.target)
    fmt = M.field.format_scalar
    record = {
        "target": _target_label(args.target),
        "centrals": [[fmt(a), fmt(b)] for a, b in M.centrals],
        "multiplicities": list(M.mults),
        "size": M.size,
    }
    return [record], format_multiarrangement(M).splitlines()


def _cmd_exponents(args):
    if args.file.endswith(".marr"):
        M = _load_arr(args.file, load_multiarrangement)
        record = {"d1": None, "d2": None, "size": M.size}
    else:
        M = ziegler_restriction(_load_arr(args.file), args.target)
        record = {"d1": None, "d2": None, "size": M.size, "target": _target_label(args.target)}
    pair = exponents(M).pair
    record["d1"], record["d2"] = pair
    return [record], [f"exp = ({pair[0]},{pair[1]})"]


def _certificate_record(cert, target) -> dict:
    return {
        "verdict": cert.verdict,
        "exponents": list(cert.exponents) if cert.exponents else None,
        "b2": cert.b2,
        "d1": cert.d1,
        "d2": cert.d2,
        "target": _target_label(target),
    }


def _certificate_text(cert) -> str:
    if cert.is_free:
        return f"free, exp = ({cert.d1},{cert.d2})"
    return f"not-free, exp = ({cert.d1},{cert.d2}), b2 = {cert.b2} > {cert.d1 * cert.d2}"


def _cmd_free(args):
    cert = decide_free(_load_arr(args.file), args.target)
    return [_certificate_record(cert, args.target)], [_certificate_text(cert)]


def _entry_text(entry) -> str:
    import json
    status = "applicable" if entry.applicable else "inapplicable"
    evidence = json.dumps(entry.evidence, default=str)
    return f"{entry.name}: {status}, {entry.conclusion} {evidence}"


def _cmd_criteria(args):
    report = run_criteria(_load_arr(args.file))
    records = [_certificate_record(report.certificate, AT_INFINITY)]
    lines = [_certificate_text(report.certificate)]
    for entry in report.entries:
        records.append(entry.as_record())
        lines.append(_entry_text(entry))
    return records, lines


def _cmd_pair(args):
    entry = deletion_pair(_load_arr(args.file), args.index)
    return [entry.as_record()], [_entry_text(entry)]


def _cmd_order(args):
    A = _load_arr(args.file)
    sub = tuple(args.sub or ())
    order, counts = A.order_increasing(sub)
    record = {"sub": list(sub), "order": list(order), "counts": list(counts)}
    lines = [
        "order: " + " ".join(map(str, order)),
        "counts: " + " ".join(map(str, counts)),
    ]
    return [record], lines


def _cmd_fq_count(args):
    from . import fqscan

    A = _load_arr(args.file)
    count = fqscan.complement_count(A)
    p = A.field.p
    record = {"p": p, "complement": count, "chi_at_p": count, "ok": True}
    return [record], [f"complement = {count}, chi({p}) = {count}, OK"]


def _cmd_fq_spectrum(args):
    from . import fqscan

    A = _load_arr(args.file)
    spectrum = fqscan.line_spectrum(A)
    records, lines = [], []
    for bucket, pairs in (("member", spectrum.members), ("external", spectrum.externals)):
        for value, count in pairs:
            records.append({"bucket": bucket, "value": value, "count": count})
            lines.append(f"{bucket} {value} {count}")
    return records, lines


# ----------------------------------------------------------------- verify


def run_verify(A: Arrangement, corrupt_b2: int = 0):
    """Every invariant the library can assert against one arrangement.

    Returns the list of check names that passed; raises
    InvariantViolation on the first failure. corrupt_b2 shifts the
    claimed b2 before validation, so any nonzero value must be caught
    (the empty arrangement by the range check, everything else by the
    deletion-restriction identity). The plane scans run over prime
    fields up to PLANE_PRIME_CAP.
    """
    checks = []
    n = len(A)
    chi = A.char_poly()
    claimed = CharPoly(chi.n, chi.b2 + corrupt_b2)

    if parse_arrangement(format_arrangement(A)) != A:
        raise InvariantViolation("serialization round-trip changed the arrangement")
    checks.append("round-trip")

    cap = n * (n - 1) // 2
    if not 0 <= claimed.b2 <= cap:
        raise InvariantViolation(f"b2 = {claimed.b2} outside [0, {cap}]")
    checks.append("b2-range")

    for i, n_h in enumerate(A.n_counts):
        sub = A.delete(i).char_poly()
        if claimed.n != sub.n + 1 or claimed.b2 != sub.b2 + n_h:
            raise InvariantViolation(
                f"deletion-restriction fails at member {i}: "
                f"b2 = {claimed.b2}, deleted b2 = {sub.b2}, n_H = {n_h}"
            )
    checks.append("deletion-restriction")

    for i, n_h in enumerate(A.n_counts):
        if claimed.eval(n_h) < 0:
            raise InvariantViolation(f"chi({n_h}) < 0 at member {i}")
    checks.append("member-window")

    cert = decide_free(A)
    for i in range(n):
        if decide_free(A, i).verdict != cert.verdict:
            raise InvariantViolation(f"freeness verdict flips at member target {i}")
    checks.append("target-independence")

    externals = external_candidates(A)
    run_criteria(A, externals)
    checks.append("criteria-consistency")

    window = verify_root_window(A, externals)
    checks.append("root-window")

    if A.field.kind == PRIME and A.field.p <= PLANE_PRIME_CAP:
        from . import fqscan

        p = A.field.p
        count = fqscan.complement_count(A)
        if claimed.eval(p) != count:
            raise InvariantViolation(
                f"chi({p}) = {claimed.eval(p)} but the complement has {count} points"
            )
        checks.append("complement-count")

        # the root window counted every non-member plane line on lattice
        # keys, the spectrum by complement points on the plane's table
        spectrum = fqscan.line_spectrum(A)
        seen = (spectrum.member_values, spectrum.external_values)
        if seen != (window.member_values, window.external_values):
            raise InvariantViolation(
                f"plane spectrum {seen} differs from the root-window counts"
            )
        checks.append("plane-spectrum")

        fqscan.order_root(A)
        fqscan.order_minus_one_root(A)
        checks.append("order-criteria")

        if fqscan.finite_exponent_bounds(ziegler_restriction(A)).applicable:
            checks.append("finite-bounds")

    return checks


def _cmd_verify(args):
    A = _load_arr(args.file)
    checks = run_verify(A, corrupt_b2=args.corrupt_b2)
    records = [{"check": name, "status": "ok"} for name in checks]
    records.append({"verify": "ok", "checks": len(checks)})
    lines = [f"ok {name}" for name in checks]
    lines.append(f"verify: OK ({len(checks)} checks)")
    return records, lines


# ------------------------------------------------------------------ driver


class _Parser(argparse.ArgumentParser):
    """argparse quits with status 2 on bad usage; remap that to 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="linarr", description="Exact freeness tests for affine line arrangements.")
    fmt = _Parser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=("text", "json-lines"),
        default="text",
        help="output as plain text (default) or one JSON object per line",
    )
    target = _Parser(add_help=False)
    target.add_argument(
        "--target",
        type=_parse_target,
        default=AT_INFINITY,
        help="restriction target: 'infinity' (default) or 'member:<index>'",
    )

    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, handler, help_text, *, parents=(fmt,), file_help="input .arr file"):
        p = sub.add_parser(name, parents=list(parents), help=help_text)
        p.add_argument("file", help=file_help)
        p.set_defaults(handler=handler)
        return p

    add("chi", _cmd_chi, "characteristic polynomial, factored when the roots are integers")
    add("roots", _cmd_roots, "exact roots and their classification")
    add("spectrum", _cmd_spectrum, "member incidence counts as sorted 'value count' pairs")
    add("ziegler", _cmd_ziegler, "Ziegler restriction multiarrangement", parents=(fmt, target))
    add(
        "exponents",
        _cmd_exponents,
        "exponents of a multiarrangement (.marr) or of a restriction (.arr)",
        parents=(fmt, target),
        file_help="input .arr or .marr file",
    )
    add("free", _cmd_free, "exact freeness decision with exponents", parents=(fmt, target))
    add("criteria", _cmd_criteria, "exact certificate plus every combinatorial criterion")
    pair = add("pair", _cmd_pair, "deletion-pair criterion for (A, A minus one member)")
    pair.add_argument("index", type=_integer, help="member index to delete")
    order = add("order", _cmd_order, "greedy incidence-nondecreasing ordering of the members")
    order.add_argument(
        "--sub",
        type=_integer,
        nargs="*",
        default=(),
        metavar="I",
        help="member indices of the starting subarrangement",
    )
    add("fq-count", _cmd_fq_count, "complement point count over a prime field")
    add("fq-spectrum", _cmd_fq_spectrum, "incidence histogram over every line of the prime plane")
    verify = add("verify", _cmd_verify, "run the full invariant battery on one input")
    verify.add_argument(
        "--corrupt-b2",
        type=_integer,
        default=0,
        metavar="DELTA",
        help="shift the claimed b2 before checking (mutation testing)",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        records, lines = args.handler(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except LinarrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json-lines":
        import json
        for record in records:
            print(json.dumps(record, default=str))
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
