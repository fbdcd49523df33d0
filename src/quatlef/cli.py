"""Command-line frontend.

Subcommands: zeta, lefschetz, euler-char, index, genus, table, verify.
Field, algebra and level specifications mirror the library constructors.
Each flag is declared once, in ``_FLAGS``; a JSON config file can supply
any flag through that flag's own checks, with explicit flags winning.
A well-formed command line is read straight from that table
(``_read_flags``); argparse, built from the same table, parses the rest,
so it prints every help text, usage line and syntax error.
Exact rationals serialise as "p/q" strings everywhere; floats appear only
in the explicitly requested numeric cross-check with a stated tolerance.

Exit codes: 0 success, 2 validation error, 3 torsion necessary condition
failed without the assume-torsion-free override, 1 verification failure or
a broken internal invariant.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import isfinite

from . import lefschetz, quaternion, verify
from .errors import InvariantError, QuatlefError, TorsionError, ValidationError
from .exact import (_check_digit_runs, _digit_limit_error, _int, _read_json,
                    _read_limit_error, format_rational, parse_rational)
from .numberfield import (Ideal, PrimeIdeal, TotallyRealField, dedekind_zeta_neg,
                          ideal_from_integer, split_prime)

_TABLE_ROW_CAP = 10**4

_WITH_ALGEBRA = ("lefschetz", "euler-char", "index", "genus", "table")
_WITH_FIELD = ("zeta", *_WITH_ALGEBRA)


def _int_flag(text: str) -> int:
    """int(text), but text longer than Python reads is refused in one line."""
    if 0 < sys.get_int_max_str_digits() < sum(map(str.isdigit, text)):
        raise argparse.ArgumentTypeError(str(_read_limit_error()))
    return int(text)


_int_flag.__name__ = "int"  # named in argparse's "invalid int value: '1.5'"

# Every flag once, in usage order: (subcommands, flag, argparse keywords).
# Each flag but --config is also a config key, checked against the same
# keywords. Every default is None, so that a config value fills any flag not
# given; ``required`` never reaches argparse but is checked after the merge.
_FLAGS = (
    (_WITH_FIELD, "--field", dict(required=True, help="base field: q, quad:<d>, or"
                                  " external:<path to descriptor>")),
    (_WITH_FIELD, "--config", dict(help="JSON config file mirroring the flags")),
    (_WITH_FIELD, "--out", dict(help="write output to this path instead of stdout")),
    (_WITH_ALGEBRA, "--ram", dict(help="comma list of ramified rational primes,"
                                  " entries p or p:label")),
    (_WITH_ALGEBRA, "--split", dict(action="store_true", default=None,
                                    help="the split (matrix) algebra")),
    (_WITH_ALGEBRA, "--hilbert", dict(help="presentation a,b over Q (i^2=a, j^2=b)")),
    (_WITH_ALGEBRA, "--ram-real", dict(type=_int_flag, help="ramified real place count")),
    (("zeta",), "--jmax", dict(type=_int_flag, required=True)),
    (("lefschetz", "euler-char", "index", "table"), "--n",
     dict(type=_int_flag, required=True)),
    (("lefschetz", "euler-char", "index", "genus"), "--level", dict(required=True)),
    (("table",), "--levels", dict(required=True, help="inclusive integer range lo:hi")),
    (("zeta", "lefschetz", "euler-char", "index", "genus"), "--format",
     dict(choices=("json", "csv"))),
    (("lefschetz", "euler-char", "genus"), "--assume-torsion-free",
     dict(action="store_true", default=None)),
    (("lefschetz", "table"), "--trace-w", dict()),
    (("euler-char",), "--signature",
     dict(help="semicolon list of p,q pairs, one per place")),
    (("euler-char",), "--adelic-terms",
     dict(type=_int_flag, help="include the floating-point mass-formula cross-check")),
    (("genus",), "--weights", dict(help="comma list of even weights")),
    (("verify",), "--suite", dict(help="comma list of suite names")),
)


# flag -> its dest, as argparse derives it
_DESTS = {flag: flag[2:].replace("-", "_") for _, flag, _ in _FLAGS}
# config key -> its flag's keywords; ``ram_primes`` is another name for ``ram``
_CONFIG = {_DESTS[flag]: kwargs for _, flag, kwargs in _FLAGS if flag != "--config"}
_CONFIG["ram_primes"] = _CONFIG["ram"]


def _parse_field(spec: str) -> TotallyRealField:
    spec = spec.strip()
    if spec.startswith("external:"):
        # read on every call, so that a missing or changed file is seen
        return TotallyRealField.from_json_file(spec[len("external:") :])
    if spec.lower() == "q":
        return TotallyRealField.rationals()
    if spec.startswith("quad:"):
        return TotallyRealField.real_quadratic(_int(spec[len("quad:") :]))
    raise ValidationError(
        f"unknown field spec {spec!r}; use q, quad:<d> or external:<path>"
    )


def _resolve_ram_primes(field: TotallyRealField, spec: str) -> tuple[PrimeIdeal, ...]:
    primes = []
    for segment in spec.split(","):
        segment = segment.strip()
        if not segment:
            raise ValidationError("empty entry in ramification list")
        if ":" in segment:
            p_text, label = segment.split(":", 1)
        else:
            p_text, label = segment, None
        candidates = split_prime(field, _int(p_text))
        if label is None:
            primes.append(candidates[0])
        else:
            matches = [c for c in candidates if c.label == label]
            if not matches:
                raise ValidationError(
                    f"no prime above {p_text} with label {label!r}"
                )
            primes.append(matches[0])
    return tuple(primes)


def _parse_algebra(args, field: TotallyRealField) -> quaternion.QuaternionAlgebra:
    chosen = [
        name
        for name, value in (
            ("--split", args.split),
            ("--hilbert", args.hilbert),
            ("--ram/--ram-real", args.ram or args.ram_real is not None),
        )
        if value
    ]
    if len(chosen) > 1:
        raise ValidationError(f"conflicting algebra specs: {', '.join(chosen)}")
    if args.hilbert:
        if field.kind != "rationals":
            raise ValidationError("--hilbert presentations are supported over Q only")
        a_text, comma, b_text = args.hilbert.partition(",")
        if not comma:
            raise ValidationError(f"--hilbert expects a,b, not {args.hilbert!r}")
        return quaternion.hilbert_ramification_q(_int(a_text), _int(b_text))
    if args.split:
        return quaternion.QuaternionAlgebra(field, (), 0)
    if not args.ram and args.ram_real is None:
        raise ValidationError(
            "algebra required: pass --split, --hilbert a,b or --ram/--ram-real"
        )
    ram = _resolve_ram_primes(field, args.ram) if args.ram else ()
    return quaternion.QuaternionAlgebra(field, ram, args.ram_real or 0)


def _setting(args) -> tuple[TotallyRealField, quaternion.QuaternionAlgebra, Ideal]:
    field = _parse_field(args.field)
    return field, _parse_algebra(args, field), _parse_level(field, args.level)


def _parse_level(field: TotallyRealField, spec: str) -> Ideal:
    spec = spec.strip()
    if spec.isdigit():
        return ideal_from_integer(field, _int(spec))
    pairs = []
    for segment in spec.split(","):
        base, _, exp_text = segment.strip().partition("^")
        exponent = _int(exp_text) if exp_text else 1
        parts = base.split(":")
        if len(parts) == 3:
            p, f, e = parts
            label = ""
        elif len(parts) == 4:
            p, f, e, label = parts
        else:
            raise ValidationError(
                f"bad level segment {segment!r}; use N or p:f:e[:label][^k]"
            )
        prime = PrimeIdeal(_int(p), _int(f), _int(e), label)
        if prime not in split_prime(field, prime.p):
            raise ValidationError(
                f"prime {prime} does not exist in {field.describe()}"
            )
        pairs.append((prime, exponent))
    return Ideal(field, tuple(pairs))


def _parse_signature(spec: str | None) -> lefschetz.SignatureClass:
    if not spec:
        return lefschetz.SignatureClass(())
    pairs = []
    for segment in spec.split(";"):
        p_text, comma, q_text = segment.strip().partition(",")
        if not comma:
            raise ValidationError(
                f"--signature expects p,q pairs separated by ';', not {segment!r}"
            )
        pairs.append((_int(p_text), _int(q_text)))
    return lefschetz.SignatureClass(tuple(pairs))


def _apply_config(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    with open(args.config, encoding="utf-8") as handle:
        data = _read_json(handle.read())
    if not isinstance(data, dict):
        raise ValidationError("config file must hold a JSON object")
    unknown = set(data) - _CONFIG.keys()
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    for key, value in data.items():
        spec = _CONFIG[key]
        if key in ("ram_primes", "ram", "hilbert") and isinstance(value, list):
            # list forms of the algebra spec normalise to the flag strings
            value = ",".join(str(entry) for entry in value)
        elif not isinstance(value, (str, int, float, type(None))):
            raise ValidationError(
                f"config key {key!r} must be a string, number or boolean,"
                f" not {type(value).__name__}"
            )
        elif value is None:
            pass
        elif spec.get("action") == "store_true" and not isinstance(value, bool):
            raise ValidationError(
                f"config key {key!r} must be true or false, not {json.dumps(value)}"
            )
        elif spec.get("type") is _int_flag:
            # the flag's own conversion of its text: 1.5 and true are rejected
            try:
                value = int(str(value))
            except ValueError:
                _check_digit_runs(str(value))
                raise ValidationError(
                    f"config key {key!r} must be an integer, not {json.dumps(value)}"
                ) from None
        elif "choices" in spec and value not in spec["choices"]:
            raise ValidationError(
                f"config key {key!r} must be one of {', '.join(spec['choices'])},"
                f" not {json.dumps(value)}"
            )
        elif not spec.keys() & {"type", "action", "choices"}:
            # a text flag gets text, as argparse would give it: 5 becomes "5"
            value = str(value)
        dest = "ram" if key == "ram_primes" else key
        if getattr(args, dest, None) is None:
            setattr(args, dest, value)


def _emit(args, pieces: list[str]) -> None:
    """Write the pieces in order to the --out file, or to stdout without
    one; each piece is handed over as it is, never joined with the rest."""
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _json_text(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True) of a payload value whose
    lines start with this indent: a dict with str keys, a list, str, int,
    finite float, bool or None; any other value raises TypeError."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)  # ValueError past the digit limit
    inner = indent + "  "
    if kind is dict:  # a key that is no str raises TypeError in the encoder
        items = [f"{encode_basestring_ascii(key)}: {_json_text(value[key], inner)}"
                 for key in sorted(value)]
    elif kind is list:
        items = [_json_text(item, inner) for item in value]
    elif kind is float and isfinite(value):
        return float.__repr__(value)
    elif value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    else:
        raise TypeError(f"{kind.__name__} is not a JSON payload type")
    start, end = "{}" if kind is dict else "[]"
    return f"{start}{inner}{(',' + inner).join(items)}{indent}{end}" if items else start + end


def _emit_report(args, payload, rows, header=("key", "value")) -> int:
    """Write the JSON payload, or the command's CSV rows under --format csv,
    each built by calling its function only when asked for; an int past the
    digit limit raises ValueError in either writer."""
    data = rows() if args.format == "csv" else payload()
    try:
        if args.format == "csv":
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerows([header, *data])
            text = buffer.getvalue()
        else:
            text = _json_text(data) + "\n"
    except ValueError:
        raise _digit_limit_error() from None
    _emit(args, [text])
    return 0


def _payload(args, field, algebra=None, level=None, report=None, **fields) -> dict:
    """The JSON payload of one command: its name and field, then the
    algebra and level blocks, then a closed-form report's value, factors,
    warnings and zero reason, then the command's own fields."""
    payload = {"command": args.command, "field": field.describe()}
    if algebra is not None:
        payload["algebra"] = {
            "ram_finite": [str(p) for p in algebra.ram_finite],
            "ram_real": algebra.ram_real_count,
            "signed_reduced_discriminant": algebra.signed_reduced_discriminant(),
        }
        norm = level.norm()
        payload["level"] = {"factors": str(level), "norm": norm}
    if report is not None:
        n = report.n
        payload["n"] = n
        payload["value"] = format_rational(report.value)
        payload["factors"] = {
            "two_power": format_rational(report.two_power),
            "level_norm_power": norm ** (n * (2 * n + 1)),
            "discriminant_power": report.disc_power,
            "m_factors": [format_rational(m) for m in report.m_factors],
        }
        payload["warnings"] = list(report.warnings)
        payload["zero_reason"] = report.zero_reason
    payload.update(fields)
    return payload


def _trace_w(args) -> Fraction:
    return Fraction(1) if args.trace_w is None else parse_rational(args.trace_w)


def _cmd_zeta(args) -> int:
    field = _parse_field(args.field)
    if args.jmax < 1:
        raise ValidationError("--jmax must be >= 1")
    # j = jmax first, so that the zeta caps refuse it before any table is
    # built, and so that one pass of power sums serves every smaller j
    dedekind_zeta_neg(field, args.jmax)
    values = [
        {"j": j, "value": format_rational(dedekind_zeta_neg(field, j))}
        for j in range(1, args.jmax + 1)
    ]
    return _emit_report(
        args,
        lambda: _payload(args, field, values=values),
        lambda: [[v["j"], v["value"]] for v in values],
        ("j", "zeta_1_minus_2j"),
    )


def _cmd_lefschetz(args) -> int:
    field, algebra, level = _setting(args)
    inp = lefschetz.LefschetzInput(
        field=field,
        algebra=algebra,
        n=args.n,
        level=level,
        trace_w=_trace_w(args),
        assume_torsion_free=bool(args.assume_torsion_free),
    )
    lefschetz._refuse_unprintable_request("lefschetz", algebra, inp.n, level,
                                          inp.assume_torsion_free, args.format == "json",
                                          trace_w=inp.trace_w)
    report = lefschetz.lefschetz_number(inp)
    return _emit_report(
        args,
        lambda: _payload(
            args, field, algebra, level, report, trace_w=format_rational(report.trace_w)
        ),
        lambda: [["value", format_rational(report.value)], ["n", report.n]]
        + [["warning", w] for w in report.warnings],
    )


def _cmd_euler_char(args) -> int:
    field, algebra, level = _setting(args)
    signature = _parse_signature(args.signature)
    n, override = args.n, bool(args.assume_torsion_free)
    lefschetz._refuse_unprintable_request("euler-char", algebra, n, level, override,
                                          args.format == "json", signature)
    report = lefschetz.euler_char_fixed_component(algebra, n, level, signature, override)
    terms = args.adelic_terms

    # each builder runs the cross-check after its closed-form fields, so
    # that a value past the digit limit is refused first
    def payload() -> dict:
        out = _payload(
            args,
            field,
            algebra,
            level,
            report,
            signature=str(report.signature_class),
            binomial_factor=report.binomial_factor,
        )
        if terms is not None:
            out["adelic_numeric"] = {
                "value": lefschetz.euler_char_adelic_numeric(algebra, n, level, signature, terms),
                "terms": terms,
                "rel_tolerance": lefschetz.ADELIC_REL_TOL,
            }
        return out

    def rows() -> list[list]:
        out = [["value", format_rational(report.value)], ["signature", str(report.signature_class)]]
        if terms is not None:
            numeric = lefschetz.euler_char_adelic_numeric(algebra, n, level, signature, terms)
            out += [["adelic_numeric", repr(numeric)], ["adelic_terms", terms]]
        return out

    return _emit_report(args, payload, rows)


def _cmd_index(args) -> int:
    field, algebra, level = _setting(args)
    lefschetz._refuse_unprintable_request("index", algebra, args.n, level)
    value = lefschetz.congruence_index(algebra, args.n, level)
    return _emit_report(
        args,
        lambda: _payload(args, field, algebra, level, n=args.n, index=value),
        lambda: [["index", value]],
    )


def _cmd_genus(args) -> int:
    field, algebra, level = _setting(args)
    override = bool(args.assume_torsion_free)
    lefschetz._refuse_unprintable_request("genus", algebra, 1, level, override)
    report = lefschetz.genus_fuchsian(algebra, level, override)
    weights = [_int(w) for w in args.weights.split(",")] if args.weights else []
    dims = {str(k): lefschetz.modular_form_dim(report.genus, k) for k in weights}
    return _emit_report(
        args,
        lambda: _payload(
            args,
            field,
            algebra,
            level,
            genus=report.genus,
            b1=report.b1,
            chi=report.chi,
            cusp_form_dims=dims,
            warnings=list(report.warnings),
        ),
        lambda: [["genus", report.genus], ["b1", report.b1], ["chi", report.chi]]
        + [[f"dim_weight_{k}", v] for k, v in sorted(dims.items())],
    )


def _cmd_table(args) -> int:
    field = _parse_field(args.field)
    algebra = _parse_algebra(args, field)
    lo_text, _, hi_text = args.levels.partition(":")
    lo, hi = _int(lo_text), _int(hi_text or lo_text)
    if hi - lo + 1 > _TABLE_ROW_CAP:
        raise ValidationError(f"level range exceeds the {_TABLE_ROW_CAP} row cap")
    # rows as pieces, each chi_components text passed on as it is; no table
    # field holds a comma, a quote or a newline, so none is quoted
    pieces = ["level,norm,torsion_ok,index,lefschetz,chi_components,genus,b1,note\n"]
    levels = range(max(lo, 2), hi + 1)
    for level, norm, columns in lefschetz._table_rows(algebra, args.n, levels, _trace_w(args)):
        try:
            if columns is None:
                pieces.append(f"{level},{norm},false,,,,,,torsion check failed\n")
                continue
            index, value, chis, genus = columns
            genus_b1 = "," if genus is None else f"{genus},{2 * genus}"
            pieces += (f"{level},{norm},true,{index},{value},", chis, f",{genus_b1},\n")
        except ValueError:
            raise _digit_limit_error() from None
    _emit(args, pieces)
    return 0


def _cmd_verify(args) -> int:
    names = None if args.suite is None else args.suite.split(",")
    results = verify.run_suites(names)
    total_pass = total_fail = 0
    for name, checks in results.items():
        passed = sum(1 for _, ok, _ in checks if ok)
        failed = len(checks) - passed
        total_pass += passed
        total_fail += failed
        sys.stdout.write(f"{name}: {passed} passed, {failed} failed\n")
        for check_name, ok, detail in checks:
            if not ok:
                sys.stdout.write(f"  FAIL [{name}] {check_name}: {detail}\n")
    sys.stdout.write(f"total: {total_pass} passed, {total_fail} failed\n")
    return 1 if total_fail else 0


# subcommand -> (handler, its line in the top-level help or None)
_COMMANDS = {
    "zeta": (_cmd_zeta, "zeta values at 1-2j"),
    "lefschetz": (_cmd_lefschetz, None),
    "euler-char": (_cmd_euler_char, None),
    "index": (_cmd_index, None),
    "genus": (_cmd_genus, None),
    "table": (_cmd_table, "CSV over a range of levels"),
    "verify": (_cmd_verify, "run the oracle suites"),
}


# subcommand -> {flag: its keywords}, the flags ``_read_flags`` accepts
_COMMAND_FLAGS = {
    name: {flag: kwargs for commands, flag, kwargs in _FLAGS if name in commands}
    for name in _COMMANDS
}


def _read_flags(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives a well-formed argv, read straight from
    the flag table; None for any other argv, which argparse then parses.

    Well formed: a subcommand, then only whole flags of it; a store_true
    flag bare; a value flag as ``--flag=value`` with a non-empty value or
    as ``--flag value`` with a value not starting with ``-``; each value
    passing its flag's ``type`` and ``choices``. The last occurrence of a
    flag wins; every flag not given is None."""
    flags = _COMMAND_FLAGS.get(argv[0]) if argv else None
    if flags is None:
        return None
    values = {"command": argv[0]} | dict.fromkeys(map(_DESTS.__getitem__, flags))
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, text = token.partition("=")
        kwargs = flags.get(flag)
        if kwargs is None:
            return None
        if kwargs.get("action") == "store_true":
            if eq:
                return None
            values[_DESTS[flag]] = True
            continue
        if not eq:
            text = next(tokens, None)
            if text is None or text.startswith("-"):
                return None
        elif not text:
            return None
        try:
            value = kwargs.get("type", str)(text)
        except (ValueError, argparse.ArgumentTypeError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[_DESTS[flag]] = value
    return argparse.Namespace(**values)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser over the same flag table, built once per process
    and shared by every ``main`` call; parsing leaves it unchanged. It
    parses only what ``_read_flags`` does not accept, so it prints every
    help text, usage line and syntax error."""
    parser = argparse.ArgumentParser(
        prog="quatlef",
        description=(
            "Exact Lefschetz numbers, Euler characteristics, indices and"
            " genera for congruence subgroups in quaternionic inner forms"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        # help=None would still list the subcommand in the top-level help
        p_cmd = sub.add_parser(name, **({"help": text} if text else {}))
        # main reports leftover arguments through the subcommand's own parser
        p_cmd.set_defaults(parser=p_cmd)
        for commands, flag, kwargs in _FLAGS:
            if name in commands:
                p_cmd.add_argument(
                    flag, **{k: v for k, v in kwargs.items() if k != "required"}
                )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` by default) and return its
    exit code. Well-formed flags are read from ``_FLAGS`` directly; any
    other argv goes to ``build_parser()``, which exits on help, usage and
    syntax errors."""
    if argv is None:
        argv = sys.argv[1:]
    args = _read_flags(argv)
    if args is None:
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        _apply_config(args)
        for flag, kwargs in _COMMAND_FLAGS[args.command].items():
            if kwargs.get("required") and getattr(args, _DESTS[flag]) is None:
                raise ValidationError(f"missing required option {flag}")
        return _COMMANDS[args.command][0](args)
    except (QuatlefError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3 if isinstance(exc, TorsionError) else 1 if isinstance(exc, InvariantError) else 2


if __name__ == "__main__":
    sys.exit(main())
