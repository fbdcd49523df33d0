"""Output checks for every benchmark request, run after the timed loop.

``check(request, rc, out, err)`` returns None when the output is right and
a one-line reason otherwise. Every number is recomputed from the
benchmark's own arithmetic (``arith``) and the request, never by calling
the package under test, so a check cannot share a defect with it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from math import comb

import arith

FE_REL_TOL = 1e-8

# class-sum rows join hundreds of large rationals into one CSV field
csv.field_size_limit(1 << 30)


class CheckFailure(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def digest(rc, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([rc, out, err]).encode()).hexdigest()[:16]


def _csv_rows(out: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(out)))
    _require(bool(rows) and rows[0] == header, f"csv header {rows[:1]}, want {header}")
    return rows[1:]


def _key_values(out: str) -> dict[str, str]:
    return {key: value for key, value in _csv_rows(out, ["key", "value"])}


def _field_d(label: str) -> int:
    """1 for 'Q', d for 'Q(sqrt(d))'."""
    if label == "Q":
        return 1
    _require(label.startswith("Q(sqrt(") and label.endswith("))"), f"field {label!r}")
    return int(label[len("Q(sqrt(") : -2])


def _prime_norms(spec: str) -> list[tuple[str, int, int]]:
    """(prime label, norm, exponent) for each 'p:f:e[:label][^k]' entry."""
    out = []
    for entry in spec.split(","):
        prime, _, exponent = entry.partition("^")
        p, f = prime.split(":")[:2]
        out.append((prime, int(p) ** int(f), int(exponent or 1)))
    return out


# ------------------------------------------------------------------ zeta


def _check_zeta(req, out: str) -> None:
    d, jmax = req.meta["d"], req.meta["jmax"]
    if req.meta["format"] == "json":
        payload = json.loads(out)
        _require(payload["field"] == f"Q(sqrt({d}))", f"field {payload['field']}")
        pairs = [(row["j"], row["value"]) for row in payload["values"]]
    else:
        pairs = [(int(j), v) for j, v in _csv_rows(out, ["j", "zeta_1_minus_2j"])]
    _require([j for j, _ in pairs] == list(range(1, jmax + 1)), "wrong j range")
    values = [Fraction(v) for _, v in pairs]
    f = arith.conductor(d)
    riemann = arith.l_series_even_float(1, jmax)
    character = arith.l_series_even_float(f, jmax)
    for j, value in enumerate(values, start=1):
        # sign law (-1)^(j * degree) with degree 2
        _require(value > 0, f"zeta(1-{2 * j}) = {value} violates the sign law")
        predicted = arith.functional_equation_rhs(f, 2, j, riemann[j - 1] * character[j - 1])
        _require(
            abs(predicted - float(value)) <= FE_REL_TOL * abs(float(value)),
            f"functional equation fails at j={j}: {predicted!r} vs {value}",
        )
    _require(values == arith.field_zeta_neg(d, jmax), "zeta values differ from B_{k,chi}")


# ------------------------------------------------------- single-level reports


def _m_factors(payload: dict, n: int) -> list[Fraction]:
    """M(j) = zeta_F(1-2j) prod_{P | level} (1 - N(P)^-2j)
    prod_{P ramified, P not | level} (1 + (-1)^j N(P)^-j)."""
    zeta = arith.field_zeta_neg(_field_d(payload["field"]), n)
    level = _prime_norms(payload["level"]["factors"])
    level_primes = {prime for prime, _, _ in level}
    ram_spec = ",".join(payload["algebra"]["ram_finite"])
    ram = [
        norm
        for prime, norm, _ in (_prime_norms(ram_spec) if ram_spec else [])
        if prime not in level_primes
    ]
    out = []
    for j in range(1, n + 1):
        value = zeta[j - 1]
        for _, norm, _ in level:
            value *= 1 - Fraction(1, norm ** (2 * j))
        for norm in ram:
            value *= 1 + Fraction((-1) ** j, norm**j)
        out.append(value)
    return out


def _check_closed_form(payload: dict, n: int, two_exponent: int, extra: Fraction) -> None:
    """value = product of factors, and each factor recomputed independently."""
    factors = payload["factors"]
    m = [Fraction(v) for v in factors["m_factors"]]
    _require(m == _m_factors(payload, n), "m_factors differ from the reference M(j)")
    algebra = payload["algebra"]
    _require(Fraction(factors["two_power"]) == Fraction(1, 2**two_exponent), "two_power")
    norm = payload["level"]["norm"]
    _require(factors["level_norm_power"] == norm ** (n * (2 * n + 1)), "level_norm_power")
    disc = algebra["signed_reduced_discriminant"]
    _require(factors["discriminant_power"] == disc ** (n * (n + 1) // 2), "disc power")
    product = Fraction(factors["two_power"]) * factors["level_norm_power"]
    product *= factors["discriminant_power"] * extra
    for value in m:
        product *= value
    _require(Fraction(payload["value"]) == product, "value is not the product of factors")


def _check_lefschetz(req, out: str) -> None:
    if req.meta["format"] == "csv":
        rows = _key_values(out)
        Fraction(rows["value"])
        _require(int(rows["n"]) == req.meta["n"], "n")
        return
    payload = json.loads(out)
    r = payload["algebra"]["ram_real"]
    _check_closed_form(payload, payload["n"], r, Fraction(payload["trace_w"]))


def _check_euler_char(req, out: str) -> None:
    if req.meta["format"] == "csv":
        Fraction(_key_values(out)["value"])
        return
    payload = json.loads(out)
    n = payload["n"]
    signature = payload["signature"]
    pairs = [] if signature == "-" else [tuple(map(int, s.split(","))) for s in signature.split(";")]
    binomial = 1
    for p, _q in pairs:
        binomial *= comb(n, p)
    _require(payload["binomial_factor"] == binomial, "binomial factor")
    _check_closed_form(payload, n, n * payload["algebra"]["ram_real"], Fraction(binomial))
    if "adelic_numeric" in payload:
        numeric = payload["adelic_numeric"]
        exact = float(Fraction(payload["value"]))
        _require(numeric["terms"] == req.meta["terms"], "adelic terms")
        _require(
            abs(numeric["value"] - exact) <= numeric["rel_tolerance"] * abs(exact),
            f"adelic value {numeric['value']!r} vs exact {exact!r}",
        )


def _check_index(req, out: str) -> None:
    if req.meta["format"] == "csv":
        _require(int(_key_values(out)["index"]) > 0, "index must be positive")
        return
    payload = json.loads(out)
    n = payload["n"]
    ram = set(payload["algebra"]["ram_finite"])
    want = Fraction(1)
    for prime, q, e in _prime_norms(payload["level"]["factors"]):
        lift = q ** ((e - 1) * (4 * n * n - 1))
        local = arith.ramified_reduction_order(n, q) if prime in ram else arith.sl_order(2 * n, q)
        want *= lift * local
    _require(payload["index"] == want, f"index {payload['index']}, want {want}")


def _genus_from_formula(payload: dict) -> Fraction:
    """1 + 2^-deg N^3 |d(D) zeta_F(-1)| prod_{P | level} (1 - N(P)^-2)
    prod_{P ramified, P not | level} (1 - N(P)^-1)."""
    d = _field_d(payload["field"])
    degree = 1 if d == 1 else 2
    g = Fraction(payload["level"]["norm"] ** 3, 2**degree)
    g *= abs(payload["algebra"]["signed_reduced_discriminant"] * arith.field_zeta_neg(d, 1)[0])
    level = _prime_norms(payload["level"]["factors"])
    for _, norm, _ in level:
        g *= 1 - Fraction(1, norm**2)
    level_primes = {prime for prime, _, _ in level}
    for prime in payload["algebra"]["ram_finite"]:
        if prime not in level_primes:
            g *= 1 - Fraction(1, _prime_norms(prime)[0][1])
    return g + 1


def _check_genus(req, out: str) -> None:
    if req.meta["format"] == "csv":
        rows = _key_values(out)
        genus, b1, chi = int(rows["genus"]), int(rows["b1"]), int(rows["chi"])
        dims = {k[len("dim_weight_") :]: int(v) for k, v in rows.items() if k.startswith("dim_")}
    else:
        payload = json.loads(out)
        genus, b1, chi = payload["genus"], payload["b1"], payload["chi"]
        dims = payload["cusp_form_dims"]
        _require(genus == _genus_from_formula(payload), "genus differs from the formula")
    _require(b1 == 2 * genus and chi == 2 - 2 * genus, "b1 = 2g and chi = 2 - 2g")
    for k, dim in dims.items():
        k = int(k)
        _require(dim == (genus if k == 2 else (k - 1) * (genus - 1)), f"weight {k} dim")


# ------------------------------------------------------------------ table

_TABLE_HEADER = [
    "level", "norm", "torsion_ok", "index", "lefschetz",
    "chi_components", "genus", "b1", "note",
]


def _check_table(req, out: str) -> None:
    argv = req.argv
    lo, hi = (int(x) for x in argv[argv.index("--levels") + 1].split(":"))
    trace = Fraction(1)
    for arg in argv:
        if arg.startswith("--trace-w="):
            trace = Fraction(arg[len("--trace-w=") :])
    rows = _csv_rows(out, _TABLE_HEADER)
    _require([int(row[0]) for row in rows] == list(range(max(lo, 2), hi + 1)), "levels")
    degree = req.meta["degree"]
    for row in rows:
        level, norm, ok = int(row[0]), int(row[1]), row[2]
        _require(norm == level**degree, f"norm of ({level})")
        if ok == "false":
            _require(level == 2, f"torsion check failed at level {level}")
            continue
        chis = [Fraction(v) for v in row[5].split("|")]
        _require(len(chis) == req.meta["classes"], f"class count at level {level}")
        _require(all(chi != 0 for chi in chis), f"zero chi at level {level}")
        total = sum(chis)
        _require(Fraction(row[4]) == trace * total, f"lefschetz != trace * sum(chi) at {level}")
        if row[6]:
            genus = int(row[6])
            _require(total == 2 - 2 * genus, f"sum(chi) != 2 - 2g at level {level}")
            _require(int(row[7]) == 2 * genus, f"b1 != 2g at level {level}")


# ------------------------------------------------------------------ verify


def _check_verify(req, out: str) -> None:
    lines = out.splitlines()
    suites = [line for line in lines if not line.startswith(("  ", "total:"))]
    _require(len(suites) == 13, f"{len(suites)} suites reported, want 13")
    _require(lines[-1].startswith("total: ") and lines[-1].endswith(" 0 failed"), lines[-1])


_CHECKS = {
    "zeta": _check_zeta,
    "lefschetz": _check_lefschetz,
    "euler-char": _check_euler_char,
    "adelic": _check_euler_char,
    "index": _check_index,
    "genus": _check_genus,
    "table": _check_table,
    "verify": _check_verify,
}


def check(req, rc, out: str, err: str) -> str | None:
    """None when the request's output is right, else the reason it is not."""
    if rc != req.expect:
        return f"exit code {rc}, want {req.expect}: {err.strip()[:200]}"
    try:
        if req.expect:
            lines = err.splitlines()
            _require(out == "", "malformed request printed to stdout")
            _require(
                len(lines) == 1 and lines[0].startswith("error: "),
                f"want exactly one 'error:' line, got {lines[:3]}",
            )
        else:
            _CHECKS[req.kind](req, out)
    except CheckFailure as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"
    return None
