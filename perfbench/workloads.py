"""Seeded request generators for the four benchmark workloads.

Each generator turns a seed into a list of CLI requests. A request is the
argv handed to ``quatlef.cli.main``, the exit code it must return, and
the metadata the output checker and the input-property summary need.

Every stream is built from rounds with a fixed shape: the same sequence
of slots (command, size class, format) in every round, with the seed
choosing only the concrete field, level, algebra or series length inside
each slot. The cost profile of a run is therefore the same for every
seed while the inputs differ, which keeps the run-to-run spread that the
inputs add small. Streams are far longer than a run consumes today, so a
faster program keeps drawing fresh inputs instead of repeating requests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import arith

WORKLOADS = ("zeta-sweep", "level-scan", "class-sum", "oracles")

WHY = {
    "zeta-sweep": (
        "zeta over distinct quadratic fields of conductor ~100-5000: exact and"
        " generalized-Bernoulli work dominates, no signature classes or finite groups"
    ),
    "level-scan": (
        "hundreds of cheap table/lefschetz/euler-char/index/genus requests with n <= 2"
        " and ~5% malformed input: per-row fixed cost, parsing and serialisation"
    ),
    "class-sum": (
        "table over a few levels with n = 4-8 and 4 ramified real places: hundreds of"
        " signature classes per row, so the per-class Euler characteristic dominates"
    ),
    "oracles": (
        "verify (all suites) then adelic euler-char with 2e5-1e6 series terms: the only"
        " workload reaching finite-group enumeration and the float zeta path"
    ),
}

DESCRIPTOR_NAME = "q_sqrt2_sqrt5.json"

# Rounds in a traced run: a fixed amount of work, so that per-layer counts
# repeat exactly for a seed; about 5-8 s untraced on a 2-vCPU host today.
TRACE_ROUNDS = {"zeta-sweep": 3, "level-scan": 40, "class-sum": 8, "oracles": 4}


@dataclass
class Request:
    argv: list[str]
    expect: int = 0
    kind: str = ""
    reuse_key: tuple = ()
    meta: dict = field(default_factory=dict)
    ends_round: bool = False


# ---------------------------------------------------------------- zeta-sweep

# d runs over primes p = 1 mod 4 (conductor p) and over d = p = 3 mod 4
# or d = 2p (conductor 4p or 8p); for these d all or half of the residues
# mod the conductor carry a nonzero character value, so the cost of the
# generalized Bernoulli numbers grows smoothly with the conductor and
# jmax. Each pool, sorted by conductor from 100 to 5000, is cut into
# bands of _ZETA_BAND consecutive fields, and every slot draws from its
# own band, so no field is ever drawn twice. Slots are (pool, band,
# jmax), listed by rising cost: the middle slot is also the middle in
# cost, so the median request falls inside its cluster. The two dearest
# slots cost about the same and reach conductor ~5000; together they
# hold well over 11 requests per run, so the tail (11th slowest) falls
# inside their cluster rather than on its lower edge.
_ZETA_SLOTS = (
    ("d=1 mod 4", 0, 4),
    ("d=2,3 mod 4", 0, 8),
    ("d=2,3 mod 4", 1, 4),
    ("d=1 mod 4", 1, 4),
    ("d=2,3 mod 4", 2, 4),
    ("d=1 mod 4", 3, 4),
    ("d=2,3 mod 4", 4, 4),
)
_ZETA_CONDUCTORS = (100, 5000)
_ZETA_BAND = 44
_ZETA_ROUNDS = 30
_GOLDEN = (5**0.5 - 1) / 2


def _zeta_bands() -> dict[str, list[list[int]]]:
    """Per pool, the bands of d sorted by conductor."""
    primes = [p for p in range(3, 5000) if arith.is_prime(p)]
    pools = {
        "d=1 mod 4": [p for p in primes if p % 4 == 1],
        "d=2,3 mod 4": [p for p in primes if p % 4 == 3] + [2 * p for p in primes],
    }
    lo, hi = _ZETA_CONDUCTORS
    bands = {}
    for kind, pool in pools.items():
        pool = sorted((d for d in pool if lo <= arith.conductor(d) <= hi), key=arith.conductor)
        bands[kind] = [pool[i : i + _ZETA_BAND] for i in range(0, len(pool), _ZETA_BAND)]
    return bands


def _spread_order(rng: random.Random, size: int, count: int) -> list[int]:
    """``count`` distinct indices into a band of ``size``, in an order
    whose every prefix covers the band evenly (a golden-ratio sequence
    from a seeded start), so that a run of any length sees the same mix
    of conductors whatever the seed."""
    start = rng.random()
    taken: list[int] = []
    free = set(range(size))
    for r in range(count):
        want = int(((start + r * _GOLDEN) % 1.0) * size)
        index = min(free, key=lambda i: (abs(i - want), i))
        free.remove(index)
        taken.append(index)
    return taken


def zeta_sweep(rng: random.Random, build_dir: Path) -> list[Request]:
    bands = _zeta_bands()
    orders = [
        _spread_order(rng, len(bands[kind][band]), _ZETA_ROUNDS) for kind, band, _ in _ZETA_SLOTS
    ]
    requests = []
    for round_no in range(_ZETA_ROUNDS):
        for slot, (kind, band, jmax) in enumerate(_ZETA_SLOTS):
            d = bands[kind][band][orders[slot][round_no]]
            fmt = "json" if (slot + round_no) % 2 == 0 else "csv"
            requests.append(
                Request(
                    ["zeta", "--field", f"quad:{d}", "--jmax", str(jmax), "--format", fmt],
                    kind="zeta",
                    reuse_key=(d,),
                    meta={"d": d, "conductor": arith.conductor(d), "jmax": jmax, "format": fmt},
                )
            )
        requests[-1].ends_round = True
    return requests


# ---------------------------------------------------------------- level-scan

_SMALL_D = [d for d in range(2, 41) if arith.squarefree(d) and arith.conductor(d) <= 40]
_MALFORMED = (
    ("zeta", "non-squarefree d"),
    ("euler-char", "odd q in --signature"),
    ("lefschetz", "n = 0"),
    ("index", "level 1"),
    ("genus", "genus of a non-Fuchsian algebra"),
)


def _primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if arith.is_prime(p)]


def _algebra_flags(rng: random.Random, kind: str) -> tuple[list[str], int]:
    """Flags for one algebra of the given kind and its count of ramified
    real places."""
    small = _primes_upto(13)
    if kind == "split":
        return ["--split"], 0
    if kind == "hilbert":
        # a > 0: split at the real place, so the algebra is either the
        # matrix algebra or a Fuchsian division algebra over Q.
        a = rng.choice([2, 3, 5, 6, 7, 10, 11, 13])
        b = rng.choice([-1, -2, -3, -5, -7, 3, 5, 7])
        return [f"--hilbert={a},{b}"], 0
    if kind == "fuchsian-hilbert":
        # division presentations ramified at {2,3}, {2,7} and {2,5}
        a, b = rng.choice([(3, -1), (7, -1), (5, -2)])
        return [f"--hilbert={a},{b}"], 0
    if kind == "finite":
        p1, p2 = rng.sample(small, 2)
        return ["--ram", f"{p1},{p2}"], 0
    # Fuchsian over a quadratic field: one finite prime and one real place.
    return ["--ram", str(rng.choice(small)), "--ram-real", "1"], 1


def _level_scan_field(rng: random.Random) -> tuple[str, int | None]:
    if rng.random() < 0.35:
        return "q", None
    d = rng.choice(_SMALL_D)
    return f"quad:{d}", d


def _signature(rng: random.Random, n: int, r: int) -> list[str]:
    if r == 0:
        return []
    qs = [rng.choice(range(0, n + 1, 2)) for _ in range(r)]
    return ["--signature", ";".join(f"{n - q},{q}" for q in qs)]


def _level_scan_single(rng: random.Random, command: str, fmt: str) -> Request:
    field_spec, d = _level_scan_field(rng)
    if command == "genus":
        kind = rng.choice(["finite", "fuchsian-hilbert"]) if d is None else "fuchsian"
    elif d is None:
        kind = rng.choice(["split", "finite", "hilbert"])
    else:
        kind = rng.choice(["split", "finite", "fuchsian"])
    flags, r = _algebra_flags(rng, kind)
    level = str(rng.randint(3, 60))
    argv = [command, "--field", field_spec, *flags, "--level", level]
    n = 1
    if command != "genus":
        n = rng.choice([1, 2])
        argv += ["--n", str(n)]
    if command == "euler-char":
        argv += _signature(rng, n, r)
    if command == "lefschetz" and rng.random() < 0.3:
        argv.append("--trace-w=" + rng.choice(["2", "-1", "3/2"]))
    if command == "genus":
        argv += ["--weights", "2,4,6"]
    argv += ["--format", fmt]
    return Request(
        argv,
        kind=command,
        reuse_key=(field_spec,),
        meta={"format": fmt, "n": n, "classes": (n // 2 + 1) ** r},
    )


# (field over Q, algebra kind, n) of a table; the shorter table slots
# cycle through all of them in a seeded order. The longest table is
# always the dearest mix, a Fuchsian algebra over a real quadratic field
# with n = 2, so that the tail (11th slowest request) is a high
# percentile of one population of some 250 such tables per run rather
# than of the couple of dozen a mixed slot would give.
_TABLE_MIX = [(over_q, kind, n) for over_q in (True, False) for kind in range(3) for n in (1, 2)]
_LONGEST_TABLE_MIX = (False, 2, 2)


def _level_scan_table(rng: random.Random, length: int, mix: tuple[bool, int, int]) -> Request:
    over_q, kind_no, n = mix
    d = None if over_q else rng.choice(_SMALL_D)
    field_spec = "q" if over_q else f"quad:{d}"
    kind = ("split", "finite", "hilbert" if over_q else "fuchsian")[kind_no]
    flags, r = _algebra_flags(rng, kind)
    lo = rng.randint(3, 40)
    argv = ["table", "--field", field_spec, *flags, "--n", str(n)]
    argv += ["--levels", f"{lo}:{lo + length - 1}"]
    if rng.random() < 0.25:
        argv.append("--trace-w=" + rng.choice(["2", "-1/3"]))
    return Request(
        argv,
        kind="table",
        reuse_key=(field_spec,),
        meta={"n": n, "classes": (n // 2 + 1) ** r, "degree": 1 if d is None else 2},
    )


def _level_scan_malformed(rng: random.Random, which: int) -> Request:
    command, reason = _MALFORMED[which % len(_MALFORMED)]
    if command == "zeta":
        d = rng.choice([4, 8, 12, 18, 20, 27, 45, 50])
        argv = ["zeta", "--field", f"quad:{d}", "--jmax", "2"]
    elif command == "euler-char":
        argv = ["euler-char", "--field", "q", "--ram", "2", "--ram-real", "1",
                "--n", "2", "--level", str(rng.randint(3, 30)), "--signature", "1,1"]
    elif command == "lefschetz":
        argv = ["lefschetz", "--field", "q", "--split", "--n", "0", "--level", "5"]
    elif command == "index":
        argv = ["index", "--field", f"quad:{rng.choice(_SMALL_D)}", "--split",
                "--n", "1", "--level", "1"]
    else:
        argv = ["genus", "--field", "q", "--split", "--level", str(rng.randint(3, 30))]
    return Request(argv, expect=2, kind="malformed", meta={"reason": reason})


# 20 slots: 16 single-level requests, 3 tables, 1 malformed request (5%).
_SCAN_SINGLES = [
    (command, fmt)
    for command in ("lefschetz", "euler-char", "index", "genus")
    for fmt in ("json", "csv", "json", "csv")
]
_SCAN_TABLE_LENGTHS = (20, 60, 150)
_SCAN_ROUNDS = 500


def level_scan(rng: random.Random, build_dir: Path) -> list[Request]:
    mixes = [rng.sample(_TABLE_MIX, len(_TABLE_MIX)) for _ in _SCAN_TABLE_LENGTHS[:-1]]
    mixes.append([_LONGEST_TABLE_MIX])
    requests = []
    for round_no in range(_SCAN_ROUNDS):
        for slot, (command, fmt) in enumerate(_SCAN_SINGLES):
            requests.append(_level_scan_single(rng, command, fmt))
            if slot % 5 == 4:
                table = slot // 5
                mix = mixes[table][round_no % len(mixes[table])]
                requests.append(_level_scan_table(rng, _SCAN_TABLE_LENGTHS[table], mix))
        requests.append(_level_scan_malformed(rng, round_no))
        requests[-1].ends_round = True
    return requests


# ---------------------------------------------------------------- class-sum

# Q(sqrt 2, sqrt 5) has the characters of conductor 1, 5, 8 and 40, so
# |D_K| = 5 * 8 * 40 and zeta_K(1-2j) = zeta(1-2j) L(1-2j, chi_5)
# L(1-2j, chi_8) L(1-2j, chi_40).
_MULTIQUADRATIC_D = (5, 8, 40)
_DESCRIPTOR_PRIMES = _primes_upto(60)
_DESCRIPTOR_JMAX = 8


def _multiquadratic_splitting(p: int) -> list[list[int]]:
    """[f, e] pairs above p in Q(sqrt 2, sqrt 5).

    p ramifies (e = 2) in the one quadratic subfield whose discriminant it
    divides out of Q(sqrt 2), Q(sqrt 5), Q(sqrt 10) and is unramified in
    another, which decides f; an unramified p splits completely exactly
    when all three symbols are 1, and otherwise has f = 2 in two primes.
    """
    symbols = [arith.kronecker(D, p) for D in _MULTIQUADRATIC_D]
    if 0 in symbols:
        unramified = [s for s in symbols if s != 0]
        f = 1 if unramified[0] == 1 else 2
        return [[f, 2]] * (2 // f)
    if all(s == 1 for s in symbols):
        return [[1, 1]] * 4
    return [[2, 1]] * 2


def multiquadratic_descriptor() -> dict:
    gen = {D: arith.gen_bernoulli_list(D, 2 * _DESCRIPTOR_JMAX) for D in _MULTIQUADRATIC_D}
    zeta = []
    for j in range(1, _DESCRIPTOR_JMAX + 1):
        value = arith.riemann_zeta_neg(j)
        for D in _MULTIQUADRATIC_D:
            value *= -gen[D][2 * j] / (2 * j)
        # sign law for a totally real quartic field: (-1)^(4j) = +1
        if value <= 0:
            raise ValueError(f"sign law fails for the descriptor at j={j}")
        zeta.append(str(value))
    abs_disc = 1
    for D in _MULTIQUADRATIC_D:
        abs_disc *= D
    return {
        "degree": 4,
        "abs_discriminant": abs_disc,
        "num_real_places": 4,
        "zeta_neg": zeta,
        "splitting": {str(p): _multiquadratic_splitting(p) for p in _DESCRIPTOR_PRIMES},
    }


def write_descriptor(build_dir: Path) -> str:
    path = build_dir / DESCRIPTOR_NAME
    path.write_text(json.dumps(multiquadratic_descriptor(), indent=1), encoding="utf-8")
    return path.as_posix()


# (setup, n, number of levels in the row range)
_CLASS_SLOTS = (
    ("biquadratic", 4, 3),
    ("quad5", 6, 3),
    ("biquadratic", 5, 2),
    ("biquadratic", 6, 2),
    ("quad5", 8, 2),
    ("biquadratic", 7, 1),
    ("biquadratic", 8, 1),
    ("quad5", 4, 3),
)
_CLASS_ROUNDS = 100
# first levels of the row ranges; the cost of a row depends on the
# level's factorisation, so each slot cycles through all of them
_CLASS_LEVELS = range(3, 41)


def class_sum(rng: random.Random, build_dir: Path) -> list[Request]:
    descriptor = write_descriptor(build_dir)
    cycle = len(_CLASS_LEVELS)
    orders = [_spread_order(rng, cycle, cycle) for _ in _CLASS_SLOTS]
    requests = []
    for round_no in range(_CLASS_ROUNDS):
        for slot, (setup, n, rows) in enumerate(_CLASS_SLOTS):
            lo = _CLASS_LEVELS[orders[slot][round_no % cycle]]
            if setup == "biquadratic":
                argv = ["table", "--field", f"external:{descriptor}", "--ram-real", "4"]
                r, degree = 4, 4
            else:
                argv = ["table", "--field", "quad:5", "--ram-real", "2"]
                r, degree = 2, 2
            argv += ["--n", str(n), "--levels", f"{lo}:{lo + rows - 1}"]
            requests.append(
                Request(
                    argv,
                    kind="table",
                    reuse_key=(setup, n),
                    meta={"n": n, "classes": (n // 2 + 1) ** r, "degree": degree},
                )
            )
        requests[-1].ends_round = True
    return requests


# ---------------------------------------------------------------- oracles

# (field, algebra flags, n, signature, series terms class); the series
# count per request is n for Q and 2n for a quadratic field, and the cost
# follows terms x series. Three slots of ~0.9M series terms form the
# middle of every round, so the median request falls inside that cluster
# rather than on the edge between two costs.
_ORACLE_SLOTS = (
    ("q", ["--split"], 1, None, 300_000),
    ("q", ["--ram", "2,3"], 1, None, 700_000),
    ("quad", ["--split"], 1, None, 450_000),
    ("q", ["--split"], 2, None, 450_000),
    ("quad", ["--ram-real", "2"], 2, "2,0;2,0", 230_000),
    ("q", ["--split"], 2, None, 900_000),
    ("quad", ["--split"], 1, None, 950_000),
)
_ORACLE_D = (2, 3, 5, 13, 17, 29)
_ORACLE_ROUNDS = 150


def oracles(rng: random.Random, build_dir: Path) -> list[Request]:
    requests = [Request(["verify"], kind="verify", reuse_key=("verify",), ends_round=True)]
    used_terms: set[int] = {10**6}  # verify's own series length
    # quadratic fields in a seeded order, each used equally often
    fields = [f"quad:{d}" for d in _ORACLE_D]
    rng.shuffle(fields)
    for round_no in range(_ORACLE_ROUNDS):
        for slot, (field_kind, flags, n, signature, terms_class) in enumerate(_ORACLE_SLOTS):
            terms = terms_class
            while terms in used_terms:
                terms = int(terms_class * rng.uniform(0.97, 1.03))
            used_terms.add(terms)
            field_spec = "q" if field_kind == "q" else fields[(round_no + slot) % len(fields)]
            argv = ["euler-char", "--field", field_spec, *flags, "--n", str(n)]
            argv += ["--level", str(rng.choice([3, 5, 7, 9, 11, 13]))]
            if signature:
                argv += ["--signature", signature]
            argv += ["--adelic-terms", str(terms)]
            requests.append(
                Request(
                    argv,
                    kind="adelic",
                    reuse_key=(field_spec, terms),
                    meta={"terms": terms, "n": n, "format": "json"},
                )
            )
        requests[-1].ends_round = True
    return requests


GENERATORS = {
    "zeta-sweep": zeta_sweep,
    "level-scan": level_scan,
    "class-sum": class_sum,
    "oracles": oracles,
}


def generate(name: str, seed: int, build_dir: Path) -> list[Request]:
    """The request stream of one workload; identical for identical seeds."""
    build_dir.mkdir(parents=True, exist_ok=True)
    return GENERATORS[name](random.Random(f"{name}:{seed}"), build_dir)


def input_properties(requests: list[Request]) -> dict:
    """Input properties of the requests a run attempted."""
    seen: set = set()
    repeats = 0
    for req in requests:
        if req.reuse_key and req.reuse_key in seen:
            repeats += 1
        seen.add(req.reuse_key)
    props = {
        "requests": len(requests),
        "repeat_share": repeats / max(len(requests), 1),
        "malformed_share": sum(r.expect != 0 for r in requests) / max(len(requests), 1),
    }
    conductors = [r.meta["conductor"] for r in requests if "conductor" in r.meta]
    if conductors:
        props["conductor_range"] = [min(conductors), max(conductors)]
        props["d_1_mod_4_share"] = sum(
            r.meta["d"] % 4 == 1 for r in requests if "d" in r.meta
        ) / len(conductors)
    classes = [r.meta["classes"] for r in requests if "classes" in r.meta]
    if classes:
        props["classes_per_row_range"] = [min(classes), max(classes)]
    terms = [r.meta["terms"] for r in requests if "terms" in r.meta]
    if terms:
        props["series_terms_range"] = [min(terms), max(terms)]
    return props

