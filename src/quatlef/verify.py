"""Oracle-equivalence and invariant suites behind the ``verify`` command.

Each suite returns a list of (check name, ok, detail) triples. The checks
pin the closed forms against independent routes: exhaustive enumeration
for the finite group orders and indices, the functional equation between
exact negative zeta values and truncated series at positive even
integers, and the floating-point mass-formula path against the exact
Euler characteristics. ``decomposition`` compares every component's Euler
characteristic with the exact adelic mass formula (Harder's Gauss-Bonnet
theorem in the paper's adelic form), which shares only zeta_F(1-2j) with
the closed form.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, pi
from types import SimpleNamespace

from . import finitegrp, lefschetz, numberfield
from .errors import QuatlefError, ValidationError
from .lefschetz import (
    LefschetzInput,
    SignatureClass,
    euler_char_adelic_numeric,
    euler_char_components,
    euler_char_fixed_component,
    h1_signature_classes,
    lefschetz_number,
    lefschetz_via_decomposition,
)
from .numberfield import (
    TotallyRealField,
    dedekind_zeta_neg,
    ideal_from_integer,
    zeta_f_positive_even_numeric,
)
from .quaternion import QuaternionAlgebra, hilbert_ramification_q

Check = tuple[str, bool, str]

DEFAULT_TERMS = 10**6
ADELIC_REL_TOL = 1e-5
FUNCTIONAL_REL_TOL = 1e-6


def _eq(name: str, got, want) -> Check:
    return (name, got == want, f"got {got}, want {want}")


def _close(name: str, got: float, want: float, rel: float) -> Check:
    ok = abs(got - want) <= rel * abs(want)
    return (name, ok, f"got {got!r}, want {want!r} within rel {rel}")


def _fields() -> dict[str, TotallyRealField]:
    return {
        "Q": TotallyRealField.rationals(),
        "Q(sqrt(5))": TotallyRealField.real_quadratic(5),
        "Q(sqrt(2))": TotallyRealField.real_quadratic(2),
    }


def _fixtures() -> SimpleNamespace:
    """The algebras over Q and Q(sqrt(5)), the level (3) and the signature
    class that several suites share."""
    fields = _fields()
    q, q5 = fields["Q"], fields["Q(sqrt(5))"]
    primes = tuple(numberfield.split_prime(q, p)[0] for p in (2, 3))
    return SimpleNamespace(
        q=q,
        split=QuaternionAlgebra(q, (), 0),
        ram23=QuaternionAlgebra(q, primes, 0),
        hamilton=QuaternionAlgebra(q5, (), 2),
        level3=ideal_from_integer(q5, 3),
        cls=SignatureClass(((2, 0), (2, 0))),
    )


def _algebras_for(field: TotallyRealField) -> list[QuaternionAlgebra]:
    """Split, a {2,3}-style ramified algebra, and a Hamilton-type algebra."""
    out = [QuaternionAlgebra(field, (), 0)]
    if field.kind == "rationals":
        ram23 = _fixtures().ram23
        out.append(ram23)
        out.append(QuaternionAlgebra(field, ram23.ram_finite[:1], 1))
    else:
        out.append(QuaternionAlgebra(field, (), 2))
        prime2 = numberfield.split_prime(field, 2)[0]
        out.append(QuaternionAlgebra(field, (prime2,), 1))
    return out


def decomposition_grid() -> list[LefschetzInput]:
    """Valid inputs covering three fields, n <= 3, levels of norm <= 50."""
    grid: list[LefschetzInput] = []
    for field in _fields().values():
        max_level = 10 if field.degree == 1 else 7
        for algebra in _algebras_for(field):
            for n in range(1, 4):
                if algebra.is_totally_definite() and n < 2:
                    continue
                for level_int in range(3, max_level + 1):
                    grid.append(
                        LefschetzInput(
                            field=field,
                            algebra=algebra,
                            n=n,
                            level=ideal_from_integer(field, level_int),
                            trace_w=Fraction(1),
                        )
                    )
    return grid


def suite_bernoulli() -> list[Check]:
    from .exact import bernoulli, bernoulli_poly_eval, riemann_zeta_neg

    checks = [
        _eq("B_0", bernoulli(0), Fraction(1)),
        _eq("B_1", bernoulli(1), Fraction(-1, 2)),
        _eq("B_12", bernoulli(12), Fraction(-691, 2730)),
        _eq("B_2(1/5)", bernoulli_poly_eval(2, Fraction(1, 5)), Fraction(1, 150)),
        _eq("B_4(2/5)", bernoulli_poly_eval(4, Fraction(2, 5)), Fraction(91, 3750)),
        _eq("zeta(-1)", riemann_zeta_neg(1), Fraction(-1, 12)),
        _eq("zeta(-3)", riemann_zeta_neg(2), Fraction(1, 120)),
        _eq("zeta(-5)", riemann_zeta_neg(3), Fraction(-1, 252)),
    ]
    for k in range(3, 40, 2):
        checks.append(_eq(f"B_{k} = 0", bernoulli(k), Fraction(0)))
    for m in range(1, 25):
        total = sum(comb(m + 1, j) * bernoulli(j) for j in range(m + 1))
        checks.append(_eq(f"recurrence m={m}", total, Fraction(0)))
    return checks


def suite_zeta() -> list[Check]:
    fields = _fields()
    q5 = fields["Q(sqrt(5))"]
    checks = [
        _eq("zeta_Q(sqrt(5))(-1)", dedekind_zeta_neg(q5, 1), Fraction(1, 30)),
        _eq("zeta_Q(sqrt(5))(-3)", dedekind_zeta_neg(q5, 2), Fraction(1, 60)),
        _eq(
            "zeta_Q(sqrt(2))(-1)",
            dedekind_zeta_neg(fields["Q(sqrt(2))"], 1),
            Fraction(1, 12),
        ),
    ]
    for k, value in ((2, Fraction(4, 5)), (4, Fraction(-8)), (1, Fraction(0))):
        got = numberfield.gen_bernoulli(k, q5.character())
        checks.append(_eq(f"B_{{{k},chi_5}}", got, value))
    for label, field in fields.items():
        for j in range(1, 9):
            value = dedekind_zeta_neg(field, j)
            sign_ok = value != 0 and (value > 0) == ((j * field.degree) % 2 == 0)
            checks.append(
                (f"sign zeta_{label}(1-2*{j})", sign_ok, f"value {value}")
            )
    return checks


def suite_functional_equation() -> list[Check]:
    fields = _fields()
    # one pass of m^(-2j) per j sums the series of every field (D = 0 for
    # Q), and each check below resumes from the kept sums
    discriminants = tuple(f.abs_discriminant if f.degree == 2 else 0 for f in fields.values())
    for j in (1, 2):
        numberfield._dirichlet_series(discriminants, 2 * j, DEFAULT_TERMS)
    checks = []
    for label, field in fields.items():
        for j in (1, 2):
            lhs = zeta_f_positive_even_numeric(field, j, DEFAULT_TERMS)
            lhs *= float(field.abs_discriminant) ** ((4 * j - 1) / 2)
            lhs *= (2 * factorial(2 * j - 1) / (2 * pi) ** (2 * j)) ** field.degree
            rhs = (-1) ** (j * field.degree) * float(dedekind_zeta_neg(field, j))
            checks.append(
                _close(
                    f"functional equation {label} j={j}",
                    lhs,
                    rhs,
                    FUNCTIONAL_REL_TOL,
                )
            )
    return checks


def suite_kronecker() -> list[Check]:
    chi_5 = numberfield.QuadraticCharacter(5)
    checks = [
        _eq("(5/2)", chi_5(2), -1),
        _eq("(5/4)", chi_5(4), 1),
        _eq("(5/10)", chi_5(10), 0),
    ]
    for disc in (5, 8, 12, 13):
        mult_ok = all(
            numberfield.kronecker_symbol(disc, m * k)
            == numberfield.kronecker_symbol(disc, m)
            * numberfield.kronecker_symbol(disc, k)
            for m in range(1, 40)
            for k in range(1, 40)
        )
        checks.append(
            (f"multiplicativity of ({disc}/.)", mult_ok, "checked m, k < 40")
        )
        period_ok = all(
            numberfield.kronecker_symbol(disc, m)
            == numberfield.kronecker_symbol(disc, m + abs(disc))
            for m in range(1, 200)
        )
        checks.append((f"period of ({disc}/.)", period_ok, f"period |{disc}|"))
    return checks


def suite_hilbert() -> list[Check]:
    checks = []
    bad = 0
    for a in range(-20, 21):
        if a == 0:
            continue
        for b in range(-20, 21):
            if b == 0:
                continue
            algebra = hilbert_ramification_q(a, b)
            if (len(algebra.ram_finite) + algebra.ram_real_count) % 2:
                bad += 1
    checks.append(
        ("parity over [-20,20]^2", bad == 0, f"{bad} violations")
    )
    hamilton = hilbert_ramification_q(-1, -1)
    checks.append(
        _eq(
            "(-1,-1) ramification",
            ([p.p for p in hamilton.ram_finite], hamilton.ram_real_count),
            ([2], 1),
        )
    )
    split = hilbert_ramification_q(1, 7)
    checks.append(_eq("(1,7) splits", split.is_division(), False))
    minus3 = hilbert_ramification_q(-1, -3)
    checks.append(
        _eq(
            "(-1,-3) ramification",
            ([p.p for p in minus3.ram_finite], minus3.ram_real_count),
            ([3], 1),
        )
    )
    return checks


def suite_finite_orders() -> list[Check]:
    fg = finitegrp
    checks = [
        _eq(f"sl_order({m},{q})", fg.sl_order(m, q), fg.brute_force_sl(m, q))
        for m, q in ((2, 2), (2, 3), (2, 5), (2, 7), (3, 2))
    ]
    checks += [
        _eq(f"sp_order({n},{q})", fg.sp_order(n, q), fg.brute_force_sp(n, q))
        for n, q in ((1, 2), (1, 3), (1, 5), (2, 2))
    ]
    checks += [
        _eq(f"sp_order(1,{q}) = sl_order(2,{q})", fg.sp_order(1, q), fg.sl_order(2, q))
        for q in (2, 3, 5, 7)
    ]
    checks += [
        _eq(
            f"ramified_local_order(1,{q})",
            fg.ramified_local_order(1, q),
            fg.brute_force_ramified_sl1(q),
        )
        for q in (2, 3, 5)
    ]
    checks += [
        _eq(
            f"unitary_order({n},{q})",
            fg.unitary_order(n, q),
            fg.brute_force_unitary(n, q),
        )
        for n, q in ((1, 2), (1, 3), (2, 2))
    ]
    checks += [
        _eq(
            f"ramified=unitary*q^(n(n+1)) ({n},{q})",
            fg.ramified_local_order(n, q),
            fg.unitary_order(n, q) * q ** (n * (n + 1)),
        )
        for n in range(1, 6)
        for q in (2, 3, 4, 5, 7, 8, 9)
    ]
    crt = fg.brute_force_sl(2, 2) * fg.brute_force_sl(2, 3)
    checks.append(_eq("CRT sl(2,6)", fg.brute_force_sl(2, 6), crt))
    return checks


def suite_index() -> list[Check]:
    fx = _fixtures()
    field, split = fx.q, fx.split
    checks = []
    for n_mod in (2, 3, 4, 5, 6):
        level = ideal_from_integer(field, n_mod)
        checks.append(
            _eq(
                f"index split level ({n_mod})",
                lefschetz.congruence_index(split, 1, level),
                finitegrp.brute_force_sl(2, n_mod),
            )
        )
    prime2 = numberfield.split_prime(field, 2)[0]
    ram2 = QuaternionAlgebra(field, (prime2,), 1)
    checks.append(
        _eq(
            "index ramified-at-2 level (2)",
            lefschetz.congruence_index(ram2, 1, ideal_from_integer(field, 2)),
            12,
        )
    )
    return checks


def suite_lefschetz() -> list[Check]:
    fx = _fixtures()
    field, split, ram23 = fx.q, fx.split, fx.ram23
    checks = []
    for n_mod in (3, 4, 5, 6, 7):
        value = lefschetz_number(
            LefschetzInput(field, split, 1, ideal_from_integer(field, n_mod))
        ).value
        want = Fraction(-finitegrp.brute_force_sl(2, n_mod), 12)
        checks.append(_eq(f"L(split, n=1, ({n_mod}))", value, want))
    for n_mod, want_l, want_g in ((5, -20, 11), (7, -56, 29)):
        level = ideal_from_integer(field, n_mod)
        value = lefschetz_number(LefschetzInput(field, ram23, 1, level)).value
        report = lefschetz.genus_fuchsian(ram23, level)
        checks.append(_eq(f"L(ram23, ({n_mod}))", value, Fraction(want_l)))
        checks.append(_eq(f"genus(ram23, ({n_mod}))", report.genus, want_g))
        checks.append(_eq(f"b1(ram23, ({n_mod}))", report.b1, 2 * want_g))
        checks.append(_eq(f"chi=2-2g ({n_mod})", report.chi, value))
    chi = euler_char_fixed_component(fx.hamilton, 2, fx.level3, fx.cls).value
    checks.append(_eq("chi(Hamilton/Q(sqrt5)), n=2, (3)", chi, Fraction(119556)))
    inp = LefschetzInput(fx.hamilton.field, fx.hamilton, 2, fx.level3)
    checks.append(
        _eq(
            "decomposition 4*chi",
            lefschetz_via_decomposition(inp),
            Fraction(478224),
        )
    )
    checks.append(
        _eq("closed form 478224", lefschetz_number(inp).value, Fraction(478224))
    )
    return checks


def suite_binomial() -> list[Check]:
    # C(n, q_v) = C(n, p_v) since p_v + q_v = n, so the binomial factor
    # of a class computes both sides of the identity.
    checks = []
    for n in range(1, 7):
        for r in range(0, 5):
            classes = h1_signature_classes(r, n)
            total = sum(cls.binomial_factor(n) for cls in classes)
            want = 2 ** (r * (n - 1))
            checks.append(_eq(f"binomial identity n={n} r={r}", total, want))
            checks.append(
                _eq(f"class count n={n} r={r}", len(classes), (n // 2 + 1) ** r)
            )
    return checks


def _exact_mass_formula(algebra, n: int, level, cls: SignatureClass) -> Fraction:
    """The mass formula of euler_char_adelic_numeric in exact arithmetic, for
    a totally real field of degree g, with the same finite places' factor
    (lefschetz._mass_local_orders). The functional equation gives zeta_F(2j)
    as (-1)^(jg) zeta_F(1-2j) (2^(2j) / (2 (2j-1)!))^g times
    pi^(2jg) |d_F|^(-(4j-1)/2); over j <= n those powers of pi cancel the
    volume's pi^(g n(n+1)), and those of |d_F| the formula's |d_F|^(d/2),
    d = n(2n+1)."""
    field = algebra.field
    g = field.degree
    dim = lefschetz.fixed_point_space_dim(algebra, n, cls)
    value = Fraction((-1) ** (dim // 2) * lefschetz.weyl_quotient(n, algebra.s, cls))
    value /= lefschetz.vol_sp_compact(n).coeff ** g
    value *= lefschetz._mass_local_orders(algebra, n, level)
    value /= lefschetz.global_modulus_factor(algebra, n)
    for j in range(1, n + 1):
        gamma = Fraction(2 ** (2 * j), 2 * factorial(2 * j - 1)) ** g
        value *= (-1) ** (j * g) * dedekind_zeta_neg(field, j) * gamma
    return value


def suite_decomposition() -> list[Check]:
    grid = decomposition_grid()
    failures = []
    for inp in grid:
        definite = inp.algebra.is_totally_definite()
        for report in euler_char_components(inp.algebra, inp.n, inp.level):
            cls, value = report.signature_class, report.value
            exact = _exact_mass_formula(inp.algebra, inp.n, inp.level, cls)
            if value != exact:
                failures.append(f"{inp} class {cls}: {value} != {exact}")
            # a definite component counts |Sp_n(O/L)| times a mass of lattices
            if definite and (value <= 0 or value.denominator != 1):
                failures.append(f"{inp} class {cls}: definite {value} not a positive integer")
    return [
        (
            f"components = exact mass formula on {len(grid)} inputs",
            not failures and len(grid) >= 50,
            "; ".join(failures[:3]) or f"{len(grid)} inputs, all equal",
        )
    ]


def suite_signs() -> list[Check]:
    grid = decomposition_grid()
    bad_sign, bad_int, bad_dim = [], [], []
    for inp in grid:
        report = lefschetz_number(inp)
        if report.value.denominator != 1:
            bad_int.append(str(inp))
        expected = (-1) ** (inp.algebra.s * inp.n * (inp.n + 1) // 2)
        for component in euler_char_components(inp.algebra, inp.n, inp.level):
            cls, chi = component.signature_class, component.value
            if chi == 0 or (chi > 0) != (expected > 0):
                bad_sign.append(f"{inp} class {cls}")
            if lefschetz.fixed_point_space_dim(inp.algebra, inp.n, cls) % 2:
                bad_dim.append(f"{inp} class {cls}")
    return [
        (
            f"integrality of L over {len(grid)} inputs",
            not bad_int,
            "; ".join(bad_int[:3]) or "all integral",
        ),
        (
            "sign law for chi",
            not bad_sign,
            "; ".join(bad_sign[:3]) or "all match (-1)^(s n(n+1)/2)",
        ),
        (
            "even symmetric-space dimension",
            not bad_dim,
            "; ".join(bad_dim[:3]) or "all even",
        ),
    ]


def suite_volumes() -> list[Check]:
    from .exact import SymbolicScalar

    checks = [
        _eq(
            "vol Sp(1)",
            lefschetz.vol_sp_compact(1),
            SymbolicScalar(Fraction(2), 2),
        ),
        _eq(
            "vol Sp(2)",
            lefschetz.vol_sp_compact(2),
            SymbolicScalar(Fraction(8, 3), 6),
        ),
        _eq(
            "vol Sp(3)",
            lefschetz.vol_sp_compact(3),
            SymbolicScalar(Fraction(32, 45), 12),
        ),
    ]
    fx = _fixtures()
    checks += [
        _eq("mf split n=1", lefschetz.global_modulus_factor(fx.split, 1), Fraction(2)),
        _eq(
            "mf ram23 n=1", lefschetz.global_modulus_factor(fx.ram23, 1), Fraction(1, 3)
        ),
        _eq(
            "mf Hamilton n=2",
            lefschetz.global_modulus_factor(fx.hamilton, 2),
            Fraction(16),
        ),
    ]
    return checks


def suite_adelic() -> list[Check]:
    fx = _fixtures()
    empty = SignatureClass(())
    cases = [(fx.split, 1, n_mod) for n_mod in (3, 4, 5, 6, 7)]
    cases += [(fx.ram23, 1, 5), (fx.ram23, 1, 7), (fx.split, 2, 3)]
    named = [
        (
            f"adelic {algebra.describe()} n={n} level ({n_mod})",
            algebra, n, ideal_from_integer(fx.q, n_mod), empty,
        )
        for algebra, n, n_mod in cases
    ]
    named.append(("adelic Hamilton/Q(sqrt5) n=2", fx.hamilton, 2, fx.level3, fx.cls))
    checks = []
    for name, algebra, n, level, cls in named:
        exact = euler_char_fixed_component(algebra, n, level, cls).value
        numeric = euler_char_adelic_numeric(algebra, n, level, cls, DEFAULT_TERMS)
        checks.append(_close(name, numeric, float(exact), ADELIC_REL_TOL))
    return checks


SUITES = {
    "bernoulli": suite_bernoulli,
    "zeta": suite_zeta,
    "functional-equation": suite_functional_equation,
    "kronecker": suite_kronecker,
    "hilbert": suite_hilbert,
    "finite-orders": suite_finite_orders,
    "index": suite_index,
    "lefschetz": suite_lefschetz,
    "binomial": suite_binomial,
    "decomposition": suite_decomposition,
    "signs": suite_signs,
    "volumes": suite_volumes,
    "adelic": suite_adelic,
}


def run_suites(names: list[str] | None = None) -> dict[str, list[Check]]:
    """Run the requested suites (all by default) and return their checks.
    A suite that raises QuatlefError, such as a broken invariant, is one
    failed check named after it, so that the other suites still report."""
    if names is None:
        names = list(SUITES)
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise ValidationError(f"unknown verification suites: {unknown}")
    results = {}
    for name in dict.fromkeys(names):
        try:
            results[name] = SUITES[name]()
        except QuatlefError as exc:
            results[name] = [(name, False, str(exc))]
    return results
