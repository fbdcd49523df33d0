"""The library API documented in README.md and the package export list."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import quatlef
from quatlef import exact, finitegrp, lefschetz, numberfield, quaternion
from quatlef import (
    EulerCharReport,
    GenusReport,
    Ideal,
    LefschetzInput,
    LefschetzReport,
    PrimeIdeal,
    QuadraticCharacter,
    QuaternionAlgebra,
    SignatureClass,
    SymbolicScalar,
    TotallyRealField,
    ValidationError,
    ideal_from_integer,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    """The python block under README's ``## Library`` heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_block_runs_as_written():
    namespace = {}
    exec(_library_block(), namespace)
    lefschetz_number = namespace["lefschetz_number"]
    lefschetz_via_decomposition = namespace["lefschetz_via_decomposition"]
    inp = namespace["inp"]
    assert lefschetz_number(inp).value == Fraction(478224)
    assert lefschetz_via_decomposition(inp) == Fraction(478224)
    assert namespace["chi"].value == Fraction(119556)
    assert [c.value for c in namespace["components"]] == [Fraction(119556)] * 4


def test_package_exports_each_module_name_once():
    names = quatlef.__all__
    assert len(names) == len(set(names)) == 45
    for name in names:
        obj = getattr(quatlef, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.startswith("quatlef.")
        assert name in module.__all__
        assert getattr(module, name) is obj


_Q = TotallyRealField.rationals()
_Q5 = TotallyRealField.real_quadratic(5)
_Q5_REPR = (
    "TotallyRealField(kind='real-quadratic', d=5, degree=2, abs_discriminant=5,"
    " num_real_places=2, zeta_neg_table=(), splitting_table=())"
)
_P3 = "PrimeIdeal(p=3, f=2, e=1, label='')"
_HAMILTON = f"QuaternionAlgebra(field={_Q5_REPR}, ram_finite=(), ram_real_count=2)"
_LEVEL3 = f"Ideal(field={_Q5_REPR}, factors=(({_P3}, 1),))"
_REPORT = (
    "value=Fraction(2, 1), n=1, two_power=Fraction(1, 2), disc_power=1,"
    " m_factors=(Fraction(-1, 24),), warnings=(), zero_reason=None"
)


def _report(cls, **changes):
    fields = dict(
        value=Fraction(2),
        n=1,
        two_power=Fraction(1, 2),
        disc_power=1,
        m_factors=(Fraction(-1, 24),),
    )
    if cls is LefschetzReport:
        fields["trace_w"] = Fraction(1)
    else:
        fields.update(signature_class=SignatureClass(((1, 0),)), binomial_factor=1)
    return cls(**{**fields, **changes})


# per public value type: a builder called with no arguments, or with one
# field changed; the name of that field and another value for it; the
# exact repr of the value built with no arguments
_VALUES = [
    (
        lambda **kw: SymbolicScalar(**{"coeff": Fraction(8, 3), "pi_exp": 6, **kw}),
        "pi_exp",
        4,
        "SymbolicScalar(coeff=Fraction(8, 3), pi_exp=6)",
    ),
    (
        lambda **kw: QuadraticCharacter(**{"fundamental_discriminant": 5, **kw}),
        "fundamental_discriminant",
        8,
        "QuadraticCharacter(fundamental_discriminant=5)",
    ),
    (
        lambda **kw: PrimeIdeal(**{"p": 7, "f": 2, "e": 1, "label": "a", **kw}),
        "label",
        "b",
        "PrimeIdeal(p=7, f=2, e=1, label='a')",
    ),
    (
        lambda **kw: TotallyRealField(
            **{"kind": "real-quadratic", "d": 5, "degree": 2, "abs_discriminant": 5,
               "num_real_places": 2, **kw}
        ),
        "d",
        13,
        _Q5_REPR,
    ),
    (
        lambda **kw: Ideal(**{"field": _Q5, "factors": ((PrimeIdeal(3, 2), 1),), **kw}),
        "factors",
        ((PrimeIdeal(3, 2), 2),),
        _LEVEL3,
    ),
    (
        lambda **kw: QuaternionAlgebra(**{"field": _Q5, "ram_real_count": 2, **kw}),
        "ram_real_count",
        0,
        _HAMILTON,
    ),
    (
        lambda **kw: SignatureClass(**{"signatures": ((2, 0), (2, 0)), **kw}),
        "signatures",
        ((0, 2), (2, 0)),
        "SignatureClass(signatures=((2, 0), (2, 0)))",
    ),
    (
        lambda **kw: LefschetzInput(
            **{"field": _Q5, "algebra": QuaternionAlgebra(_Q5, (), 2), "n": 2,
               "level": ideal_from_integer(_Q5, 3), **kw}
        ),
        "trace_w",
        Fraction(5, 3),
        f"LefschetzInput(field={_Q5_REPR}, algebra={_HAMILTON}, n=2,"
        f" level={_LEVEL3}, trace_w=Fraction(1, 1), assume_torsion_free=False)",
    ),
    (
        lambda **kw: _report(LefschetzReport, **kw),
        "trace_w",
        Fraction(2),
        f"LefschetzReport({_REPORT}, trace_w=Fraction(1, 1))",
    ),
    (
        lambda **kw: _report(EulerCharReport, **kw),
        "zero_reason",
        "base field has a complex place",
        f"EulerCharReport({_REPORT}, signature_class="
        "SignatureClass(signatures=((1, 0),)), binomial_factor=1)",
    ),
    (
        lambda **kw: GenusReport(**{"genus": 11, "b1": 22, "chi": -20, **kw}),
        "warnings",
        ("torsion unverified",),
        "GenusReport(genus=11, b1=22, chi=-20, warnings=())",
    ),
]


@pytest.mark.parametrize(
    "build, name, other, text", _VALUES, ids=[text.split("(")[0] for *_, text in _VALUES]
)
def test_value_types_are_immutable_values(build, name, other, text):
    value = build()
    for change in (lambda: setattr(value, name, other), lambda: delattr(value, name)):
        with pytest.raises(AttributeError):
            change()
    assert getattr(value, name) != other
    assert value == build() and hash(value) == hash(build())
    assert value != build(**{name: other})
    assert repr(value) == text
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert twin == value and hash(twin) == hash(value) and repr(twin) == text


def test_prime_ideals_sort_by_characteristic_degree_index_label():
    primes = [PrimeIdeal(3), PrimeIdeal(2, 1, 1, "b"), PrimeIdeal(2, 2), PrimeIdeal(2, 1, 2),
              PrimeIdeal(2, 1, 1, "a")]
    assert [str(p) for p in sorted(primes)] == ["2:1:1:a", "2:1:1:b", "2:1:2", "2:2:1", "3:1:1"]
    assert PrimeIdeal(2) < PrimeIdeal(3) <= PrimeIdeal(3) and PrimeIdeal(5) > PrimeIdeal(3, 2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: QuadraticCharacter(3), "3 is not a fundamental discriminant"),
        (lambda: PrimeIdeal(4), "residue characteristic 4 is not prime"),
        (lambda: PrimeIdeal(2, 0), "residue degree and ramification index must be >= 1"),
        (lambda: Ideal(_Q, ((2, 1),)), "ideal factors must be prime ideals"),
        (lambda: Ideal(_Q, ((PrimeIdeal(2), 0),)), "ideal exponents must be >= 1"),
        (
            lambda: QuaternionAlgebra(_Q, (PrimeIdeal(2), PrimeIdeal(2))),
            "finite ramified primes must be pairwise distinct",
        ),
        (
            lambda: QuaternionAlgebra(_Q5, (PrimeIdeal(3), PrimeIdeal(3, 2))),
            "prime 3:1:1 does not belong to Q(sqrt(5))",
        ),
        (
            lambda: QuaternionAlgebra(_Q, (), 2),
            "ramified real place count must lie in [0, number of real places]",
        ),
        (
            lambda: QuaternionAlgebra(_Q, (PrimeIdeal(2),)),
            "total number of ramified places must be even (Hilbert reciprocity)",
        ),
        (
            lambda: LefschetzInput(_Q5, QuaternionAlgebra(_Q), 1, ideal_from_integer(_Q5, 3)),
            "algebra is defined over a different field",
        ),
        (
            lambda: LefschetzInput(_Q, QuaternionAlgebra(_Q), 0, ideal_from_integer(_Q, 3)),
            "matrix size n must be >= 1",
        ),
        (
            lambda: LefschetzInput(_Q, QuaternionAlgebra(_Q), 1, Ideal(_Q)),
            "level must be a proper ideal",
        ),
        (
            lambda: LefschetzInput(
                _Q5, QuaternionAlgebra(_Q5, (), 2), 1, ideal_from_integer(_Q5, 3)
            ),
            "totally definite algebras need n >= 2 (strong approximation)",
        ),
    ],
)
def test_value_constructors_refuse_bad_fields_in_the_same_words(build, message):
    with pytest.raises(ValidationError) as refused:
        build()
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: numberfield.factorize(0), "can only factor positive integers"),
        (
            lambda: numberfield.gen_bernoulli(0, QuadraticCharacter(5)),
            "generalized Bernoulli index must be >= 1",
        ),
        (lambda: numberfield.dedekind_zeta_neg(_Q, 0), "zeta argument index must be >= 1"),
        (
            lambda: numberfield.zeta_f_positive_even_numeric(_Q, 0, 100),
            "zeta argument index must be >= 1",
        ),
        (lambda: exact.bernoulli_poly_eval(-1, 0), "Bernoulli polynomial degree must be >= 0"),
        (lambda: lefschetz.check_torsion_necessary(Ideal(_Q)), "level must be a proper ideal"),
        (
            lambda: lefschetz.m_factor(0, ideal_from_integer(_Q, 3), QuaternionAlgebra(_Q)),
            "factor index j must be >= 1",
        ),
        (lambda: lefschetz.h1_signature_classes(-1, 1), "need r >= 0 and n >= 1"),
        (
            lambda: lefschetz.weyl_quotient(1, -1, SignatureClass(())),
            "need n >= 1 and s >= 0",
        ),
        (lambda: lefschetz.modular_form_dim(-1, 2), "genus must be >= 0"),
        (lambda: lefschetz.betti_growth_exponent(0), "matrix size n must be >= 1"),
        (lambda: lefschetz.vol_sp_compact(0), "rank must be >= 1"),
        (
            lambda: lefschetz.global_modulus_factor(QuaternionAlgebra(_Q), 0),
            "matrix size n must be >= 1",
        ),
        (lambda: finitegrp.sl_order(1, 2), "matrix size must be >= 2"),
        (lambda: finitegrp.sp_order(0, 2), "rank must be >= 1"),
        (lambda: finitegrp.local_index_factor(2, "split", 1, 0), "prime exponent must be >= 1"),
        (lambda: finitegrp.brute_force_sl(0, 2), "need matrix size >= 1 and modulus >= 2"),
        (lambda: finitegrp.brute_force_sp(0, 2), "rank must be >= 1"),
        (lambda: finitegrp.brute_force_unitary(0, 2), "rank must be >= 1"),
        (lambda: quaternion.hilbert_symbol_q(1, 1, 4), "4 is not prime"),
    ],
    ids=[
        "factorize", "gen_bernoulli", "dedekind_zeta_neg", "zeta_f_positive_even_numeric",
        "bernoulli_poly_eval", "check_torsion_necessary", "m_factor", "h1_signature_classes",
        "weyl_quotient", "modular_form_dim", "betti_growth_exponent", "vol_sp_compact",
        "global_modulus_factor", "sl_order", "sp_order", "local_index_factor",
        "brute_force_sl", "brute_force_sp", "brute_force_unitary", "hilbert_symbol_q",
    ],
)
def test_public_functions_refuse_bad_arguments_in_the_same_words(call, message):
    with pytest.raises(ValidationError) as refused:
        call()
    assert str(refused.value) == message


def test_unit_ideal_prints_as_one():
    assert str(Ideal(_Q)) == "(1)"


def test_kronecker_symbol_at_negative_n_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for a in range(-30, 31):
        for n in range(-30, 0):
            assert numberfield.kronecker_symbol(a, n) == sympy.kronecker_symbol(a, n), (a, n)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """The command line starts without dataclasses and the modules it
    brings in (inspect, ast, dis): its set-up is a cost of every call."""
    code = (
        "import quatlef.cli, sys;"
        " print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_star_import_binds_the_export_list_and_dir_lists_it():
    namespace = {}
    exec("from quatlef import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(quatlef.__all__)
    assert set(quatlef.__all__) <= set(dir(quatlef))


# the first lookup of an exported name of a deferred module, made by eight
# threads at once with the interpreter switching threads as often as it can
_FIRST_USE_FROM_THREADS = """\
import sys, threading
import quatlef
sys.setswitchinterval(1e-6)
barrier, raised = threading.Barrier(8), []

def first_use():
    barrier.wait()
    try:
        quatlef.lefschetz_number
    except Exception as exc:
        raised.append(repr(exc))

threads = [threading.Thread(target=first_use) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
print(raised, sum(thread.is_alive() for thread in threads))
"""


def test_first_use_from_threads_raises_in_none():
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _FIRST_USE_FROM_THREADS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] 0\n"  # no thread raised, and every thread finished
