"""Acceptance criteria, each stated as the ``quatlef verify`` checks that pin it.

``quatlef verify`` prints the pass counts of every suite; the checks named
here are listed, with their inputs, in ``quatlef.verify``.
"""


def test_criterion_1_classical_sl2(verified):
    # L(Q, split, n=1, (N)) = -|SL_2(Z/N)|/12 against enumeration
    verified("lefschetz", *(f"L(split, n=1, ({n}))" for n in range(3, 8)))


def test_criterion_2_shimura_curve_coherence(verified):
    # ram {2,3}: level (5) gives L=-20, g=11, b1=22; level (7) L=-56, g=29
    for n in (5, 7):
        verified(
            "lefschetz",
            f"L(ram23, ({n}))",
            f"genus(ram23, ({n}))",
            f"b1(ram23, ({n}))",
            f"chi=2-2g ({n})",
        )


def test_criterion_3_quadratic_field_pipeline(verified):
    verified("zeta", "zeta_Q(sqrt(5))(-1)", "zeta_Q(sqrt(5))(-3)")
    verified(
        "lefschetz",
        "chi(Hamilton/Q(sqrt5)), n=2, (3)",
        "decomposition 4*chi",
        "closed form 478224",
    )


def test_criterion_8_adelic_cross_check(verified):
    verified("volumes", "vol Sp(1)", "vol Sp(2)")
