"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is exact (set equality, exact counts); there are no
tolerances anywhere.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
from math import comb, factorial

from wreathbench import (
    WreathContext,
    brute_rank,
    close,
    compose,
    count_idempotents,
    emit_E_wreath_monoid,
    emit_R,
    emit_R1,
    emit_R1p,
    emit_R2,
    emit_Rn,
    enumerate_Tn,
    eps_ab,
    eps_elem,
    epsilon,
    fixture,
    generates,
    is_L_chain,
    rank_formulas,
    sing_target,
    soundness,
    standard_map,
    todd_coxeter,
    tournament_check,
    verify,
    wreath_sing_target,
)
from wreathbench.certify import e_wreath_target
from wreathbench.presentations import Presentation

from conftest import (
    evaluate, gen_family, is_idempotent, omega_witnesses, rank_one_less_idempotents, sigma_membership,
    sized, word_E_X1, word_E_X2,
)

FIXTURES = ("@T1", "@Z2", "@Z3", "@B01", "@RZ1", "@T2")


def _finish(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}")
    assert not failures, failures


def _matrix():
    """Every presentation-family instance of the certification criterion,
    with its exact expected class count."""
    rows = []
    for n in (2, 3):
        rows.append(("R", None, n, emit_R(n), n**n - factorial(n)))
    for name in ("@T1", "@Z2", "@B01"):
        M = fixture(name)
        for n in (2, 3):
            size = M.order**n * (n**n - factorial(n))
            rows.append(("Rn", name, n, emit_Rn(M, n), size))
            rows.append(("R2", name, n, emit_R2(M, n), size))
    for name in ("@B01", "@T1"):
        M = fixture(name)
        for n in (2, 3):
            size = M.order**n * (n**n - factorial(n))
            rows.append(("R1", name, n, emit_R1(M, n), size))
    for name in ("@Z2", "@Z3"):
        M = fixture(name)
        for n in (2, 3):
            size = M.order**n * (n**n - factorial(n))
            rows.append(("R1p", name, n, emit_R1p(M, n), size))
    rows.append(("Emonoid", "@Z2", 2, emit_E_wreath_monoid(fixture("@Z2"), 2), 9))
    rows.append(("Emonoid", "@T2", 2, emit_E_wreath_monoid(fixture("@T2"), 2), 41))
    return rows


def _target_for(fam, name, n):
    if fam == "R":
        return sing_target(n)
    if fam == "Emonoid":
        return e_wreath_target(fixture(name), n)
    return wreath_sing_target(fixture(name), n)


def test_criterion_1_idempotent_counts():
    failures = []
    for name in FIXTURES:
        M = fixture(name)
        for n in (2, 3):
            for part in ("full", "singular"):
                ctx = WreathContext(M, n, part)
                f = count_idempotents(ctx, "formula")
                b = count_idempotents(ctx, "brute")
                if f != b:
                    failures.append(f"{name} n={n} {part}: formula {f} != brute {b}")
    for n in range(1, 6):
        brute = sum(1 for x in enumerate_Tn(n) if is_idempotent(x))
        formula = sum(comb(n, k) * k ** (n - k) for k in range(1, n + 1))
        if brute != formula:
            failures.append(f"E(T_{n}): {brute} != {formula}")
    _finish(1, "idempotent counts", failures)


def test_criterion_2_generation():
    failures = []
    for n in (2, 3, 4):
        gens = rank_one_less_idempotents(n)
        target = close(gens, compose)
        if len(target) != n**n - factorial(n):
            failures.append(f"closure of the idempotent family at n={n}: {len(target)}")
        if not generates(gens, target.multiply, *sized(target)):
            failures.append(f"family does not generate at n={n}")
    target3 = close(rank_one_less_idempotents(3), compose)
    pairs = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
    for mask in range(64):
        edges = [pairs[b] for b in range(6) if mask >> b & 1]
        by_graph, _, _ = tournament_check(3, edges)
        gens = [epsilon(3, i, j) for i, j in edges]
        by_closure = generates(gens, target3.multiply, *sized(target3)) if gens else False
        if by_graph != by_closure:
            failures.append(f"criterion mismatch on subset {edges}")
    _finish(2, "generation", failures)


def test_criterion_3_canonical_generating_sets():
    failures = []
    for name in FIXTURES:
        M = fixture(name)
        for n in (2, 3):
            ctx = WreathContext(M, n, "singular")
            elems = ctx.elements()
            size = len(elems)
            for fam in ("X2", "Xn"):
                got = len(close(gen_family(ctx, fam), ctx.multiply))
                if got != size:
                    failures.append(f"{name} n={n}: <{fam}> has {got} of {size}")
            x1 = set(close(gen_family(ctx, "X1"), ctx.multiply).elements)
            sigma = {x for x in elems if sigma_membership(ctx, x)}
            if x1 != sigma:
                failures.append(f"{name} n={n}: <X1> differs from the membership set")
            if (x1 == set(elems)) != is_L_chain(M):
                failures.append(f"{name} n={n}: idempotent-generation vs chain mismatch")
    _finish(3, "canonical generating sets", failures)


def test_criterion_4_rank():
    failures = []
    # exact values in the chain cases at degree 2
    for name, want_rank, want_idrank in (("@Z2", 2, 2), ("@B01", 3, 4)):
        M = fixture(name)
        ctx = WreathContext(M, 2, "singular")
        target = close(ctx.elements(), ctx.multiply)
        rk = brute_rank(target, list(target.elements))
        idrk = brute_rank(target, list(target.elements), idempotents_only=True)
        report = rank_formulas(M, 2)
        if not (rk and rk[0] == want_rank == report["exact_rank"]):
            failures.append(f"{name}: rank {rk} vs {want_rank}")
        if not (idrk and idrk[0] == want_idrank == report["exact_idrank"]):
            failures.append(f"{name}: idrank {idrk} vs {want_idrank}")
    # the singular part itself at degree 3
    sing3 = close(rank_one_less_idempotents(3), compose)
    rk = brute_rank(sing3, list(sing3.elements))
    idrk = brute_rank(sing3, rank_one_less_idempotents(3), idempotents_only=True)
    if not (rk and rk[0] == 3 and idrk and idrk[0] == 3):
        failures.append(f"singular part degree 3: rank {rk}, idrank {idrk}")
    # the non-chain fixture: the formulas only bracket the rank, which the
    # search from k = 1 finds exactly
    RZ1 = fixture("@RZ1")
    ctx = WreathContext(RZ1, 2, "singular")
    target = close(ctx.elements(), ctx.multiply)
    report = rank_formulas(RZ1, 2)
    rk = brute_rank(target, list(target.elements))
    if not (rk and rk[0] == 7 and report["lower"] <= 7 <= report["upper"]):
        failures.append(f"@RZ1: rank {rk} vs 7 in [{report['lower']}, {report['upper']}]")
    if report["exact_rank"] is not None:
        failures.append("@RZ1: unexpected exact value off the chain hypothesis")
    _finish(4, "rank and idempotent rank", failures)


def test_criterion_5_certification():
    failures = []
    for fam, name, n, p, want in _matrix():
        M = fixture(name) if name else None
        v = verify(p, standard_map(p, M), *sized(_target_for(fam, name, n)))
        if v.status != "certified" or v.class_count != want:
            failures.append(f"{fam} {name} n={n}: {v.status} {v.class_count} want {want}")
    _finish(5, "presentation certification", failures)


def test_criterion_6_soundness_and_mutations():
    from test_presentations import corrupt_and_detect

    failures = []
    for fam, name, n, p, _ in _matrix():
        M = fixture(name) if name else None
        emap = standard_map(p, M)
        unsound = soundness(p, emap)
        if unsound:
            failures.append(f"{fam} {name} n={n}: {len(unsound)} unsound relations")
    # one corrupted relation per family is detected
    Z2 = fixture("@Z2")
    B01 = fixture("@B01")
    per_family = [
        (emit_R(3), None),
        (emit_Rn(Z2, 2), Z2),
        (emit_R2(Z2, 2), Z2),
        (emit_R1(B01, 2), B01),
        (emit_R1p(Z2, 2), Z2),
        (emit_E_wreath_monoid(fixture("@T2"), 2), fixture("@T2")),
    ]
    for p, M in per_family:
        try:
            corrupt_and_detect(p, standard_map(p, M))
        except AssertionError as exc:
            failures.append(f"{p.provenance.get('family')}: mutation undetected ({exc})")
    _finish(6, "soundness and mutation detection", failures)


def test_criterion_7_substitution_identities():
    failures = []
    for name in ("@T1", "@Z2", "@B01"):
        M = fixture(name)
        for n in (2, 3):
            ctx = WreathContext(M, n, "singular")
            p2 = emit_R2(M, n)
            emap2 = standard_map(p2, M)
            for i, j in itertools.permutations(range(1, n + 1), 2):
                for tup in itertools.product(range(M.order), repeat=n):
                    w = word_E_X2(M, n, i, j, tup)
                    if evaluate(w, emap2) != eps_elem(ctx, i, j, tup):
                        failures.append(f"tuple word {name} n={n} ({i},{j};{tup})")
            omega, xwit = omega_witnesses(M)
            p1 = emit_R1(M, n)
            emap1 = standard_map(p1, M)
            for i, j in itertools.permutations(range(1, n + 1), 2):
                for a in range(M.order):
                    for b in range(M.order):
                        w = word_E_X1(M, n, i, j, a, b, omega, xwit)
                        if evaluate(w, emap1) != eps_ab(ctx, i, j, a, b):
                            failures.append(f"entry word {name} n={n} ({i},{j};{a},{b})")
    _finish(7, "substitution identities", failures)


def test_criterion_8_determinism():
    failures = []
    for fam, name, n, p, want in _matrix():
        counts = set()
        for seed in range(5):
            rng = random.Random(seed)
            rels = list(p.relations)
            rng.shuffle(rels)
            q = Presentation(p.kind, p.letters, tuple(rels), dict(p.provenance))
            res = todd_coxeter(q)
            counts.add((res.status, res.class_count))
        if counts != {("certified", want)}:
            failures.append(f"{fam} {name} n={n}: shuffled counts {counts}")
        again = todd_coxeter(p)
        if (again.status, again.class_count) != ("certified", want):
            failures.append(f"{fam} {name} n={n}: repeat run changed the count")
    _finish(8, "determinism", failures)
