"""The comparison maps: degree-0 structure, higher cycles, counterexample."""

import random
from itertools import permutations
from itertools import product as iproduct

import pytest

from derham import cli
from derham import comparison as cmp
from derham import complexes as cx
from derham import intlinalg as la
from derham import koszul as kz
from derham import reference as ref
from derham.abelian import direct_sum, elementary, prime_divisors
from derham.bases import (
    basis_index,
    divided_monomials,
    enumerate_basis,
    vec_add,
    wedge_normalize,
)
from derham.intlinalg import GroupInvariants
from derham.reference import divided_product, to_dense


def _positions(full, i, vec):
    """A block-keyed degree-i vector at the basis positions of the full
    complex: the key (c, k) is position full.block(c).at(i)[k]."""
    return {full.block(c).at(i)[k]: x for (c, k), x in vec.items()}


# -- the degree-0 map -----------------------------------------------------------


def test_h0_target_rank_one_weight_six():
    target = cmp.h0_target(6, 1)
    assert target.generators == ((2, (3,)), (3, (2,)))
    assert target.orders == (2, 3)


def test_h0_target_weight_four():
    target = cmp.h0_target(4, 2)
    # divided squares of (Z/2)^2: orders 4, 2, 4
    assert target.orders == (4, 2, 4)


def test_q_matrix_prime_weight():
    q = cmp.q_matrix(3, 2)
    assert q.columns[3, 0] == {0: 1}
    assert q.columns[2, 1] == {}


def test_q_matrix_weight_four_rank_one():
    q = cmp.q_matrix(4, 1)
    assert q.columns == {(4,): {0: 1}}
    assert q.target.orders == (4,)


def test_q_matrix_weight_six_rank_one():
    q = cmp.q_matrix(6, 1)
    assert q.columns[(6,)] == {0: 1, 1: 1}


def test_q_matrix_entries_are_boolean():
    for n in (4, 6, 8):
        q = cmp.q_matrix(n, 2)
        assert {y for column in q.columns.values() for y in column.values()} <= {1}


def test_q_kills_boundaries_range():
    for n in range(2, 9):
        for r in (1, 2):
            assert ref.q_kills_boundaries(cmp.q_matrix(n, r))


def _dense_q(q):
    """q as a dense matrix, one column per divided monomial in basis order."""
    mat = ref.zeros(len(q.target.orders), len(q.columns))
    for j, column in enumerate(q.columns.values()):
        for k, y in column.items():
            mat[k, j] = y
    return mat


def _dense_q_kills_boundaries(q):
    """The reference: q applied to every column of the assembled dense d_1,
    one matrix-vector product per column."""
    d1 = ref.build_C(q.n, q.r).d(1)
    mat = _dense_q(q)
    for j in range(d1.shape[1]):
        image = ref.mat_vec(mat, d1[:, j])
        if any(int(x) % m for x, m in zip(image, q.target.orders)):
            return False
    return True


def _dense_h0_map_is_iso(q, hom):
    """The reference: well defined by the dense d_1, onto by one Smith
    reduction of [q | diag(orders)]."""
    orders = q.target.orders
    onto = la.onto_cyclic_sum(_dense_q(q), orders)
    facts = la.MapFacts(_dense_q_kills_boundaries(q), onto, GroupInvariants(0, orders))
    return facts.iso(hom.invariants(0))


def _with_entry(q, row, col, value):
    """q with one entry changed; col counts divided monomials in basis order."""
    content = list(q.columns)[col]
    column = {k: y for k, y in q.columns[content].items() if k != row}
    if value:
        column[row] = value
    return q._replace(columns={**q.columns, content: column})


def _with_orders(q, orders):
    """q onto the same generators with other cyclic orders."""
    return q._replace(target=q.target._replace(orders=orders))


def test_q_kills_boundaries_matches_dense_reference():
    for n in range(2, 13):
        for r in range(4):
            q = cmp.q_matrix(n, r)
            assert ref.q_kills_boundaries(q) is _dense_q_kills_boundaries(q) is True


def test_q_kills_boundaries_rejects_a_moved_entry():
    # the monomial x1^[2] x2^[2] goes to the generator of x1 x2 (order 2)
    # mod 2; moved to that of x2^[2] (order 4), d_1 of x1 (x) x1 x2^[2],
    # twice x1^[2] x2^[2], maps to 2, not 0 mod 4
    q = cmp.q_matrix(4, 2)
    assert q.target.orders == (4, 2, 4)
    assert q.columns[2, 2] == {1: 1}
    moved = _with_entry(_with_entry(q, 1, 2, 0), 2, 2, 1)
    assert ref.q_kills_boundaries(moved) is _dense_q_kills_boundaries(moved) is False
    q8 = cmp.q_matrix(8, 2)
    moved = _with_entry(_with_entry(q8, 3, 6, 0), 4, 6, 1)
    assert ref.q_kills_boundaries(moved) is _dense_q_kills_boundaries(moved) is False


def test_h0_iso_rejects_a_doubled_entry():
    # a multiple of a well-defined map is well defined, but twice the
    # generator of order 2 misses it: not surjective
    q = cmp.q_matrix(4, 2)
    hom = cx.homology_of("C", 4, 2)
    assert ref.h0_map_is_iso(q, hom)
    doubled = _with_entry(q, 1, 2, 2)
    assert ref.q_kills_boundaries(doubled) is _dense_q_kills_boundaries(doubled) is True
    assert not ref.h0_map_is_iso(doubled, hom)


def test_h0_iso_rejects_a_wrong_target_order():
    q = cmp.q_matrix(4, 2)
    hom = cx.homology_of("C", 4, 2)
    # too large: x1^[4] maps to its generator, and d_1 of x1 (x) x1^[3] is
    # 4 x1^[4], not 0 mod 8
    larger = _with_orders(q, (8, 2, 4))
    assert not ref.q_kills_boundaries(larger)
    assert not ref.h0_map_is_iso(larger, hom)
    # too small: still well defined and onto, but onto a smaller group
    smaller = _with_orders(q, (4, 1, 4))
    assert ref.q_kills_boundaries(smaller)
    assert not ref.h0_map_is_iso(smaller, hom)


def test_h0_decision_per_content_matches_dense_reference():
    for n in range(2, 13):
        for r in range(5):
            q, hom = cmp.q_matrix(n, r), cx.homology_of("C", n, r)
            assert ref.q_kills_boundaries(q) is _dense_q_kills_boundaries(q) is True
            assert ref.h0_map_is_iso(q, hom) is _dense_h0_map_is_iso(q, hom) is True, (n, r)
    q4, q8 = cmp.q_matrix(4, 2), cmp.q_matrix(8, 2)
    mutated = [
        (_with_entry(_with_entry(q4, 1, 2, 0), 2, 2, 1), False),
        (_with_entry(_with_entry(q8, 3, 6, 0), 4, 6, 1), False),
        (_with_entry(q4, 1, 2, 2), False),
        (_with_orders(q4, (8, 2, 4)), False),
        (_with_orders(q4, (4, 1, 4)), False),
        (_with_orders(q4, (4, 2, 4)), True),
    ]
    for q, iso in mutated:
        hom = cx.homology_of("C", q.n, q.r)
        assert ref.q_kills_boundaries(q) is _dense_q_kills_boundaries(q)
        assert ref.h0_map_is_iso(q, hom) is _dense_h0_map_is_iso(q, hom) is iso


def _smith_column_onto(column, orders):
    """The reference: one Smith reduction of [y | diag(m)] per column."""
    return la.onto_cyclic_sum([[y] for y in column.values()], [orders[k] for k in column])


def test_h0_columns_decided_by_minors_match_the_smith_reduction():
    maps = [cmp.q_matrix(n, r) for n in range(2, 13) for r in range(5)]
    q4, q8 = cmp.q_matrix(4, 2), cmp.q_matrix(8, 2)
    maps += [
        _with_entry(_with_entry(q4, 1, 2, 0), 2, 2, 1),
        _with_entry(_with_entry(q8, 3, 6, 0), 4, 6, 1),
        _with_entry(q4, 1, 2, 2),
        _with_entry(q4, 1, 0, 1),
        _with_orders(q4, (8, 2, 4)),
        _with_orders(q4, (4, 1, 4)),
    ]
    decided = set()
    for q in maps:
        for column in q.columns.values():
            got = cmp._column_onto(column, q.target.orders)
            assert got is _smith_column_onto(column, q.target.orders), (q.n, q.r, column)
            decided.add(got)
    assert decided == {True, False}
    # columns of up to three rows, with every small value and order
    orders = (1, 2, 3, 4, 6, 12)
    for ys in iproduct(range(-3, 5), repeat=2):
        for ms in iproduct(range(len(orders)), repeat=2):
            column = dict(zip(ms, ys)) if ms[0] != ms[1] else {ms[0]: ys[0]}
            assert cmp._column_onto(column, orders) is _smith_column_onto(column, orders)
    assert cmp._column_onto({0: 1, 1: 1, 2: 1}, (2, 3, 5))
    assert not cmp._column_onto({0: 1, 1: 1, 2: 1}, (2, 3, 4))


def test_h0_decision_reduces_no_column(monkeypatch):
    def refuse(f, orders):
        raise AssertionError("a column was Smith-reduced")

    monkeypatch.setattr(la, "onto_cyclic_sum", refuse)
    cmp.q_matrix.cache_clear()
    for n in range(2, 9):
        assert cmp.verify_h0_iso(n, 3)


def test_h0_iso_rejects_a_map_not_graded_by_content():
    q = cmp.q_matrix(4, 2)
    hom = cx.homology_of("C", 4, 2)
    # the generator of x1 x2 (order 2) hit by no column: not onto
    missed = _with_entry(q, 1, 2, 0)
    assert ref.q_kills_boundaries(missed)
    assert not ref.h0_map_is_iso(missed, hom)
    assert not _dense_h0_map_is_iso(missed, hom)
    # hit by the columns of x1^[2] x2^[2] and of x1^[4]: the map is still
    # well defined, but q no longer keeps contents, and is refused
    twice = _with_entry(q, 1, 0, 1)
    assert ref.q_kills_boundaries(twice)
    assert not ref.h0_map_is_iso(twice, hom)


def test_h0_decision_reduces_at_most_two_rows(monkeypatch):
    shapes = []
    snf = la.smith_normal_form

    def recording(m, cols=None):
        res = snf(m, cols)
        shapes.append(res.shape)
        return res

    monkeypatch.setattr(la, "smith_normal_form", recording)
    for cache in (ref.build_C, cx._koszul, cx.homology_of, cmp.h0_target, cmp.q_matrix):
        cache.cache_clear()
    assert cmp.verify_h0_iso(12, 4)
    # the blocks of d_0 (no rows) and d_1 (one row) of the 34 partitions of
    # 12 into at most 4 parts, each reduced once
    assert len(shapes) == 2 * 34
    assert max(rows for rows, _ in shapes) <= 2, max(shapes)


def test_verify_h0_iso_decides_once_per_partition(monkeypatch):
    # no q_matrix or target basis is built, and the decision reads the
    # block of each partition's representative once; the source invariants
    # are read first, so their own block reads are not counted
    for cache in (cx._koszul, cx.homology_of, cmp.h0_target, cmp.q_matrix):
        cache.cache_clear()
    hom = cx.homology_of("C", 6, 2)
    hom.invariants(0)
    reads = []
    block = cx.OrbitComplex.block

    def counting(self, content):
        reads.append(content)
        return block(self, content)

    monkeypatch.setattr(cx.OrbitComplex, "block", counting)
    assert cmp.verify_h0_iso(6, 2)
    assert cmp.q_matrix.cache_info().misses == cmp.h0_target.cache_info().misses == 0
    assert len(reads) == len(set(reads)) and set(reads) <= set(hom.source.orbits)


def test_q_commutes_with_coordinate_permutations():
    # the column of sigma c is the row of (p, sigma(c/p)), whose order is
    # that of (p, c/p), and the d_1 row of sigma c holds the entries of c up
    # to sign: so verify_h0_iso may decide one content per partition
    for n in range(2, 9):
        for r in range(5):
            q = cmp.q_matrix(n, r)
            rows, orders = q.target.rows, q.target.orders
            source = cx.homology_of("C", n, r).source
            for c in q.columns:
                primes = [p for p in prime_divisors(n) if not any(x % p for x in c)]
                for sigma in permutations(range(r)):
                    moved = tuple(c[j] for j in sigma)
                    roots = {p: tuple(x // p for x in moved) for p in primes}
                    assert q.columns[moved] == {rows[p, root]: 1 for p, root in roots.items()}
                    for p, root in roots.items():
                        order = cmp.monomial_order_mod_p(tuple(x // p for x in c), p)
                        assert cmp.monomial_order_mod_p(root, p) == order == orders[rows[p, root]]
                    d1 = source.block(moved).d(1)[0]
                    assert sorted(map(abs, d1.values())) == sorted(x for x in c if x)


@pytest.mark.parametrize(
    "mutate,iso,decided",
    [
        (lambda m, p: m, True, {(True, True)}),
        # too large: d_1 of the smallest entry of c is not 0 modulo the order
        (lambda m, p: m * p, False, {(False, True)}),
        # too small: well defined and onto, but onto a smaller group
        (lambda m, p: m // p, False, {(True, True)}),
        # at 6 | n, the two rows of a column share the factor 6: not onto
        (lambda m, p: m * 6, False, {(False, True), (False, False)}),
    ],
    ids=["orders", "orders-times-p", "orders-over-p", "orders-times-6"],
)
def test_h0_facts_per_partition_match_the_per_monomial_route(monkeypatch, mutate, iso, decided):
    # well-definedness, surjectivity and the target, each decided alike by
    # both routes, on the true orders and on orders mutated in
    # monomial_order_mod_p, which both routes read
    facts, seen = [], set()
    record, order = la.MapFacts, cmp.monomial_order_mod_p

    def recording(*args):
        facts.append(record(*args))
        return facts[-1]

    monkeypatch.setattr(la, "MapFacts", recording)
    monkeypatch.setattr(cmp, "monomial_order_mod_p", lambda e, p: mutate(order(e, p), p))
    cmp.h0_target.cache_clear()
    cmp.q_matrix.cache_clear()
    try:
        for n in range(2, 13 if iso else 9):
            for r in range(5) if iso else (1, 2, 3):
                facts.clear()
                hom = cx.homology_of("C", n, r)
                per_monomial = ref.h0_map_is_iso(cmp.q_matrix(n, r), hom)
                assert per_monomial is cmp.verify_h0_iso(n, r) is iso, (n, r)
                assert facts[0] == facts[1], (n, r)
                seen.add(facts[0][:2])
    finally:
        cmp.h0_target.cache_clear()
        cmp.q_matrix.cache_clear()
    assert seen == decided


@pytest.mark.parametrize(
    "command",
    [
        "verify --all",
        "verify h0",
        "verify theorem --rank 4",
        "table --rank 4",
        "derived-sp --i 1 --n 6 --p 2 --rank 4",
        "counterexample f18 --rank 2",
        "homology --family C --n 5 --rank 3 --dump-matrices DIR",
    ],
)
def test_no_command_assembles_a_dense_differential(monkeypatch, capsys, tmp_path, command):
    def refuse(self, i):
        raise AssertionError(f"dense d_{i} assembled")

    monkeypatch.setattr(ref.ChainComplexZ, "d", refuse)
    # start from fresh complexes and maps, as a new process would
    caches = (ref.build_C, ref.build_D, cx.homology_of, cmp.q_matrix, cmp.theorem_block)
    for cache in caches + (ref.build_koszul, kz.derived_sp):
        cache.cache_clear()
    argv = [str(tmp_path) if word == "DIR" else word for word in command.split()]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out


def test_q_value_merge_instance():
    # two divided squares merge with coefficient C(4,2) = 6 = 2 mod 4
    target = cmp.h0_target(4, 1)
    lhs = cmp._q_value([(2, (1,)), (2, (1,))], [2], 1, target)
    direct = cmp._q_value([(4, (1,))], [2], 1, target)
    assert lhs == (2,)
    assert tuple(6 * x % 4 for x in direct) == lhs


def test_verify_q_relations_zero_failures():
    for n in range(2, 7):
        for r in (1, 2):
            report = cmp.verify_q_relations(n, r)
            assert report.ok, report.failures[:3]
            assert report.total_checked > 0


def test_relation_report_totals_its_checks():
    report = cmp.verify_q_relations(4, 2)
    assert (report.n, report.r, report.failures) == (4, 2, [])
    assert report.total_checked == sum(report.checked.values()) > 0
    assert report.ok


def _without_binomials(terms, r):
    """``divided_monomials`` with gamma_e gamma_f = gamma_(e+f): the binomial
    factor of each product dropped."""
    out = {(0,) * r: 1}
    for term in terms:
        step = {}
        for m, c in out.items():
            for e, x in divided_monomials([term], r).items():
                key = tuple(a + b for a, b in zip(m, e))
                step[key] = step.get(key, 0) + c * x
        out = step
    return out


def _unsigned(terms, r):
    """``divided_monomials`` of |v|: gamma_j(-v) loses its sign (-1)^j."""
    return divided_monomials([(d, tuple(map(abs, v))) for d, v in terms], r)


@pytest.mark.parametrize(
    "formula,n,r,kinds,count",
    [
        (_without_binomials, 4, 2, {"merge", "sum", "sign"}, 18),
        (_without_binomials, 8, 2, {"merge", "sum", "sign"}, 106),
        (_unsigned, 6, 2, {"sign"}, 6),
    ],
)
def test_relation_suite_reports_a_wrong_q(monkeypatch, formula, n, r, kinds, count):
    # each distinct expression is evaluated once, and to zero when no prime
    # divides every degree; a wrong formula must still fail the relations it
    # breaks, as often as evaluating every expression afresh finds (the
    # pinned counts), with the same number of checks
    checked = cmp.verify_q_relations(n, r).checked
    with monkeypatch.context() as m:
        m.setattr(cmp, "divided_monomials", formula)
        report = cmp.verify_q_relations(n, r)
    assert report.checked == checked
    assert {failure[0] for failure in report.failures} == kinds
    assert len(report.failures) == count


@pytest.mark.parametrize(
    "n,r,evaluated,checked",
    [
        (8, 2, 353, {"merge": 252, "sum": 324, "sign": 108}),
        (7, 2, 29, {"merge": 168, "sum": 252, "sign": 84}),
    ],
)
def test_relation_suite_evaluates_only_live_expressions(monkeypatch, n, r, evaluated, checked):
    # the counts of the route that built every group's expressions: groups
    # that no prime evaluates are counted, and each live expression is still
    # evaluated once
    calls = []
    value = cmp._q_value

    def counting(*args):
        calls.append(args)
        return value(*args)

    monkeypatch.setattr(cmp, "_q_value", counting)
    report = cmp.verify_q_relations(n, r)
    assert report.ok and report.checked == checked
    assert len(calls) == evaluated


def test_h0_source_read_per_orbit_matches_every_block():
    # the reference: the sum of the d_1 cokernels of every content block
    for n in range(2, 13):
        for r in range(5):
            hom = cx.homology_of("C", n, r)
            every_block = direct_sum(
                hom.solver(1).block(b.content).cokernel() for b in ref.build_C(n, r).blocks
            )
            assert hom.invariants(0) == every_block, (n, r)


def test_verify_h0_iso_examples():
    assert cmp.verify_h0_iso(4, 2)
    assert cmp.verify_h0_iso(6, 2)
    assert cmp.verify_h0_iso(12, 1)
    for n in range(2, 9):
        assert cmp.verify_h0_iso(n, 1)


# -- the comparison cycles ------------------------------------------------------


def test_eta_weight_four():
    full = ref.build_C(4, 2)
    cycle = _positions(full, 1, cmp.eta(1, 2, 4, [1, 2], 2))
    labels = full.labels(1)
    readable = {labels[k]: c for k, c in cycle.items()}
    assert readable == {
        ((1,), (1, 2)): 1,   # x1 (x) x1 gamma_2(x2)
        ((2,), (2, 1)): -1,  # -x2 (x) x2 gamma_2(x1)
    }


def test_eta_weight_six_three_terms():
    full = ref.build_C(6, 3)
    cycle = _positions(full, 2, cmp.eta(2, 2, 6, [1, 2, 3], 3))
    labels = full.labels(2)
    readable = {labels[k]: c for k, c in cycle.items()}
    assert readable == {
        ((2, 3), (2, 1, 1)): -1,  # -x2^x3 (x) x2 x3 gamma_2(x1)
        ((1, 3), (1, 2, 1)): 1,   # +x1^x3 (x) x1 x3 gamma_2(x2)
        ((1, 2), (1, 1, 2)): -1,  # -x1^x2 (x) x1 x2 gamma_2(x3)
    }


def test_eta_weight_six_prime_three():
    # x1 (x) gamma_2(x1) gamma_3(x2)  -  x2 (x) gamma_2(x2) gamma_3(x1)
    full = ref.build_C(6, 2)
    cycle = _positions(full, 1, cmp.eta(1, 3, 6, [1, 2], 2))
    labels = full.labels(1)
    readable = {labels[k]: c for k, c in cycle.items()}
    assert readable == {
        ((1,), (2, 3)): 1,
        ((2,), (3, 2)): -1,
    }


def test_eta_repeated_lift_degenerates():
    cycle = cmp.eta(1, 2, 4, [1, 1], 2)
    assert cycle == {}


def test_eta_all_theorem_cells_are_cycles():
    # construction raises if the boundary of the cycle is nonzero
    for n in (4, 6):
        for p in (2, 3):
            if n % p:
                continue
            m = n // p
            for i in range(1, m):
                for lifts in [
                    tuple(range(1, m + 1)),
                    tuple(1 for _ in range(m)),
                ]:
                    cmp.eta(i, p, n, lifts, 3)


def test_eta_degree_mismatch():
    with pytest.raises(cmp.DegreeMismatchError):
        cmp.eta(1, 2, 6, [1, 2], 2)  # needs 3 arguments
    with pytest.raises(cmp.DegreeMismatchError):
        cmp.eta(3, 2, 4, [1, 2], 2)  # wedge part too long
    with pytest.raises(cmp.DegreeMismatchError):
        cmp.eta(1, 3, 4, [1, 2], 2)  # 3 does not divide 4


def _position_eta_vector(i, p, n, args, r):
    """eta_vector as the position route wrote it, at the basis positions of
    build_C(n, r): every choice of i wedge generators, and the divided part
    at the positions of its degree, offset by the wedge's row of labels."""
    m = n // p
    wedge_at = basis_index("wedge", i, r)
    width = len(ref.build_C(n, r).bases[i].right)
    out = {}
    for t in range(1, i + 2):
        wedge_args = [args[k] for k in range(i + 1) if k != t - 1]
        gamma_terms = [(p - 1, args[k]) for k in range(i + 1) if k != t - 1]
        gamma_terms.append((p, args[t - 1]))
        gamma_terms.extend((p, args[k]) for k in range(i + 1, m))
        gamma_part = divided_product(gamma_terms, r)
        for choice in iproduct(range(1, r + 1), repeat=i):
            coeff = 1
            for vec, g in zip(wedge_args, choice):
                coeff *= vec[g - 1]
            sign, w = wedge_normalize(choice)
            if coeff and sign:
                for pos, c in gamma_part.items():
                    vec_add(out, wedge_at[w] * width + pos, (-1) ** t * sign * coeff * c)
    return out


# the cells of `verify theorem` (n <= 7, rank <= 4) with a comparison, and f18
ETA_CELLS = [
    (i, n, p, r)
    for n in range(2, 8)
    for r in range(1, 5)
    for p in prime_divisors(n)
    for i in range(1, n // p)
] + [(1, 8, 2, r) for r in (1, 2, 3)]


def test_block_keyed_eta_is_a_cycle_of_the_full_complex_in_one_content():
    # the reference: each key (c, k) at position build_C(n, r).block(c).at(i)[k],
    # killed by the dense d_i, and every key in the content p * sum of the lifts
    assert {(n, p) for _, n, p, _ in ETA_CELLS} == {(4, 2), (6, 2), (6, 3), (8, 2)}
    for i, n, p, r in ETA_CELLS:
        full = ref.build_C(n, r)
        d = full.d(i)
        for label in kz.generator_presentation(i, n // p, p, r).generators:
            lifts = cmp._generator_lifts(label, n // p, i)
            cycle = cmp.eta(i, p, n, lifts, r)
            assert cycle and all(cycle.values())
            assert {c for c, _ in cycle} == {tuple(p * lifts.count(j) for j in range(1, r + 1))}
            vec = _positions(full, i, cycle)
            assert len(vec) == len(cycle)
            assert ref.is_zero(ref.mat_vec(d, to_dense(vec, full.dim(i)))), (i, n, p, r, label)
            units = [cmp._unit_vector(g, r) for g in lifts]
            assert vec == _position_eta_vector(i, p, n, units, r), (i, n, p, r, label)


def test_block_keyed_eta_vector_matches_the_position_route_on_any_arguments():
    # the arguments of verify_f_welldefined (an argument times p) and of
    # lift_change_in_boundaries (x_k + p x_m), and random integer vectors,
    # whose cycles spread over several contents
    rng = random.Random(21)
    spread = 0
    for i, n, p, r in ETA_CELLS:
        full = ref.build_C(n, r)
        m = n // p
        for label in kz.generator_presentation(i, m, p, r).generators:
            lifts = cmp._generator_lifts(label, m, i)
            units = [cmp._unit_vector(g, r) for g in lifts]
            cases = [[tuple(rng.randint(-2, 2) for _ in range(r)) for _ in range(m)]]
            for slot in range(m):
                scaled = tuple(p * c for c in units[slot])
                cases.append(units[:slot] + [scaled] + units[slot + 1:])
                for other in range(1, r + 1):
                    step = cmp._unit_vector(other, r)
                    shifted = tuple(c + p * u for c, u in zip(units[slot], step))
                    cases.append(units[:slot] + [shifted] + units[slot + 1:])
            for args in cases:
                got = cmp.eta_vector(i, p, n, args, r)
                assert all(got.values())
                spread += len({c for c, _ in got}) > 1
                want = _position_eta_vector(i, p, n, args, r)
                assert _positions(full, i, got) == want, (i, n, p, r, args)
    assert spread


# -- well-definedness evidence ---------------------------------------------------


def test_scalings_are_boundaries_weight_four():
    report = ref.verify_f_welldefined(1, 4, 2, 2)
    assert report["ok"]
    assert report["scalings"]["checked"] == report["scalings"]["boundary"]


def test_jacobi_images_vanish_weight_six():
    report = ref.verify_f_welldefined(1, 6, 2, 3)
    assert report["ok"]
    assert report["jacobi"]["checked"] > 0
    assert report["jacobi"]["zero"] == report["jacobi"]["checked"]


def test_explicit_boundary_identity_weight_four():
    # d_2 of x1^x2 (x) x1 x2 is exactly twice the comparison cycle
    c4 = ref.build_C(4, 2)
    pair2 = c4.bases[2]
    labels2 = pair2.labels()
    col = labels2.index(((1, 2), (1, 1)))
    boundary = c4.d(2)[:, col]
    cycle = to_dense(_positions(c4, 1, cmp.eta(1, 2, 4, [1, 2], 2)), c4.dim(1))
    assert boundary.tolist() == [2 * x for x in cycle]


def test_lift_changes_are_boundaries():
    assert ref.lift_change_in_boundaries(1, 4, 2, 2)
    assert ref.lift_change_in_boundaries(1, 6, 3, 2)


# -- the isomorphism range -------------------------------------------------------


def test_theorem_weight_four():
    for r in (1, 2, 3):
        assert cmp.verify_theorem(1, 4, r)


def test_theorem_weight_six_rank_two():
    for i in (1, 2, 3):
        assert cmp.verify_theorem(i, 6, 2)


def test_theorem_prime_weights():
    for n in (2, 3, 5):
        for i in (1, 2):
            assert cmp.verify_theorem(i, n, 2)


def test_f_matrix_weight_four():
    mat = ref.f_matrix(1, 4, 2, 2)
    assert len(mat[0]) == 1  # one wedge pair over F_2
    # its class generates H_1 = Z/2: the assembled map is an isomorphism
    assert cmp.verify_theorem(1, 4, 2)


def test_f_matrix_weight_six_degree_two():
    # one wedge triple over F_2 onto H_2 = Z/2
    mat = ref.f_matrix(2, 6, 2, 3)
    assert len(mat[0]) == 1
    assert cx.homology_of("C", 6, 3).invariants(2) == GroupInvariants(0, (2,))
    assert cmp.verify_theorem(2, 6, 3)


def test_f_matrix_weight_six_prime_three_part():
    # one wedge pair over F_3 onto the 3-torsion of H_1
    mat = ref.f_matrix(1, 6, 3, 2)
    assert len(mat[0]) == 1
    h1 = cx.homology_of("C", 6, 2).invariants(1)
    assert any(t % 3 == 0 for t in h1.torsion)
    assert cmp.verify_theorem(1, 6, 2)


def _reference_map_facts(f, source, orders):
    """The decision against a presented target Z^k / diag(orders): one Smith
    reduction of the target relations, an integral solve per mapped source
    relation, and one reduction of [f | target relations]."""
    k = len(orders)
    relations = ref.zeros(k, k)
    for t, m in enumerate(orders):
        relations[t, t] = m
    solver = la.LinearSolver(relations)
    f = ref.intmat(f, len(source))
    mapped = ref.mat_mul(f, ref.intmat(source.tolist()))
    well_defined = all(solver.contains(mapped[:, j]) for j in range(mapped.shape[1]))
    surjective = la.invariants_of_cokernel(ref.hstack([f, relations])).is_trivial
    return la.MapFacts(well_defined, surjective, solver.cokernel())


def _reference_theorem_matrix(i, n, p, r):
    """The comparison matrix from the dense class matrix: the class rows
    scattered into rows of width dim C_i, times each dense cycle."""
    full = ref.build_C(n, r)
    orders, classes = cx.homology_of("C", n, r).presentation(i)
    dense = ref.zeros(len(orders), full.dim(i))
    for k, (content, row) in enumerate(classes):
        for l, u in row.items():
            dense[k, full.block(content).at(i)[l]] = u
    labels = kz.generator_presentation(i, n // p, p, r).generators
    mat = ref.zeros(len(orders), len(labels))
    for col, label in enumerate(labels):
        cycle = cmp.eta(i, p, n, cmp._generator_lifts(label, n // p, i), r)
        mat[:, col] = ref.mat_vec(dense, to_dense(_positions(full, i, cycle), full.dim(i)))
    return mat


def _assert_matches_reference(i, n, r):
    """theorem_block's matrices and the map facts equal the references."""
    for p in prime_divisors(n):
        if 1 <= i <= n // p - 1:
            got = cmp.theorem_block(i, n, p, r).matrix
            assert got == _reference_theorem_matrix(i, n, p, r).tolist(), (i, n, p, r)
    orders, _ = cx.homology_of("C", n, r).presentation(i)
    mat, source = cmp.assemble_comparison(i, n, r)
    facts = la.presented_map_facts(mat, source, orders)
    assert facts == _reference_map_facts(mat, source, orders), (i, n, r)
    if mat and mat[0]:
        # maps that may fail to be onto or well defined
        bumped = [row[:] for row in mat]
        bumped[0][0] += 1
        doubled = [[2 * x for x in row] for row in mat]
        squared = [m * m for m in orders]
        for other, target in ((doubled, orders), (bumped, orders), (mat, squared)):
            want = _reference_map_facts(other, source, target)
            assert la.presented_map_facts(other, source, target) == want, (i, n, r)
    return facts


def test_comparison_matches_dense_reference_on_theorem_cells():
    # every cell of `verify theorem --rank 4`
    for n in range(2, 8):
        for i in (1, 2, 3):
            for r in range(1, 5):
                _assert_matches_reference(i, n, r)


def test_source_invariants_are_the_fp_dimension():
    # the integral Smith cokernel of [p I | R] is elementary of the F_p
    # dimension of the generator presentation R, on every cell of `verify
    # theorem --rank 4` and of `counterexample f18 --rank 3`
    cells = [(i, n, r) for n in range(2, 8) for i in (1, 2, 3) for r in range(1, 5)]
    checked = 0
    for i, n, r in cells + [(1, 8, r) for r in (1, 2, 3)]:
        for p in prime_divisors(n):
            if 1 <= i <= n // p - 1:
                pres = kz.generator_presentation(i, n // p, p, r)
                got = la.invariants_of_cokernel(cmp.theorem_block(i, n, p, r).relations)
                assert got == elementary(p, kz.presentation_dimension(pres)), (i, n, p, r)
                checked += 1
    assert checked == 19


def test_f18_matches_dense_reference():
    for r in (1, 2, 3):
        facts = _assert_matches_reference(1, 8, r)
        report = cmp.f18_counterexample(r)
        assert (report["map_well_defined"], report["map_surjective"]) == facts[:2]


def test_c4iso_elementwise_on_sums():
    # the explicit degree-1 identification evaluated at a + b keeps the
    # class: eta(a+b, b) - eta(a, b) must be a boundary
    boundaries = cx.homology_of("C", 4, 2).solver(2)
    base = cmp.eta_vector(1, 2, 4, [(1, 0), (0, 1)], 2)
    shifted = cmp.eta_vector(1, 2, 4, [(1, 1), (0, 1)], 2)
    diff = dict(shifted)
    for pos, c in base.items():
        cmp.vec_add(diff, pos, -c)
    assert boundaries.contains(diff)


# -- the weight-8 counterexample ---------------------------------------------------


def test_f18_rank_one_no_4_torsion():
    report = cmp.f18_counterexample(1)
    assert report["contains_order4"] is False


def test_f18_rank_two():
    report = cmp.f18_counterexample(2)
    assert report["contains_order4"] is True
    assert report["source_exponent"] in (1, 2)
    assert report["source_exponent"] == 2
    assert report["map_well_defined"] is True
    assert report["map_is_iso"] is False
    torsion = report["target_invariants"]["torsion"]
    assert any(t % 4 == 0 for t in torsion)
