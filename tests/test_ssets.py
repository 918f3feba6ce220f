import pytest

from z2schur import cli
from z2schur.errors import InvalidLength
from z2schur.ssets import (
    CompleteSSet,
    complete_maximal,
    count_theorem_checks,
    find_complete_ssets,
    maximal_target_weights,
    predicted_profile,
)
from z2schur.weight_ring import class_product, even_odd_unions

WORKED_EXAMPLES = {
    (4, 2): [("even", (2,)), ("odd", (1, 3))],
    (8, 4): [("even", (2, 4, 6)), ("odd", (3, 5))],
    (12, 6): [("even", (4, 6, 8)), ("odd", (3, 5, 7, 9))],
    (20, 10): [("even", (6, 8, 10, 12, 14)), ("odd", (5, 7, 9, 11, 13, 15))],
    (24, 12): [("even", (6, 8, 10, 12, 14, 16, 18)),
               ("odd", (7, 9, 11, 13, 15, 17))],
}

# Exactly where the bundled counting rule breaks below n=17: every (n, a)
# with even n-a and 2a > n (2a > n+1 for odd a).
COUNT_RULE_WITNESSES = [
    (6, 4), (7, 5), (8, 6), (9, 7), (10, 6), (10, 8), (11, 7), (11, 9),
    (12, 8), (12, 10), (13, 9), (13, 11), (14, 8), (14, 10), (14, 12),
    (15, 9), (15, 11), (15, 13), (16, 10), (16, 12), (16, 14),
]


def test_worked_examples_verbatim():
    for (n, a), want in WORKED_EXAMPLES.items():
        got = [(s.parity, s.members) for s in find_complete_ssets(n, a)]
        assert got == want, (n, a, got)


def test_every_found_set_is_closed_toward_target():
    for n in range(2, 13):
        for a in range(n + 1):
            for s in find_complete_ssets(n, a):
                for i in s.members:
                    for j in s.members:
                        assert a in class_product(n, i, j), (n, a, i, j)


def test_every_found_set_is_maximal():
    for n in range(2, 11):
        for a in range(n + 1):
            for s in find_complete_ssets(n, a):
                outside = set(range(n + 1)) - set(s.members)
                for b in outside:
                    closed = a in class_product(n, b, b) and all(
                        a in class_product(n, b, c) for c in s.members
                    )
                    assert not closed, (n, a, b, s.members)


def test_members_stay_inside_the_interval():
    for n in range(2, 15):
        for a in range(n % 2, n + 1, 2):
            for s in find_complete_ssets(n, a):
                assert all((n - a) // 2 <= m <= (n + a) // 2 for m in s.members)


def test_an_odd_gap_has_no_complete_ssets():
    # Every product weight is congruent to n - b - c mod 2, so a target
    # weight a with n - a odd lies in no square G_n(b) * G_n(b).
    for n in range(1, 15):
        for a in range(1 - n % 2, n + 1, 2):
            assert find_complete_ssets(n, a) == [], (n, a)
            assert predicted_profile(n, a) == {"count": 0, "orders": []}


def test_parity_split_is_real():
    for n, a in ((8, 4), (12, 6), (13, 7)):
        for s in find_complete_ssets(n, a):
            assert len({m % 2 for m in s.members}) == 1
            flavour = "even" if next(iter(s.members)) % 2 == 0 else "odd"
            assert s.parity == flavour
            assert s.order == len(s.members)


def test_predicted_profile_shapes():
    assert predicted_profile(6, 6) == {"count": 7, "orders": [1] * 7}
    assert predicted_profile(6, 3) == {"count": 0, "orders": []}
    assert predicted_profile(6, 0) == {"count": 1, "orders": [1]}
    assert predicted_profile(8, 4) == {"count": 2, "orders": [2, 3]}
    assert predicted_profile(9, 5) == {"count": 2, "orders": [3, 3]}


def test_count_rule_holds_up_to_half_weight():
    rep = count_theorem_checks(5)
    assert rep["violations"] == []
    rep = count_theorem_checks(12)
    bad = [(v["n"], v["a"]) for v in rep["violations"]]
    assert all(2 * a > n for n, a in bad)


def test_count_rule_witnesses_are_exactly_the_frozen_list():
    rep = count_theorem_checks(16)
    got = [(v["n"], v["a"]) for v in rep["violations"]]
    assert got == COUNT_RULE_WITNESSES


def test_first_count_rule_failure_in_detail():
    sets = find_complete_ssets(6, 4)
    profiles = [(s.parity, s.members) for s in sets]
    assert len(sets) == 3
    assert predicted_profile(6, 4)["count"] == 2
    assert profiles == [("even", (2, 4)), ("odd", (1, 3)), ("odd", (3, 5))]


def test_maximal_target_weights():
    assert maximal_target_weights(12) == (6,)
    assert maximal_target_weights(16) == (8,)
    assert maximal_target_weights(10) == (4, 6)
    assert maximal_target_weights(9) == (5,)
    assert maximal_target_weights(7) == (3,)


def test_complete_maximal_lands_on_largest_orders():
    best = complete_maximal(12)
    orders = sorted(s.order for s in best)
    assert orders[-1] == 4
    assert any(s.members == (3, 5, 7, 9) for s in best)
    for n in range(2, 13):
        best_order = max(s.order for s in complete_maximal(n))
        everywhere = max(
            s.order
            for a in range(n + 1)
            for s in find_complete_ssets(n, a)
        )
        assert best_order == everywhere


def test_as_dict_schema():
    s = CompleteSSet(8, 4, (2, 4, 6))
    assert s.as_dict() == {"a": 4, "parity": "even", "members": [2, 4, 6],
                           "order": 3}


@pytest.mark.parametrize("fn, args", [
    pytest.param(find_complete_ssets, (0, 0), id="find_complete_ssets(0, 0)"),
    pytest.param(find_complete_ssets, (-2, 0), id="find_complete_ssets(-2, 0)"),
    pytest.param(predicted_profile, (0, 0), id="predicted_profile(0, 0)"),
    pytest.param(count_theorem_checks, (-1,), id="count_theorem_checks(-1)"),
    pytest.param(count_theorem_checks, (0,), id="count_theorem_checks(0)"),
    pytest.param(maximal_target_weights, (-1,), id="maximal_target_weights(-1)"),
    pytest.param(even_odd_unions, (-1,), id="even_odd_unions(-1)"),
    pytest.param(even_odd_unions, (0,), id="even_odd_unions(0)"),
    pytest.param(cli.main, (["ssets", "complete", "--n", "0"],), id="cli --n 0"),
    pytest.param(cli.main, (["ssets", "complete", "--n", "-2"],), id="cli --n -2"),
    pytest.param(cli.main, (["ssets", "complete", "--n", "0", "--a", "0"],),
                 id="cli --n 0 --a 0"),
])
def test_ssets_refuse_lengths_below_one(capsys, fn, args):
    """A length below 1 has no weight classes to pair: it is refused, not
    answered with one S-set, none, or a pass over nothing."""
    if fn is cli.main:
        n = args[0][3]
        assert fn(*args) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: sequence length must be at least 1, got {n}\n"
    else:
        with pytest.raises(InvalidLength, match=f"at least 1, got {args[0]}"):
            fn(*args)
