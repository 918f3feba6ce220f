import pytest
from hypothesis import given
from hypothesis import strategies as st

from z2schur.autocorr import (
    AutocorrVector,
    cross_sum_identity,
    cross_theta,
    decimation_permutes,
    flat_offpeak,
    periodic_autocorrelation,
    periodic_correlation,
    random_identity_trials,
    sum_identity,
    theta,
    verify_identities,
)
from z2schur.errors import LengthMismatch
from z2schur.sequences import make_sequence, units
from helpers import str_autocorr

signs = st.text(alphabet="+-", min_size=1, max_size=16)


@given(signs, st.integers(0, 40))
def test_autocorrelation_matches_string_oracle(s, k):
    assert periodic_autocorrelation(make_sequence(s), k) == str_autocorr(s, k)


@given(signs, st.data())
def test_cross_correlation_matches_string_oracle(s, data):
    t = data.draw(st.text(alphabet="+-", min_size=len(s), max_size=len(s)))
    k = data.draw(st.integers(0, len(s)))
    x, y = make_sequence(s), make_sequence(t)
    vx = [1 if c == "+" else -1 for c in s]
    vy = [1 if c == "+" else -1 for c in t]
    n = len(s)
    want = sum(vx[j] * vy[(j + k) % n] for j in range(n))
    assert periodic_correlation(x, y, k) == want


def test_cross_correlation_length_mismatch():
    with pytest.raises(LengthMismatch):
        periodic_correlation(make_sequence("+-"), make_sequence("+--"), 1)


def test_theta_fixed_values():
    assert theta(make_sequence("+---")).values == (4, 0, 0, 0)
    assert theta(make_sequence("+-")).values == (2, -2)
    assert theta(make_sequence("+++")).values == (3, 3, 3)


def test_theta_peak_and_symmetry():
    vec = theta(make_sequence("++-+-++---"))
    n = vec.n
    assert vec.values[0] == n
    for k in range(1, n):
        assert vec.values[k] == vec.values[n - k]
    assert vec[3] == vec[-3] == vec[n + 3]
    assert vec.offpeak() == vec.values[1:]


def test_autocorr_vector_validation():
    with pytest.raises(ValueError):
        AutocorrVector(4, (4, 0, 0))  # wrong length
    with pytest.raises(ValueError):
        AutocorrVector(4, (2, 0, 0, 0))  # peak must be n
    with pytest.raises(ValueError):
        AutocorrVector(4, (4, 0, 2, 0))  # symmetry broken
    with pytest.raises(ValueError):
        AutocorrVector(4, (4, 1, 0, 1))  # even n: n - P(k) must be 0 mod 4
    AutocorrVector(3, (3, 1, 1))  # odd n carries no mod-4 constraint


@given(signs)
def test_mod_four_congruence_all_lengths(s):
    vec = theta(make_sequence(s))
    for k in range(1, vec.n):
        assert (vec.n - vec.values[k]) % 4 == 0


def test_flat_offpeak():
    assert flat_offpeak(make_sequence("+---"))
    assert flat_offpeak(make_sequence("+++-"))
    assert not flat_offpeak(make_sequence("++--"))
    assert flat_offpeak(make_sequence("-++-+--"), level=-1)
    assert not flat_offpeak(make_sequence("+++-"), level=1)  # parity guard
    for s in ("+", "-"):  # no off-peak shift at n = 1: vacuously flat
        assert flat_offpeak(make_sequence(s))
        assert flat_offpeak(make_sequence(s), level=-1)


@given(signs)
def test_sum_identity(s):
    assert sum_identity(make_sequence(s))["ok"]


@given(signs, st.data())
def test_cross_sum_identity(s, data):
    t = data.draw(st.text(alphabet="+-", min_size=len(s), max_size=len(s)))
    assert cross_sum_identity(make_sequence(s), make_sequence(t))["ok"]


@given(st.integers(1, 16), st.data())
def test_decimation_permutes_autocorrelation(n, data):
    bits = data.draw(st.integers(0, (1 << n) - 1))
    r = data.draw(st.sampled_from(units(n)))
    x = make_sequence(format(bits, f"0{n}b").translate(str.maketrans("01", "+-")))
    assert decimation_permutes(x, r)


@given(signs)
def test_invariance_under_symmetries(s):
    x = make_sequence(s)
    base = theta(x).values
    assert theta(x.rotate(3)).values == base
    assert theta(x.reverse()).values == base
    assert theta(-x).values == base


def test_cross_theta_shape():
    x, y = make_sequence("++-+"), make_sequence("+-++")
    vals = cross_theta(x, y)
    assert len(vals) == 4
    assert vals[1] == periodic_correlation(x, y, 1)


def test_verify_identities_exhaustive_small():
    for n in range(1, 11):
        rep = verify_identities(n)
        assert rep["ok"], rep["violations"][:3]
        assert rep["checked"] == 1 << n


def test_random_trials_seeded():
    rep = random_identity_trials(32, trials=200, seed=1)
    assert rep["ok"] and rep["trials"] == 200
    again = random_identity_trials(32, trials=200, seed=1)
    assert again == rep
