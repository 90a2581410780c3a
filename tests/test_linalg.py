"""padic_nullspace on matrices with a known Smith form.

M = U diag(p^v_i) V mod p^K with U and V unimodular over Z has elementary
divisors p^v_i, so the rank is #{v_i < K}, the pivot valuations are the
v_i < K, and each kernel vector is killed by M to the reported certificate.
U and V are dense, so the minimal-valuation pivot lands off the diagonal
and the column swap and the elimination of the other rows both run.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from frobjet import polyutils as pu
from frobjet.errors import CertificateFailure, PrecisionExhausted
from frobjet.linalg import padic_nullspace


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


@st.composite
def unimodular(draw, n):
    """P L R for a permutation P, unit lower-triangular L and unit
    upper-triangular R with entries in -9..9: determinant +-1."""
    entry = st.integers(-9, 9)
    L = [[1 if i == j else draw(entry) if j < i else 0 for j in range(n)]
         for i in range(n)]
    R = [[1 if i == j else draw(entry) if j > i else 0 for j in range(n)]
         for i in range(n)]
    perm = draw(st.permutations(range(n)))
    return [matmul(L, R)[k] for k in perm]


@st.composite
def smith_case(draw):
    """(M, p, K, v): an m x n matrix with elementary divisors p^v_i; a v_i
    of K or more is a zero of Z/p^K."""
    p = draw(st.sampled_from((5, 7)))
    K = draw(st.integers(1, 12))
    m, n = draw(st.sampled_from(((3, 5), (4, 5), (4, 6), (5, 5), (5, 6),
                                 (6, 5), (6, 6))))
    v = draw(st.lists(st.one_of(st.integers(0, 3), st.just(K),
                                st.just(K + 2)),
                      min_size=min(m, n), max_size=min(m, n)))
    D = [[p ** v[i] if i == j else 0 for j in range(n)] for i in range(m)]
    M = matmul(matmul(draw(unimodular(m)), D), draw(unimodular(n)))
    return [[x % p ** K for x in row] for row in M], p, K, v


@settings(max_examples=300, deadline=None, derandomize=True)
@given(smith_case())
@example(([[5, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 25, 0, 0]], 5, 6,
          [0, 0, 2]))
@example(([[0, 0, 0, 0, 0]] * 3, 7, 3, [3, 3, 5]))
def test_smith_form(case):
    M, p, K, v = case
    expect = sorted(x for x in v if x < K)
    if sum(expect) >= K:
        with pytest.raises(PrecisionExhausted):
            padic_nullspace(M, p, K)
        return
    out = padic_nullspace(M, p, K)
    n = len(M[0])
    assert out["rank"] == len(expect)
    assert sorted(out["pivot_valuations"]) == expect
    assert out["certificate"] == K - sum(expect)
    assert out["dimension"] == len(out["kernel"]) == n - out["rank"]
    pc = p ** out["certificate"]
    for vec in out["kernel"]:
        assert all(x % pc == 0 for row in matmul(M, [[x] for x in vec])
                   for x in row)


def test_non_minimal_pivot_is_a_bug(monkeypatch):
    """The guard that every entry below a pivot is divisible by it signals
    a fault of the elimination, not lost digits: a valuation read one too
    high picks the pivot 5 over the unit below it."""
    vp_capped = pu.vp_capped
    monkeypatch.setattr(pu, "vp_capped",
                        lambda x, p, cap: max(1, vp_capped(x, p, cap)))
    with pytest.raises(CertificateFailure):
        padic_nullspace([[5, 1], [1, 0]], 5, 4)
