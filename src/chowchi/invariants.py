"""Cycle spaces with extra symmetry: group-invariant and quaternionic cycles.

For a diagonalizable linear group action on P^n the invariant cycle count
equals the unconstrained one, and the space of right quaternionic cycles in
P^{2n-1} (those fixed by the holomorphic involution induced by right
quaternion multiplication by j) is a special case.  Two decomposition
oracles recompute small cases by entirely different sums: symmetric products
of a disjoint pair of projective spaces for p = 0, and pairs of eigenspace
Grassmannians for d = 1.
"""

from operator import index

from ._record import Record, field_setters
from .binomials import binomial
from .chow import ChowParams, v_pn

__all__ = [
    "QuaternionicParams",
    "g_invariant_euler",
    "quaternionic_euler_closed",
    "quaternionic_p0_oracle",
    "quaternionic_d1_oracle",
    "sp_euler",
]


class QuaternionicParams(Record):
    """The triple (p, n, d) indexing the right quaternionic cycle space C_{p,d}(n).

    The ambient space is P^{2n-1}, so validity means n >= 1, 0 <= p <= 2n-1
    and d >= 0.
    """

    __slots__ = ("p", "n", "d")
    p: int
    n: int
    d: int

    def __init__(self, p: int, n: int, d: int):
        p, n, d = index(p), index(n), index(d)
        if n < 1:
            raise ValueError(f"quaternionic dimension must be >= 1, got n={n}")
        if not 0 <= p <= 2 * n - 1:
            raise ValueError(f"require 0 <= p <= 2n-1, got p={p} with n={n}")
        if d < 0:
            raise ValueError(f"degree must be nonnegative, got d={d}")
        _set_p(self, p)
        _set_n(self, n)
        _set_d(self, d)


_set_p, _set_n, _set_d = field_setters(QuaternionicParams)


def g_invariant_euler(params: ChowParams) -> int:
    """chi of the locus of cycles in C_{p,d}(P^n) fixed by a diagonalizable
    linear group action.

    The count does not depend on which diagonalizable group acts: it is
    ``sp_euler(v, d)``, the number of degree-d multisets of the
    v = C(n+1, p+1) torus-fixed coordinate p-planes, which is the
    unconstrained value C(v + d - 1, d).  Diagonalizability is a caller
    obligation; the representation itself is not modeled.  The count also
    satisfies the same suspension recursion as the plain cycle spaces, which
    ``chow_euler_recursive`` exercises.

    >>> g_invariant_euler(ChowParams(0, 1, 2))
    3
    >>> g_invariant_euler(ChowParams(2, 2, 9))
    1
    """
    return sp_euler(v_pn(params.p, params.n), params.d)


def quaternionic_euler_closed(params: QuaternionicParams) -> int:
    """chi(C_{p,d}(n)) = C(C(2n, p+1) + d - 1, d) for right quaternionic cycles.

    Equal to chi(C_{p,d}(P^{2n-1})): the involution is induced by a
    diagonalizable linear map, so fixing by it does not change the count,
    which is ``sp_euler(v, d)`` with v = C(2n, p+1) the number of
    torus-fixed p-planes of that ambient space.

    >>> quaternionic_euler_closed(QuaternionicParams(0, 1, 2))
    3
    >>> quaternionic_euler_closed(QuaternionicParams(1, 1, 5))
    1
    """
    return sp_euler(v_pn(params.p, 2 * params.n - 1), params.d)


def quaternionic_p0_oracle(n: int, d: int) -> int:
    """Independent p = 0 count: sum_{i=0}^{d} C(n+i-1, i) * C(n+d-i-1, d-i).

    Fixed 0-cycles distribute over the two disjoint copies of P^{n-1} fixed
    by the involution; strata placing any points in the complement contribute
    nothing since that complement has Euler characteristic zero, so only the
    fully fixed strata are summed.  Computed term by term, never through the
    closed form.

    >>> quaternionic_p0_oracle(1, 2)
    3
    >>> quaternionic_p0_oracle(2, 0)
    1
    >>> quaternionic_p0_oracle(2, 3)
    20
    """
    if n < 1 or d < 0:
        raise ValueError(f"require n >= 1 and d >= 0, got n={n}, d={d}")
    return sum(
        binomial(n + i - 1, i) * binomial(n + d - i - 1, d - i)
        for i in range(d + 1)
    )


def quaternionic_d1_oracle(p: int, n: int) -> int:
    """Independent d = 1 count: sum_{i=0}^{p+1} C(n, i) * C(n, p+1-i).

    An invariant projective p-plane is spanned by i eigenvectors of one
    eigenvalue and p+1-i of the other, so the space splits into products of
    Grassmannians, with chi(G(k, n)) = C(n, k).  The sum runs from i = 0:
    both pure-eigenspace terms are required for the Vandermonde total
    C(2n, p+1), and dropping i = 0 already fails at p = 0, n = 1.

    >>> quaternionic_d1_oracle(0, 1)
    2
    >>> quaternionic_d1_oracle(3, 2)
    1
    >>> quaternionic_d1_oracle(1, 2)
    6
    """
    if n < 1:
        raise ValueError(f"require n >= 1, got n={n}")
    if not 0 <= p <= 2 * n - 1:
        raise ValueError(f"require 0 <= p <= 2n-1, got p={p} with n={n}")
    return sum(binomial(n, i) * binomial(n, p + 1 - i) for i in range(p + 2))


def sp_euler(chi: int, d: int) -> int:
    """chi of the d-fold symmetric product of a space with Euler characteristic chi.

    By the Macdonald formula this is the coefficient of t^d in (1-t)^(-chi),
    the generalized binomial C(chi + d - 1, d), for every integer chi: for
    chi <= 0 the reflection (-1)^d C(-chi, d).  SP^0 of anything is a point.

    >>> sp_euler(0, 4)
    0
    >>> sp_euler(0, 0)
    1
    >>> sp_euler(3, 2)     # SP^2 of the projective plane
    6
    >>> sp_euler(-2, 2)    # (1-t)^2 = 1 - 2t + t^2
    1
    """
    if d < 0:
        raise ValueError(f"d must be nonnegative, got {d}")
    if chi > 0:
        return binomial(chi + d - 1, d)
    c = binomial(-chi, d)
    return -c if d & 1 else c
