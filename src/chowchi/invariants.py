"""Cycle spaces with extra symmetry: group-invariant and quaternionic cycles.

For a diagonalizable linear group action on P^n the invariant cycle count
equals the unconstrained one, ``chow.chow_euler_closed``, so it has no
function of its own.  The space of right quaternionic cycles in P^{2n-1}
(those fixed by the holomorphic involution induced by right quaternion
multiplication by j) is the special case counted here.  Two decomposition
oracles recompute small cases by entirely different sums: symmetric products
of a disjoint pair of projective spaces for p = 0, and pairs of eigenspace
Grassmannians for d = 1.
"""

from operator import attrgetter, index

from ._record import Record, _decimal, field_setters
from .binomials import binomial
from .chow import sp_euler

__all__ = [
    "QuaternionicParams",
    "quaternionic_euler_closed",
    "quaternionic_p0_oracle",
    "quaternionic_d1_oracle",
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
            raise ValueError(f"quaternionic dimension must be >= 1, got n={_decimal(n)}")
        if not 0 <= p <= 2 * n - 1:
            raise ValueError(
                f"require 0 <= p <= 2n-1, got p={_decimal(p)} with n={_decimal(n)}")
        if d < 0:
            raise ValueError(f"degree must be nonnegative, got d={_decimal(d)}")
        _set_p(self, p)
        _set_n(self, n)
        _set_d(self, d)


_set_p, _set_n, _set_d = field_setters(QuaternionicParams)


def quaternionic_euler_closed(params: QuaternionicParams) -> int:
    """chi(C_{p,d}(n)) = sp_euler(C(2n, p+1), d) for right quaternionic cycles.

    Equal to chi(C_{p,d}(P^{2n-1})): the involution is induced by a
    diagonalizable linear map, so fixing by it does not change the count,
    which is ``sp_euler(v, d)`` with v = C(2n, p+1) the number of
    torus-fixed p-planes of that ambient space.

    >>> quaternionic_euler_closed(QuaternionicParams(0, 1, 2))
    3
    >>> quaternionic_euler_closed(QuaternionicParams(1, 1, 5))
    1
    """
    return sp_euler(binomial(2 * params.n, params.p + 1), params.d)


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
    n, d = attrgetter("n", "d")(QuaternionicParams(0, n, d))
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
    p, n = attrgetter("p", "n")(QuaternionicParams(p, n, 1))
    return sum(binomial(n, i) * binomial(n, p + 1 - i) for i in range(p + 2))
