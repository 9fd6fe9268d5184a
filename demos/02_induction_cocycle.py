"""Exact Rauzy-Veech induction and the visitation cocycle.

Interval exchange maps are stored with exact rational lengths, so each
induction step is an exact identity: the original length vector equals
the visitation matrix applied to the induced one, and the matrix has
determinant one.  A 2-interval exchange reduces to the Euclidean
algorithm; the column norms recover continued-fraction denominators.
"""
from fractions import Fraction

from ietkit.induction import Iet, balanced, induct, induct_until, orbit
from ietkit.perm import hyperelliptic_permutation


def main() -> None:
    T = Iet.make(
        (Fraction(987, 1597), Fraction(610, 1597)), hyperelliptic_permutation(2)
    )
    print("2-interval exchange with lengths", T.lengths)
    trace = induct(T, 6)
    print("after 6 steps the visitation matrix is")
    for row in trace.matrix.rows:
        print("  ", row)
    print("column norms (continued-fraction denominators):",
          trace.matrix.column_norms())
    print("exact identity x = M x' holds:", trace.check_identity())
    print("det M =", trace.matrix.det())

    T4 = Iet.make(
        (
            Fraction(509, 1009),
            Fraction(251, 1009),
            Fraction(151, 1009),
            Fraction(98, 1009),
        ),
        hyperelliptic_permutation(4),
    )
    print("\n4-interval exchange, inducting until the first positive "
          "10-balanced matrix:")
    trace = induct_until(T4, balanced(10), step_budget=1000)
    print(f"  stopped after {trace.steps} steps, "
          f"balance ratio {float(trace.matrix.balance_ratio()):.3f}, "
          f"norm {trace.matrix.norm}")

    print("\nfirst orbit points of 1/17 under the 4-interval exchange:")
    for p in orbit(T4, Fraction(1, 17), 5):
        print("  ", p)


if __name__ == "__main__":
    main()
