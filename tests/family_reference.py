"""The families point by point: the oracle the one-pass certificate in
commcalc.obstruction.verify_family is held to.  family_assignment
builds a family's point at numeric parameters with QSqrt3 arithmetic,
and refuses the pole set, where the printed formulas divide by zero.
"""

from commcalc.obstruction import FAMILIES, QSqrt3


class PoleError(ZeroDivisionError):
    """A family was evaluated on its pole set (b1 = 0 or b5 = 0)."""


def family_assignment(family_id: int, b1, b5) -> dict:
    """The point of family `family_id` at parameters (b1, b5); raises
    PoleError on the pole set b1 = 0 or b5 = 0."""
    b1 = b1 if isinstance(b1, QSqrt3) else QSqrt3(b1)
    b5 = b5 if isinstance(b5, QSqrt3) else QSqrt3(b5)
    if b1.is_zero() or b5.is_zero():
        raise PoleError("family evaluated on its pole set (b1=0 or b5=0)")
    return FAMILIES[family_id](b1, b5)
