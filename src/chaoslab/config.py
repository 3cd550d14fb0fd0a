"""Size caps.

Every cap guards an exact computation whose cost is exponential in the
horizon (or polynomial in support size); the defaults keep the full identity
suite at desk scale.  All functions that enforce a cap accept an explicit
``Caps`` so callers can raise or lower limits per call, and refuse through
``Caps.check``.  The probability floor is not a cap: it is the constant
``model.PROB_FLOOR``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError


@dataclass(frozen=True)
class Caps:
    # full 2**n outcome enumeration (tables, exact laws, moments); the law
    # by independent pieces (``distance.integral_law``) checks it against
    # each piece's number of coordinates and against the log2 size of each
    # outer sum of atoms, so its horizon may exceed it
    enum_cap: int = 24
    # dicts of one Python tuple per subset (``stroock_decompose``, ``multiply``,
    # ``HoeffdingDecomposition.components``): a dense decomposition at n = 14
    # keeps 11 tables (8 * 2**n bytes) of them, with a peak of 22.4 tables
    stroock_cap: int = 14
    # the product-formula fourth moment is O(P 2**m) in the number P of
    # pairs of support subsets of order <= m that share a coordinate, at
    # most S**2 / 2 for S subsets; only ``fourth_moment_factorized``
    # checks it (``fourth_moment_symmetric``, ``off_diagonal_defect`` and
    # ``tensor_square_residual`` run the same pass unguarded), and the
    # benchmark derives its sparse workload sizes from this default
    factorized_support_cap: int = 60

    def check(self, cap: str, requested: int, message: str, limit: int | None = None) -> None:
        """Raise the ``CapacityError`` naming the field ``cap`` when ``requested``
        exceeds its value (or the ``limit`` it sets); only then is ``message``
        formatted, with ``requested`` and that ``value``."""
        value = getattr(self, cap)
        if requested > (value if limit is None else limit):
            message = message.format(requested=requested, value=value)
            raise CapacityError(message, cap, value, requested)


DEFAULT_CAPS = Caps()
