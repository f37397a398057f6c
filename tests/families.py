"""The library refuter families of acceptance criterion 9: listings of sets
the CLI never builds, on the carrier ``m: [0, w^2)``."""

from ordkit.carriers import Carrier, QueryableSet
from ordkit.core import ZERO, Ordinal, compare, parse
from ordkit.intervals import OrdinalSet

CARRIER = Carrier([("m", OrdinalSet.interval(ZERO, parse("w^2")))])


def powerset_families() -> dict:
    """name -> (phi, table) for ``refute_powerset``."""
    position = CARRIER.global_position
    empty = QueryableSet(lambda x: False)
    return {
        "empty": (lambda n, x: empty, [empty]),
        "singletons": (
            lambda n, x: QueryableSet(lambda y, x=x: y == x),
            [QueryableSet(lambda y, i=i: y == ("m", Ordinal(i))) for i in range(10)],
        ),
        "x-only": (
            lambda n, x: QueryableSet(
                lambda y, cut=position(x): compare(position(y), cut) < 0
            ),
            [
                QueryableSet(lambda y, i=i: compare(position(y), Ordinal(i)) < 0)
                for i in range(1, 6)
            ],
        ),
    }


def infinite_powerset_families() -> dict:
    """name -> (phi, table) for ``refute_infinite_powerset``."""
    full = QueryableSet(lambda x: True, ("infinite", lambda k: ("m", Ordinal(k))))

    def cofinite(i):
        return QueryableSet(
            lambda y, i=i: not (y[1].is_nat() and y[1].nat_value() <= i),
            ("infinite", lambda k, i=i: ("m", Ordinal(i + 1 + k))),
        )

    return {
        "full": (lambda n, x: full, [full]),
        "cofinite": (lambda n, x: cofinite(n), [cofinite(i) for i in range(5)]),
    }
