"""Independent brute-force oracles for tests and example generation.

The vector model represents an ordinal below w**k as a fixed-length tuple
``(c_{k-1}, ..., c_0)`` of naturals and computes arithmetic by direct case
analysis on leading nonzero positions.  It shares no code with the main
CNF implementation; agreement between the two is asserted by tests.

``exhaustive_check`` enumerates all finite instances of a contract
(two-sided-injection bijections, the diagonal set, the fiber family of
the finite-to-one transfer) and runs the main implementation on each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

__all__ = ["VecOverflow", "vec_add", "vec_mul", "vec_cmp", "exhaustive_check", "CheckReport"]


class VecOverflow(Exception):
    """Result would reach w**k and cannot be represented at this width."""


def _check_width(a: tuple, b: tuple):
    if len(a) != len(b):
        raise ValueError("vectors must share the same width k")


def _lead(a: tuple) -> int:
    """Index of the most significant nonzero digit, or -1 for zero."""
    for i, digit in enumerate(a):
        if digit:
            return i
    return -1


def vec_add(a: tuple, b: tuple) -> tuple:
    _check_width(a, b)
    i = _lead(b)
    if i < 0:
        return a
    out = list(b)
    out[i] = a[i] + b[i]
    for j in range(i):
        out[j] = a[j]
    return tuple(out)


def vec_mul(a: tuple, b: tuple) -> tuple:
    _check_width(a, b)
    k = len(a)
    ia = _lead(a)
    if ia < 0 or _lead(b) < 0:
        return (0,) * k
    deg_a = k - 1 - ia
    result = (0,) * k
    for i, digit in enumerate(b):
        if not digit:
            continue
        e = k - 1 - i
        if e > 0:
            if deg_a + e > k - 1:
                raise VecOverflow(f"w^{deg_a + e} needs width > {k}")
            term = [0] * k
            term[k - 1 - (deg_a + e)] = digit
            term = tuple(term)
        else:
            term = list(a)
            term[ia] = a[ia] * digit
            term = tuple(term)
        result = vec_add(result, term)
    return result


def vec_cmp(a: tuple, b: tuple) -> int:
    _check_width(a, b)
    for x, y in zip(a, b):
        if x != y:
            return -1 if x < y else 1
    return 0


# -- exhaustive finite-model checks -----------------------------------------


@dataclass
class CheckReport:
    property_name: str
    cases: int = 0
    failures: list = field(default_factory=list)

    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok() else f"FAILED ({len(self.failures)})"
        return f"{self.property_name}: {self.cases} cases, {status}"


def _check_csb(size: int) -> CheckReport:
    from .coding import CsbBijection, MapSpec

    report = CheckReport("csb_bijective")
    for s in range(size + 1):
        domain = tuple(range(s))
        for f_perm in itertools.permutations(domain):
            f_map = dict(zip(domain, f_perm))
            f_inv = {v: k for k, v in f_map.items()}
            for g_perm in itertools.permutations(domain):
                g_map = dict(zip(domain, g_perm))
                g_inv = {v: k for k, v in g_map.items()}
                f_spec = MapSpec(f_map.__getitem__, f_inv.__contains__, f_inv.__getitem__)
                g_spec = MapSpec(g_map.__getitem__, g_inv.__contains__, g_inv.__getitem__)
                h = CsbBijection(f_spec, g_spec, fuel=10_000)
                report.cases += 1
                image = [h.forward(a) for a in domain]
                bad = sorted(set(image)) != list(domain)
                bad = bad or any(h.backward(h.forward(a)) != a for a in domain)
                bad = bad or any(h.forward(h.backward(b)) != b for b in domain)
                if bad:
                    report.failures.append((f_map, g_map, image))
    return report


def _check_diagonal(size: int) -> CheckReport:
    from .carriers import Carrier, QueryableSet
    from .core import Ordinal
    from .intervals import OrdinalSet
    from .reduction import cantor_diagonal

    report = CheckReport("diagonal_missed")
    carrier = Carrier([("m", OrdinalSet.interval(Ordinal(0), Ordinal(size)))])
    elements = [("m", Ordinal(i)) for i in range(size)]
    subsets = list(itertools.product((False, True), repeat=size))
    for assignment in itertools.product(range(len(subsets)), repeat=size):
        table = {elements[i]: subsets[assignment[i]] for i in range(size)}

        def listing(x, table=table):
            row = table[x]
            return QueryableSet(lambda y, row=row: row[int(y[1].nat_value())])

        diag = cantor_diagonal(listing, carrier)
        vector = tuple(diag.contains(x) for x in elements)
        report.cases += 1
        if vector in {subsets[i] for i in assignment}:
            report.failures.append((assignment, vector))
        if any(diag.contains(x) == table[x][i] for i, x in enumerate(elements)):
            report.failures.append(("xor", assignment))
    return report


def _check_transfer(size: int) -> CheckReport:
    """Fiber-family coverage: the induced omega x M stage of the transfer.

    Enumerates every function f: N -> M and surjection g: N -> {0..m} on
    carriers of up to ``size`` points and asserts that the fiber rows
    built by the main implementation jointly cover {0..m} exactly.
    """
    from .core import Ordinal
    from .intervals import OrdinalSet
    from .reduction import fiber_family_values

    report = CheckReport("transfer_surjective")
    for n_size in range(1, size + 1):
        for m_size in range(1, size + 1):
            for f_vals in itertools.product(range(m_size), repeat=n_size):
                for target in range(1, n_size + 1):
                    for g_vals in itertools.product(range(target), repeat=n_size):
                        if len(set(g_vals)) != target:
                            continue
                        values = fiber_family_values(n_size, m_size, f_vals, g_vals)
                        report.cases += 1
                        covered = set()
                        for row in values:
                            covered.update(v for v in row if v is not None)
                        if covered != set(range(target)):
                            report.failures.append((f_vals, g_vals, sorted(covered)))
    return report


_CHECKS = {
    "csb_bijective": (_check_csb, 5),
    "diagonal_missed": (_check_diagonal, 3),
    "transfer_surjective": (_check_transfer, 4),
}


def exhaustive_check(property_name: str, size: int) -> CheckReport:
    """Run one exhaustive finite-model check; failures land in the report."""
    if property_name not in _CHECKS:
        raise ValueError(f"unknown property {property_name!r}")
    runner, max_size = _CHECKS[property_name]
    if size > max_size:
        raise ValueError(f"{property_name} supports size <= {max_size}")
    return runner(size)
