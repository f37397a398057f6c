"""The eventual-CNF evaluator behind a tail's settle point, against the
concrete ordinals it stands for."""

import operator
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given

from ordkit.carriers import load_instance, parse_instance
from ordkit.core import _eval_ast, _parse_to_ast, compare
from ordkit.errors import ParseError
from ordkit.eventual import _compare, _key, _Raises, _Row

from strategies import tail_templates

INSTANCES = Path(__file__).parent / "instances"

# rows past a point whose outcomes are checked against concrete ordinals
_LATE = 30


def _concrete(ast, n):
    """The template's ordinal at n, or None where it raises."""
    try:
        return _eval_ast(ast, n)
    except ParseError:
        return None


class TestForms:
    @given(tail_templates(), st.integers(0, 3))
    def test_form_is_the_row_value_from_its_settle_point(self, text, start):
        ast = _parse_to_ast(text)
        row = _Row(start)
        try:
            form = row.evaluate(ast)
        except _Raises:
            assert all(_concrete(ast, n) is None for n in range(row.at, row.at + _LATE))
            return
        for n in range(row.at, row.at + _LATE):
            assert _key(form, n) == _eval_ast(ast, n).key

    @given(tail_templates(), tail_templates(), st.integers(0, 3))
    def test_comparison_settles_exactly_where_it_says(self, left, right, start):
        # the returned point is the least from which the concrete
        # comparison keeps its final outcome
        asts = _parse_to_ast(left), _parse_to_ast(right)
        row = _Row(start)
        try:
            x, y = (row.evaluate(ast) for ast in asts)
        except _Raises:
            assume(False)
        sign, since = _compare(x, y, row.at)
        assert since >= row.at
        outcomes = [compare(*(_eval_ast(ast, n) for ast in asts)) for n in range(row.at, since + _LATE)]
        assert set(outcomes[since - row.at:]) == {sign}
        if since > row.at:
            assert outcomes[since - row.at - 1] != sign

    @given(
        tail_templates(),
        tail_templates(),
        st.integers(0, 3),
        st.sampled_from([operator.lt, operator.le, operator.gt, operator.ge, operator.eq]),
    )
    def test_test_settles_exactly_where_it_says(self, left, right, start, op):
        # a test op(x, y), as the concrete code makes it, keeps its final
        # outcome from the row's new settle point on, and not from the one before
        asts = _parse_to_ast(left), _parse_to_ast(right)
        row = _Row(start)
        try:
            x, y = (row.evaluate(ast) for ast in asts)
        except _Raises:
            assume(False)
        floor = row.at
        final = row.holds(op, x, y)
        outcomes = [op(*(_eval_ast(ast, n) for ast in asts)) for n in range(floor, row.at + _LATE)]
        assert set(outcomes[row.at - floor:]) == {final}
        if row.at > floor:
            assert outcomes[row.at - floor - 1] != final

    @pytest.mark.parametrize(
        "left,right,outcome",
        [
            ("n", "5", (1, 6)),
            ("w^n*5", "w^3*2", (1, 3)),  # equal exponents at 3, where 5 > 2 already decides
            ("w^n*2", "w^3*5", (1, 4)),
            ("w^3*2", "w^n*5", (-1, 3)),
            ("w^(n+1)", "w^(n+1)", (0, 0)),
            ("w*(n+3)", "w*5+n", (1, 3)),
            ("w*(n+3)+9", "w*5+n", (1, 2)),  # equal coefficients at 2, where 9 > 2
        ],
    )
    def test_comparisons(self, left, right, outcome):
        row = _Row(0)
        x, y = (row.evaluate(_parse_to_ast(text)) for text in (left, right))
        assert _compare(x, y, row.at) == (outcome[0], max(row.at, outcome[1]))


class TestSettlePoint:
    @pytest.mark.parametrize(
        "name,settle",
        [
            ("tail_mixed_growth.txt", 22),  # w^20*n + w^n keeps both terms up to n = 20
            ("tail_past_alpha.txt", 12),  # w^n passes alpha = w^10 at 11
            ("tail_shrinking.txt", 6),  # [w^n,w^5) is empty from n = 5 on
            ("tail_split_cap.txt", 11),  # w^3*n reaches the block's w^3*10 at n = 10
            ("tail_large_block.txt", 2),  # no comparison depends on the 5000
            ("case2_tower.txt", 2),
        ],
    )
    def test_shipped_tails(self, name, settle):
        # one past the last row whose comparisons differ from the tail's
        assert load_instance(INSTANCES / name).tail_start == settle

    def test_check_failing_for_good_fails_on_an_explicit_row(self):
        # w*n has coefficient 0 at n = 0 only; w*(w) never has a natural one
        text = "carrier: m:[0,w^2)\nalpha: w^2\ntail: n >= 0: m -> constant w*n\n"
        with pytest.raises(ParseError, match="coefficient must be"):
            parse_instance(text)
        fam = parse_instance(text.replace("n >= 0", "n >= 1").replace("tail", "row 0: m -> constant 0\ntail"))
        assert fam.tail_start == 2
        with pytest.raises(ParseError, match="coefficient must be"):
            parse_instance(text.replace("w*n", "w*(w)"))
