import pytest

from ordkit.oracle import VecOverflow, exhaustive_check, vec_add, vec_cmp, vec_mul


class TestVectorModel:
    def test_add_absorbs(self):
        assert vec_add((0, 1, 0), (1, 0, 0)) == (1, 0, 0)

    def test_add_merges_leading(self):
        assert vec_add((0, 2, 3), (0, 1, 1)) == (0, 3, 1)

    def test_mul_overflow_reported(self):
        with pytest.raises(VecOverflow):
            vec_mul((1, 2), (1, 0))

    def test_cmp(self):
        assert vec_cmp((0, 2, 3), (0, 2, 4)) == -1
        assert vec_cmp((1, 0, 0), (0, 9, 9)) == 1

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            vec_add((1, 0), (1, 0, 0))


class TestExhaustive:
    def test_csb_small(self):
        report = exhaustive_check("csb_bijective", 3)
        assert report.ok() and report.cases == 42

    def test_diagonal(self):
        report = exhaustive_check("diagonal_missed", 3)
        assert report.ok() and report.cases == 512

    def test_transfer(self):
        report = exhaustive_check("transfer_surjective", 3)
        assert report.ok()

    def test_unknown_property(self):
        with pytest.raises(ValueError):
            exhaustive_check("nope", 3)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            exhaustive_check("diagonal_missed", 4)
