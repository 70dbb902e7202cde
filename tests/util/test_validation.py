"""Unit tests for argument validation and the exception hierarchy."""

import numpy as np
import pytest

from repro.util.validation import (
    CommunicationError,
    PartitionError,
    PayloadError,
    ReplicationError,
    ReproError,
    SchedulingError,
    ShapeError,
    check_divides,
    check_in_range,
    check_matmul_shapes,
    check_matrix,
    check_non_negative_int,
    check_positive_int,
    read_int,
)


class TestExceptionHierarchy:
    @pytest.mark.parametrize("exc", [ShapeError, PartitionError, ReplicationError,
                                     CommunicationError, SchedulingError,
                                     PayloadError])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_payload_error_is_a_value_error(self):
        # Decoder loops that skip malformed store entries catch ValueError.
        assert issubclass(PayloadError, ValueError)

    def test_repro_error_is_exception(self):
        assert issubclass(ReproError, Exception)


class TestCheckPositiveInt:
    def test_accepts_positive(self):
        assert check_positive_int(3, "x") == 3

    def test_accepts_numpy_integer(self):
        assert check_positive_int(np.int64(5), "x") == 5

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive_int(-2, "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int(2.5, "x")


class TestCheckNonNegativeInt:
    def test_accepts_zero(self):
        assert check_non_negative_int(0, "x") == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative_int(-1, "x")


class TestReadInt:
    def test_accepts_json_integer(self):
        assert read_int(0, "x") == 0
        assert read_int(96, "x") == 96

    @pytest.mark.parametrize("value", [2.7, "3", True, None, [3]])
    def test_rejects_other_json_types_naming_the_field(self, value):
        with pytest.raises(PayloadError, match="top_k"):
            read_int(value, "top_k")


class TestCheckInRange:
    def test_in_range(self):
        assert check_in_range(3, 0, 5, "x") == 3

    def test_low_bound_inclusive(self):
        assert check_in_range(0, 0, 5, "x") == 0

    def test_high_bound_exclusive(self):
        with pytest.raises(ValueError):
            check_in_range(5, 0, 5, "x")


class TestCheckDivides:
    def test_divides(self):
        check_divides(3, 12, "must divide")

    def test_does_not_divide(self):
        with pytest.raises(ReplicationError):
            check_divides(5, 12, "must divide")

    def test_zero_divisor(self):
        with pytest.raises(ReplicationError):
            check_divides(0, 12, "must divide")


class TestCheckMatrix:
    def test_accepts_2d_array(self):
        arr = check_matrix(np.ones((3, 4)), "A")
        assert arr.shape == (3, 4)

    def test_accepts_nested_list(self):
        arr = check_matrix([[1, 2], [3, 4]], "A")
        assert arr.shape == (2, 2)

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            check_matrix(np.ones(5), "A")

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            check_matrix(np.empty((0, 3)), "A")

    def test_rejects_non_numeric(self):
        with pytest.raises(ShapeError):
            check_matrix(np.array([["a", "b"], ["c", "d"]]), "A")


class TestCheckMatmulShapes:
    def test_compatible(self):
        assert check_matmul_shapes((3, 4), (4, 5)) == (3, 5, 4)

    def test_with_output(self):
        assert check_matmul_shapes((3, 4), (4, 5), (3, 5)) == (3, 5, 4)

    def test_inner_mismatch(self):
        with pytest.raises(ShapeError):
            check_matmul_shapes((3, 4), (5, 6))

    def test_output_mismatch(self):
        with pytest.raises(ShapeError):
            check_matmul_shapes((3, 4), (4, 5), (3, 6))
