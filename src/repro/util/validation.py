"""Argument validation helpers and the library's exception hierarchy.

Keeping validation centralized lets the distributed-matrix constructors and
the algorithm entry points raise consistent, descriptive errors, which in a
distributed setting is the difference between a one-line fix and a hung job.
"""

from __future__ import annotations

from typing import Any

import numpy as np


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class ShapeError(ReproError):
    """Matrix or tile shapes are inconsistent with the requested operation."""


class PartitionError(ReproError):
    """A partition descriptor is invalid for the given matrix/process count."""


class ReplicationError(ReproError):
    """A replication factor is invalid for the given number of processes."""


class CommunicationError(ReproError):
    """A one-sided operation targeted an invalid rank, replica, or region."""


class SchedulingError(ReproError):
    """IR lowering or execution scheduling failed."""


class PayloadError(ReproError, ValueError):
    """A decoded wire or store payload holds a field of the wrong JSON type.

    It is also a :class:`ValueError`, so every decoder loop that skips a
    malformed entry on ``ValueError`` (plan-store loads, seed harvesting,
    request-log reads) skips this one too instead of failing the load.
    """


def check_positive_int(value: Any, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_non_negative_int(value: Any, name: str) -> int:
    """Validate that ``value`` is a non-negative integer and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def read_int(value: Any, name: str) -> int:
    """Return decoded JSON field ``name`` if it is an integer.

    A float (``2.7``), a string (``"3"``) or a bool (``true``) raises
    :class:`PayloadError` naming the field instead of being coerced, so a
    malformed request can never be planned as a different number.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise PayloadError(f"{name} must be a JSON integer, "
                           f"got {type(value).__name__} {value!r}")
    return value


def check_in_range(value: int, low: int, high: int, name: str) -> int:
    """Validate ``low <= value < high``."""
    value = int(value)
    if not low <= value < high:
        raise ValueError(f"{name} must be in [{low}, {high}), got {value}")
    return value


def check_divides(divisor: int, dividend: int, message: str) -> None:
    """Validate that ``divisor`` divides ``dividend`` exactly."""
    if divisor <= 0 or dividend % divisor != 0:
        raise ReplicationError(message)


#: The float dtype of each supported element size in bytes.
_FLOAT_DTYPES = {2: np.dtype(np.float16), 4: np.dtype(np.float32), 8: np.dtype(np.float64)}


def float_dtype(itemsize: int) -> np.dtype:
    """The float dtype of ``itemsize`` bytes (2, 4 or 8); ``ValueError`` otherwise."""
    dtype = _FLOAT_DTYPES.get(itemsize)
    if dtype is None:
        raise ValueError(f"itemsize must be one of {sorted(_FLOAT_DTYPES)} bytes, "
                         f"got {itemsize!r}")
    return dtype


def check_matrix(array: Any, name: str) -> np.ndarray:
    """Validate that ``array`` is a 2-D, non-empty, real-valued ndarray."""
    arr = np.asarray(array)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ShapeError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.number):
        raise ShapeError(f"{name} must be numeric, got dtype {arr.dtype}")
    return arr


def check_matmul_shapes(a_shape: tuple, b_shape: tuple, c_shape: tuple | None = None) -> tuple:
    """Validate GEMM shape compatibility and return ``(m, n, k)``."""
    m, k = int(a_shape[0]), int(a_shape[1])
    kb, n = int(b_shape[0]), int(b_shape[1])
    if k != kb:
        raise ShapeError(
            f"inner dimensions do not match: A is {a_shape}, B is {b_shape}"
        )
    if c_shape is not None:
        cm, cn = int(c_shape[0]), int(c_shape[1])
        if (cm, cn) != (m, n):
            raise ShapeError(
                f"output shape {c_shape} does not match A @ B = ({m}, {n})"
            )
    return (m, n, k)
