"""Exception types shared across the library, the one rule that admits numbers,
and the one rule that reads a record back from its JSON object.

The CLI maps these onto its exit-code contract, so new error conditions
should reuse one of the classes below rather than raising bare exceptions.
"""

import dataclasses
import math
import operator

import numpy as np


class VbiSnrError(Exception):
    """Base class for all vbisnr errors."""


class InvalidInputError(VbiSnrError, ValueError):
    """A parameter, flag, or data value violates its contract."""


class CaptureFormatError(VbiSnrError):
    """A capture file could not be parsed or is internally inconsistent."""


class MeasurementImpossibleError(VbiSnrError):
    """The input is well formed but contains nothing measurable."""


def _as_int(value, what: str, low: float = -math.inf) -> int:
    # An integer at least ``low``. operator.index takes Python and numpy
    # integers, never a float; bool is an int subclass but no count or index.
    try:
        if not isinstance(value, bool):
            number = operator.index(value)
            if number >= low:
                return number
            raise InvalidInputError(f"{what} must be at least {low}, got {number}")
    except TypeError:
        pass
    raise InvalidInputError(f"{what} must be an integer, got {value!r}")


def _as_float(value, what: str, low: float = -math.inf, above: bool = False) -> float:
    # A finite number at least ``low`` (above it, when ``above``), as a float: never
    # a bool (numpy's too) or numeric text. A plain float skips the slower isinstance.
    if type(value) is float or not isinstance(value, (bool, np.bool_, str, bytes)):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if math.isfinite(number) and (number > low if above else number >= low):
            return number
    rule = "finite"
    if low == 0:
        rule = "positive and finite" if above else "non-negative and finite"
    raise InvalidInputError(f"{what} must be {rule}, got {value!r}")


def _from_dict(cls, d):
    # A record from its JSON object: built from its ``init`` fields, while each
    # field it fixes or works out must agree in value and in type (1 is not true).
    record = cls(**{f.name: d[f.name] for f in dataclasses.fields(cls) if f.init})
    for key in (f.name for f in dataclasses.fields(cls) if not f.init):
        got, want = d[key], getattr(record, key)
        if not (isinstance(got, type(want)) and got == want):
            raise InvalidInputError(f"{key} {got!r} disagrees with the computed {want!r}")
    return record
