"""argparse types for the numeric flags of the scripts in this directory.

Each parses a float and refuses, with argparse's own error and exit
status 2, a value outside its range; nan and inf are in none of them.
"""

from __future__ import annotations

import argparse
import math


def _checked(text: str, admits, rule: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and admits(value)):
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
    return value


def positive(text: str) -> float:
    """argparse type: a finite number > 0."""
    return _checked(text, lambda value: value > 0, "a finite number > 0")


def finite(text: str) -> float:
    """argparse type: a finite number."""
    return _checked(text, lambda value: True, "a finite number")


def non_negative(text: str) -> float:
    """argparse type: a finite number >= 0."""
    return _checked(text, lambda value: value >= 0, "a finite number >= 0")
