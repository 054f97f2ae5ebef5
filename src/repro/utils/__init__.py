"""Shared low-level helpers: bit manipulation, text tables."""

from repro.utils.bitops import (
    bit_slice,
    block_address,
    extract_field,
    ilog2,
    is_power_of_two,
    mask,
)
from repro.utils.text import format_percent, render_table

__all__ = [
    "bit_slice",
    "block_address",
    "extract_field",
    "format_percent",
    "ilog2",
    "is_power_of_two",
    "mask",
    "render_table",
]
