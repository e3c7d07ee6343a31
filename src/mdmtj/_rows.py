"""Rows of array columns as CSV or JSON text, formatted in numpy.

``cli`` sends a chunk of rows here when every column is an ndarray or a
``range``: that is, a Monte Carlo result. Each cell gets the bytes the list
path prints. A scaled column prints ``"%.Nf" % x`` in CSV and
``repr(round(x, N))`` in JSON, with ``x = value * scale``. A bare column (a
``range``) prints its integers.

A scaled cell's digits come from ``n = rint(|x| * 10^N)`` and its sign from
``signbit(x)``. Python converts the exact binary value of ``x``, rounded half
to even. The float product ``a = |x| * 10^N`` (10^N is exact up to
N = 22) is within half a spacing of that exact value, so ``rint(a)`` gives
the same ``n`` whenever ``a`` lies more than one spacing from a half. The remaining cells go to the list
path's ``cells``:

- a possible tie, ``|frac(a) - 0.5| <= spacing(a)``;
- ``a >= 1e15``, or a value that is not finite;
- in JSON, a value that rounds to a nonzero magnitude below 1e-4, which
  ``repr`` prints in exponent form.

Below 1e15, no shorter decimal than ``n / 10^N`` rounds to the same double,
so ``repr`` prints exactly those digits with trailing zeros cut (one kept).

A chunk is one uint8 matrix, one row per output row. NUL bytes pad every
cell and are dropped before decoding.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

_LIMIT = 1e15
_ZERO = ord("0")
_MINUS = ord("-")
_DOT = ord(".")


def _number_block(
    n: np.ndarray, negative: np.ndarray, decimals: int, trim: bool
) -> np.ndarray:
    """``n / 10^decimals`` as NUL-padded text, one row per value, for whole
    ``n >= 0``: a ``-`` where ``negative``, the integer digits without
    leading zeros, then the fraction, all ``decimals`` digits or (``trim``)
    cut after its last nonzero digit, one kept. With ``trim`` and no decimals
    the fraction is one ``0``, as ``repr`` prints a whole float."""
    top = int(n.max(initial=0))
    whole = len(str(top // 10**decimals))
    fraction = max(decimals, trim)
    # built one character position at a time, each a contiguous vector
    text = np.zeros((1 + whole + bool(fraction) + fraction, len(n)), np.uint8)
    np.multiply(negative, _MINUS, out=text[0], casting="unsafe")
    if fraction:
        text[1 + whole] = _DOT
    if fraction > decimals:
        text[-1] = _ZERO  # the one fraction digit of a trimmed whole number
    # int32 division is the cheaper; the digit count follows the widest value
    q = n.astype(np.int32 if top < 2**31 else np.int64)
    zeros = np.ones(len(n), bool)  # no nonzero fraction digit to the right yet
    for place in range(whole + decimals):
        rest = q // 10
        digit = q - rest * 10
        shown: Any = True
        if place < decimals:
            position = len(text) - 1 - place
            if trim and place < decimals - 1:
                zeros &= digit == 0
                shown = ~zeros
        else:
            position = whole + decimals - place
            if place > decimals:  # a leading zero stays NUL
                shown = q != 0
        np.add(digit, _ZERO, out=text[position], where=shown, casting="unsafe")
        q = rest
    return text.T


def cell_block(
    column: Any,
    values: Sequence[Any],
    fmt: str,
    cells: Callable[[Any, Sequence[Any]], list[str]],
) -> np.ndarray:
    """One column's cells as a NUL-padded uint8 matrix, one row per value;
    ``cells`` (the list path) formats the cells the arithmetic cannot prove."""
    if isinstance(column, str):  # a range of integers
        ints = np.arange(values.start, values.stop, values.step, dtype=np.int64)
        return _number_block(np.abs(ints), ints < 0, 0, False)
    _, scale, decimals = column
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        x = values * scale
        a = np.abs(x) * 10.0**decimals
    proven = a < _LIMIT  # False for inf and nan
    a = np.where(proven, a, 0.0)
    n = np.rint(a)
    proven &= np.abs(a - np.floor(a) - 0.5) > np.spacing(a)
    if fmt == "json" and decimals > 4:
        proven &= (n == 0) | (n >= 10.0 ** (decimals - 4))
    block = _number_block(n, np.signbit(x), decimals, fmt == "json")
    left = np.flatnonzero(~proven)
    if left.size:
        texts = np.array([text.encode() for text in cells(column, values[left].tolist())])
        width = texts.dtype.itemsize
        if width > block.shape[1]:
            block = np.hstack([np.zeros((len(block), width - block.shape[1]), np.uint8), block])
        block[left] = 0
        block[left, :width] = texts.view(np.uint8).reshape(left.size, width)
    return block


def rows_text(
    columns: Sequence[Any],
    parts: Sequence[Sequence[Any]],
    fmt: str,
    cells: Callable[[Any, Sequence[Any]], list[str]],
    template: str,
    separator: str,
) -> str:
    """The rows of ``parts`` (one slice per column) as the list path prints
    them: ``template`` with each row's cells, rows joined by ``separator``."""
    rows = len(parts[0])

    def constant(piece: str) -> np.ndarray:
        data = np.frombuffer(piece.encode(), np.uint8)
        return np.broadcast_to(data, (rows, len(data)))

    first, *pieces = template.split("%s")
    pieces[-1] += separator
    blocks = [constant(first)]
    for column, values, piece in zip(columns, parts, pieces, strict=True):
        blocks += [cell_block(column, values, fmt, cells), constant(piece)]
    # C order whatever the blocks' order, so the mask reads the rows in turn
    text = np.empty((rows, sum(block.shape[1] for block in blocks)), np.uint8)
    np.concatenate(blocks, axis=1, out=text)
    if separator:  # joined, not terminated
        text[-1, text.shape[1] - len(separator.encode()) :] = 0
    flat = text.ravel()
    return flat[flat != 0].tobytes().decode()
