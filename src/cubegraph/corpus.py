"""The corpus reader of `verify-corpus`: exact checks of claimed solutions.

A corpus is a CSV file whose header names the columns k, x, y and z.  It is
read a block of whole lines at a time, with newline="" so that its lines end
at \\n, \\r\\n or \\r, as csv.reader counts them, and with
errors="surrogateescape", so that a byte that is not UTF-8 arrives as a lone
surrogate, which does not encode.  One encode per block finds such a byte or
a NUL.  Only then is each line of the block decoded again on its own, so the
bad line raises only when it is reached, after every record before it, and a
decode error's position counts from the start of that line.  A byte-order
mark is not part of the first column's name: it is dropped from line 1 after
this check, so its 3 bytes count in a position there.

Only a quote lets a record span lines.  So each line is one record, split at
its commas, up to the first block that holds a quote, or a byte that is not
UTF-8, or more bytes than csv.field_size_limit() (only such a block can hold
a longer field); from that block on, one csv.reader reads the rest of the
file.  A split block is plain when it holds only digits, commas, "-" and
line ends, and no field starts with 0 or -0.  Then str() spells every field
that int() accepts as it is written, so a valid row of a plain block prints
its terms as they were read; any other row prints the ints it parsed.  Each
row's line is written as soon as the row is checked, and a valid row's line
ends in the _TAILS string of its terms' signed entries.
"""

import csv
from functools import partial
from itertools import chain, count, repeat
from operator import attrgetter, itemgetter

from . import residues


def _row_dict(header: list[str], row: list[str]) -> dict:
    """The row as csv.DictReader shows it: a repeated name keeps its last
    cell, a short row's missing cells are None, a long row's extra cells are
    listed under the key None."""
    d = dict(zip(header, row))
    if len(header) < len(row):
        d[None] = row[len(header):]
    for name in header[len(row):]:
        d[name] = None
    return d


_READ_SIZE = 1 << 13  # larger blocks were no faster


class _NulLine(ValueError):
    """A corpus line holding a NUL.  csv.reader stops at one on Python 3.10
    and reads it as data on 3.11+, so the reader stops there on each."""


def _checked(line):
    """line decoded again from its own bytes, so that a byte that is not
    UTF-8 raises with its position in the line; a NUL raises _NulLine."""
    line = line.encode("utf-8", "surrogateescape").decode("utf-8")
    if "\0" in line:
        raise _NulLine("line contains NUL")
    return line


def _block(lines):
    """The lines of a block, each checked on its own if the block holds a
    NUL or a byte that is not UTF-8, and the block's UTF-8 bytes, or None if
    it is not UTF-8: only csv.reader reads such a block."""
    try:  # UTF-8 spells U+0000 alone with a 0 byte
        data = "".join(lines).encode("utf-8")
    except UnicodeEncodeError:
        return map(_checked, lines), None
    return (map(_checked, lines) if b"\0" in data else lines), data


def _blocks(fh):
    """_block of each block of the text file fh, opened as the module
    docstring says, with line 1 checked and its byte-order mark dropped."""
    blocks = iter(partial(fh.readlines, _READ_SIZE), [])
    first = next(blocks, [])
    if first:
        first[0] = _checked(first[0]).removeprefix("\ufeff")
    return map(_block, chain([first], blocks))


_PLAIN_BYTES = b"0123456789,-\r\n"  # all a plain block holds: translate deletes them
_FIELD_STARTS = bytes.maketrans(b"-\r\n", b",,,")  # then ",0" finds 0... and -0... alike


def _plain(data):
    """Whether a block, by its UTF-8 bytes, holds only digits, commas, "-"
    and line ends, and no field that starts with 0 or -0."""
    return (not data.translate(None, _PLAIN_BYTES)
            and b",0" not in b"," + data.translate(_FIELD_STARTS))


def _split(lines, data, limit):
    """The records of a block's lines as csv.reader reads them: each line is
    one, split at its commas, but a blank line gives [""], not [].  None when
    only csv.reader can read them: data, the block's UTF-8 bytes, is None
    (the block is not UTF-8), holds a quote, which lets a record span lines,
    or is longer than limit, so that a field may be over it."""
    if data is None or b'"' in data or len(data) > limit:
        return None
    return map(str.split, map(str.rstrip, lines, repeat("\r\n")), repeat(","))


# the end of a valid row's line, by its terms' signed entries: their sum is k mod 9
_TAILS = {e: "OK class={} path={} signed={}\n".format(sum(e) % 9, *labels)
          for e, labels in residues.LABELS.items()}


def verify(path, out) -> tuple[int, int, int]:
    """Check each row of the corpus at path and write a line for it on out:
    OK with its class and labels, INVALID with the exact cube sum, or a parse
    error.  Returns (valid, invalid, parse errors).  A corpus that cannot be
    read, lacks a column, or holds a record that is not CSV or not UTF-8
    raises ValueError or OSError, naming the file and line, after the lines
    of every record before it."""
    parse_errors = invalid = valid = 0
    limit, entry, tails, write = csv.field_size_limit(), residues.SIGNED_ENTRY, _TAILS, out.write
    i = n = 0  # the line of the last record; the lines before csv.reader's first
    reader = header = None
    blank = [""]  # a blank line's record
    try:  # an error that stops the run names file and line
        with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
            blocks = _blocks(fh)
            for lines, data in blocks:
                records = _split(lines, data, limit)
                if records is None:  # csv.reader reads the rest of the file
                    n, blank, plain = i, [], False
                    reader = csv.reader(chain(lines, chain.from_iterable(
                        map(itemgetter(0), blocks))))
                    records = zip(reader, map(n.__add__, map(attrgetter("line_num"),
                                                             repeat(reader))))
                else:
                    plain, records = _plain(data), zip(records, count(i + 1))
                if header is None:  # the first record, even a blank one
                    header, i = next(records, ([], i))
                    if not {"k", "x", "y", "z"} <= set(header):
                        raise ValueError(f"{path}: header must contain columns k,x,y,z")
                    # a repeated name: the last wins
                    column = {name: j for j, name in enumerate(header)}
                    ik, ix, iy, iz = column["k"], column["x"], column["y"], column["z"]
                for row, i in records:  # i: the line a record ends on, if it spans lines
                    try:  # int skips whitespace, but not the separators \x1c-\x1f
                        k, x, y, z = int(row[ik]), int(row[ix]), int(row[iy]), int(row[iz])
                    except (IndexError, ValueError):
                        try:  # a short row raises IndexError
                            k, x, y, z = (int(row[ik].strip()), int(row[ix].strip()),
                                          int(row[iy].strip()), int(row[iz].strip()))
                        except (IndexError, ValueError):
                            if row != blank:
                                parse_errors += 1
                                write(f"line {i}: parse error in {_row_dict(header, row)!r}\n")
                            continue
                    if (total := x * x * x + y * y * y + z * z * z) != k:
                        invalid += 1
                        write(f"line {i}: k={k} ({x},{y},{z}) "
                              f"INVALID sum={residues.exact_str(total)}\n")
                        continue
                    valid += 1
                    tail = tails[entry[x < 0][x % 9], entry[y < 0][y % 9], entry[z < 0][z % 9]]
                    if plain:  # each term as it was read: str() would spell it the same
                        write(f"line {i}: k={row[ik]} ({row[ix]},{row[iy]},{row[iz]}) {tail}")
                    else:
                        write(f"line {i}: k={k} ({x},{y},{z}) {tail}")
    except csv.Error as err:  # e.g. a field over csv.field_size_limit()
        raise ValueError(f"{path}: line {n + reader.line_num}: {err}") from None
    except (UnicodeDecodeError, _NulLine) as err:  # from the line after the last one read
        read = i if reader is None else n + reader.line_num
        raise ValueError(f"{path}: line {read + 1}: {err}") from None
    return valid, invalid, parse_errors
