"""The corpus reader of `verify-corpus`: exact checks of claimed solutions.

A corpus is a CSV file whose header names the columns k, x, y and z.  It is
read a block of whole lines at a time, with newline="" so that its lines end
at \\n, \\r\\n or \\r, as csv.reader counts them, and with
errors="surrogateescape", so that a byte that is not UTF-8 arrives as a lone
surrogate, which does not encode.  One encode per block finds such a byte or
a NUL.  Only then is each line of the block decoded again on its own, so the
bad line raises only when csv.reader asks for it, after every record before
it, and a decode error's position counts from the start of that line.  A
byte-order mark is not part of the first column's name: it is dropped from
line 1 after this check, so its 3 bytes count in a position there.

A block is plain when it holds only digits, commas, "-" and line ends, no
field starts with 0 or -0, and no block so far has held a quote, which could
open a field that runs on into this block.  Then each line is one record,
and str() spells every field that int() accepts exactly as it is written, so
a valid row whose last line lies in a plain block prints its terms as they
were read.  Any other row prints the ints it parsed.
"""

import csv

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


_READ_SIZE = 1 << 14  # 64 KiB blocks were no faster and raised peak RSS


class _NulLine(ValueError):
    """A corpus line holding a NUL.  csv.reader stops at one on Python 3.10
    and reads it as data on 3.11+, so _utf8_lines stops there on each."""


def _checked(line):
    """line decoded again from its own bytes, so that a byte that is not
    UTF-8 raises with its position in the line; a NUL raises _NulLine."""
    line = line.encode("utf-8", "surrogateescape").decode("utf-8")
    if "\0" in line:
        raise _NulLine("line contains NUL")
    return line


_PLAIN_BYTES = b"0123456789,-\r\n"  # all a plain block holds: translate deletes them
_FIELD_STARTS = bytes.maketrans(b"-\r\n", b",,,")  # then ",0" finds 0... and -0... alike


def _utf8_lines(fh, plain=None):
    """The lines of the text file fh, opened as the module docstring says, a
    block of whole lines at a time; a line that is not UTF-8 or holds a NUL
    raises when it is reached.  Given a one-item list plain, each block sets
    plain[0] before its first line is yielded: True when the block is plain."""
    bom = "\ufeff"
    quoted = False
    while lines := fh.readlines(_READ_SIZE):
        try:  # UTF-8 spells U+0000 alone with a 0 byte
            data = "".join(lines).encode("utf-8")
            clean = b"\0" not in data
        except UnicodeEncodeError:
            data, clean = b'"', False  # its quotes cannot be seen: as if it had one
        if plain is not None:
            quoted = quoted or b'"' in data
            plain[0] = (not quoted and not data.translate(None, _PLAIN_BYTES)
                        and b",0" not in b"," + data.translate(_FIELD_STARTS))
        lines = iter(lines if clean else map(_checked, lines))
        yield next(lines).removeprefix(bom)
        bom = ""
        yield from lines


def verify(path, out) -> tuple[int, int, int]:
    """Check each row of the corpus at path and write a line for it on out:
    OK with its class and labels, INVALID with the exact cube sum, or a parse
    error.  Returns (valid, invalid, parse errors).  A corpus that cannot be
    read, lacks a column, or holds a record that is not CSV or not UTF-8
    raises ValueError or OSError, naming the file and line, after the lines
    of every record before it."""
    parse_errors = invalid = valid = 0
    plain = [False]  # whether the block of the row's last line is plain
    tails = {}  # the OK line's end, by the (path, signed) labels, which decide the class
    try:  # an error that stops the run names file and line
        with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
            reader = csv.reader(_utf8_lines(fh, plain))
            header = next(reader, None)  # the first record, even a blank one
            if header is None or not {"k", "x", "y", "z"} <= set(header):
                raise ValueError(f"{path}: header must contain columns k,x,y,z")
            column = {name: i for i, name in enumerate(header)}  # a repeated name: the last wins
            ik, ix, iy, iz = column["k"], column["x"], column["y"], column["z"]
            for row in reader:
                if not row:
                    continue  # a blank line
                # the file line the record ends on: a quoted field can span lines
                i = reader.line_num
                try:  # a short row raises IndexError
                    try:
                        k, x, y, z = int(row[ik]), int(row[ix]), int(row[iy]), int(row[iz])
                    except ValueError:  # int skips whitespace, but not the separators \x1c-\x1f
                        k, x, y, z = (int(row[ik].strip()), int(row[ix].strip()),
                                      int(row[iy].strip()), int(row[iz].strip()))
                except (IndexError, ValueError):
                    parse_errors += 1
                    out.write(f"line {i}: parse error in {_row_dict(header, row)!r}\n")
                    continue
                try:
                    key = residues.labels(x, y, z, k)  # same for any term order
                except residues.CubeSumMismatch as err:
                    invalid += 1
                    out.write(f"line {i}: k={k} ({x},{y},{z}) "
                              f"INVALID sum={residues.exact_str(err.actual_sum)}\n")
                    continue
                valid += 1
                tail = tails.get(key)
                if tail is None:
                    tail = tails[key] = "OK class={} path={} signed={}\n".format(k % 9, *key)
                if plain[0]:  # each term as it was read: str() would spell it the same
                    out.write(f"line {i}: k={row[ik]} ({row[ix]},{row[iy]},{row[iz]}) {tail}")
                else:
                    out.write(f"line {i}: k={k} ({x},{y},{z}) {tail}")
    except csv.Error as err:  # e.g. a field over csv.field_size_limit()
        raise ValueError(f"{path}: line {reader.line_num}: {err}") from None
    except (UnicodeDecodeError, _NulLine) as err:  # from the line after the last one read
        raise ValueError(f"{path}: line {reader.line_num + 1}: {err}") from None
    return valid, invalid, parse_errors
