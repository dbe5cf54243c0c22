"""The one codec behind sqkit's binary artifacts (SQPM, SQSC, SQD2, SQE1),
plus the atomic writers, the one CSV writer and reader and the text reader.

An artifact is a 4-byte magic tag, little-endian struct fields, optional
string tables (uint16 byte length, then UTF-8, per entry) and fixed-shape
arrays, with nothing after the last array. Reader checks every length
against the bytes present and raises the loader's own error type. SQE1
embedding files, read by the thousand, skip it: frontend.load_precomputed
checks their one header and size itself. An SQF1 feature store's header
goes through Reader; frontend._StoredSplit checks the rows it reads.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import shutil
import struct
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

import numpy as np

from .errors import SqkitError, ValidationError


def pack_strings(strings: Iterable[str]) -> bytes:
    """A string table: uint16 byte length plus UTF-8 bytes per entry."""
    encoded = [text.encode("utf-8") for text in strings]
    return b"".join(struct.pack("<H", len(raw)) + raw for raw in encoded)


@contextlib.contextmanager
def atomic_open(path: str | Path, mode: str = "wb", **kwargs) -> Iterator[IO]:
    """Open a temp file beside path and rename it over path once the block
    succeeds; a failure removes the temp file, so path is whole or untouched."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: str | Path, header: Iterable[str], rows: Iterable[Iterable[str]]) -> None:
    """Write a CSV file whole or not at all (temp file plus rename)."""
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def open_text(path: str | Path, error: Callable[[str], SqkitError] = ValidationError) -> io.StringIO:
    """A UTF-8 text file read whole, as open(path, encoding="utf-8", newline="")
    reads it; a byte that is not UTF-8 raises error naming the file."""
    try:
        return io.StringIO(Path(path).read_bytes().decode("utf-8"), newline="")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from None


def read_csv_rows(path: str | Path, columns: tuple[str, ...]) -> list[dict[str, str]]:
    """The rows of a CSV file whose header names every column; a missing
    column or a row shorter than the header raises ValidationError."""
    with open_text(path) as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise ValidationError(f"{path}: header lacks column(s) {', '.join(missing)}")
        rows = []
        for row in reader:
            if None in row.values():
                raise ValidationError(f"{path} line {reader.line_num}: fewer fields than the header")
            rows.append(row)
    return rows


@contextlib.contextmanager
def atomic_dir(path: str | Path) -> Iterator[Path]:
    """Yield an empty temp dir beside path and move it into place as path
    (replacing any old path) once the block succeeds; a failure removes the
    temp dir. A kill leaves path whole or absent, plus at worst a temp dir
    that nothing reads."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    shutil.rmtree(tmp, ignore_errors=True)  # a killed run's, if the pid came round again
    try:
        tmp.mkdir(parents=True)
        yield tmp
        shutil.rmtree(path, ignore_errors=True)
        os.replace(tmp, path)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def write_artifact(path: str | Path, magic: bytes, fmt: str, fields: tuple, *payload: bytes) -> None:
    """Write magic, the header fields packed with fmt, then each payload chunk."""
    with atomic_open(path) as fh:
        fh.write(magic + struct.pack(fmt, *fields))
        fh.writelines(payload)


class Reader:
    """Sequential, bounds-checked reads over one artifact's bytes; failures raise `error`."""

    def __init__(self, data: bytes, path: str | Path, error: type[SqkitError], magic: bytes, what: str):
        if data[:4] != magic:
            raise error(f"{path}: not a {what} file")
        self.data, self.path, self.error, self.what, self.pos = data, path, error, what, 4

    def _take(self, n: int) -> int:
        start, left = self.pos, len(self.data) - self.pos
        if n > left:
            raise self.error(f"{self.path}: truncated {self.what} file ({n} bytes needed at {start}, {left} left)")
        self.pos += n
        return start

    def fields(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.data, self._take(struct.calcsize(fmt)))

    def strings(self, count: int) -> list[str]:
        out = []
        for _ in range(count):
            (length,) = self.fields("<H")
            start = self._take(length)
            try:
                out.append(self.data[start : start + length].decode("utf-8"))
            except UnicodeDecodeError:
                raise self.error(f"{self.path}: string {len(out)} of the {self.what} file is not UTF-8") from None
        return out

    def array(self, dtype: str | np.dtype, shape: tuple[int, ...]) -> np.ndarray:
        """The next array, as a read-only view of the file bytes."""
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        return np.frombuffer(self.data, dtype, count, self._take(count * dtype.itemsize)).reshape(shape)

    def end(self) -> None:
        if self.pos != len(self.data):
            raise self.error(f"{self.path}: {len(self.data) - self.pos} trailing bytes after the {self.what} payload")
