"""Checksummed spill containers: the on-disk format of the out-of-core path.

A *spill file* holds one or more named numpy arrays behind a
checksummed header, written atomically and reopened as zero-copy
``np.memmap`` views.  It is the storage layer under
:class:`repro.graph.csr.ShardedCSRStore` and its
:class:`~repro.graph.csr.LevelSpiller` — everything the engine spills
when a run spills its levels out of core.

Layout (all little-endian)::

    offset 0   magic            8 bytes   b"RSPILL1\\n"
    offset 8   header length    4 bytes   uint32, JSON byte count
    offset 12  header JSON      variable  {"version", "arrays": [...]}
    ...        payload          each array at its 64-byte-aligned offset

The header's ``arrays`` entries carry ``name``/``dtype``/``shape``/
``offset`` (relative to the payload start)/``nbytes``/``crc32``.  On
open the magic, header, file size, and every array's CRC-32 are
verified before any view is handed out; any mismatch — bad magic, torn
payload, bit rot — raises :class:`~repro.errors.SpillError`.  Combined
with the atomic write (:mod:`repro.util.atomicio`) this means a reader
either gets the exact arrays that were written or a loud error, never
silently truncated data.

The writer consults a :class:`~repro.resilience.FaultPlan` for disk
faults (``enospc``, ``torn_write``) so the chaos suite can exercise
both failure edges deterministically.
"""

from __future__ import annotations

import errno
import json
import os
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.errors import SpillError
from repro.util.atomicio import atomic_write

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.resilience.faults import FaultPlan

__all__ = [
    "SPILL_MAGIC",
    "SPILL_VERSION",
    "write_spill",
    "read_spill",
    "spill_nbytes",
    "scratch_memmap",
]

SPILL_MAGIC = b"RSPILL1\n"
SPILL_VERSION = 1

#: Payload arrays start on this alignment so memmap views are
#: cache-line aligned regardless of header length.
_ALIGN = 64

_HEADER_FIXED = len(SPILL_MAGIC) + 4  # magic + uint32 header length


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def write_spill(
    path: str | os.PathLike,
    arrays: Mapping[str, np.ndarray],
    *,
    faults: "FaultPlan | None" = None,
    artifact: str = "spill",
    index: int = 0,
) -> int:
    """Atomically write named arrays as one checksummed spill file.

    Returns the file's total byte size.  ``faults`` hooks the chaos
    suite's disk faults: an ``enospc`` plan entry for ``(artifact,
    index)`` raises ``OSError(ENOSPC)`` before any byte lands, a
    ``torn_write`` entry truncates the file *after* the atomic rename
    (modeling at-rest corruption the checksum must catch).
    """
    if not arrays:
        raise ValueError("write_spill needs at least one array")
    fault = faults.decide_disk(artifact, index) if faults is not None else None
    if fault is not None and fault.kind == "enospc":
        raise OSError(
            errno.ENOSPC, f"injected ENOSPC for {artifact}[{index}]", str(path)
        )

    contiguous = {
        name: np.ascontiguousarray(arr) for name, arr in arrays.items()
    }
    entries = []
    # Two-pass header sizing: entry offsets depend on the payload start,
    # which depends on the header length, which depends on the entries.
    # Offsets are relative to the payload start, so one pass computes
    # them and a second serializes the now-stable header.
    offset = 0
    for name, arr in contiguous.items():
        offset = _align(offset)
        entries.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": int(arr.nbytes),
                "crc32": zlib.crc32(arr.view(np.uint8).reshape(-1)) & 0xFFFFFFFF,
            }
        )
        offset += arr.nbytes
    header = json.dumps(
        {"version": SPILL_VERSION, "arrays": entries}, sort_keys=True
    ).encode("utf-8")
    payload_start = _align(_HEADER_FIXED + len(header))
    total = payload_start + offset

    with atomic_write(path, mode="wb") as fh:
        fh.write(SPILL_MAGIC)
        fh.write(np.uint32(len(header)).tobytes())
        fh.write(header)
        pos = _HEADER_FIXED + len(header)
        for entry, arr in zip(entries, contiguous.values()):
            start = payload_start + entry["offset"]
            fh.write(b"\0" * (start - pos))
            fh.write(memoryview(arr).cast("B"))
            pos = start + arr.nbytes

    if fault is not None and fault.kind == "torn_write":
        from repro.resilience.faults import truncate_file

        truncate_file(path, keep_fraction=fault.keep_fraction)
    return total


def _read_header(path: Path) -> tuple[dict, int]:
    """Parse and sanity-check the header; returns (header, payload_start)."""
    try:
        size = path.stat().st_size
        with open(path, "rb") as fh:
            magic = fh.read(len(SPILL_MAGIC))
            if magic != SPILL_MAGIC:
                raise SpillError(f"{path}: not a spill file (bad magic)")
            raw_len = fh.read(4)
            if len(raw_len) < 4:
                raise SpillError(f"{path}: truncated spill header")
            header_len = int(np.frombuffer(raw_len, dtype=np.uint32)[0])
            raw = fh.read(header_len)
            if len(raw) < header_len:
                raise SpillError(f"{path}: truncated spill header")
    except OSError as exc:
        raise SpillError(f"{path}: cannot read spill file: {exc}") from exc
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpillError(f"{path}: corrupt spill header: {exc}") from exc
    if header.get("version") != SPILL_VERSION:
        raise SpillError(
            f"{path}: unsupported spill version {header.get('version')!r}"
        )
    payload_start = _align(_HEADER_FIXED + header_len)
    for entry in header.get("arrays", []):
        end = payload_start + entry["offset"] + entry["nbytes"]
        if end > size:
            raise SpillError(
                f"{path}: torn spill file — array {entry['name']!r} needs "
                f"{end} bytes, file has {size}"
            )
    return header, payload_start


def read_spill(
    path: str | os.PathLike,
    *,
    verify: bool = True,
    writable: bool = False,
) -> dict[str, np.ndarray]:
    """Reopen a spill file as named ``np.memmap`` views.

    With ``verify=True`` (the default) every array's CRC-32 is
    recomputed — one streaming pass through the page cache — before any
    view is returned; a mismatch raises
    :class:`~repro.errors.SpillError`.  ``writable=False`` maps
    copy-on-write (``mode="c"``): in-place mutation stays private to
    this process and never dirties the spill file.
    """
    p = Path(os.fspath(path))
    header, payload_start = _read_header(p)
    out: dict[str, np.ndarray] = {}
    mode = "r+" if writable else "c"
    for entry in header.get("arrays", []):
        view = np.memmap(
            p,
            dtype=np.dtype(entry["dtype"]),
            mode=mode,
            offset=payload_start + entry["offset"],
            shape=tuple(entry["shape"]),
        )
        if verify:
            crc = zlib.crc32(view.reshape(-1).view(np.uint8)) & 0xFFFFFFFF
            if crc != entry["crc32"]:
                raise SpillError(
                    f"{p}: checksum mismatch on array {entry['name']!r} "
                    f"(stored {entry['crc32']:#010x}, computed {crc:#010x})"
                )
        out[entry["name"]] = view
    return out


def spill_nbytes(path: str | os.PathLike) -> int:
    """Total payload bytes recorded in a spill file's header."""
    header, _ = _read_header(Path(os.fspath(path)))
    return sum(e["nbytes"] for e in header.get("arrays", []))


def scratch_memmap(
    path: str | os.PathLike, *, dtype, shape: tuple[int, ...]
) -> np.ndarray:
    """A writable file-backed scratch array (plain ``.npy``, no checksum).

    For intra-level temporaries (streamed scores, relabel buffers) that
    live and die inside one phase: they need file backing so the pages
    are evictable, not durability — a crash simply recomputes them.
    """
    return np.lib.format.open_memmap(
        os.fspath(path), mode="w+", dtype=dtype, shape=shape
    )
