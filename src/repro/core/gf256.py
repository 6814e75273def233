"""Galois field GF(2^8) arithmetic for Q-RLNC.

XNC performs all coding operations in GF(2^8) (the paper sets ``m = 8`` so
each symbol is one byte, chosen to enable SIMD acceleration on the CPE's ARM
cores, §4.3.1/§5.2).  This module provides:

* scalar operations (``gf_mul``, ``gf_inv``) and the byte-at-a-time
  buffer kernels of the pure-Python "no-SIMD" code path, and
* vectorised operations over whole byte arrays (``gf_mul_vec``,
  ``gf_addmul_vec``) built on numpy table lookups, standing in for the ARM
  NEON ``vmull_p8`` path of the paper.

The field is constructed from the AES polynomial ``x^8 + x^4 + x^3 + x + 1``
(0x11B) with generator 3.  Addition in GF(2^8) is XOR.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GF_POLY",
    "GF_GENERATOR",
    "GF_ORDER",
    "gf_mul",
    "gf_inv",
    "gf_mul_vec",
    "gf_addmul_vec",
    "gf_mul_bytes",
    "gf_addmul_bytes",
    "gf_mul_scalar_buffer",
    "gf_addmul_scalar_buffer",
    "gf_matrix_rank",
]

#: Irreducible polynomial for GF(2^8) (AES polynomial).
GF_POLY = 0x11B
#: Multiplicative generator of GF(2^8)* under GF_POLY.
GF_GENERATOR = 3
#: Field order.
GF_ORDER = 256


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Build exp/log tables for GF(2^8) under GF_POLY with generator 3."""
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply x by the generator (3): x*3 = x*2 + x
        x2 = x << 1
        if x2 & 0x100:
            x2 ^= GF_POLY
        x = x2 ^ x
    # duplicate so exp[log[a] + log[b]] never needs a modulo
    exp[255:510] = exp[0:255]
    return exp, log


_EXP, _LOG = _build_tables()

#: Full 256x256 multiplication table.  64 KiB; lets the vectorised path do a
#: single fancy-index per multiply, which is the numpy analog of the NEON
#: polynomial-multiply intrinsic.
_MUL_TABLE = np.zeros((256, 256), dtype=np.uint8)
_nz = np.arange(1, 256)
_MUL_TABLE[1:, 1:] = _EXP[(_LOG[_nz][:, None] + _LOG[_nz][None, :])]

#: Multiplicative inverse table (index 0 is unused and kept at 0).
_INV_TABLE = np.zeros(256, dtype=np.uint8)
_INV_TABLE[1:] = _EXP[255 - _LOG[_nz]]


def gf_mul(a: int, b: int) -> int:
    """Multiply two field elements (scalar path)."""
    if a == 0 or b == 0:
        return 0
    return int(_EXP[_LOG[a] + _LOG[b]])


def gf_inv(a: int) -> int:
    """Multiplicative inverse of ``a``; raises ZeroDivisionError for 0."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return int(_INV_TABLE[a])


#: Below this many bytes the ``bytes.translate`` path beats numpy fancy
#: indexing (fixed ufunc dispatch overhead dominates tiny arrays).
_SMALL_BUFFER_LIMIT = 256

#: Lazily-memoised 256-byte translation tables, one per coefficient — the
#: row ``_MUL_TABLE[coeff]`` exported once as bytes for ``bytes.translate``.
_TRANSLATE_TABLES: dict = {}  # lint: shard-safe(pure memo of _MUL_TABLE rows; at most 256 entries, byte-identical on every shard)


def _translate_table(coeff: int) -> bytes:
    table = _TRANSLATE_TABLES.get(coeff)
    if table is None:
        table = _TRANSLATE_TABLES[coeff] = _MUL_TABLE[coeff].tobytes()
    return table


def gf_mul_vec(data: np.ndarray, coeff: int) -> np.ndarray:
    """Multiply every byte of ``data`` by ``coeff`` (vectorised path)."""
    if coeff == 0:
        return np.zeros_like(data)
    if coeff == 1:
        return data.copy()
    if data.ndim == 1 and data.size < _SMALL_BUFFER_LIMIT:
        product = data.tobytes().translate(_translate_table(coeff))
        return np.frombuffer(bytearray(product), dtype=np.uint8)
    return _MUL_TABLE[coeff][data]


def gf_addmul_vec(acc: np.ndarray, data: np.ndarray, coeff: int) -> None:
    """In-place ``acc ^= coeff * data`` over byte arrays (vectorised path).

    This is the inner loop of RLNC encoding: one table lookup plus one XOR
    per source packet, mirroring the NEON implementation in §5.2.
    """
    if coeff == 0:
        return
    if coeff == 1:
        np.bitwise_xor(acc, data, out=acc)
        return
    if acc.ndim == 1 and acc.size < _SMALL_BUFFER_LIMIT:
        n = acc.size
        product = data.tobytes().translate(_translate_table(coeff))
        mixed = int.from_bytes(acc.tobytes(), "little") ^ int.from_bytes(product, "little")
        acc[...] = np.frombuffer(mixed.to_bytes(n, "little"), dtype=np.uint8)
        return
    np.bitwise_xor(acc, _MUL_TABLE[coeff][data], out=acc)


def gf_mul_bytes(data: bytes, coeff: int) -> bytes:
    """``coeff * data`` over a byte string (small-buffer fast path).

    One C-level ``bytes.translate`` against the cached multiplication row;
    the preferred kernel for coefficient vectors and short payloads.
    """
    if coeff == 0:
        return bytes(len(data))
    if coeff == 1:
        return bytes(data)
    return data.translate(_translate_table(coeff))


def gf_addmul_bytes(acc: bytes, data: bytes, coeff: int) -> bytes:
    """Return ``acc ^ coeff * data`` over byte strings of equal length."""
    if len(acc) != len(data):
        raise ValueError("acc/data length mismatch")
    if coeff == 0:
        return bytes(acc)
    if coeff == 1:
        product = data
    else:
        product = data.translate(_translate_table(coeff))
    mixed = int.from_bytes(acc, "little") ^ int.from_bytes(product, "little")
    return mixed.to_bytes(len(acc), "little")


def gf_mul_scalar_buffer(data: bytes, coeff: int) -> bytes:
    """Multiply a byte buffer by ``coeff`` one symbol at a time.

    Deliberately scalar: this is the "without SIMD" code path used by the
    Fig. 14 CPU-cost benchmark.
    """
    if coeff == 0:
        return bytes(len(data))
    if coeff == 1:
        return bytes(data)
    row = _MUL_TABLE[coeff]
    return bytes(int(row[b]) for b in data)


def gf_addmul_scalar_buffer(acc: bytearray, data: bytes, coeff: int) -> None:
    """In-place scalar ``acc ^= coeff * data`` (the "without SIMD" path)."""
    if coeff == 0:
        return
    if coeff == 1:
        for i, b in enumerate(data):
            acc[i] ^= b
        return
    row = _MUL_TABLE[coeff]
    for i, b in enumerate(data):
        acc[i] ^= int(row[b])


def gf_matrix_rank(matrix: np.ndarray) -> int:
    """Rank of a matrix over GF(2^8) via Gaussian elimination.

    Used by tests and the Theorem 4.1 Monte-Carlo benchmark to check how
    often random coefficient matrices are full-rank.
    """
    m = np.array(matrix, dtype=np.uint8, copy=True)
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        inv = gf_inv(int(m[rank, col]))
        m[rank] = gf_mul_vec(m[rank], inv)
        for r in range(rows):
            if r != rank and m[r, col]:
                gf_addmul_vec(m[r], m[rank], int(m[r, col]))
        rank += 1
        if rank == rows:
            break
    return rank
