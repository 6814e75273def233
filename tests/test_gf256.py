"""GF(2^8) arithmetic: field axioms, table consistency, vector kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import gf256
from repro.core.gf256 import (
    gf_addmul_scalar_buffer,
    gf_addmul_vec,
    gf_inv,
    gf_matrix_rank,
    gf_mul,
    gf_mul_scalar_buffer,
    gf_mul_vec,
)

elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


class TestScalarField:
    def test_mul_zero(self):
        for a in range(256):
            assert gf_mul(a, 0) == 0
            assert gf_mul(0, a) == 0

    def test_mul_identity(self):
        for a in range(256):
            assert gf_mul(a, 1) == a

    def test_known_aes_products(self):
        # classic AES-field examples under 0x11B
        assert gf_mul(0x53, 0xCA) == 0x01
        assert gf_mul(0x02, 0x87) == 0x15

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    def test_all_inverses(self):
        for a in range(1, 256):
            assert gf_mul(a, gf_inv(a)) == 1

    @given(elements, elements)
    def test_mul_commutative(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    @given(elements, elements, elements)
    def test_mul_associative(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    @given(elements, elements, elements)
    def test_distributive(self, a, b, c):
        # addition in GF(2^8) is XOR
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


class TestVectorKernels:
    def test_mul_vec_matches_scalar(self):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 256, 257, dtype=np.uint8)
        for coeff in (0, 1, 2, 37, 255):
            vec = gf_mul_vec(data, coeff)
            ref = np.array([gf_mul(int(b), coeff) for b in data], dtype=np.uint8)
            assert np.array_equal(vec, ref)

    def test_mul_vec_zero_and_one(self):
        data = np.arange(256, dtype=np.uint8)
        assert not gf_mul_vec(data, 0).any()
        assert np.array_equal(gf_mul_vec(data, 1), data)

    def test_mul_vec_one_returns_copy(self):
        data = np.arange(8, dtype=np.uint8)
        out = gf_mul_vec(data, 1)
        out[0] = 99
        assert data[0] == 0

    def test_addmul_vec_accumulates(self):
        acc = np.zeros(16, dtype=np.uint8)
        data = np.arange(16, dtype=np.uint8)
        gf_addmul_vec(acc, data, 3)
        gf_addmul_vec(acc, data, 3)
        # x + x = 0 in characteristic 2
        assert not acc.any()

    def test_addmul_vec_coeff_zero_noop(self):
        acc = np.arange(16, dtype=np.uint8)
        before = acc.copy()
        gf_addmul_vec(acc, np.full(16, 7, np.uint8), 0)
        assert np.array_equal(acc, before)

    def test_scalar_buffer_matches_vec(self):
        rng = np.random.default_rng(2)
        data = bytes(rng.integers(0, 256, 100, dtype=np.uint8))
        for coeff in (0, 1, 5, 254):
            ref = gf_mul_vec(np.frombuffer(data, np.uint8), coeff).tobytes()
            assert gf_mul_scalar_buffer(data, coeff) == ref

    def test_addmul_scalar_buffer_matches_vec(self):
        rng = np.random.default_rng(3)
        data = bytes(rng.integers(0, 256, 64, dtype=np.uint8))
        acc_b = bytearray(rng.integers(0, 256, 64, dtype=np.uint8))
        acc_v = np.frombuffer(bytes(acc_b), np.uint8).copy()
        gf_addmul_scalar_buffer(acc_b, data, 77)
        gf_addmul_vec(acc_v, np.frombuffer(data, np.uint8), 77)
        assert bytes(acc_b) == acc_v.tobytes()


class TestLinearAlgebra:
    def test_identity_rank(self):
        assert gf_matrix_rank(np.eye(5, dtype=np.uint8)) == 5

    def test_duplicate_rows_rank(self):
        m = np.array([[1, 2, 3], [1, 2, 3], [0, 1, 0]], dtype=np.uint8)
        assert gf_matrix_rank(m) == 2

    def test_zero_matrix_rank(self):
        assert gf_matrix_rank(np.zeros((3, 3), dtype=np.uint8)) == 0

    def test_random_square_usually_full_rank(self):
        rng = np.random.default_rng(4)
        full = 0
        for _ in range(50):
            m = rng.integers(1, 256, (8, 8), dtype=np.uint8)
            if gf_matrix_rank(m) == 8:
                full += 1
        assert full >= 45  # random GF(256) matrices are almost surely full rank


class TestTables:
    def test_exp_log_consistency(self):
        for a in range(1, 256):
            assert gf256._EXP[gf256._LOG[a]] == a

    def test_exp_periodicity(self):
        assert np.array_equal(gf256._EXP[:255], gf256._EXP[255:510])

    def test_mul_table_row_zero(self):
        assert not gf256._MUL_TABLE[0].any()
        assert not gf256._MUL_TABLE[:, 0].any()

    def test_mul_table_symmetric(self):
        assert np.array_equal(gf256._MUL_TABLE, gf256._MUL_TABLE.T)
