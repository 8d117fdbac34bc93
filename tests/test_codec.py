"""GF(2) codec layer: encoding algebra, exhaustive decoder oracles, the
LDPC construction, and matrix-file loading."""

import hashlib
import itertools
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import cli_env
from hypothesis import given, settings, strategies as st

from ocbsim import codec


def hamming_codeword_oracle(d):
    """Systematic (7,4) codeword from the standard parity equations."""
    d1, d2, d3, d4 = d
    p1 = d1 ^ d2 ^ d4
    p2 = d1 ^ d3 ^ d4
    p3 = d2 ^ d3 ^ d4
    return np.array([d1, d2, d3, d4, p1, p2, p3], dtype=np.uint8)


def noiseless_llr(codeword, scale=4.0):
    # positive favors bit 0
    return scale * (1.0 - 2.0 * codeword.astype(float))


# ---------------------------------------------------------------------------
# GF(2) linear algebra


def test_gf2_rank_known_cases():
    assert codec.gf2_rank(np.eye(5, dtype=np.uint8)) == 5
    assert codec.gf2_rank(np.zeros((3, 4), dtype=np.uint8)) == 0
    # rows 0 and 1 sum to row 2 over GF(2)
    m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    assert codec.gf2_rank(m) == 2


def column_rref_reference(mat):
    """GF(2) reduced row echelon form one column at a time: swap the first
    row holding the column's bit into place and clear the bit everywhere
    else. Returns (rref, pivot columns)."""
    a = (np.asarray(mat) % 2).astype(np.uint8).copy()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + hits[0]
        a[[r, p]] = a[[p, r]]
        elim = np.nonzero(a[:, c])[0]
        elim = elim[elim != r]
        a[elim] ^= a[r]
        pivots.append(c)
        r += 1
    return a[:r], pivots


def _random_bits(shape, density, seed):
    return (np.random.default_rng(seed).random(shape) < density).astype(np.uint8)


def _assert_matches_column_reference(mat):
    rref, pivots = codec._gf2_rref(mat)
    ref, ref_pivots = column_rref_reference(mat)
    assert (rref.dtype, rref.shape) == (ref.dtype, ref.shape)
    assert rref.tobytes() == ref.tobytes()
    assert pivots == ref_pivots
    assert all(type(p) is int for p in pivots)
    assert codec.gf2_rank(mat) == len(ref_pivots)


# widths 63, 64, 65, 1023 and 1025 straddle the 8- and 64-bit packing boundaries
@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (1, 1), (40, 7), (7, 40), (9, 63),
                                   (9, 64), (9, 65), (70, 64), (12, 1023), (12, 1025)])
@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
def test_gf2_rref_matches_the_column_by_column_reference(shape, density):
    for seed in range(3):
        _assert_matches_column_reference(_random_bits(shape, density, seed))


@pytest.mark.parametrize("shape", [(6, 6), (20, 65), (40, 30)])
def test_gf2_rref_drops_a_dependent_last_row(shape):
    m = _random_bits(shape, 0.3, 1)
    m[-1] = np.bitwise_xor.reduce(m[:-2:2], axis=0)
    assert codec.gf2_rank(m) < shape[0]
    _assert_matches_column_reference(m)


@pytest.mark.parametrize("convert", [lambda m: m.astype(bool), lambda m: 2 + m.astype(np.int64),
                                     lambda m: -m.astype(np.int64)],
                         ids=["bool", "plus-2", "minus-1"])
def test_gf2_rref_reduces_other_entries_mod_2(convert):
    for shape in ((10, 65), (30, 12)):
        m = _random_bits(shape, 0.3, 2)
        _assert_matches_column_reference(convert(m))
        assert codec._gf2_rref(convert(m))[0].tobytes() == codec._gf2_rref(m)[0].tobytes()


# ---------------------------------------------------------------------------
# LinearCode construction


def test_generator_validation():
    with pytest.raises(ValueError):
        codec.LinearCode(np.array([[0, 2], [1, 0]], dtype=np.uint8))
    with pytest.raises(ValueError):
        codec.LinearCode(np.ones((2, 4), dtype=np.uint8))  # K > M
    with pytest.raises(ValueError):
        codec.LinearCode(np.array([[1, 1], [1, 1], [0, 0]], dtype=np.uint8))  # rank 1


@pytest.mark.parametrize("generator,kind", [
    (np.eye(5), "identity"),
    (np.ones((1, 1)), "identity"),
    (np.eye(5)[[1, 0, 2, 3, 4]], "general"),  # K ones, two off the diagonal
    (np.eye(3) + np.eye(3, k=1), "general"),  # the diagonal and more
    (np.eye(6, 5), "general"),  # I_5 above a zero row: M > K
])
def test_only_the_square_identity_generator_decodes_per_bit(generator, kind):
    assert codec.LinearCode(generator.astype(np.uint8)).kind == kind


def test_code_shape_properties():
    ham = codec.hamming74()
    assert (ham.K, ham.M) == (4, 7)
    rep = codec.repetition_code(5)
    assert (rep.K, rep.M) == (1, 5)


def test_codebook_enumeration_matches_parity_oracle():
    book = codec.hamming74().codebook()
    assert book.shape == (16, 7)
    for idx, bits in enumerate(itertools.product([0, 1], repeat=4)):
        # counting order: source word index equals its big-endian value
        src = np.array(bits, dtype=np.uint8)
        assert idx == int("".join(map(str, bits)), 2)
        assert np.array_equal(book[idx], hamming_codeword_oracle(src))


def test_codebook_refuses_large_codes():
    code = codec.identity_code(20)
    with pytest.raises(ValueError):
        code.codebook()


# ---------------------------------------------------------------------------
# encoding


def test_repetition_encode():
    rep3 = codec.repetition_code(3)
    assert np.array_equal(codec.encode(rep3, np.array([1])), [1, 1, 1])
    assert np.array_equal(codec.encode(rep3, np.array([0])), [0, 0, 0])


def test_all_zero_source_maps_to_all_zero_codeword():
    for code in (codec.hamming74(), codec.repetition_code(7), codec.ldpc_code(24)):
        src = np.zeros(code.K, dtype=np.uint8)
        assert not codec.encode(code, src).any()


def test_hamming_encode_specific_word():
    got = codec.encode(codec.hamming74(), np.array([1, 0, 1, 1], dtype=np.uint8))
    assert np.array_equal(got, hamming_codeword_oracle([1, 0, 1, 1]))


def test_encode_length_mismatch():
    with pytest.raises(ValueError):
        codec.encode(codec.hamming74(), np.array([1, 0, 1]))


@given(st.integers(0, 15), st.integers(0, 15))
@settings(max_examples=40, deadline=None)
def test_encode_is_linear_over_gf2(a, b):
    ham = codec.hamming74()
    va = np.array([(a >> i) & 1 for i in range(4)], dtype=np.uint8)
    vb = np.array([(b >> i) & 1 for i in range(4)], dtype=np.uint8)
    lhs = codec.encode(ham, va ^ vb)
    rhs = codec.encode(ham, va) ^ codec.encode(ham, vb)
    assert np.array_equal(lhs, rhs)


def systematic_code(k, parity_rows, seed):
    """A (k + parity_rows, k) code with random parity rows under I_k."""
    rng = np.random.default_rng(seed)
    g = np.vstack([np.eye(k, dtype=np.uint8), rng.integers(0, 2, size=(parity_rows, k), dtype=np.uint8)])
    return codec.LinearCode(g, source_positions=np.arange(k))


@pytest.mark.parametrize("k", [1, 63, 64, 65, 514])
def test_encode_matches_the_integer_product(k):
    # K on both sides of a 64-bit word boundary
    code = systematic_code(k, 37, seed=k)
    g = code.generator.astype(int)
    rng = np.random.default_rng(k + 1)
    src = rng.integers(0, 2, size=(9, k), dtype=np.uint8)
    src[0] = 0
    src[1] = 1
    want = (src.astype(int) @ g.T) % 2
    got = codec.encode(code, src)
    assert got.dtype == np.uint8 and np.array_equal(got, want)
    for t in range(src.shape[0]):
        frame = codec.encode(code, src[t])
        assert frame.shape == (code.M,) and np.array_equal(frame, (g @ src[t].astype(int)) % 2)


def test_encode_accepts_any_dtype_holding_bits():
    ham = codec.hamming74()
    want = codec.encode(ham, np.array([1, 0, 1, 1], dtype=np.uint8))
    for src in ([1, 0, 1, 1], [True, False, True, True], [1.0, 0.0, 1.0, 1.0], np.array([1, 0, 1, 1], dtype=np.int64)):
        assert np.array_equal(codec.encode(ham, src), want)


@pytest.mark.parametrize(
    "bad",
    [[2, 0, 0, 0], [0.5, 0, 0, 0], [3, 0, 0, 0], [-1, 0, 0, 0], [np.nan, 0, 0, 0],
     np.array([0, 0, 2, 0], dtype=np.uint8), np.array([0, 255, 0, 0], dtype=np.uint8)],
    ids=["2", "0.5", "3", "-1", "nan", "uint8-2", "uint8-255"],
)
def test_encode_refuses_entries_other_than_bits(bad):
    bad = np.asarray(bad)
    ham = codec.hamming74()
    with pytest.raises(ValueError, match="0 or 1"):
        codec.encode(ham, bad)
    block = np.zeros((3, 4), dtype=bad.dtype)
    block[2] = bad
    with pytest.raises(ValueError, match="0 or 1"):
        codec.encode(ham, block)


@pytest.mark.parametrize(
    "code",
    [codec.repetition_code(1), codec.repetition_code(3), codec.repetition_code(5), codec.hamming74()],
    ids=["rep1", "rep3", "rep5", "hamming74"],
)
def test_codebook_ml_decisions_match_the_integer_codebook(code):
    srcs = np.array(list(itertools.product([0, 1], repeat=code.K)), dtype=int)
    book = (srcs @ code.generator.astype(int).T) % 2
    assert np.array_equal(code.codebook(), book)
    rng = np.random.default_rng(23)
    llr = rng.normal(0.0, 2.0, size=(300, code.M))
    llr[:20] = np.round(llr[:20])  # integer LLRs make correlation ties
    want = srcs[np.argmax(llr @ (1.0 - 2.0 * book).T, axis=1)]  # first maximum
    assert np.array_equal(codec.decode(code, llr), want)


# ---------------------------------------------------------------------------
# decoding


def test_repetition_majority_rule():
    rep3 = codec.repetition_code(3)
    assert codec.decode(rep3, np.array([2.0, 2.0, -1.0]))[0] == 0  # sum +3 > 0
    assert codec.decode(rep3, np.array([-2.0, -2.0, 1.0]))[0] == 1


def test_llr_tie_breaks_toward_zero():
    assert codec.decode(codec.repetition_code(2), np.array([1.0, -1.0]))[0] == 0
    assert np.array_equal(codec.decode(codec.identity_code(3), np.zeros(3)), [0, 0, 0])
    assert np.array_equal(codec.decode(codec.hamming74(), np.zeros(7)), [0, 0, 0, 0])


def test_decode_length_mismatch():
    with pytest.raises(ValueError):
        codec.decode(codec.hamming74(), np.zeros(6))


@pytest.mark.parametrize(
    "code",
    [codec.repetition_code(1), codec.repetition_code(3), codec.repetition_code(5),
     codec.hamming74(), codec.identity_code(6)],
    ids=["rep1", "rep3", "rep5", "hamming74", "identity6"],
)
def test_noiseless_roundtrip_is_exhaustive(code):
    for bits in itertools.product([0, 1], repeat=code.K):
        src = np.array(bits, dtype=np.uint8)
        cw = codec.encode(code, src)
        assert np.array_equal(codec.decode(code, noiseless_llr(cw)), src)


def test_ml_decoder_corrects_every_single_flip():
    ham = codec.hamming74()
    for bits in itertools.product([0, 1], repeat=4):
        src = np.array(bits, dtype=np.uint8)
        cw = codec.encode(ham, src)
        for pos in range(7):
            flipped = cw.copy()
            flipped[pos] ^= 1
            assert np.array_equal(codec.decode(ham, noiseless_llr(flipped)), src), (
                f"source {bits}, flip at {pos}"
            )


# ---------------------------------------------------------------------------
# LDPC


@pytest.mark.parametrize("n", [96, 4096])
def test_ldpc_structure(n):
    code = codec.ldpc_code(n, seed=0)
    h, g = code.parity, code.generator
    # float32 products go through BLAS and stay exact: each entry is a sum of at most 6 ones
    assert not ((h.astype(np.float32) @ g.astype(np.float32)) % 2).any()
    assert code.K == code.M - codec.gf2_rank(h)
    # (3,6)-regular up to double-edge cancellation: row weight <= 6, col <= 3
    assert h.sum(axis=1).max() <= 6
    assert h.sum(axis=0).max() <= 3


def test_ldpc_same_seed_same_code():
    a = codec.ldpc_code(48, seed=3)
    b = codec.ldpc_code(48, seed=3)
    c = codec.ldpc_code(48, seed=4)
    assert np.array_equal(a.generator, b.generator)
    assert not np.array_equal(a.generator, c.generator)


def test_ldpc_bp_decodes_clean_and_mildly_noisy_words():
    code = codec.ldpc_code(96, seed=1)
    rng = np.random.default_rng(11)
    for _ in range(10):
        src = rng.integers(0, 2, size=code.K, dtype=np.uint8)
        cw = codec.encode(code, src)
        assert np.array_equal(codec.decode(code, noiseless_llr(cw)), src)
        noisy = noiseless_llr(cw) + rng.normal(0.0, 0.8, size=code.M)
        assert np.array_equal(codec.decode(code, noisy), src)


def test_ldpc_requires_even_workable_length():
    with pytest.raises(ValueError):
        codec.ldpc_code(10)
    with pytest.raises(ValueError):
        codec.ldpc_code(25)


# sockets the permutation cannot match, refused before anything is drawn
@pytest.mark.parametrize("n,var_degree,check_degree,match", [
    (1026, 3, 12, "not a multiple of check_degree"),
    (20, 3, 7, "not a multiple of check_degree"),
    (24, 3, 0, "degrees must be >= 1"),
    (24, 0, 6, "degrees must be >= 1"),
])
def test_ldpc_refuses_degrees_its_sockets_cannot_match(n, var_degree, check_degree, match):
    with pytest.raises(ValueError, match=match):
        codec.ldpc_code(n, var_degree=var_degree, check_degree=check_degree)


def test_ldpc_whose_edges_all_cancel_builds_an_uncoded_parity_free_code():
    # one check takes every variable twice, so H has no rows left
    code = codec.ldpc_code(12, var_degree=2, check_degree=24)
    assert code.parity.shape == (0, 12)
    assert np.array_equal(code.generator, np.eye(12, dtype=np.uint8))


def _sha256(a):
    # bit matrices as bytes, index arrays as little-endian int64 on any platform
    a = np.asarray(a)
    return hashlib.sha256(a.astype(np.uint8 if a.dtype == np.uint8 else "<i8").tobytes()).hexdigest()


# the construction's bytes; a change to any of them moves every LDPC sim.csv
_LDPC_DIGESTS = {
    (96, 1): {
        "generator": ((96, 48), "57696930c0265a345f0bd07836ce179c9c3dcd2ff10077c06d370414d013fbc1"),
        "parity": ((48, 96), "4eb9ef11892b35dd2a7fb2380906726b6a6fdc2b031e4a63db0dd28823488400"),
        "source_positions": ((48,), "e634d2f83f889d324d74b6fdd4682f53a7e3d624200015b22a296c1a717de44d"),
        "slot_var": ((6, 49), "2ed57354b27e3117a5cf7344eaa0e3b5ba3b66a554a469fc113599ac96f73b2f"),
        "var_slots": ((3, 96), "76fbad4597d8fb7c735c98ae90d5bb6a1e314fdc008384999e587a3052f1be9f"),
    },
    (1024, 0): {
        "generator": ((1024, 512), "7205d2e814e2c85fe5d856bee1f478f8ba737be161d102f2206f74fdb999ee8f"),
        "parity": ((512, 1024), "f479c497b3da31dc7f550d8f5c8f600ac011a6be70486e6eabd2ae978278952c"),
        "source_positions": ((512,), "f3749b3f1e0b6e17234281c2f92fb5fa71ea192cb7c94dfd9b3a8d5cf6480c26"),
        "slot_var": ((6, 513), "b5e3c6ae8fc1495188326667e12bf980cec0e1f2a8de9bdff949124083349687"),
        "var_slots": ((3, 1024), "43c4720468b9aaecea9b0c20ef9f5d1eafff7a09dddde54774f6219cf083acac"),
    },
}


@pytest.mark.parametrize("n,seed", sorted(_LDPC_DIGESTS))
def test_ldpc_construction_bytes_are_pinned(n, seed):
    code = codec.ldpc_code(n, seed=seed)
    fields = {"generator": code.generator, "parity": code.parity,
              "source_positions": code.source_positions,
              "slot_var": code._slots.slot_var, "var_slots": code._slots.var_slots}
    assert {name: (a.shape, _sha256(a)) for name, a in fields.items()} == _LDPC_DIGESTS[n, seed]


def test_ldpc_field_guard():
    # a parity matrix selects BP, which reads the source bits at source_positions
    code = codec.ldpc_code(96, seed=0)
    with pytest.raises(ValueError, match="source positions"):
        codec.LinearCode(code.generator, parity=code.parity)


def test_source_positions_must_index_an_identity_block():
    # BP reads the source bits at these positions, so a wrong set would
    # decode to wrong bits without any error
    code = codec.ldpc_code(96, seed=0)
    pos = code.source_positions
    parity_pos = np.setdiff1d(np.arange(code.M), pos)

    def build(positions):
        return codec.LinearCode(code.generator, parity=code.parity, source_positions=positions)

    assert np.array_equal(build(list(pos)).source_positions, pos)
    for bad in (pos[:-1], pos[::-1], np.r_[pos[:-1], pos[0]], np.r_[pos[:-1], parity_pos[0]],
                np.r_[pos[:-1], code.M], np.r_[pos[:-1], -1]):
        with pytest.raises(ValueError, match="source positions"):
            build(bad)


# ---------------------------------------------------------------------------
# file loading and name lookup


def test_generator_file_roundtrip(tmp_path):
    path = tmp_path / "rep3.txt"
    path.write_text("# three-fold repetition\n1\n1\n\n1\n")
    code = codec.from_generator_file(path)
    assert (code.K, code.M) == (1, 3)
    assert np.array_equal(codec.encode(code, np.array([1])), [1, 1, 1])


def test_generator_file_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 0\n1\n")
    with pytest.raises(ValueError):
        codec.from_generator_file(path)


@pytest.mark.parametrize("token", ["256", "-1", "99999999999999999999999", "\u0661", "2", "1e0", "1,0"])
def test_generator_file_accepts_only_zero_and_one(tmp_path, token):
    # int() reads all of these, or wraps them past uint8; none is a GF(2) entry
    path = tmp_path / "bad.txt"
    path.write_text(f"# rows\n1 0 1\n0 {token} 1\n")
    with pytest.raises(ValueError, match="generator entries must be 0 or 1") as info:
        codec.from_generator_file(path)
    assert f"{path}:3:" in str(info.value) and repr(token) in str(info.value)


def test_generator_file_rejects_empty(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing\n\n")
    with pytest.raises(ValueError):
        codec.from_generator_file(path)


@pytest.mark.parametrize(
    "name,k,m",
    [("hamming74", 4, 7), ("repetition5", 1, 5), ("identity8", 8, 8), ("ldpc24", 12, 24)],
)
def test_builtin_code_lookup(name, k, m):
    code = codec.builtin_code(name)
    assert (code.K, code.M) == (k, m)


# a number in other than ASCII digits is no code's number
@pytest.mark.parametrize("name", ["turbo9000", "ldpc\u0669\u0666", "identity\u0667", "repetition\u00b2"])
def test_builtin_code_unknown_name(name):
    with pytest.raises(ValueError, match="unknown code name"):
        codec.builtin_code(name)


@pytest.mark.parametrize("name", ["identity100000", "ldpc16384", "repetition67108865"])
def test_builtin_code_refuses_an_oversized_generator_before_building_it(name):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than the limit of 67108864"):
            codec.builtin_code(name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("name,factory,n", [("identity8192", "identity_code", 8192),
                                            ("ldpc8192", "ldpc_code", 8192)])
def test_builtin_code_builds_up_to_the_generator_limit(monkeypatch, name, factory, n):
    # the largest names that fit, resolved without paying for the build
    monkeypatch.setattr(codec, factory, lambda size: size)
    assert codec.builtin_code(name) == n


# ---------------------------------------------------------------------------
# parity-matrix validation


def test_parity_matrix_must_annihilate_the_generator():
    g = codec.hamming74().generator
    h = np.hstack([g[4:], np.eye(3, dtype=np.uint8)])  # [P | I]: H G = P + P = 0
    pos = np.arange(4)  # systematic: the source bits lead the codeword
    assert codec.LinearCode(g, parity=h, source_positions=pos).parity.shape == (3, 7)
    bad = h.copy()
    bad[1, 0] ^= 1  # check 2 now reads d1 once too often
    with pytest.raises(ValueError, match="annihilate"):
        codec.LinearCode(g, parity=bad, source_positions=pos)
    with pytest.raises(ValueError, match="annihilate"):
        codec.LinearCode(g, parity=np.ones((1, 7), dtype=np.uint8), source_positions=pos)


def test_parity_matrix_shape_and_entries_are_checked():
    g = codec.hamming74().generator
    h = np.hstack([g[4:], np.eye(3, dtype=np.uint8)])
    pos = np.arange(4)
    with pytest.raises(ValueError):
        codec.LinearCode(g, parity=h[:, :6], source_positions=pos)
    with pytest.raises(ValueError):
        codec.LinearCode(g, parity=2 * h, source_positions=pos)
    # an all-zero check constrains nothing and is accepted
    codec.LinearCode(g, parity=np.vstack([h, np.zeros((1, 7), dtype=np.uint8)]), source_positions=pos)


# ---------------------------------------------------------------------------
# blocks of frames


_BLOCK_CODES = {
    "repetition5": codec.repetition_code(5),
    "identity6": codec.identity_code(6),
    "hamming74": codec.hamming74(),
    "ldpc96": codec.ldpc_code(96, seed=1),
}


@pytest.mark.parametrize("name", sorted(_BLOCK_CODES))
def test_block_encode_and_decode_match_frame_by_frame(name):
    code = _BLOCK_CODES[name]
    rng = np.random.default_rng(17)
    src = rng.integers(0, 2, size=(40, code.K), dtype=np.uint8)
    words = codec.encode(code, src)
    assert words.shape == (40, code.M) and words.dtype == np.uint8
    for t in range(40):
        assert np.array_equal(words[t], codec.encode(code, src[t]))
    # noise strong enough that some frames decode wrongly
    llr = noiseless_llr(words, scale=1.5) + rng.normal(0.0, 1.8, size=words.shape)
    got = codec.decode(code, llr)
    assert got.shape == (40, code.K) and got.dtype == np.uint8
    for t in range(40):
        assert np.array_equal(got[t], codec.decode(code, llr[t])), f"frame {t}"
    assert (got != src).any(axis=1).any()


def reference_bp(code, llr, iterations=50):
    """One frame of flooding sum-product BP: dense syndrome, edges rebuilt
    per call. Returns (source estimate, iterations run)."""
    h = code.parity[code.parity.any(axis=1)]  # an empty check constrains nothing
    check_idx, var_idx = np.nonzero(h)
    row_starts = np.searchsorted(check_idx, np.arange(h.shape[0]))

    def phi(x):
        x = np.clip(x, 1e-12, 30.0)
        return -np.log(np.tanh(0.5 * x))

    msg_c2v = np.zeros(check_idx.size)
    posterior = llr.copy()
    for it in range(1, iterations + 1):
        msg_v2c = np.clip(posterior[var_idx] - msg_c2v, -30.0, 30.0)
        signs = np.where(msg_v2c < 0.0, -1.0, 1.0)
        sign_prod = np.multiply.reduceat(signs, row_starts)[check_idx] * signs
        mags = phi(np.abs(msg_v2c))
        mag_sum = np.add.reduceat(mags, row_starts)[check_idx] - mags
        msg_c2v = sign_prod * phi(mag_sum)
        posterior = llr + np.bincount(var_idx, weights=msg_c2v, minlength=code.M)
        hard = (posterior < 0.0).astype(np.uint8)
        if not ((h.astype(int) @ hard) % 2).any():
            break
    return hard[code.source_positions], it


def test_bp_block_frames_leave_at_their_own_iteration():
    code = codec.ldpc_code(96, seed=1)
    rng = np.random.default_rng(5)
    src = rng.integers(0, 2, size=(12, code.K), dtype=np.uint8)
    llr = noiseless_llr(codec.encode(code, src), scale=2.0)
    llr += rng.normal(0.0, np.linspace(0.0, 2.6, 12)[:, None], size=llr.shape)
    llr[-1] = rng.normal(0.0, 1.0, size=code.M)  # no codeword near: runs to the cap
    got = codec.decode(code, llr, bp_iterations=20)
    iterations = []
    for t in range(12):
        want, it = reference_bp(code, llr[t], iterations=20)
        assert np.array_equal(got[t], want), f"frame {t}"
        iterations.append(it)
    assert len(set(iterations)) >= 3, iterations
    assert iterations[-1] == 20
    assert np.array_equal(got[0], src[0])


def bp_run(code, llr, iterations, monkeypatch):
    """decode on one frame, and the iterations it ran: each runs phi twice."""
    calls = []
    phi = codec._phi
    monkeypatch.setattr(codec, "_phi", lambda x: calls.append(1) or phi(x))
    got = codec.decode(code, llr, bp_iterations=iterations)
    monkeypatch.setattr(codec, "_phi", phi)
    assert len(calls) % 2 == 0
    return got, len(calls) // 2


def assert_bp_matches_reference(code, llr, iterations, monkeypatch):
    """Block and one-frame decisions, and each frame's iterations, equal
    the reference decoder's; returns the iterations."""
    block = codec.decode(code, llr, bp_iterations=iterations)
    runs = []
    for t in range(llr.shape[0]):
        want, want_it = reference_bp(code, llr[t], iterations=iterations)
        got, got_it = bp_run(code, llr[t], iterations, monkeypatch)
        assert np.array_equal(block[t], want), f"frame {t}"
        assert np.array_equal(got, want), f"frame {t}"
        assert got_it == want_it, f"frame {t}"
        runs.append(got_it)
    return runs


def parity_code(p, extra_rows=()):
    """Systematic code with H = [P | I] and G = [I; P], plus any extra check rows."""
    p = np.asarray(p, dtype=np.uint8)
    r, k = p.shape
    h = np.hstack([p, np.eye(r, dtype=np.uint8)])
    if len(extra_rows):
        h = np.vstack([h, np.asarray(extra_rows, dtype=np.uint8)])
    g = np.vstack([np.eye(k, dtype=np.uint8), p])
    return codec.LinearCode(g, parity=h, source_positions=np.arange(k))


_HAND_PARITY = {
    # each check reads one parity bit only: degree 1
    "degree1": parity_code(np.zeros((3, 4))),
    # repetition-like pairs: degree 2
    "degree2": parity_code([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]]),
    # degrees 2 and 3; source bit 4 is in no check; an all-zero check row
    "degree3": parity_code([[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [1, 0, 0, 1, 0], [0, 0, 0, 1, 0]],
                           extra_rows=[np.zeros(9)]),
}


@pytest.mark.parametrize("name", sorted(_HAND_PARITY))
def test_bp_matches_reference_on_hand_built_checks(name, monkeypatch):
    code = _HAND_PARITY[name]
    degrees = code.parity.sum(axis=1)
    assert degrees.max() == int(name[-1])
    if name == "degree3":
        assert 0 in degrees and not code.parity[:, 4].any()
    rng = np.random.default_rng(31)
    src = rng.integers(0, 2, size=(30, code.K), dtype=np.uint8)
    llr = noiseless_llr(codec.encode(code, src), scale=1.0)
    llr += rng.normal(0.0, np.linspace(0.2, 3.0, 30)[:, None], size=llr.shape)
    runs = assert_bp_matches_reference(code, llr, 12, monkeypatch)
    assert min(runs) == 1


def test_bp_matches_reference_on_mixed_check_degrees(monkeypatch):
    code = codec.ldpc_code(12)
    assert set(code.parity.sum(axis=1)) == {2, 4, 6}
    rng = np.random.default_rng(37)
    src = rng.integers(0, 2, size=(40, code.K), dtype=np.uint8)
    llr = noiseless_llr(codec.encode(code, src), scale=1.0)
    llr += rng.normal(0.0, np.linspace(0.2, 3.0, 40)[:, None], size=llr.shape)
    runs = assert_bp_matches_reference(code, llr, 15, monkeypatch)
    assert len(set(runs)) >= 3 and max(runs) == 15, runs


def test_bp_matches_reference_at_the_iteration_cap(monkeypatch):
    # the stage-1 LLRs of the ldpc1024 link at sigma2 0.35, where BP fails
    from ocbsim import linksim, ocb
    from ocbsim.awgn_info import NoiseModel

    code = codec.ldpc_code(1024)
    cfg = linksim.LinkConfig(code, code, alpha=1.0 / np.sqrt(2.0), sigma2=0.35, trials=3)
    blk = linksim.transmit_block(cfg, range(3))
    llr = ocb.demap_stage1(blk.y, ocb.Constellation(cfg.alpha), NoiseModel(cfg.sigma2))
    assert assert_bp_matches_reference(code, llr, 50, monkeypatch) == [50, 50, 50]


def test_bp_needs_an_iteration():
    code = codec.ldpc_code(24)
    with pytest.raises(ValueError):
        codec.decode(code, np.ones(code.M), bp_iterations=0)


@pytest.mark.parametrize("name", sorted(_BLOCK_CODES))
def test_block_shapes_are_checked(name):
    code = _BLOCK_CODES[name]
    for bad in (np.zeros((2, 3, code.K)), np.zeros((4, code.K + 1)), np.zeros(()), np.zeros(code.K + 1)):
        with pytest.raises(ValueError):
            codec.encode(code, bad)
    for bad in (np.zeros((2, 3, code.M)), np.zeros((4, code.M - 1)), np.zeros(()), np.zeros(code.M + 1)):
        with pytest.raises(ValueError):
            codec.decode(code, bad)


def test_ldpc_build_and_simulate_leave_numpy_ma_unimported(tmp_path):
    # np.setdiff1d imports numpy.ma, about 14 ms of every cold LDPC command
    script = (
        "import sys\n"
        "from ocbsim import cli, codec\n"
        "codec.builtin_code('ldpc96')\n"
        "cli.main(['simulate', '--code1', 'ldpc96', '--code2', 'ldpc96', '--trials', '2',"
        f" '--out', {str(tmp_path)!r}])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, env=cli_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
