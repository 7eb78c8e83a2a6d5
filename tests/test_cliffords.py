"""Clifford tables, uniform sampling, key replay."""

import numpy as np
import pytest
from scipy import stats

from fqlab.cliffords import (
    GROUP_ORDER_MOD_PHASE,
    CliffordRows,
    KeyText,
    _matrix_key,
    _phase_canonical,
    clifford_from_key,
    draw_clifford_blocks,
    pauli_from_bits,
    sample_clifford,
    sample_symplectic_basis,
    _symplectic_bases,
    _symplectic_product,
    table_rows,
)
from fqlab.errors import EnumerationUnavailable, ValidationError
from fqlab.rng import derive_rng

from conftest import maps_paulis_to_paulis

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)


def bfs_table(n):
    """Oracle: close {H, S} (+ CZ at n = 2) under products, sorted by key."""
    eye = np.eye(2)
    gens = {1: [_H, _S],
            2: [np.kron(_H, eye), np.kron(eye, _H), np.kron(_S, eye),
                np.kron(eye, _S), np.diag([1, 1, 1, -1]).astype(complex)]}[n]
    start = np.eye(2 ** n, dtype=complex)
    seen = {_matrix_key(start): start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                cand = _phase_canonical(g @ u)
                key = _matrix_key(cand)
                if key not in seen:
                    seen[key] = cand
                    nxt.append(cand)
        frontier = nxt
    return sorted(seen.values(), key=_matrix_key)


class TestTables:
    def test_known_orders(self):
        assert len(table_rows(1).unitaries()) == 24
        assert len(table_rows(2).unitaries()) == 11520

    def test_single_qubit_closure(self):
        table = table_rows(1).unitaries()
        keys = {_matrix_key(u) for u in table}
        for a in table[:6]:
            for b in table:
                assert _matrix_key(a @ b) in keys

    @pytest.mark.parametrize("n", [1, 2])
    def test_factorized_table_is_the_bfs_group(self, n):
        oracle = {_matrix_key(u) for u in bfs_table(n)}
        table = [_matrix_key(u) for u in table_rows(n).unitaries()]
        assert len(oracle) == len(table) == GROUP_ORDER_MOD_PHASE[n]
        assert set(table) == oracle

    def test_t1_keys_name_the_sorted_bfs_elements(self):
        for idx, u in enumerate(bfs_table(1)):
            again = clifford_from_key(f"t1:{idx}").unitary
            assert _matrix_key(again) == _matrix_key(u)
            assert np.max(np.abs(again - u)) < 1e-12

    def test_no_enumeration_beyond_two_qubits(self):
        with pytest.raises(EnumerationUnavailable):
            table_rows(3)


class TestPauliFromBits:
    def test_hermitian_and_involutory(self):
        for bits in range(16):
            vec = np.array([(bits >> (3 - b)) & 1 for b in range(4)],
                           dtype=np.uint8)
            p = pauli_from_bits(vec, 2)
            assert np.max(np.abs(p - p.conj().T)) < 1e-14
            assert np.max(np.abs(p @ p - np.eye(4))) < 1e-14

    def test_xz_bits_give_pauli_y(self):
        y = np.array([[0, -1j], [1j, 0]])
        assert np.allclose(pauli_from_bits(np.array([1, 1], dtype=np.uint8), 1), y)


class TestSymplecticSampling:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sampled_basis_is_symplectic(self, n):
        rng = derive_rng(5, "symp", n)
        for _ in range(50):
            pairs = sample_symplectic_basis(n, rng)
            assert len(pairs) == n
            for i, (v, w) in enumerate(pairs):
                assert _symplectic_product(v, w, n) == 1
                for j, (v2, w2) in enumerate(pairs):
                    if i == j:
                        continue
                    assert _symplectic_product(v, v2, n) == 0
                    assert _symplectic_product(v, w2, n) == 0
                    assert _symplectic_product(w, w2, n) == 0


    def test_two_qubit_bases_are_uniform(self):
        # 10 draws per basis on average over the 720 symplectic bases of
        # F_2^4, which the n >= 3 readout relies on: a chi-square test
        def key(pairs):
            return np.asarray(pairs, dtype=np.uint8).tobytes()

        index = {key(pairs): i for i, pairs in enumerate(_symplectic_bases(2))}
        rng = derive_rng(17, "symp-uniform")
        draws = [index[key(sample_symplectic_basis(2, rng))]
                 for _ in range(10 * len(index))]
        counts = np.bincount(draws, minlength=len(index))
        assert len(index) == 720
        assert stats.chisquare(counts).pvalue > 0.001


class TestSampling:
    def test_deterministic_given_stream(self):
        keys_a = [sample_clifford(2, derive_rng(9, "s", c)).key for c in range(5)]
        keys_b = [sample_clifford(2, derive_rng(9, "s", c)).key for c in range(5)]
        assert keys_a == keys_b

    def test_unitary_and_pauli_preserving(self):
        rng = derive_rng(1, "check")
        for n in (1, 2, 3):
            el = sample_clifford(n, rng)
            u = el.unitary
            assert np.max(np.abs(u.conj().T @ u - np.eye(2 ** n))) < 1e-10
            assert maps_paulis_to_paulis(el)

    def test_two_qubit_samples_land_in_group(self):
        table_keys = {_matrix_key(u) for u in table_rows(2).unitaries()}
        rng = derive_rng(4, "member")
        for _ in range(300):
            el = sample_clifford(2, rng)
            assert _matrix_key(el.unitary) in table_keys

    def test_single_qubit_frequencies_uniform(self):
        # oracle: the exhaustively enumerated 24-element group
        rng = derive_rng(11, "freq")
        draws = 100_000
        counts = np.zeros(24)
        for _ in range(draws):
            el = sample_clifford(1, rng)
            counts[int(el.key.split(":")[1])] += 1
        expect = draws / 24
        sigma = np.sqrt(draws * (1 / 24) * (1 - 1 / 24))
        assert np.all(np.abs(counts - expect) < 5 * sigma)


class TestKeyReplay:
    def test_roundtrip_n1(self):
        el = sample_clifford(1, derive_rng(2, "k"))
        again = clifford_from_key(el.key)
        assert np.array_equal(el.unitary, again.unitary)

    def test_roundtrip_n2(self):
        el = sample_clifford(2, derive_rng(3, "k"))
        assert el.key.startswith("t2:")
        again = clifford_from_key(el.key)
        assert np.array_equal(el.unitary, again.unitary)

    def test_canonical_form_keys_still_replay_at_n2(self):
        # a c2 key names U with U X_j U+ = +-P(v_j), U Z_j U+ = +-P(w_j)
        el = clifford_from_key("c2:8.2.4.1.0.0")  # X1->X1, Z1->Z1, ...
        assert np.max(np.abs(el.unitary - np.eye(4))) < 1e-12

    @pytest.mark.parametrize("key", ["t1:24", "t2:11520", "t2:-1", "t3:0",
                                     "x2:1", "", "t2:a", "c2:1.2",
                                     "c2:0.0.0.0.0.0", "c2:-1.2.4.1.0.0",
                                     "c2:16.2.4.1.0.0", "c2:8.2.4.1.4.0",
                                     "c2:8.2.8.1.0.0", "c0:0.0"])
    def test_bad_keys_refused(self, key):
        with pytest.raises(ValidationError):
            clifford_from_key(key)


class TestRowForm:
    @pytest.mark.parametrize("n", [1, 2])
    def test_rows_rebuild_every_table_element(self, n):
        # row r of element e is phase * table[index[e, r]], the phase 1
        # at n = 1 and that of row r of P_a, a = e mod 16, at n = 2
        rows = table_rows(n)
        dim = 2 ** n
        for idx in range(GROUP_ORDER_MOD_PHASE[n]):
            rebuilt = np.array([
                rows.table[rows.index[idx, r]]
                * (1 if rows.phases is None else rows.phases[idx % 16, r])
                for r in range(dim)])
            assert np.array_equal(rebuilt, table_rows(n).select(idx).unitaries())

    def test_two_qubit_elements_are_pauli_times_representative(self):
        # idx = 16 s + a names P_a S_s, and S_s is element 16 s (P_0 = I)
        paulis = [pauli_from_bits([(a >> (3 - b)) & 1 for b in range(4)], 2)
                  for a in range(16)]
        table = table_rows(2).unitaries().reshape(-1, 16, 4, 4)
        assert np.array_equal(table, np.array(paulis) @ table[:, :1])

    def test_element_tables_are_smaller_than_the_representatives(self):
        # the per-element row indices are built once, and they and the
        # element ids stay below the 184 kB of the 720 representatives
        rows = table_rows(2)
        assert rows.table.nbytes == 720 * 4 * 4 * 16
        assert rows.index.nbytes + rows.elements.nbytes < rows.table.nbytes
        assert rows.phases.shape == (16, 4)

    def test_rows_of_a_stack_are_its_own(self):
        rng = np.random.default_rng(4)
        stack = rng.normal(size=(3, 2, 4, 4)) + 1j * rng.normal(size=(3, 2, 4, 4))
        rows = CliffordRows.of_stack(stack)
        assert rows.elements.shape == (3, 2)
        assert np.array_equal(rows.unitaries(), stack)
        labels = rng.integers(0, 4, size=(3, 2))
        picked = rows.rows(labels, 3)
        assert np.array_equal(picked, np.take_along_axis(
            stack, labels[..., None, None], axis=2)[..., 0, :3])


class TestBlockDraws:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_blocks_do_not_change_the_stream(self, n):
        def draw(block):
            blocks = list(draw_clifford_blocks(n, derive_rng(6, "b", n),
                                               (7, 2), block))
            return (np.concatenate([k.text(d.elements) for k, d in blocks]),
                    np.concatenate([d.unitaries() for _, d in blocks]))
        keys, unitaries = draw(7)
        for block in (1, 3):
            again_keys, again_unitaries = draw(block)
            assert again_keys.tolist() == keys.tolist()
            assert np.array_equal(again_unitaries, unitaries)
        assert keys.shape == (7, 2) and unitaries.shape == (7, 2, 2 ** n, 2 ** n)
        for key, u in zip(keys.flat, unitaries.reshape(-1, 2 ** n, 2 ** n)):
            assert np.array_equal(clifford_from_key(key).unitary, u)

    def test_ids_read_as_their_keys(self):
        ids = np.array([[0, 11519], [7, 7]])
        assert KeyText(2).text(ids).tolist() == [["t2:0", "t2:11519"],
                                                 ["t2:7", "t2:7"]]
        assert KeyText(1).text(np.zeros((0, 3), dtype=int)).shape == (0, 3)
        strings = np.array(["c3:a", "c3:b"], dtype=object)
        assert KeyText(3, strings).text(ids % 2).tolist() == [
            ["c3:a", "c3:b"], ["c3:b", "c3:b"]]

    def test_two_qubit_draws_are_uniform_over_the_table(self):
        # 10 draws per element on average: the counts are Poisson, and
        # their chi-square lies within 5 sigma of its mean
        order = GROUP_ORDER_MOD_PHASE[2]
        draws = 10 * order
        blocks = draw_clifford_blocks(2, derive_rng(13, "u"), (draws, 1), 4096)
        idx = np.concatenate([d.elements[:, 0] for _, d in blocks])
        counts = np.bincount(idx, minlength=order)
        chi2 = float(np.sum((counts - 10) ** 2 / 10))
        assert abs(chi2 - (order - 1)) < 5 * np.sqrt(2 * (order - 1))
