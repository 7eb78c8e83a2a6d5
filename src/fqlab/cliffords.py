"""Clifford group elements mod global phase: tables by index and uniform sampling.

A Clifford mod phase is a Pauli times a symplectic representative
(C_n / phase = P_n . Sp(2n, 2)), so a uniform element is a uniform Pauli
times a uniform representative. Two constructions are used:

* n <= 2: one factorized table, built lazily on first use (0.2 MB at
  n = 2). Its representatives S_s are every symplectic basis of F_2^{2n}
  in lexicographic order (6 at n = 1, 720 at n = 2), each synthesized
  once from its stabilizer images with all sign bits 0; index
  idx = s * 4^n + a names P_a S_s, 24 or 11520 elements in all. A draw
  is one integer. Row r of P_a S_s is a unit phase times row
  perm[a, r] of S_s, exactly, so every element is read by its rows
  from the stacked representatives (:class:`CliffordRows`) and no
  unitary need be formed. Keys: ``t2:<idx>`` in this order;
  ``t1:<idx>`` indexes the 24 single-qubit elements phase-canonical and
  sorted by their rounded entries (``table_rows(1)``).
* n >= 3: a uniform canonical-form sampler. A symplectic basis of
  F_2^{2n} is drawn pair by pair (v_j uniform nonzero in the current
  symplectic complement, w_j uniform among vectors pairing to 1 with
  v_j), which is exactly uniform over Sp(2n, 2) by orbit counting, then
  2n uniform sign bits pick the Pauli factor. The dense unitary is
  synthesized from the stabilizer images, and a block of draws is its
  own row table. Keys: ``c<n>:v1.w1...vn.wn.x.z`` (packed bit fields),
  which also replay at n = 2.

Draws are named by integer ids, and key text is formed only where it is
read (:class:`KeyText`): a table draw's id is its index, a canonical-form
draw's indexes the key strings made with it.

Binary vectors use (x | z) coordinates: a = (x_1..x_n | z_1..z_n) maps
to the Pauli prod_i X_i^{x_i} Z_i^{z_i} with a fixed phase convention.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EnumerationUnavailable, ValidationError

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

GROUP_ORDER_MOD_PHASE = {1: 24, 2: 11520}
# Stabilizer states mod phase (Aaronson & Gottesman, PRA 70, 052328 (2004)):
# every row of an n-qubit Clifford is one of them, up to a unit phase
STABILIZER_RAYS = {1: 6, 2: 60}


def _phase_canonical(u: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first nonzero entry is positive real."""
    flat = u.reshape(-1)
    idx = np.argmax(np.abs(flat) > 1e-9)
    return u * (abs(flat[idx]) / flat[idx])


def _matrix_key(u: np.ndarray) -> bytes:
    rounded = np.round(_phase_canonical(u), 9)
    return (rounded + (0.0 + 0.0j)).tobytes()  # normalize -0.0 bit patterns


# -- F_2 symplectic machinery ------------------------------------------------


def _pack(bits) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def _unpack(val: int, width: int) -> np.ndarray:
    return np.array([(val >> (width - 1 - b)) & 1 for b in range(width)],
                    dtype=np.uint8)


def _symplectic_product(a: np.ndarray, b: np.ndarray, n: int) -> int:
    return int((a[:n] @ b[n:] + a[n:] @ b[:n]) % 2)


def _nullspace_basis(constraints: np.ndarray, width: int) -> np.ndarray:
    """Row basis of {u : constraints @ u = 0 over F_2}."""
    if constraints.size == 0:
        return np.eye(width, dtype=np.uint8)
    mat = constraints.copy() % 2
    rows, cols = mat.shape
    pivots = []
    r = 0
    for c in range(cols):
        pivot_rows = np.nonzero(mat[r:, c])[0]
        if pivot_rows.size == 0:
            continue
        pr = r + pivot_rows[0]
        mat[[r, pr]] = mat[[pr, r]]
        for other in range(rows):
            if other != r and mat[other, c]:
                mat[other] = (mat[other] + mat[r]) % 2
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for rr, pc in enumerate(pivots):
            if mat[rr, c]:
                basis[k, pc] = 1
    return basis


def sample_symplectic_basis(n: int, rng: np.random.Generator) -> list:
    """Uniform symplectic basis [(v_1, w_1), ..., (v_n, w_n)] of F_2^{2n}."""
    width = 2 * n
    pairs = []
    constraints = np.zeros((0, width), dtype=np.uint8)
    for _ in range(n):
        # Constraint rows are arranged so that constraints @ u computes the
        # symplectic pairing of u with each chosen vector.
        basis = _nullspace_basis(constraints, width)
        dim = basis.shape[0]
        while True:
            coeff = rng.integers(0, 2, size=dim).astype(np.uint8)
            if coeff.any():
                break
        v = (coeff @ basis) % 2
        u = (rng.integers(0, 2, size=dim).astype(np.uint8) @ basis) % 2
        if _symplectic_product(v, u, n) != 1:
            w0 = None
            for row in basis:
                if _symplectic_product(v, row, n) == 1:
                    w0 = row
                    break
            if w0 is None:
                raise AssertionError("no symplectic partner in complement")
            u = (u + w0) % 2
        pairs.append((v.astype(np.uint8), u.astype(np.uint8)))
        swapped_v = np.concatenate([v[n:], v[:n]])
        swapped_w = np.concatenate([u[n:], u[:n]])
        constraints = np.vstack([constraints, swapped_v, swapped_w]).astype(np.uint8)
    return pairs


@lru_cache(maxsize=None)
def _pauli_cached(n: int, packed: int) -> np.ndarray:
    op = np.array([[1.0 + 0j]])
    width = 2 * n
    for i in range(n):
        x = (packed >> (width - 1 - i)) & 1
        z = (packed >> (width - 1 - n - i)) & 1
        factor = np.eye(2, dtype=complex)
        if x:
            factor = factor @ _X
        if z:
            factor = factor @ _Z
        if x and z:
            factor = 1j * factor
        op = np.kron(op, factor)
    op.setflags(write=False)
    return op


def pauli_from_bits(bits: np.ndarray, n: int) -> np.ndarray:
    """Hermitian Pauli for (x|z) bits: prod_i (i^{x_i z_i}) X_i^{x_i} Z_i^{z_i}.

    The i^{xz} factor turns XZ into Y, so every output squares to the
    identity and stabilizer projectors (I + P)/2 are well defined.
    There are only 4^n of these, so they are built once and cached.
    """
    return _pauli_cached(n, _pack(bits))


def _unitary_from_images(n: int, pairs, x_signs, z_signs) -> np.ndarray:
    """Clifford with U X_j U† = (-1)^{x_signs_j} P(v_j), likewise for Z."""
    dim = 2 ** n
    x_imgs = [((-1) ** int(x_signs[j])) * pauli_from_bits(pairs[j][0], n)
              for j in range(n)]
    z_imgs = [((-1) ** int(z_signs[j])) * pauli_from_bits(pairs[j][1], n)
              for j in range(n)]
    # |psi_0> = joint +1 eigenvector of the Z images.
    proj = np.eye(dim, dtype=complex)
    for s in z_imgs:
        proj = proj @ (np.eye(dim) + s) / 2
    col = 0
    while col < dim and np.linalg.norm(proj[:, col]) < 1e-9:
        col += 1
    if col == dim:
        raise AssertionError("stabilizer projector is zero")
    psi0 = proj[:, col] / np.linalg.norm(proj[:, col])
    columns = np.empty((dim, dim), dtype=complex)
    for b in range(dim):
        vec = psi0
        for j in range(n):
            if (b >> (n - 1 - j)) & 1:
                vec = x_imgs[j] @ vec
        columns[:, b] = vec
    return _phase_canonical(columns)


@dataclass(frozen=True)
class CliffordElement:
    """One sampled Clifford: dense unitary plus a replayable key."""

    n: int
    unitary: np.ndarray
    key: str


def _all_bit_vectors(width: int):
    for val in range(2 ** width):
        yield _unpack(val, width)


# -- Cliffords by their rows -------------------------------------------------


@dataclass(frozen=True, eq=False)
class Rays:
    """The rays of a row table: table row t is a unit phase times
    ``table[of_row[t]]``, so every row of one ray gives the same Born
    weights."""

    table: np.ndarray   # (R, width): one row of each ray
    of_row: np.ndarray  # (T,) ints: the ray of each table row


@dataclass(frozen=True, eq=False)
class CliffordRows:
    """Cliffords named by their rows in a shared table.

    ``elements`` holds one element id per Clifford, in any shape (a draw's
    is (samples, registers)). Row r of element e is
    ``phases[e % A, r] * table[index[e, r]]``, A = len(phases): element
    ids run over (representative, Pauli) pairs with the Pauli fastest,
    and the Pauli alone sets the phases. Where ``phases`` is None every
    phase is 1. The phases are units (+-1, +-i), so a row's phase never
    changes its weight. ``rays``, where the table has them (n <= 2), maps
    each table row to its stabilizer ray.
    """

    table: np.ndarray              # (T, width) rows
    index: np.ndarray              # (E, d): the table row of each element row
    elements: np.ndarray           # ints in 0..E-1, any shape
    phases: np.ndarray | None = None  # (A, d): the phase of each row, per Pauli
    rays: Rays | None = None

    @classmethod
    def of_stack(cls, unitaries: np.ndarray) -> "CliffordRows":
        """The matrices of a (..., d, width) stack, each its own element:
        the stack's rows are the table, in order, with phase 1."""
        dim = unitaries.shape[-2]
        table = unitaries.reshape(-1, unitaries.shape[-1])
        index = np.arange(len(table)).reshape(-1, dim)
        return cls(table, index, np.arange(len(index)).reshape(unitaries.shape[:-2]))

    def select(self, elements) -> "CliffordRows":
        """The elements ``elements`` of the same table."""
        return CliffordRows(self.table, self.index, np.asarray(elements),
                            self.phases, self.rays)

    def rows(self, labels, width=None) -> np.ndarray:
        """Row ``labels`` of each element (broadcast against ``elements``),
        its first ``width`` entries: one gather, times its phase."""
        rows = np.take(self.table, self.index[self.elements, labels],
                       axis=0)[..., :width]
        if self.phases is not None:
            rows *= self.phases[self.elements % len(self.phases), labels][..., None]
        return rows

    def unitaries(self) -> np.ndarray:
        """The dense matrices, shape elements.shape + (d, width)."""
        rows = np.take(self.table, self.index[self.elements], axis=0)
        if self.phases is not None:
            rows *= self.phases[self.elements % len(self.phases)][..., None]
        return rows


# -- n <= 2: the factorized Pauli x symplectic table --------------------------


def _symplectic_bases(n: int, pairs=(), chosen=()):
    """Every symplectic basis [(v_1, w_1), ..., (v_n, w_n)] of F_2^{2n}, in order."""
    if len(pairs) == n:
        yield list(pairs)
        return
    free = [u for u in _all_bit_vectors(2 * n)
            if u.any() and not any(_symplectic_product(u, c, n) for c in chosen)]
    for v in free:
        for w in free:
            if _symplectic_product(v, w, n):
                yield from _symplectic_bases(n, pairs + ((v, w),), chosen + (v, w))


def _rays(n: int, table: np.ndarray) -> Rays:
    """The stabilizer rays of the rows of an n-qubit table, each named by
    its first row. A row rotated so that its first nonzero entry is
    positive real has real and imaginary parts 0, +-1/2, +-1/sqrt(2) or
    +-1 (n <= 2), so 8 times each part, rounded, is a distinct small
    integer, and rows on one ray have the same integers. They are formed
    256 rows at a time, so no temporary is the table's size."""
    codes = np.empty((len(table), 2 * table.shape[1]), dtype=np.int8)
    for lo in range(0, len(table), 256):
        rows = table[lo:lo + 256]
        first = rows[np.arange(len(rows)), np.argmax(np.abs(rows) > 1e-9, axis=1)]
        parts = np.einsum("tr,t->tr", rows, np.abs(first) / first).view(np.float64)
        codes[lo:lo + 256] = np.rint(8 * parts)
    _, reps, of_row = np.unique(codes.view(f"V{codes.shape[1]}")[:, 0],
                                return_index=True, return_inverse=True)
    if len(reps) != STABILIZER_RAYS[n]:
        raise AssertionError(f"{len(reps)} stabilizer rays at n = {n}")
    rays = Rays(table[reps], of_row)
    for arr in (rays.table, rays.of_row):
        arr.setflags(write=False)
    return rays


@lru_cache(maxsize=None)
def _factorized(n: int) -> CliffordRows:
    """The n <= 2 group as P_a S_s, element idx = s * 4^n + a, by rows.

    Row r of P_a holds phase[a, r] in column perm[a, r] alone, so row r of
    P_a S_s is phase[a, r] times row perm[a, r] of S_s: the table is the
    stacked representatives, and every element's row indices are formed
    here once (int16, 92 kB at n = 2, below the 184 kB of the
    representatives)."""
    zeros = np.zeros(n, dtype=np.uint8)
    reps = np.array([_unitary_from_images(n, pairs, zeros, zeros)
                     for pairs in _symplectic_bases(n)])
    paulis = np.array([_pauli_cached(n, a) for a in range(4 ** n)])
    perm = np.argmax(np.abs(paulis) > 0.5, axis=2).astype(np.int16)
    phase = np.take_along_axis(paulis, perm[..., None], axis=2)[..., 0]
    order = GROUP_ORDER_MOD_PHASE[n]
    if len(reps) * len(paulis) != order:
        raise AssertionError(f"{len(reps)} symplectic representatives at n = {n}")
    dim = 2 ** n
    s, a = np.divmod(np.arange(order, dtype=np.int16), len(paulis))
    index = (dim * s)[:, None] + perm[a]
    table = reps.reshape(-1, dim)
    for arr in (table, index, phase):
        arr.setflags(write=False)
    return CliffordRows(table, index, np.arange(order, dtype=np.int16), phase,
                        _rays(n, table))


@lru_cache(maxsize=None)
def _single_qubit_table() -> CliffordRows:
    """The 24 single-qubit elements phase-canonical and sorted by their
    rounded entries, by rows: element e is rows 2e and 2e + 1, phase 1."""
    products = _factorized(1).unitaries()
    table = np.array(sorted((_phase_canonical(u) for u in products),
                            key=_matrix_key)).reshape(-1, 2)
    index = np.arange(len(table), dtype=np.int16).reshape(-1, 2)
    for arr in (table, index):
        arr.setflags(write=False)
    return CliffordRows(table, index, np.arange(len(index), dtype=np.int16),
                        rays=_rays(1, table))


def table_rows(n: int) -> CliffordRows:
    """Every element of the n <= 2 table, in key order, by its rows."""
    if n == 1:
        return _single_qubit_table()
    if n == 2:
        return _factorized(2)
    raise EnumerationUnavailable(f"no exhaustive table for n = {n}")


# -- keys: the one home of their text ------------------------------------------


def table_key(n: int, idx: int) -> str:
    """The key of index ``idx`` of the n <= 2 table."""
    return f"t{n}:{idx}"


def _drawn_key(n: int, pairs, x_signs, z_signs) -> str:
    """The key of a canonical-form draw: its basis vectors and signs, packed."""
    fields = [_pack(bits) for pair in pairs for bits in pair]
    return f"c{n}:" + ".".join(map(str, fields + [_pack(x_signs), _pack(z_signs)]))


@dataclass(frozen=True, eq=False)
class KeyText:
    """The key text of integer Clifford ids, formed only when it is read.

    With ``strings`` None an id is an index of the n <= 2 table and reads
    as ``t<n>:<id>``, gathered from :func:`_table_keys`; otherwise it
    indexes ``strings``, the key text of draws made one by one (n >= 3)
    or read back from a sample dump.
    """

    n: int
    strings: np.ndarray | None = None  # object array of key strings

    def text(self, ids) -> np.ndarray:
        """The keys of ``ids`` (any shape), as an object array of strings."""
        strings = _table_keys(self.n) if self.strings is None else self.strings
        return strings[np.asarray(ids)]


@lru_cache(maxsize=None)
def _table_keys(n: int) -> np.ndarray:
    """The key text of every index of the n <= 2 table, formed on its
    first read (24 strings at n = 1, 11 520 at n = 2)."""
    return np.array([table_key(n, idx) for idx in range(GROUP_ORDER_MOD_PHASE[n])],
                    dtype=object)


# -- sampling ---------------------------------------------------------------------


def sample_clifford(n: int, rng: np.random.Generator) -> CliffordElement:
    """Uniform Clifford element mod phase, deterministic given the stream."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    if n in GROUP_ORDER_MOD_PHASE:
        idx = int(rng.integers(0, GROUP_ORDER_MOD_PHASE[n]))
        return CliffordElement(n=n, key=table_key(n, idx),
                               unitary=table_rows(n).select(idx).unitaries())
    pairs = sample_symplectic_basis(n, rng)
    x_signs = rng.integers(0, 2, size=n)
    z_signs = rng.integers(0, 2, size=n)
    unitary = _unitary_from_images(n, pairs, x_signs, z_signs)
    return CliffordElement(n=n, unitary=unitary,
                           key=_drawn_key(n, pairs, x_signs, z_signs))


def draw_clifford_blocks(n: int, rng: np.random.Generator, shape, block: int):
    """Yield (names, draws) for ``shape = (samples, registers)`` draws.

    Blocks of ``block`` samples come in order; draws is a
    :class:`CliffordRows` with elements (b, registers), and
    ``names.text(draws.elements)`` are their keys. n <= 2 draws every
    table index in one call, never calls ``sample_clifford`` and forms no
    unitary and no key text: the elements are indices of the shared
    table. n >= 3 draws element by element; each block's unitaries are
    its own table and its key strings name its elements. Either way the
    stream does not depend on ``block``.
    """
    samples, registers = shape
    if n in GROUP_ORDER_MOD_PHASE:
        table, names = table_rows(n), KeyText(n)
        idx = rng.integers(0, GROUP_ORDER_MOD_PHASE[n], size=shape)
        for start in range(0, samples, block):
            yield names, table.select(idx[start:start + block])
        return
    for start in range(0, samples, block):
        count = min(block, samples - start) * registers
        drawn = [sample_clifford(n, rng) for _ in range(count)]
        unitaries = np.array([c.unitary for c in drawn])
        yield (KeyText(n, np.array([c.key for c in drawn], dtype=object)),
               CliffordRows.of_stack(unitaries.reshape(-1, registers, 2 ** n, 2 ** n)))


def clifford_from_key(key: str) -> CliffordElement:
    """Rebuild the element named by a sample key (CSV replay path)."""
    head, _, payload = key.partition(":")
    try:
        n = int(head[1:])
        parts = [int(p) for p in payload.split(".")]
    except ValueError:
        raise ValidationError(f"bad clifford key {key!r}") from None
    if head[:1] == "t" and n in GROUP_ORDER_MOD_PHASE and len(parts) == 1:
        if not 0 <= parts[0] < GROUP_ORDER_MOD_PHASE[n]:
            raise ValidationError(f"bad clifford key {key!r}")
        unitary = table_rows(n).select(parts[0]).unitaries()
        return CliffordElement(n=n, unitary=unitary, key=key)
    widths = [2 * n] * (2 * n) + [n, n]
    if (head[:1] != "c" or n < 1 or len(parts) != len(widths)
            or any(not 0 <= p < 2 ** w for p, w in zip(parts, widths))):
        raise ValidationError(f"bad clifford key {key!r}")
    pairs = [(_unpack(parts[2 * j], 2 * n), _unpack(parts[2 * j + 1], 2 * n))
             for j in range(n)]
    images = [u for pair in pairs for u in pair]
    if any(_symplectic_product(a, b, n) != (i // 2 == j // 2 and i != j)
           for i, a in enumerate(images) for j, b in enumerate(images)):
        raise ValidationError(f"clifford key {key!r} is not a symplectic basis")
    unitary = _unitary_from_images(n, pairs, _unpack(parts[-2], n),
                                   _unpack(parts[-1], n))
    return CliffordElement(n=n, unitary=unitary, key=key)
