"""Dense state-vector engine over small labeled qubit registers.

Registers are addressed by string labels rather than integer wire numbers so
protocol code can talk about qubits the way the parties do ("a", "m1", ...).
The label at position 0 is the most significant bit of the basis index: for
labels (a, b) the amplitude order is |00>, |01>, |10>, |11> with a as the
left bit.  Everything is exact dense complex128 arithmetic; no sparsity, no
approximation beyond float error.

There is one state type: a StateVector holds one state of the same
register per Monte Carlo trial, amplitudes shaped (trials, 2**n), and a lone
state is the batch of one.  Every kernel takes such a state and returns
per-trial values: a state, (trials,) arrays of probabilities, fidelities,
outcomes and trace distances, or (trials, d, d) density matrices.  Gates are strided
two-row updates (one qubit) or index permutations (permutation matrices
such as X and CNOT); reductions run along the amplitude axis of each row
only.  All arithmetic is element-wise per row, so a trial's numbers do not
depend on how many trials share its batch.

Every sum (norms, branch weights, overlaps, partial traces) is a running
sum per column in one fixed order: np.add.reduce over axis 0 of a
C-contiguous (terms, columns) array adds row after row, as cumsum would; a
single column, which numpy would sum pairwise, runs cumsum (_sum_terms).

Round phases run as a few fused kernels with the per-element arithmetic of
the gates they replace: permute plays a run of CNOTs, X gates and per-trial
bit flips as one gather; measure_reset is measure then an X back to |0>
where the read was 1; apply_one_qubit_gates is one pass of two-row updates;
excited_mass is one ordered sum over the amplitudes with any of the named
qubits set.  The engine holds no random source: a measurement reads
uniforms drawn beforehand, one per trial and measured qubit.

State values are immutable: every operation returns a new state and the
amplitude buffers are marked read-only.  A StateVector built from outside
amplitudes checks its labels and every row's norm; a kernel's result is
wrapped unchecked over the labels its input was built with (with_rows), and
its owner calls check_norm() once per protocol round.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

ATOL = 1e-10
NORM_TOL = 1e-12
MAX_QUBITS = 12


def _check_labels(labels: tuple[str, ...]) -> int:
    n = len(labels)
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"register must have 1..{MAX_QUBITS} qubits, got {n}")
    if len(set(labels)) != n:
        raise ValueError(f"duplicate labels in {labels}")
    return n


def _position(labels: tuple[str, ...], label: str) -> int:
    try:
        return labels.index(label)
    except ValueError:
        raise KeyError(f"no qubit labeled {label!r} in register {labels}") from None


@dataclass(frozen=True)
class StateVector:
    """One pure state of the same labeled register per trial.

    labels: qubit names in position order (position 0 = most significant
            bit), shared by every trial.
    amps:   (trials, 2**n) complex amplitudes, row t = trial t, read-only.
    Construction checks the labels, the shape and every row's norm; kernel
    results are wrapped unchecked (with_rows).
    """

    labels: tuple[str, ...]
    amps: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        n = _check_labels(self.labels)
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.ndim != 2 or amps.shape[0] < 1 or amps.shape[1] != 2**n:
            raise ValueError(f"expected (trials, {2**n}) amplitudes for {n} qubits, got {amps.shape}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        self.check_norm()

    @property
    def trials(self) -> int:
        return self.amps.shape[0]

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def position(self, label: str) -> int:
        return _position(self.labels, label)

    def with_rows(self, rows: np.ndarray) -> "StateVector":
        """The same register over other (trials, 2**n) complex128 rows, such
        as a kernel's result, built without checking the labels or norms
        again: the labels were checked when this state was built."""
        return _unchecked(self.labels, rows)

    def relabeled(self, mapping: dict[str, str]) -> "StateVector":
        """Rename qubits in every trial (pure bookkeeping, amplitudes untouched)."""
        labels = tuple(mapping.get(lab, lab) for lab in self.labels)
        _check_labels(labels)
        return _unchecked(labels, self.amps)

    def check_norm(self) -> None:
        """Raise unless every trial's state has unit norm within NORM_TOL."""
        deviation = np.abs(np.sqrt(_squared_sum(self.amps)) - 1.0)
        check_trials(deviation > NORM_TOL, f"state norm deviates from 1 by more than {NORM_TOL}")


def _unchecked(labels: tuple[str, ...], rows: np.ndarray) -> StateVector:
    state = object.__new__(StateVector)
    rows.setflags(write=False)
    object.__setattr__(state, "labels", labels)
    object.__setattr__(state, "amps", rows)
    return state


def check_trials(failed: np.ndarray, message: str) -> None:
    """Raise ValueError if any trial's flag is set, naming the first such trial."""
    bad = np.flatnonzero(failed)
    if bad.size:
        raise ValueError(f"{message} (trial {int(bad[0])}; {bad.size} trial(s) affected)")


def new_register(labels: list[str] | tuple[str, ...]) -> StateVector:
    """All-zeros register |0...0> over the given distinct labels, one trial."""
    labels = tuple(labels)
    if not labels:
        raise ValueError("register needs at least one label")
    amps = np.zeros(2 ** len(labels), dtype=np.complex128)
    amps[0] = 1.0
    return from_amplitudes(labels, amps)


def from_amplitudes(labels: list[str] | tuple[str, ...], amps: np.ndarray) -> StateVector:
    """One trial's state from its 2**n amplitudes, norm-checked."""
    return StateVector(tuple(labels), np.array([amps], dtype=np.complex128))


def _ordered_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, strictly left to right: cumsum's last entry.
    Kernels that lay their terms out terms-major call _sum_terms directly."""
    # x.T brings the terms to the front; the outer .T restores the other axes' order
    return _sum_terms(x.T).T


def _sum_terms(terms: np.ndarray) -> np.ndarray:
    """Sum over the first axis as a running sum per column, row after row.

    A fixed order makes each trial's sums the same whatever the batch size or
    memory layout.  On a C-contiguous (terms, columns) array np.add.reduce
    over axis 0 adds row after row into the output, cumsum's order; starting
    from -0.0 keeps the first term's bits, signed zeros included.  A single
    column numpy would sum pairwise, so it runs cumsum.
    """
    t = np.ascontiguousarray(terms)
    flat = t.reshape(t.shape[0], -1)
    if flat.shape[1] == 1:
        return np.cumsum(flat, axis=0)[-1].reshape(t.shape[1:])
    start = complex(-0.0, -0.0) if t.dtype.kind == "c" else -0.0
    return np.add.reduce(flat, axis=0, initial=start).reshape(t.shape[1:])


def _squared_sum(rows: np.ndarray) -> np.ndarray:
    """sum |amp|^2 along each row."""
    parts = np.ascontiguousarray(rows).view(np.float64)
    return _sum_terms(np.square(parts.T, out=np.empty(parts.shape[::-1])))


@functools.lru_cache(maxsize=256)
def _axis_order(n: int, order: tuple[int, ...]) -> np.ndarray:
    """Gather index that lays the register's axes out in the given order."""
    idx = np.arange(2**n).reshape((2,) * n).transpose(order).reshape(-1)
    idx.setflags(write=False)
    return idx


@functools.lru_cache(maxsize=512)
def _permutation_index(n: int, axes: tuple[int, ...], matrix_bytes: bytes) -> np.ndarray | None:
    """Gather index of a permutation matrix on the given axes, None if it is not one."""
    k = len(axes)
    m = np.frombuffer(matrix_bytes, dtype=np.complex128).reshape(2**k, 2**k)
    if not (np.all((m == 0) | (m == 1)) and np.all(m.sum(axis=0) == 1) and np.all(m.sum(axis=1) == 1)):
        return None
    # row b holds the image of basis state b, itself a basis state; amplitude
    # i of the result is read from the state that lands on i
    images = _dense_update(np.eye(2**n, dtype=np.complex128), n, axes, m)
    idx = np.argmax(images.real, axis=0)
    idx.setflags(write=False)
    return idx


def _two_row_update(rows: np.ndarray, n: int, axis: int, m: np.ndarray) -> np.ndarray:
    """One-qubit gate: each amplitude pair differing in the target bit is
    mixed by the 2x2 matrix; m is (2, 2) or one (2, 2) matrix per trial."""
    b = rows.shape[0]
    v = rows.reshape(b, 2**axis, 2, 1, 2 ** (n - 1 - axis))
    # column j of m times the amplitudes with target bit j, laid out like the result
    cols = m.reshape(2, 2, 1) if m.ndim == 2 else m.reshape(b, 1, 2, 2, 1)
    out = cols[..., 0, :] * v[:, :, 0]
    out += cols[..., 1, :] * v[:, :, 1]
    return out.reshape(b, -1)


def _dense_update(rows: np.ndarray, n: int, axes: tuple[int, ...], m: np.ndarray) -> np.ndarray:
    """k-qubit gate: permute the targets to the low bits, multiply element-wise
    and sum each output amplitude's 2**k terms, permute back."""
    b, k = rows.shape[0], len(axes)
    rest = tuple(i for i in range(n) if i not in axes)
    order = rest + axes
    fwd = _axis_order(n, order)
    inv = _axis_order(n, tuple(int(i) for i in np.argsort(order)))
    grouped = np.ascontiguousarray(rows[:, fwd].reshape(b, -1, 2**k).transpose(2, 0, 1))
    out = np.empty((b, grouped.shape[2], 2**k), dtype=np.complex128)
    for i in range(2**k):
        out[:, :, i] = _sum_terms(grouped * m[i][:, np.newaxis, np.newaxis])
    return out.reshape(b, -1)[:, inv]


def apply_unitary(state: StateVector, matrix: np.ndarray, targets: list[str] | tuple[str, ...]) -> StateVector:
    """Apply a 2^k x 2^k matrix to the named target qubits of every trial.

    The first target is the most significant bit of the matrix's index space,
    matching the register convention.  A one-qubit gate may also be a stack
    of (trials, 2, 2) matrices, one per trial.  The matrix is
    trusted here; named-gate constructors validate unitarity once at build
    time.
    """
    k = len(targets)
    if len(set(targets)) != k:
        raise ValueError(f"duplicate targets {targets}")
    axes = tuple(state.position(t) for t in targets)
    m = np.asarray(matrix, dtype=np.complex128)
    rows, n = state.amps, state.num_qubits
    if m.shape == (state.trials, 2, 2) and k == 1:
        return state.with_rows(_two_row_update(rows, n, axes[0], m))
    if m.shape != (2**k, 2**k):
        raise ValueError(f"matrix shape {m.shape} does not fit {k} targets")
    perm = _permutation_index(n, axes, m.tobytes())
    if perm is not None:
        out = rows[:, perm]
    elif k == 1:
        out = _two_row_update(rows, n, axes[0], m)
    else:
        out = _dense_update(rows, n, axes, m)
    return state.with_rows(out)


def apply_one_qubit_gates(state: StateVector, ops) -> StateVector:
    """Several one-qubit gates in order, as one pass of two-row updates.

    ops is a sequence of (label, matrix) pairs; a matrix may also be a
    (trials, 2, 2) stack, one per trial.  The arithmetic is apply_unitary's
    for a one-qubit gate that is not a permutation, gate after gate.
    """
    rows, n = state.amps, state.num_qubits
    for label, matrix in ops:
        m = np.asarray(matrix, dtype=np.complex128)
        if m.shape not in ((2, 2), (state.trials, 2, 2)):
            raise ValueError(f"matrix shape {m.shape} does not fit one target")
        rows = _two_row_update(rows, n, state.position(label), m)
    return state.with_rows(rows)


@functools.lru_cache(maxsize=256)
def _gather_table(labels: tuple[str, ...], steps: tuple, nbits: int) -> np.ndarray:
    """Gather indices of a run of permutation steps (see permute), shape
    (2**nbits, 2**n): row r plays the run with per-trial bit j set where bit
    j of r is."""
    n = len(labels)
    base = np.arange(2**n)
    gathers = []
    for control, target, bit in steps:
        if control == target or not (bit is None or 0 <= bit < nbits):
            raise ValueError(f"invalid permutation step {(control, target, bit)}")
        flips = 1 << (n - 1 - _position(labels, target))
        if control is not None:
            flips = np.where(base & (1 << (n - 1 - _position(labels, control))), flips, 0)
        # amplitude i after the step is read from the basis state that lands on i
        gathers.append((base ^ flips, bit))
    table = np.empty((2**nbits, 2**n), dtype=np.intp)
    for row in range(2**nbits):
        idx = base
        for gather, bit in gathers:
            if bit is None or (row >> bit) & 1:
                idx = idx[gather]
        table[row] = idx
    table.setflags(write=False)
    return table


def permute(state: StateVector, steps, bits=()) -> StateVector:
    """A run of permutation gates as one gather.

    Each step (control, target, bit) flips the target where the control is
    set (None: everywhere) and, if bit is an index into bits, only in trials
    whose bits[bit] is set: (c, t, None) is CNOT(c -> t), (None, t, 0) is X
    on t where bits[0] is set.  bits[j] holds one value per trial, or one
    value shared by every trial.
    """
    rows, b = state.amps, state.trials
    table = _gather_table(state.labels, tuple(steps), len(bits))
    if not bits:
        return state.with_rows(rows[:, table[0]])
    code = np.zeros(b, dtype=np.intp)
    for j, values in enumerate(bits):
        flags = np.asarray(values).reshape(-1) != 0
        if flags.shape[0] not in (1, b):
            raise ValueError(f"{flags.shape[0]} flip flags for {b} trials")
        code |= flags.astype(np.intp) << j
    return state.with_rows(_gather(rows, table, code))


def _gather(rows: np.ndarray, table: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Row t gathered by table[code[t]]."""
    return rows[np.arange(rows.shape[0])[:, np.newaxis], table[code]]


def _branch_weights(rows: np.ndarray, axis: int) -> np.ndarray:
    """Per trial, the squared norms of the target-bit-0 and target-bit-1
    halves, shape (trials, 2)."""
    b = rows.shape[0]
    parts = np.ascontiguousarray(rows).view(np.float64).reshape(b, 2**axis, 2, -1)
    # squared parts laid out terms-major in one pass: (high bits, low parts, trial, branch)
    sq = np.square(parts.transpose(1, 3, 0, 2), out=np.empty((2**axis, parts.shape[3], b, 2)))
    return _sum_terms(sq.reshape(-1, b, 2))


def probability_of_one(state: StateVector, label: str) -> np.ndarray:
    """Per trial, the probability of reading 1 on the qubit."""
    return _branch_weights(state.amps, state.position(label))[:, 1]


@functools.lru_cache(maxsize=64)
def _any_set_index(labels: tuple[str, ...], chosen: tuple[str, ...]) -> np.ndarray:
    """Basis indices, in order, with at least one of the chosen qubits set."""
    n = len(labels)
    mask = sum(1 << (n - 1 - _position(labels, lab)) for lab in chosen)
    return np.flatnonzero(np.arange(2**n) & mask)


def excited_mass(state: StateVector, labels) -> np.ndarray:
    """Per trial, the squared norm of the amplitudes with any of the named
    qubits set: one ordered sum along each row."""
    return _squared_sum(state.amps[:, _any_set_index(state.labels, tuple(labels))])


def measure(state: StateVector, target: str, uniforms: np.ndarray) -> tuple:
    """Projective computational-basis measurement of one qubit.

    Returns (outcomes, collapsed renormalized state), one int64 outcome per
    trial.  Randomness comes only from uniforms, a (trials, 1) float64 array
    in [0, 1) drawn beforehand, one row per trial; trial t reads 1 where its
    uniform lies below the probability of 1.
    """
    (bit,), out = _collapse(state, (target,), uniforms, reset=False)
    return bit, out


def measure_reset(state: StateVector, targets, uniforms: np.ndarray) -> tuple:
    """measure() then an X back to |0> where the read was 1, for each target
    qubit in turn.

    Each target takes measure's branch weights, uniform and 1/sqrt(p)
    factor; the kept branch then sits in the target's |0> slot and the other
    slot holds the discarded branch times 0, exactly what measure followed
    by the X leaves.  uniforms is a (trials, targets) float64 array in
    [0, 1) whose column i target i reads.  Returns (one outcome array per
    target, reset state).
    """
    return _collapse(state, tuple(targets), uniforms, reset=True)


@functools.lru_cache(maxsize=64)
def _slot_masks(n: int, axis: int) -> np.ndarray:
    """Row j is 1 on the real and imaginary parts where the qubit reads j, else 0."""
    bit = (np.arange(2**n) >> (n - 1 - axis)) & 1
    masks = np.repeat(np.stack([bit == 0, bit == 1]).astype(np.float64), 2, axis=1)
    masks.setflags(write=False)
    return masks


def _collapse(state: StateVector, targets: tuple[str, ...], uniforms: np.ndarray, reset: bool) -> tuple:
    rows, b = state.amps, state.trials
    if uniforms.shape != (b, len(targets)) or uniforms.dtype != np.float64:
        raise ValueError(
            f"uniforms must be a ({b}, {len(targets)}) float64 array, got {uniforms.dtype} {uniforms.shape}"
        )
    if not ((uniforms >= 0.0) & (uniforms < 1.0)).all():
        raise ValueError("uniforms must lie in [0, 1)")
    trials, outcomes = np.arange(b), []
    for i, target in enumerate(targets):
        axis = state.position(target)
        weights = _branch_weights(rows, axis)
        bits = (uniforms[:, i] < weights[:, 1]).astype(np.int64)
        kept = weights[trials, bits]
        if not kept.all():
            t = int(np.flatnonzero(kept == 0.0)[0])
            raise ValueError(f"measurement branch {bits[t]} of {target!r} has zero probability in trial {t}")
        # per trial: 1/sqrt(p) on the slot of the branch kept, 0 on the other
        masks = _slot_masks(state.num_qubits, axis)
        if reset:
            # a read 1 swaps the halves, so the kept branch lands in the |0> slot
            rows = _gather(rows, _gather_table(state.labels, ((None, target, 0),), 1), bits)
        factor = (masks[0] if reset else masks[bits]) * (1.0 / np.sqrt(kept))[:, np.newaxis]
        rows = (np.ascontiguousarray(rows).view(np.float64) * factor).view(np.complex128)
        outcomes.append(bits)
    return tuple(outcomes), state.with_rows(rows)


def reduced_density(state: StateVector, keep: list[str] | tuple[str, ...]) -> np.ndarray:
    """Partial trace onto the kept labels, in the order given.

    Returns one (2^k, 2^k) matrix per trial, shape (trials, 2^k, 2^k).  Every
    trial's matrix is validated as a density matrix: Hermitian within 1e-12,
    unit trace within 1e-12, eigenvalues above -1e-10.
    """
    if not keep:
        raise ValueError("keep must name at least one qubit")
    keep_axes = tuple(state.position(lab) for lab in keep)
    if len(set(keep_axes)) != len(keep_axes):
        raise ValueError(f"duplicate labels in keep {tuple(keep)}")
    n, k = state.num_qubits, len(keep_axes)
    rest = tuple(i for i in range(n) if i not in keep_axes)
    # terms-major (traced-out index, kept index, trial)
    t = state.amps.T[_axis_order(n, rest + keep_axes).reshape(-1, 2**k)]
    rho = _sum_terms(t[:, :, np.newaxis, :] * t.conj()[:, np.newaxis, :, :])
    rho = np.ascontiguousarray(rho.transpose(2, 0, 1))
    validate_density(rho)
    return rho


def validate_density(rho: np.ndarray) -> None:
    """Check one (d, d) density matrix or a (trials, d, d) stack; raise if any fails."""
    if np.abs(rho - np.swapaxes(rho, -1, -2).conj()).max() > 1e-12:
        raise ValueError("density matrix is not Hermitian within tolerance")
    traces = np.trace(rho, axis1=-2, axis2=-1)
    worst = np.max(np.abs(traces.real - 1.0))
    if worst > 1e-12:
        raise ValueError(f"density matrix trace deviates from 1 by {worst!r}")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ValueError("density matrix has a negative eigenvalue beyond tolerance")


def fidelity(x: StateVector, y: StateVector) -> np.ndarray:
    """Per trial, |<x|y>|^2 for pure states over the same labels in the same order.

    A one-trial side is compared with every trial of the other.
    """
    if x.labels != y.labels:
        raise ValueError(f"label mismatch: {x.labels} vs {y.labels}")
    xr, yr = x.amps, y.amps
    if xr.shape[0] != yr.shape[0] and 1 not in (xr.shape[0], yr.shape[0]):
        raise ValueError(f"batch size mismatch: {xr.shape[0]} vs {yr.shape[0]}")
    terms = np.empty((xr.shape[1], max(xr.shape[0], yr.shape[0])), dtype=np.complex128)
    overlap = _sum_terms(np.multiply(xr.conj().T, yr.T, out=terms))
    return np.square(overlap.real) + np.square(overlap.imag)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Per trial, (1/2) * trace norm of (rho - sigma), via eigenvalues of the
    difference, for two (trials, d, d) stacks such as reduced_density gives."""
    if rho.shape != sigma.shape:
        raise ValueError(f"shape mismatch: {rho.shape} vs {sigma.shape}")
    return 0.5 * _ordered_sum(np.abs(np.linalg.eigvalsh(rho - sigma)))


def purity(rho: np.ndarray) -> float:
    return float(np.trace(rho @ rho).real)


def unitarity_defect(matrix: np.ndarray) -> float:
    """Max-abs deviation of M^dagger M from the identity."""
    m = np.asarray(matrix, dtype=np.complex128)
    return float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())


def validate_unitary(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.complex128)
    defect = unitarity_defect(m)
    if defect >= ATOL:
        raise ValueError(f"matrix is not unitary: defect {defect:.3e} >= {ATOL}")
    return m

