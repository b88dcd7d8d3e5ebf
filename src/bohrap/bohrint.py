"""Integration engine for Bohr-group and real-line functionals.

Bohr integrals of pointwise functionals g(P_1(w), ..., P_k(w)) reduce to
integrals over a finite torus: characters at rationally independent
frequencies become independent uniform phases under Haar measure, so every
polynomial is evaluated by substituting e^{i (E_row . theta)} for its
characters.  Two quadratures are provided: seeded batch Monte Carlo and a
uniform tensor grid, on which one polynomial's |P|^2 is exact by discrete
orthogonality while powers and products of polynomials can alias.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import asdict, dataclass
from itertools import compress
from typing import Callable, Sequence

import numpy as np

from .appoly import APPoly
from .errors import (BasisMismatchError, BudgetError, ValidationError,
                     check_int)
from .freqspace import _integer_rows, _lattice_echelon, torus_reduce

#: Torus phases are built from signed base-2^27 limbs of the integer
#: exponents against a multi-double representation of each torus coordinate,
#: so huge exponents keep both their distribution and their exact integer
#: relations.  A limb times a coordinate rounds in float64, but limbs stay
#: below 2^26, so a phase errs by a few units of 2^-27 (the ulp just below
#: 2^26) per summed product, however large the exponents; only the count of
#: limbs grows with them.
_LIMB = 27
_LIMB_BASE = 1 << _LIMB
_LIMB_HALF = 1 << (_LIMB - 1)
_MAX_LIMBS = 5
_MAX_EXPONENT = 1 << (_LIMB * _MAX_LIMBS)
_GUARD_BITS = 60

#: Most points of a tensor grid: an automatic grid, of at least 64 nodes per
#: axis, has at most three coordinates.
TENSOR_POINT_CAP = 1 << 22

#: Monte Carlo points per batch, each batch drawn from its own child stream
#: (a call of at most this many samples runs as two batches of half as
#: many), and half the most points of a tensor-grid unit (unless one grid
#: row is longer).
MC_BATCH = 1 << 14

#: Most phases of one ``TorusEvaluator`` step (terms or coordinates x
#: points) and root-table entries of one tensor block of terms.  Against
#: 2^20, 2^18-phase steps ran the ``kac`` benchmark about 10% faster on one
#: thread and held less memory with a helper thread; 2^16 caused tens of
#: thousands of minor page faults per operation.  A fixed size keeps every
#: bit independent of the machine.
_STEP_PHASES = 1 << 18

#: Most threads that run the batches of one Monte Carlo call or the units of
#: one tensor grid: the calling thread and one helper.  Each holds a batch
#: with its own step and phase temporaries: two stay below the peak of
#: one thread with 2^20-phase steps, four did not.
_MAX_WORKERS = 2

#: Name of the helper threads of Monte Carlo calls and tensor grids.
_HELPER = "bohrap-mc"

#: Most active symbols for the exact lattice reduction of ``_phase_space``
#: (the minimal dimension and small exponents for tensor grids), and so for
#: the exact rank test of ``_affine`` on its rows.  Both come after the
#: identity certificate, at any symbol count; above this many symbols an
#: uncertified set takes the active symbol columns.
_EXACT_REDUCE_DIM = 8


@dataclass(frozen=True)
class Budget:
    """Method selection and size limits for one integral."""

    method: str = "auto"  # auto | tensor | monte-carlo
    samples: int = 1 << 16
    nodes: int | None = None  # per-dimension override for the tensor grid
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("auto", "tensor", "monte-carlo"):
            raise ValidationError(f"unknown integration method {self.method!r}")
        # Stored as Python ints, so grid sizes and JSON records take them.
        put = functools.partial(object.__setattr__, self)
        put("samples", check_int(self.samples, "samples", 1))
        if self.nodes is not None:
            put("nodes", check_int(self.nodes, "tensor nodes", 2))
        put("seed", check_int(self.seed, "seed"))


@dataclass(frozen=True)
class IntegralEstimate:
    """Value with an error indication and full replay information."""

    value: float
    std_error: float
    method: str  # tensor-quadrature | monte-carlo
    nodes_or_samples: int
    seed: int | None
    torus_dim: int
    refinement_delta: float = 0.0

    def __post_init__(self):
        if self.std_error < 0 or self.nodes_or_samples < 1:
            raise ValidationError("malformed integral estimate")

    def to_json(self) -> dict:
        doc = asdict(self)
        doc["n"] = doc.pop("nodes_or_samples")
        return doc


# ---------------------------------------------------------------------------
# Torus coordinates


def _phase_space(polys: Sequence[APPoly]):
    """Per-poly torus exponents over one shared phase space.

    Returns (dim, [E_i]) with one entry of E_i per term of poly i.  When
    ``_identity_columns`` certifies the distinct nonzero frequencies
    independent, each is its own coordinate and E_i holds the term columns:
    the coordinate of each term, -1 for the constant term (an all-zero set
    certifies as dimension 0).  Otherwise E_i is an exponent matrix with one
    row per term: from the exact lattice reduction over at most
    _EXACT_REDUCE_DIM active symbols, else from the active basis columns
    themselves (valid because declared symbols are independent by
    assumption, after a global denominator clearing), which avoids the
    exact elimination cost.
    """
    if not polys:
        raise ValidationError("need at least one polynomial")
    basis = polys[0].basis
    for p in polys[1:]:
        if p.basis != basis:
            raise BasisMismatchError("polynomials over different bases")
    all_freqs = [f for p in polys for f in p.terms]
    support, active = _support(all_freqs)
    if (cols := _identity_columns(all_freqs, support)) is not None:
        dim, E = max(cols, default=-1) + 1, np.array(cols, dtype=np.intp)
    elif len(active) <= _EXACT_REDUCE_DIM:
        red = torus_reduce(all_freqs)
        dim, E = red.dim, np.array(red.exponents, dtype=object)
    else:
        scaled, _ = _integer_rows(all_freqs)
        dim = len(active)
        E = np.array([[r[c] for c in active] for r in scaled], dtype=object)
    return dim, np.split(E, np.cumsum([len(p.terms) for p in polys])[:-1])


def _exponent_rows(dim: int, emats):
    """``_phase_space`` exponents as matrices: term columns become unit rows
    (zero for the constant term), for the few coordinates of a grid."""
    if emats[0].ndim == 2:
        return emats
    return [np.eye(dim + 1, dim, dtype=np.int64)[cols] for cols in emats]


def _affine(dim: int, E: np.ndarray) -> bool:
    """Whether one polynomial's differences f_j - f_0 are rationally
    independent, from its ``_phase_space`` exponents: always for term
    columns (independent nonzero frequencies), by an exact rank test for
    lattice rows (dim <= _EXACT_REDUCE_DIM), never for symbol columns."""
    if E.ndim == 1:
        return True
    if dim > _EXACT_REDUCE_DIM or len(E) > dim + 1:
        return False
    diffs = (E[1:] - E[0]).tolist()
    return len(_lattice_echelon(diffs)[0]) == len(diffs)


def _support(freqs):
    """Nonzero symbol indices of each distinct frequency, and active symbols."""
    support = {}
    for f in freqs:
        if f not in support:
            support[f] = list(compress(range(len(f.num)), f.num))
    return support, sorted({c for cs in support.values() for c in cs})


def _identity_columns(freqs, support) -> list[int] | None:
    """Torus coordinate of each frequency (-1 for zero), or None.

    An O(nnz) certificate of rational independence: when the distinct
    nonzero frequencies end in distinct symbols, their rows sorted by that
    last index are in echelon form, so they are independent and each is
    its own uniform phase under Haar measure.  It holds under the main
    hypothesis: exponent j h_k + s_{k,1} + ... + s_{k,j-1} ends in
    s_{k,j-1} for j >= 2, and h_k in s_{k-1,p_{k-1}}, which no stage-(k-1)
    exponent contains.  ``support`` maps each frequency to its nonzero
    symbol indices.
    """
    ends = [cs[-1] for cs in support.values() if cs]
    if len(set(ends)) != len(ends):
        return None
    col = {i: j for j, i in enumerate(sorted(ends))}
    return [col[support[f][-1]] if support[f] else -1 for f in freqs]


# ---------------------------------------------------------------------------
# Monte Carlo


def _signed_limbs(E: np.ndarray) -> list[np.ndarray]:
    """Signed base-2^27 limb matrices: E = sum_i limbs[i] * 2^(27 i).

    Each limb entry lies in [-2^26, 2^26), so a limb times a coordinate in
    [0, 1) is below 2^26 and rounds by at most 2^-28, whatever the size of
    ``E``, which holds Python or numpy ints.
    """
    rem = E
    limbs = []
    while rem.any():
        l = (rem + _LIMB_HALF) % _LIMB_BASE - _LIMB_HALF
        limbs.append(l.astype(np.float64))
        rem = (rem - l) >> _LIMB
    return limbs or [np.zeros(E.shape, dtype=np.float64)]


def _frac_pow2(x: np.ndarray, k: int):
    """frac(x * 2^k) for x in [0, 1), exactly; None when it is 0 mod 1 or
    below the noise floor."""
    if k >= 53 or k < -80:
        return None
    v = np.ldexp(x, k)
    if k <= 0:
        return v
    return v - np.floor(v)


#: e^{2 pi i x} by table lookup: x 2^20 splits exactly into two 10-bit
#: indices and a remainder r < 1, so e^{2 pi i x} = C[i] F[j] e^{i theta}
#: with theta = 2 pi r 2^-20 < 6.2e-6, whose cubic series drops terms below
#: 1e-22.  The extra entry of each table covers x = 1.  Blocks of points
#: keep the temporaries in cache.
_CIS_BITS = 10
_CIS_COARSE, _CIS_FINE = (
    np.exp((2j * np.pi / (1 << bits)) * np.arange((1 << _CIS_BITS) + 1))
    for bits in (_CIS_BITS, 2 * _CIS_BITS))
_CIS_BLOCK = 1 << 14


def _cis(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """e^{2 pi i x} elementwise for x in [0, 1], within 2e-15 of ``np.exp``,
    written into ``out`` (a C-contiguous complex array of x's shape) when
    given.

    Each value depends only on its own x, so slices of ``x`` give the same
    bits as the whole array.
    """
    flat = np.ravel(x)
    z = np.empty(flat.shape, dtype=complex) if out is None else out.reshape(-1)
    for lo in range(0, flat.size, _CIS_BLOCK):
        u = flat[lo:lo + _CIS_BLOCK] * (1 << _CIS_BITS)
        i = u.astype(np.intp)
        u -= i
        u *= 1 << _CIS_BITS
        j = u.astype(np.intp)
        u -= j
        u *= 2 * np.pi / (1 << 2 * _CIS_BITS)  # theta
        t2 = u * u
        s = np.empty(len(u), dtype=complex)
        s.real = 1.0 - 0.5 * t2
        s.imag = u - u * t2 / 6.0
        block = z[lo:lo + _CIS_BLOCK]
        np.multiply(_CIS_COARSE.take(i), _CIS_FINE.take(j), out=block)
        block *= s
    return z.reshape(np.shape(x))


@functools.cache
def _root_tables() -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo): e^{2 pi i k 2^-32} for k = k_hi 2^16 + k_lo is
    hi[k_hi] lo[k_lo], within 2e-15 of ``np.exp``.  Built on first use:
    at import, their 2 MiB raised the peak RSS of processes that sample
    nothing by 3 MB."""
    return tuple(np.exp((2j * np.pi / (1 << bits)) * np.arange(1 << 16))
                 for bits in (16, 32))


def _drawn_roots(rng: np.random.Generator, out: np.ndarray,
                 roots: tuple[np.ndarray, np.ndarray]) -> None:
    """Write e^{2 pi i k 2^-32} into ``out``, of shape (rows, n), for k
    uniform on 2^32 values, 2 _CIS_BLOCK points (or one row) at a time;
    ``roots`` are the ``_root_tables()``.

    A block of m points takes the m uint32 halves of the words of
    ``rng.bit_generator.random_raw(ceil(m / 2))`` as its k in C order, so
    (on a little-endian machine) blocks of even size draw the uint32s of
    one ``random_raw`` call.  Each phase is two gathers from 2^16-entry
    tables and a multiply; ``np.take`` in its default ``mode="raise"``
    buffers ``out`` and gathered two to three times slower.  Draws of a
    whole step raised the tracemalloc peak of a two-thread half-batch call
    over 60 coordinates to 14.7 MB."""
    rows, n = out.shape
    step = max(1, 2 * _CIS_BLOCK // n)
    low = np.empty(min(step, rows) * n, dtype=complex)
    for lo in range(0, rows, step):
        block = out[lo:lo + step].reshape(-1)
        m = block.size
        half = rng.bit_generator.random_raw(-(-m // 2)).view(np.uint16)
        np.take(roots[0], half[1:2 * m:2], out=block, mode="wrap")
        block *= np.take(roots[1], half[0:2 * m:2], out=low[:m], mode="wrap")


class TorusEvaluator:
    """Values of polynomials at points of their shared reduced torus, from
    each polynomial's coefficient array and ``_phase_space`` exponents.

    A point is theta = sum_j x_j * 2^(-53 j), given as level arrays x_j of
    shape (dim, n) in [0, 1); a grid of 53-bit points needs one level.
    Given term columns, as for independent frequencies, each polynomial is
    a0 + A . e^{2 pi i x} (``_unit`` holds A and a0, added up from the
    columns in O(terms)) and one level is exact: a grid costs one ``_cis``
    of the coordinates and one matmul, a sample two table gathers per
    phase instead of the ``_cis``.  Given exponent matrices, ``levels``
    levels keep _GUARD_BITS of phase headroom past the largest exponent,
    ``max_exponent``, and phases summed from integer limbs of the exponents
    go through the same ``_cis``.  Either way a step holds about
    _STEP_PHASES phases: the limb form evaluates column slices of that many
    // terms points, the unit form row blocks of that many // n coordinates.
    Evaluation reads no state it writes, so threads may share one.
    """

    def __init__(self, coeffs: Sequence[np.ndarray], dim: int, emats):
        self.dim = dim
        if emats[0].ndim == 1:
            # Column -1 adds the constant term into the extra slot dim.
            u = np.zeros((len(coeffs), dim + 1), dtype=complex)
            for row, c, cols in zip(u, coeffs, emats):
                np.add.at(row, cols, c)
            self._unit = (u[:, :dim].copy(), u[:, dim].copy())
            self._roots = _root_tables()  # built here, not on a batch thread
            self.levels = 1
            return
        self.max_exponent = int(max((np.abs(E).max() for E in emats if E.size),
                                    default=0))
        if self.max_exponent >= _MAX_EXPONENT:
            raise BudgetError("torus exponents exceed the supported magnitude")
        self._unit = None
        self._coeffs = coeffs
        self._width = max(1, _STEP_PHASES // sum(len(c) for c in coeffs))
        # All-zero limbs are None, so they cost no product.
        self._limbs = [[l if np.any(l) else None for l in _signed_limbs(E)]
                       for E in emats]
        self._n_limbs = max(len(ls) for ls in self._limbs)
        self.levels = -(-(_LIMB * self._n_limbs + _GUARD_BITS) // 53)

    def __call__(self, levels: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Values of each polynomial at the points of the level arrays."""
        n = levels[0].shape[1]
        if self._unit is not None:
            return self._unit_values(
                self._unit[0], n,
                lambda lo, hi, out: _cis(levels[0][lo:hi], out=out))
        out = np.empty((len(self._coeffs), n), dtype=complex)
        for lo in range(0, n, self._width):
            cols = [x[:, lo:lo + self._width] for x in levels]
            phases = [np.zeros((len(c), cols[0].shape[1])) for c in self._coeffs]
            # Each (limb, level) pair contributes limb @ frac(x_j * 2^(27 i - 53 j)).
            for j, xj in enumerate(cols):
                for i in range(self._n_limbs):
                    g = _frac_pow2(xj, _LIMB * i - 53 * j)
                    if g is None:
                        continue
                    for t, limbs in zip(phases, self._limbs):
                        if i < len(limbs) and limbs[i] is not None:
                            t += limbs[i] @ g
            # np.mod maps a tiny negative phase to 1.0, which _cis covers.
            for row, c, t in zip(out, self._coeffs, phases):
                row[lo:lo + self._width] = c @ _cis(np.mod(t, 1.0))
        return list(out)

    def sample(self, rng: np.random.Generator, n: int) -> list[np.ndarray]:
        """Values at n Haar-random points.

        The limb form evaluates the draws of ``rng.random((dim, n))``, once
        per level.  The unit form draws a shift u = ``rng.random(dim)``
        first, then the points x = (k 2^-32 + u) mod 1 with k uniform on
        2^32 values per coordinate, from ``_drawn_roots`` one row step at a
        time: e^{2 pi i x} is a table root times e^{2 pi i u}, and the
        shift goes into the coefficients, A e^{2 pi i u}.  Each point is
        exactly as uniform as ``rng.random``; given u the points are
        independent, and the sample variance leaves out only the variance
        over u of the shifted 2^32-point lattice rule, which is 0 unless
        an integrand has a Fourier mode whose indices are all multiples of
        2^32, not all 0."""
        if self._unit is None:
            return self([rng.random((self.dim, n)) for _ in range(self.levels)])
        shifted = self._unit[0] * _cis(rng.random(self.dim))
        return self._unit_values(
            shifted, n, lambda lo, hi, out: _drawn_roots(rng, out, self._roots))

    def _unit_values(self, A: np.ndarray, n: int, fill) -> list[np.ndarray]:
        """a0 + A . e^{2 pi i x} at n points, one step of rows at a time, in
        order; ``fill(lo, hi, out)`` writes e^{2 pi i x} on rows lo:hi of x
        into ``out``, one buffer that every step reuses."""
        a0 = self._unit[1]
        z = np.zeros((len(A), n), dtype=complex)
        rows = max(1, _STEP_PHASES // n)
        buf = np.empty((min(rows, self.dim), n), dtype=complex)
        for lo in range(0, self.dim, rows):
            hi = min(lo + rows, self.dim)
            fill(lo, hi, buf[:hi - lo])
            z += A[:, lo:hi] @ buf[:hi - lo]
        z += a0[:, None]
        return list(z)


def _coefficients(polys: Sequence[APPoly]) -> list[np.ndarray]:
    """Each polynomial's coefficients in term order, as a complex array."""
    return [np.array(list(p.terms.values()), dtype=complex) for p in polys]


def _finite(y, n: int) -> np.ndarray:
    """An integrand's values at ``n`` points: one finite value per point."""
    y = np.asarray(y)
    if y.shape != (n,):
        raise ValidationError(f"integrand returned shape {y.shape} for {n} points")
    if not np.all(np.isfinite(y)):
        raise ValidationError("integrand returned non-finite values")
    return y


def _workers() -> int:
    """Threads that run Monte Carlo batches and tensor units: the usable
    CPUs, at most _MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, _MAX_WORKERS))


@functools.cache
def _malloc_trim():
    """glibc ``malloc_trim``, or None where the C library has none."""
    import ctypes
    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None


def _run_batches(run: Callable[[int], object], n: int) -> list:
    """[run(b) for b in range(n)] on this thread and up to _workers() - 1
    helper threads, started for this call and joined before it returns.

    With w threads, thread t runs batches t, t + w, t + 2w, ... one at a
    time (this thread is t = 0), and each result goes to its own slot.  A
    thread stops at its first failure and before any batch above the lowest
    failure seen so far.  Every batch below the lowest failure still runs,
    so the exception of the lowest failed batch, the one a loop would raise,
    reaches the caller.  Calls from a helper thread (nested integrals) run
    their batches inline.  Monte Carlo batches and tensor-grid units both
    run here.
    """
    w = min(_workers(), n)
    if w == 1 or threading.current_thread().name == _HELPER:
        return [run(b) for b in range(n)]
    out = [None] * n
    errors = {}
    lowest = n  # lowest failed batch seen so far

    def work(t):
        nonlocal lowest
        for b in range(t, n, w):
            if b > lowest:
                return
            try:
                out[b] = run(b)
            except BaseException as exc:
                errors[b] = exc
                lowest = min(lowest, b)  # a lost race only runs more batches
                return

    helpers = []
    try:
        for t in range(1, w):
            h = threading.Thread(target=work, args=(t,), name=_HELPER)
            h.start()
            helpers.append(h)
        work(0)
    finally:
        for h in helpers:
            h.join()
        # Each helper allocates from its own malloc arena, which keeps up to
        # twice the mmap threshold of freed memory that this thread cannot
        # reuse; give those pages back.
        if (trim := _malloc_trim()) is not None:
            trim(0)
    if errors:
        raise errors[min(errors)]
    return out


def _monte_carlo(gs, ev: TorusEvaluator, budget: Budget):
    """Seeded batch Monte Carlo of the integrands at ``ev``'s polynomials.

    Batch b draws from the child stream SeedSequence(seed, spawn_key=(b,)),
    the b-th of SeedSequence(seed).spawn(), made when the batch starts.
    Samples that fit one MC_BATCH run as two batches of MC_BATCH // 2
    points, so the ``_run_batches`` threads share them on any machine with
    the same bits.
    """
    n_batches = -(-budget.samples // MC_BATCH)
    size = MC_BATCH
    if n_batches == 1:
        n_batches, size = 2, MC_BATCH // 2
    total = n_batches * size

    def batch(b):
        seq = np.random.SeedSequence(budget.seed, spawn_key=(b,))
        vals = ev.sample(np.random.default_rng(seq), size)
        sums = []
        for g in gs:
            y = _finite(g(*vals), size)
            sums.append((y.sum(), float((y.real * y.real).sum())))
        return sums

    sums = np.zeros(len(gs), dtype=complex)
    sumsq = np.zeros(len(gs))
    # Per-batch child streams and sums added in batch order keep the
    # estimate bit-identical for any number of threads.
    for batch_sums in _run_batches(batch, n_batches):
        for i, (s, sq) in enumerate(batch_sums):
            sums[i] += s
            sumsq[i] += sq
    out = []
    for i in range(len(gs)):
        m = sums[i] / total
        var = max(0.0, sumsq[i] / total - m.real * m.real)
        out.append(IntegralEstimate(
            value=float(m.real),
            std_error=math.sqrt(var / total),
            method="monte-carlo",
            nodes_or_samples=total,
            seed=budget.seed,
            torus_dim=ev.dim,
        ))
    return out


# ---------------------------------------------------------------------------
# Tensor quadrature


def _grid_sizes(emats, dim: int, nodes: int | None) -> list[int]:
    """Nodes per torus coordinate: ``nodes``, or else the smallest power of
    two of at least 64 above twice the largest exponent magnitude."""
    if nodes is not None:
        return [nodes] * dim
    if emats[0].ndim == 1:  # term columns: exponent 1 on every coordinate
        return [64] * dim
    top = np.abs(np.concatenate(emats)).max(axis=0) if dim else ()
    return [max(64, 1 << (2 * int(m)).bit_length()) for m in top]


def _layout(ns):
    """Nodes per axis, the 0-torus being a grid of one node, and the split
    hi of the last axis into rows of n_last / hi points: hi is near
    sqrt(n_last / points of the other axes), so 1 unless those are fewer."""
    ns = list(ns) or [1]
    n, points = ns[-1], math.prod(ns)
    return ns, math.gcd(n, 1 << (n * n // points).bit_length() // 2)


def _term_blocks(coeffs, E, ns):
    """The grid sum_t c_t e^{2 pi i sum_i E[t, i] k_i / n_i} of ``ns`` nodes
    as a sum of separable factors, one pair (U^T, F_last) per block of terms.

    Each term is separable: with per-axis root tables F[t, k], the grid in C
    order, cut into rows of n_last / hi points, is U^T F_last for U = c times
    the row-wise Kronecker product of the other tables.  A block of terms
    holds about _STEP_PHASES table entries; a few terms are one block, and
    no terms give one empty block.  The 0-torus is a grid of one node.
    """
    if not ns:
        E = np.zeros((len(coeffs), 1), dtype=np.int64)
    ns, hi = _layout(ns)
    # Python ints reduce huge exponents exactly before they become int64.
    E = (E % np.array(ns, dtype=object)).astype(np.int64)
    d, n, points = len(ns), ns[-1], math.prod(ns)
    # Table (i, m, st) is F[t, k] = root_i[e_ti st k mod n_i] for k < m; the
    # last axis, k = q n / hi + r, gets one over q < hi and one over r.
    axes = ([(i, m, 1) for i, m in enumerate(ns[:-1])]
            + [(d - 1, hi, n // hi), (d - 1, n // hi, 1)])
    roots = [np.exp((2j * np.pi / m) * np.arange(m)) for m in ns]
    step = max(1, _STEP_PHASES // (points * hi // n + sum(m for _, m, _ in axes)))
    for s in range(0, max(1, len(coeffs)), step):
        F = [roots[i][np.outer(E[s:s + step, i] * st % ns[i], np.arange(m)) % ns[i]]
             for i, m, st in axes]
        U = coeffs[s:s + step, None]
        for f in F[:-1]:
            U = (U[:, :, None] * f[:, None, :]).reshape(len(U), U.shape[1] * f.shape[1])
        yield U.T, F[-1]


def _block_sum(blocks, rows=slice(None)):
    """Rows ``rows`` of the grid of ``_term_blocks``."""
    for b, (Ut, F) in enumerate(blocks):
        if b == 0:
            grid = Ut[rows] @ F
        else:
            grid += Ut[rows] @ F
    return grid


def _tensor_values(coeffs, E, ns):
    """The whole grid of ``ns`` nodes, built one block of terms at a time."""
    return _block_sum(_term_blocks(coeffs, E, ns)).reshape(ns)


def _tensor(gs, coeffs, emats, ns):
    """Means on the uniform grid of ``ns`` nodes and on its every-other-node
    subgrid, whose difference is the refinement delta.

    The grid is cut into C-order units of whole rows of ``_term_blocks``,
    at most 2 MC_BATCH points or else one row, which run through
    ``_run_batches``, so on the Monte Carlo threads.  Per unit each
    polynomial's values take one matrix product per block of terms, each
    integrand is called once, and its sums over the unit and its subgrid
    nodes come from one product with the row parities.  Unit sums are added
    exactly in row order, so the estimate has the same bits for any thread
    count.  Units of 2^15 points took the interpreter lock half as often as
    units of 2^14, which gained about a third less on two CPUs.  A
    polynomial's factors are kept when they hold fewer entries than the
    grid; otherwise its whole grid, built one block of terms at a time, is
    kept instead.
    """
    full, hi = _layout(ns)
    width = full[-1] // hi
    rows = math.prod(full) // width
    row_values = []
    for c, E in zip(coeffs, emats):
        if len(c) * (rows + width) < rows * width:
            blocks = list(_term_blocks(c, E, ns))
            row_values.append(functools.partial(_block_sum, blocks))
        else:
            row_values.append(_tensor_values(c, E, ns).reshape(rows, width).__getitem__)
    # Row r holds the nodes (k_0, ..., k_{d-2}, q width + j), j < width, for
    # the C-order index (k_0, ..., k_{d-2}, q) of r.  Row sums over the
    # columns of even and of odd j lie on the subgrid when every k_i and
    # q width + j are even.
    *index, q = np.unravel_index(np.arange(rows), (*full[:-1], hi))
    on = np.stack([(q * width + j) % 2 == 0 for j in (0, 1)], axis=1)
    for k in index:
        on &= (k % 2 == 0)[:, None]
    parity = np.zeros((width, 2))
    parity[0::2, 0] = parity[1::2, 1] = 1.0
    unit = max(1, 2 * MC_BATCH // width)

    def run(u):
        # Per integrand, the real parts of the sums over unit u and over
        # its subgrid nodes.
        r = slice(u * unit, (u + 1) * unit)
        here = on[r]
        vals = [values(r).ravel() for values in row_values]
        n = len(here) * width
        sums = []
        for g in gs:
            s = (_finite(g(*vals), n).reshape(len(here), width) @ parity).real
            sums.append((s.sum(), s[here].sum()))
        return sums

    # Unit sums in row order, added exactly.
    units = _run_batches(run, -(-rows // unit))
    points = math.prod(ns)
    half_points = math.prod((m + 1) // 2 for m in ns)
    out = []
    for i in range(len(gs)):
        total, sub = zip(*(sums[i] for sums in units))
        value = math.fsum(total) / points
        out.append(IntegralEstimate(
            value=value,
            std_error=0.0,
            method="tensor-quadrature",
            nodes_or_samples=points,
            seed=None,
            torus_dim=len(ns),
            refinement_delta=abs(value - math.fsum(sub) / half_points),
        ))
    return out


# ---------------------------------------------------------------------------
# Public entry points


def bohr_integral_multi(gs: Sequence[Callable], polys: Sequence[APPoly],
                        budget: Budget = Budget()) -> list[IntegralEstimate]:
    """Estimate several functionals of the same polynomials on shared nodes.

    Sharing the sample set makes the errors of the returned estimates
    correlate, which is exactly what inequality checks want.  The method is
    chosen here, once per call, on the joint torus of all ``polys``: "auto"
    takes the tensor grid of at most ``TENSOR_POINT_CAP`` points, else Monte
    Carlo; "tensor" raises ``BudgetError`` on a larger grid.
    Integrands must be pointwise and pure: each is called once per Monte
    Carlo batch of MC_BATCH points (two batches of MC_BATCH // 2 when the
    samples fit one) or grid unit of at most 2 MC_BATCH points (unless one
    grid row is longer), on every polynomial's values there.  On both
    routes batches or units are split by index between the calling thread
    and at most one helper thread that lives for this call, so an integrand
    may be called from either, both at once; sums per batch or per unit are
    added in order, so the estimate does not depend on the thread count.
    """
    dim, emats = _phase_space(polys)
    coeffs = _coefficients(polys)
    if budget.method != "monte-carlo":
        ns = _grid_sizes(emats, dim, budget.nodes)
        points = math.prod(ns)
        if points <= TENSOR_POINT_CAP:
            return _tensor(gs, coeffs, _exponent_rows(dim, emats), ns)
        if budget.method == "tensor":
            raise BudgetError(
                f"tensor grid of {points} points exceeds the cap {TENSOR_POINT_CAP}"
            )
    return _monte_carlo(gs, TorusEvaluator(coeffs, dim, emats), budget)


def bohr_integral(g: Callable, polys: Sequence[APPoly],
                  budget: Budget = Budget()) -> IntegralEstimate:
    """Bohr-group integral of a pointwise functional of several polynomials."""
    return bohr_integral_multi([g], polys, budget)[0]


def mean_abs(p: APPoly, budget: Budget = Budget()) -> IntegralEstimate:
    """The L1 norm of p over the Bohr group."""
    return bohr_integral(np.abs, [p], budget)


# ---------------------------------------------------------------------------
# Real-line quadrature


#: Gauss-Legendre nodes per panel of the real-line Cesaro mean.
_PANEL_NODES = 12

#: Node cap of the interval trapezoid doubling.
_L1_MAX_NODES = 1 << 21


def real_line_mean(p: APPoly, T: float) -> float:
    """Cesaro mean (1/2T) integral of p over [-T, T].

    Composite Gauss-Legendre panels sized against the largest frequency, so
    the quadrature error is negligible next to the O(1/T) distance from the
    asymptotic mean.
    """
    if not (math.isfinite(T) and T > 0):
        raise ValidationError("T must be a finite positive number")
    max_w = p.degree() if len(p) else 0.0
    h = 1.0 if max_w <= 3.0 else 3.0 / max_w
    n_panels = max(1, int(math.ceil(2.0 * T / h)))
    if n_panels * _PANEL_NODES > 5_000_000:
        raise BudgetError("real-line quadrature would need too many nodes")
    x, w = np.polynomial.legendre.leggauss(_PANEL_NODES)
    edges = np.linspace(-T, T, n_panels + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    pts = (centers[:, None] + half * x[None, :]).ravel()
    vals = p.eval_real(pts).reshape(n_panels, _PANEL_NODES)
    integral = float((vals.real @ w).sum() * half)
    return integral / (2.0 * T)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    refinement_delta: float
    nodes: int


def interval_l1_distortion(p: APPoly, a: float, b: float,
                           rel_tol: float = 1e-6) -> QuadratureResult:
    """(1/(b-a)) integral over [a, b] of | |p(x)|^2 - 1 | dx on the real line.

    Composite trapezoid with doubling until the refinement delta stabilizes;
    the integrand has kinks, so doubling rather than high order is the right
    tool.  Each doubling evaluates only the new midpoints and adds them to
    the running node sum.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValidationError("need finite interval bounds a < b")

    def f(x):
        return np.abs(np.abs(p.eval_real(x)) ** 2 - 1.0)

    n = 1024
    y = f(np.linspace(a, b, n + 1))
    # Trapezoid sum over n intervals, in units of the node spacing.
    s = float(0.5 * (y[0] + y[-1]) + y[1:-1].sum())
    prev = s / n
    while True:
        s += float(f(np.linspace(a, b, 2 * n + 1)[1::2]).sum())
        n *= 2
        cur = s / n
        delta = abs(cur - prev)
        if delta <= rel_tol * max(1.0, abs(cur)) or n >= _L1_MAX_NODES:
            return QuadratureResult(value=cur, refinement_delta=delta, nodes=n + 1)
        prev = cur
