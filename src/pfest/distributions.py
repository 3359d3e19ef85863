"""Finite-support proposal/target pairs with exact density ratios.

A pair holds a proposal ``mu`` and a target ``nu`` on a shared finite
support, plus the true normalizing constant ``z_true`` used to evaluate
the unnormalized density ``lambda = z_true * dnu/dmu``. Everything
downstream (coverage profiles, planners, estimators, the sampling race)
consumes these pairs, and because the support is finite every tail
quantity has an exact closed form to test against.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .rng import _check_count, _check_integer, make_generator

# Inputs whose weights deviate from a probability vector by more than
# this are rejected rather than silently renormalized.
WEIGHT_SUM_TOL = 1e-9

# Consistency of E_mu[ratio] with the nu-mass actually reachable from mu.
RATIO_MEAN_TOL = 1e-12

# OpenBLAS splits dot products longer than this across threads, so their
# rounding depends on the thread count; ordered_dot never passes it more.
DOT_CHUNK = 10_000

# np.einsum sums a row longer than its 8 192-element buffer in pieces that
# depend on how many rows the call holds; ordered_dot never passes it more.
ROW_DOT_CHUNK = 8192

# The guide-table walk of draw_atoms steps each uniform at most
# GUIDE_MAX_STEPS atoms past its guide entry, finishes the few still
# short with searchsorted, and works in chunks of GUIDE_CHUNK uniforms
# (both measured, see CHANGES.md).
GUIDE_MAX_STEPS = 2
GUIDE_CHUNK = 1 << 14

# draw_block maps this many uniforms at a time, to hold one chunk's atoms.
DRAW_CHUNK = 1 << 16

# make_random_pair fills nu on a helper thread, while the calling thread
# fills mu, once the support has this many atoms; numpy releases the GIL
# in the draw, sum and divide loops. Threaded over serial time of
# make_random_pair, each the median of 301 alternating calls, and the
# median of three such runs, on 2 shared CPUs and on one of them
# (taskset -c 0); see CHANGES.md:
#
#     atoms   2 CPUs   1 CPU
#     2^14    1.33     1.32
#     2^15    0.99     1.23
#     2^16    0.90     1.17
#     2^17    0.76     1.13
#     2^18    0.70     1.07
#
# Below the cut, starting and joining the thread costs more than the
# second CPU saves, and on one CPU it does at every size, so a process
# that may run on only one (``_usable_cpus``) builds serially.
PARALLEL_FILL_MIN = 1 << 16


def ordered_dot(a: np.ndarray, b: np.ndarray):
    """Dot product of a 1-d ``b`` with an equally long 1-d ``a``, or of
    each row (last axis) of an ``a`` of two or more dimensions with ``b``
    or with the same row of ``b``, that does not depend on the BLAS
    thread count.

    The dots run over consecutive chunks added left to right: for a 1-d
    ``a``, np.dot over chunks of at most DOT_CHUNK elements (so up to
    DOT_CHUNK elements give exactly np.dot), as a float; otherwise
    np.einsum, whose loops never call BLAS, over chunks of at most
    ROW_DOT_CHUNK, as an array of shape ``a.shape[:-1]`` whose rows are
    the same whatever the leading axes.
    """
    if a.ndim >= 2:
        chunk, dot = ROW_DOT_CHUNK, lambda x, y: np.einsum("...j,...j->...", x, y)
    else:
        chunk, dot = DOT_CHUNK, np.dot
    total = dot(a[..., :chunk], b[..., :chunk])
    for start in range(chunk, a.shape[-1], chunk):
        total = total + dot(a[..., start:start + chunk], b[..., start:start + chunk])
    return total if a.ndim >= 2 else float(total)


def descending_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(-values, kind="stable")`` for values that are >= 0,
    -0.0 or inf: the indices in decreasing order of value, ties (-0.0
    and 0.0 among them) in increasing order of index.

    Read as uint64, the bit patterns of floats >= 0 order as the floats
    do, and their complements the other way. Each key is the complement
    of a value's pattern, -0.0 read as 0.0, with its low bit_length(S -
    1) bits replaced by the index, so a plain sort of the keys (SIMD,
    several times faster than argsort) orders the indices, which the
    low bits then give. They can be out of order only within a run of
    keys that share their high bits, where values differ in the
    replaced bits alone: only where such a run holds a rise in value
    are its indices sorted again, all such runs by one stable lexsort.
    """
    low = np.uint64((1 << (values.size - 1).bit_length()) - 1)
    keys = np.add(values, 0.0).view(np.uint64)  # -0.0 + 0.0 is 0.0
    # (pattern | low) ^ ~index: the high bits complemented and, as no
    # index passes low, the index in the low bits
    keys |= low
    keys ^= np.invert(np.arange(values.size, dtype=np.uint64))
    keys.sort()
    order = (keys & low).view(np.int64)
    # only neighbours whose keys share their high bits can be out of
    # order; the lexsort keeps the runs in the sort's order, by those
    # bits, and within a run the increasing indices of equal values
    if ((keys[1:] ^ keys[:-1]) <= low).any():
        levels = values[order]
        rises = levels[1:] > levels[:-1]
        if rises.any():
            keys &= ~low
            redo = np.flatnonzero(np.isin(keys, keys[1:][rises]))
            order[redo] = order[redo][np.lexsort((-levels[redo], keys[redo]))]
    return order


class _Rows(NamedTuple):
    """A (3, S) float64 buffer that a builder of this module allocated,
    with mu's and nu's weights in rows 0 and 1, handed over as both
    weights of the pair it builds: the pair normalizes the two rows in
    place and writes its ratios into row 2."""

    buffer: np.ndarray


def _checked_weights(w, label: str) -> tuple[np.ndarray, float, float]:
    """The weights ``w`` read as float64, their sum and their least
    entry.

    ``w`` is never written to here: it is read as a view where it
    already is a float64 array. A minimum of at least 0 and a finite sum
    rule out a nan, an inf and a negative entry at once; only weights
    failing that are scanned to say which. Dividing by a sum within
    WEIGHT_SUM_TOL of 1 keeps every positive weight positive, so the
    minimum tells whether any normalized weight is 0."""
    src = np.asarray(w, dtype=np.float64)
    if src.ndim != 1 or src.size == 0:
        raise ValueError(f"{label} must be a non-empty 1-d weight vector")
    total = float(src.sum())
    low = float(src.min())
    if not (low >= 0 and math.isfinite(total)):
        if not np.all(np.isfinite(src)):
            raise ValueError(f"{label} contains non-finite entries")
        if np.any(src < 0):
            raise ValueError(f"{label} contains negative entries")
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(
            f"{label} sums to {total!r}; must be within {WEIGHT_SUM_TOL} of 1"
        )
    return src, total, low


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class GuideTable(NamedTuple):
    """Guide table (cutpoints) over a cumulative mass table ``cdf`` of
    S atoms, for inverse-CDF draws in O(1) expected time (Chen & Asau,
    1974; Devroye, *Non-Uniform Random Variate Generation*, 1986,
    III.2.4).

    ``scale`` is K, the least power of two >= S. ``guide[j]`` counts
    the atoms i with ``cdf[i] <= j/K``; for u in [j/K, (j+1)/K) that is
    never more than the searched atom ``#{i : cdf[i] <= u}``, which
    lies at most ``max_steps`` atoms further on: ``max_steps`` is the
    largest number of cdf values strictly inside one bucket.
    ``cdf_ext`` is ``cdf`` followed by a +inf sentinel, so a step from
    atom S reads a value above every u; the table keeps the buffer it is
    built from, which its pair's ``mu_cdf`` is a view of.
    """

    scale: int
    guide: np.ndarray
    cdf_ext: np.ndarray
    max_steps: int

    @classmethod
    def build(cls, cdf_ext: np.ndarray) -> "GuideTable":
        """The table over ``cdf_ext[:-1]``, whose last entry must be
        +inf. Holds two support-sized temporaries besides its own
        ``guide`` while it builds: each goes once it is read."""
        cdf = cdf_ext[:-1]
        scale = 1 << (cdf.size - 1).bit_length()
        # exact: K is a power of two, so cdf * K rounds nowhere, and
        # cdf[i] <= j/K holds exactly when ceil(cdf[i] * K) <= j
        scaled = cdf * scale
        ceiled = np.ceil(scaled)
        on_edge = ceiled == scaled
        del scaled
        cells = ceiled.astype(np.intp)
        del ceiled
        # cells past K, of the values past 1 that rounding can leave, add
        # only to counts past the guide's last entry
        guide = np.bincount(cells, minlength=scale + 1)[:scale]
        np.cumsum(guide, out=guide)
        # a value strictly inside bucket j has cell j + 1; values on an
        # edge are inside no bucket, so they are moved to cell 0, which
        # only the edge value 0 has
        cells[on_edge] = 0
        inside = np.bincount(cells)[1:scale + 1]
        return cls(
            scale=scale,
            guide=_freeze(guide),
            cdf_ext=_freeze(cdf_ext),
            max_steps=int(inside.max(initial=0)),
        )

    def search(self, u: np.ndarray) -> np.ndarray:
        """``searchsorted(cdf, u, side="right")`` for uniforms in
        [0, 1), bit for bit: start at the guide entry of u's bucket and
        step forward while the next boundary is at or below u. Runs in
        chunks of GUIDE_CHUNK uniforms, whose temporaries stay in cache."""
        flat = u.ravel()
        atoms = np.empty(flat.shape, dtype=np.intp)
        steps = min(self.max_steps, GUIDE_MAX_STEPS)
        for start in range(0, flat.size, GUIDE_CHUNK):
            chunk = flat[start:start + GUIDE_CHUNK]
            found = self.guide[(chunk * self.scale).astype(np.intp)]
            for _ in range(steps):
                found += self.cdf_ext[found] <= chunk
            if self.max_steps > steps:
                short = self.cdf_ext[found] <= chunk
                found[short] = np.searchsorted(
                    self.cdf_ext, chunk[short], side="right"
                )
            atoms[start:start + GUIDE_CHUNK] = found
        return atoms.reshape(u.shape)


@dataclass(frozen=True, eq=False)
class DistributionPair:
    """Proposal/target pair on a shared finite support.

    ``ratio_cache[i]`` is dnu/dmu at atom i: ``nu[i]/mu[i]`` where the
    proposal has mass, ``inf`` where the target has mass but the
    proposal does not (that mass is also totalled in
    ``singular_mass``), and 0 on atoms carrying neither.
    ``last_drawable_atom`` is the index of the last atom with proposal
    mass, where inverse-CDF draws are clipped.

    ``positive`` tells whether every atom has both proposal and target
    mass: only then does ``CoverageProfile.from_pair`` cut a partial
    profile.

    The tables ``mu_cdf``, its ``mu_guide``, ``lambda_drawn`` and
    ``ratio_order`` are built once, on first use, and are read-only.
    They and the flag are not fields, so ``repr`` ignores them. Pairs
    compare by identity: ``==`` is ``is``.

    The pair holds one C-contiguous (3, S) float64 buffer, allocated
    once: its rows are ``mu_weights``, ``nu_weights`` and
    ``ratio_cache``, read-only views. Weights passed in are divided by
    their sum into the first two rows of a new buffer and never written
    to; a zero weight, -0.0 included, is 0.0 there, so no row of a pair
    holds -0.0, whichever way it was built. The builders of this module
    draw or compute their weights straight into the rows of a buffer
    they hand over, and those are normalized in place. One allocation instead of three keeps a
    rebuilt pair on memory the allocator kept from the last one, where
    separate arrays are handed back to the kernel and faulted in again.
    """

    mu_weights: np.ndarray
    nu_weights: np.ndarray
    z_true: float
    name: str = ""
    ratio_cache: np.ndarray = field(init=False, repr=False)
    singular_mass: float = field(init=False)
    last_drawable_atom: int = field(init=False, repr=False)

    def __post_init__(self):
        handed = self.mu_weights if isinstance(self.mu_weights, _Rows) else None
        given = (self.mu_weights, self.nu_weights) if handed is None else handed.buffer
        mu_src, mu_total, mu_low = _checked_weights(given[0], "mu_weights")
        nu_src, nu_total, nu_low = _checked_weights(given[1], "nu_weights")
        if mu_src.shape != nu_src.shape:
            raise ValueError(
                f"support mismatch: mu has {mu_src.size} atoms, nu has {nu_src.size}"
            )
        z = float(self.z_true)
        if not (math.isfinite(z) and z > 0):
            raise ValueError(f"z_true must be positive and finite, got {z!r}")

        rows = np.empty((3, mu_src.size)) if handed is None else handed.buffer
        mu = np.divide(mu_src, mu_total, out=rows[0])
        nu = np.divide(nu_src, nu_total, out=rows[1])
        # a zero weight reads 0.0, never -0.0 (-0.0 + 0.0 is 0.0), so no
        # ratio is -0.0 either; only a row whose least weight is 0 can
        # hold one
        for row, low in ((mu, mu_low), (nu, nu_low)):
            if low == 0:
                row += 0.0
        ratio = rows[2]
        # nu / mu passes the float range only where mu is below the least
        # normal float (nu is at most about 1); such a ratio is rejected
        # below, by atom, with numpy's overflow warning off
        quiet = mu_low < sys.float_info.min
        with np.errstate(over="ignore") if quiet else contextlib.nullcontext():
            if mu_low > 0:
                np.divide(nu, mu, out=ratio)
                singular = 0.0
                mean = ordered_dot(mu, ratio)
                top = float(ratio.max())
                last_drawable = mu.size - 1
            else:
                pos = mu > 0
                ratio.fill(0.0)
                np.divide(nu, mu, out=ratio, where=pos)
                singular = float(nu[~pos].sum())
                ratio[~pos & (nu > 0)] = np.inf
                mean = ordered_dot(mu[pos], ratio[pos])
                top = float(np.max(ratio, where=pos, initial=0.0))
                last_drawable = int(mu.size - 1 - np.argmax(pos[::-1]))
        if math.isinf(top):
            atom = int(np.flatnonzero((mu > 0) & (ratio == top))[0])
            raise ValueError(
                f"ratio at atom {atom} passes the float range: "
                f"nu {float(nu[atom])!r} / mu {float(mu[atom])!r}"
            )
        if abs(mean + singular - 1.0) > RATIO_MEAN_TOL:
            raise ValueError(
                "inconsistent pair: E_mu[ratio] + singular_mass = "
                f"{mean + singular!r}, expected 1"
            )
        # lambda = z * ratio on every atom a draw can land on, whose
        # largest ratio is top, must be a float; ratios of atoms without
        # proposal mass are never scaled
        if math.isinf(z * top):
            atom = int(np.flatnonzero((mu > 0) & (ratio == top))[0])
            raise ValueError(
                f"z_true * ratio at atom {atom} passes the float range: "
                f"{z!r} * {top!r}"
            )

        # views taken after the freeze are read-only too
        _freeze(rows)
        object.__setattr__(self, "mu_weights", rows[0])
        object.__setattr__(self, "nu_weights", rows[1])
        object.__setattr__(self, "z_true", z)
        object.__setattr__(self, "ratio_cache", rows[2])
        object.__setattr__(self, "singular_mass", singular)
        object.__setattr__(self, "last_drawable_atom", last_drawable)
        object.__setattr__(self, "positive", mu_low > 0 and nu_low > 0)

    @property
    def support_size(self) -> int:
        return int(self.mu_weights.size)

    @property
    def absolutely_continuous(self) -> bool:
        return self.singular_mass == 0.0

    @cached_property
    def _mu_cdf_ext(self) -> np.ndarray:
        """``mu_cdf`` followed by +inf, in one S + 1 buffer that
        ``mu_guide`` shares."""
        ext = np.empty(self.support_size + 1)
        np.cumsum(self.mu_weights, out=ext[:-1])
        ext[-1] = np.inf
        return _freeze(ext)

    @cached_property
    def mu_cdf(self) -> np.ndarray:
        """Cumulative proposal mass per atom, the inverse-CDF table: a
        view of the first S entries of the buffer whose last entry is
        the guide table's +inf sentinel."""
        return self._mu_cdf_ext[:-1]

    @cached_property
    def mu_guide(self) -> GuideTable:
        """Guide table over ``mu_cdf``, for calls of ``draw_atoms`` with
        at least as many uniforms as atoms; its ``cdf_ext`` is the
        buffer ``mu_cdf`` views, not a copy."""
        return GuideTable.build(self._mu_cdf_ext)

    @cached_property
    def lambda_drawn(self) -> np.ndarray:
        """The unnormalized target density z_true * dnu/dmu on the atoms
        up to the last one with proposal mass, 0 on those without it, so
        exact on every atom a draw can land on. ``count_block``'s hit
        counts are dotted with it: on a massless atom carrying target mass
        the density is inf, where 0 hits times inf would give nan."""
        lam = np.where(self.mu_weights > 0, self.z_true * self.ratio_cache, 0.0)
        return _freeze(lam[: self.last_drawable_atom + 1])

    @cached_property
    def ratio_order(self) -> np.ndarray:
        """The atoms in decreasing order of ``ratio_cache``, ties in
        increasing order of index (``descending_order``): the one sort of
        the pair's ratios, which its complete profile, its race law and
        the count engine's order statistics read."""
        return _freeze(descending_order(self.ratio_cache))

    def lambda_at(self, atoms: np.ndarray) -> np.ndarray:
        """``lambda_drawn[atoms]`` for drawn atoms, bit for bit, from the
        gathered ratios: O(len(atoms)) work and no support-sized table,
        for draws that may be fewer than the atoms."""
        lam = self.ratio_cache[atoms]
        lam *= self.z_true
        return lam

    def nu_mean(self, g) -> float:
        """E_nu[g] for a per-atom function table ``g``."""
        g = np.asarray(g, dtype=np.float64)
        if g.shape != self.nu_weights.shape:
            raise ValueError(
                f"g has {g.size} entries, support has {self.support_size}"
            )
        return ordered_dot(self.nu_weights, g)


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """i.i.d. proposal draws with their unnormalized density values.
    ``seed`` is the Philox key they were drawn under, so
    ``sample(pair, n, seed)`` replays them."""

    atoms: np.ndarray
    lambdas: np.ndarray
    seed: int
    n: int

    def __post_init__(self):
        if self.atoms.shape != (self.n,) or self.lambdas.shape != (self.n,):
            raise ValueError("batch arrays must both have shape (n,)")
        object.__setattr__(self, "atoms", _freeze(np.asarray(self.atoms)))
        object.__setattr__(self, "lambdas", _freeze(np.asarray(self.lambdas)))


def make_finite_pair(mu_weights, nu_weights, z, name: str = "") -> DistributionPair:
    """Pair from explicit weight vectors; weights are validated and
    renormalized exactly at construction, into new arrays: the vectors
    passed in are never written to. A weight of -0.0 is read as 0.0."""
    return DistributionPair(
        mu_weights=np.asarray(mu_weights, dtype=np.float64),
        nu_weights=np.asarray(nu_weights, dtype=np.float64),
        z_true=z,
        name=name,
    )


def _handed_pair(rows: np.ndarray, z, name: str) -> DistributionPair:
    """The pair whose weights are rows 0 and 1 of ``rows``, a (3, S)
    float64 buffer the caller allocated and no longer touches: the pair
    normalizes them in place and keeps the buffer."""
    handed = _Rows(rows)
    return DistributionPair(mu_weights=handed, nu_weights=handed, z_true=z, name=name)


def make_bernoulli_pair(p: float, eps: float, z: float = 1.0) -> DistributionPair:
    """Two-atom pair whose density ratio is 1-eps with proposal mass 1-p
    and 1 + eps*(1/p - 1) with proposal mass p.

    The high atom carries target mass p + eps*(1-p), making small-p
    instances nearly indistinguishable from the proposal itself. At
    p = 1 the pair degenerates to mu = nu.
    """
    if not 0 < p <= 1:
        raise ValueError(f"p must be in (0, 1], got {p}")
    if not 0 < eps <= 0.25:
        raise ValueError(f"eps must be in (0, 1/4], got {eps}")
    mu = [1.0 - p, p]
    nu = [(1.0 - p) * (1.0 - eps), p + eps * (1.0 - p)]
    return make_finite_pair(mu, nu, z, name=f"bernoulli(p={p},eps={eps})")


def make_pointmass_pair(q: float, z: float = 1.0) -> DistributionPair:
    """Proposal concentrated on atom 0; target leaks mass q onto an atom
    the proposal never visits. q = 0 gives mu = nu; q = 1 puts the
    entire target outside the proposal's reach."""
    if not 0 <= q <= 1:
        raise ValueError(f"q must be in [0, 1], got {q}")
    return make_finite_pair([1.0, 0.0], [1.0 - q, q], z, name=f"pointmass(q={q})")


def make_twopoint_mu_pair(p: float, z: float = 1.0) -> DistributionPair:
    """Target is a point mass on the atom the proposal hits with
    probability p, so the density ratio is (0, 1/p) and stays bounded by
    4 across the allowed p range."""
    if not 0.25 <= p <= 0.5:
        raise ValueError(f"p must be in [1/4, 1/2], got {p}")
    return make_finite_pair([1.0 - p, p], [0.0, 1.0], z, name=f"twopoint(p={p})")


def make_weighted_pair(pair: DistributionPair, g) -> DistributionPair:
    """Reweight the target by a nonnegative function table ``g``.

    The new target is g*nu normalized by nu_g = E_nu[g]; its density
    ratio is g/nu_g times the old one and its normalizing constant is
    z_true * nu_g, so estimating the new constant estimates the
    integral of g under the old target.
    """
    g = np.asarray(g, dtype=np.float64)
    nu_g = pair.nu_mean(g)
    if not np.all(np.isfinite(g)) or np.any(g < 0):
        raise ValueError("g must be nonnegative and finite")
    if nu_g <= 0:
        raise ValueError("E_nu[g] = 0; weighted target is undefined")
    rows = np.empty((3, pair.support_size))
    rows[0] = pair.mu_weights
    np.multiply(pair.nu_weights, g, out=rows[1])
    rows[1] /= nu_g
    return _handed_pair(
        rows, pair.z_true * nu_g, f"{pair.name}|weighted" if pair.name else "weighted"
    )


def _fill_weights(gen: np.random.Generator, raw: np.ndarray) -> None:
    """Fill ``raw`` with uniforms from ``gen`` shifted to [0.05, 1.05),
    divided by their sum."""
    gen.random(out=raw)
    raw += 0.05
    raw /= raw.sum()


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def make_random_pair(support_size: int, seed: int, z: float = 1.0) -> DistributionPair:
    """Seeded random pair with strictly positive weights on both sides.

    Raw weights are uniform on [0.05, 1.05) before normalization, which
    keeps every atom reachable (finite divergences, no singular mass)
    while still spreading the density ratio over about three decades.

    Both weight vectors come from the Philox stream keyed by ``seed``:
    mu's from its first ``support_size`` words, nu's from the next
    ``support_size``. From PARALLEL_FILL_MIN atoms on, in a process that
    may run on at least two CPUs, nu is drawn and normalized on a helper
    thread from a generator started at word ``support_size``
    (``make_generator(seed, start=support_size)``) while the calling
    thread does mu; the bits are those of the serial draw, and the
    helper is joined before the call returns.
    """
    support_size = _check_count("support_size", support_size)
    seed = _check_integer("seed", seed)
    if support_size >= 2**63:  # numpy array dimensions are int64
        raise ValueError(
            f"support_size={support_size} passes the 64-bit array size range"
        )
    rows = np.empty((3, support_size))
    mu, nu = rows[0], rows[1]
    if support_size < PARALLEL_FILL_MIN or _usable_cpus() < 2:
        gen = make_generator(seed)
        _fill_weights(gen, mu)
        _fill_weights(gen, nu)
    else:
        mu_gen = make_generator(seed)
        nu_gen = make_generator(seed, start=support_size)
        # a plain thread, not an executor: concurrent.futures imports
        # logging, which every process building a wide pair would pay for
        failure = []

        def fill_nu():
            try:
                _fill_weights(nu_gen, nu)
            except BaseException as exc:  # raised again on the calling thread
                failure.append(exc)

        helper = threading.Thread(target=fill_nu, name="pfest-fill-nu")
        helper.start()
        try:
            _fill_weights(mu_gen, mu)
        finally:
            helper.join()
        if failure:
            raise failure[0]
    return _handed_pair(rows, z, f"random[{support_size},{seed}]")


def draw_atoms(pair: DistributionPair, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF map of uniforms in [0, 1), any shape, to atom indices:
    ``searchsorted(pair.mu_cdf, u, side="right")``, clipped as below.

    The cumulative proposal mass can round below 1, so u at or above its
    last value would index past the table; such draws are clipped to the
    last atom with proposal mass, never to a trailing zero-mass atom.
    Both routes give the same atoms. A call with at least as many
    uniforms as atoms walks the pair's guide table (``mu_guide``), whose
    O(S) build its own draws pay for. A smaller call searches the table
    in sorted order of its uniforms, so that the search walks the table
    forward, and scatters the atoms back.
    """
    if u.size >= pair.support_size:
        atoms = pair.mu_guide.search(u)
    else:
        flat = u.ravel()
        order = np.argsort(flat)
        atoms = np.empty(flat.shape, dtype=np.intp)
        atoms[order] = np.searchsorted(pair.mu_cdf, flat[order], side="right")
        atoms = atoms.reshape(u.shape)
    # searchsorted never returns below 0, so only the top needs clipping
    np.minimum(atoms, pair.last_drawable_atom, out=atoms)
    return atoms


def draw_block(
    pair: DistributionPair, gen: np.random.Generator, lambdas: np.ndarray,
    atoms: np.ndarray | None = None,
) -> None:
    """Fill ``lambdas`` and ``atoms`` (when given), C-contiguous arrays of
    one shape, with the density values of i.i.d. proposal draws from
    ``gen`` and their atoms: one ``gen.random`` call fills ``lambdas`` with
    uniforms, mapped in place DRAW_CHUNK at a time by ``draw_atoms``."""
    gen.random(out=lambdas)
    flat = lambdas.reshape(-1)
    for start in range(0, flat.size, DRAW_CHUNK):
        chunk = flat[start:start + DRAW_CHUNK]
        drawn = draw_atoms(pair, chunk)
        if atoms is not None:
            atoms.reshape(-1)[start:start + DRAW_CHUNK] = drawn
        chunk[:] = pair.lambda_at(drawn)


def count_block(
    pair: DistributionPair, gen: np.random.Generator, m: int, rows: int, k: int
) -> np.ndarray:
    """rows x k independent Multinomial(m, mu) histograms of proposal
    draws from ``gen`` in one call, shape (rows, k, D), all that an
    estimator ignoring the draw order reads: hit counts on the D atoms up
    to the last one with proposal mass, which takes whatever count the
    others' rounding leaves over (atoms without mass get 0 hits). An m
    or k that is not an integer of at least 1 raises a ValueError."""
    m, k = _check_count("m", m), _check_count("k", k)
    if m >= 2**63:  # numpy's multinomial counts are int64
        raise ValueError(f"m={m} draws per histogram pass the 64-bit count range")
    drawable = pair.last_drawable_atom + 1
    return gen.multinomial(m, pair.mu_weights[:drawable], size=(rows, k))


def sample(pair: DistributionPair, n: int, seed: int) -> SampleBatch:
    """n i.i.d. proposal draws by inverse CDF over the atom table, the
    one-row block of ``draw_block``; the same (pair, n, seed) triple
    always yields bit-identical batches. An n that is not an integer of
    at least 1 raises a ValueError."""
    n = _check_count("n", n)
    lambdas, atoms = np.empty(n), np.empty(n, dtype=np.int64)
    draw_block(pair, make_generator(seed), lambdas, atoms)
    return SampleBatch(atoms=atoms, lambdas=lambdas, seed=int(seed), n=n)


def sample_counts(pair: DistributionPair, m: int, k: int, seed: int) -> np.ndarray:
    """k independent Multinomial(m, mu) histograms of proposal draws
    under the Philox key ``seed``, shape (k, support_size): the one-row
    block of ``count_block``, with 0 hits past its D atoms."""
    counts = count_block(pair, make_generator(seed), m, 1, k)[0]
    return np.pad(counts, ((0, 0), (0, pair.support_size - counts.shape[1])))


def pair_to_dict(pair: DistributionPair) -> dict:
    return {
        "mu": [float(w) for w in pair.mu_weights],
        "nu": [float(w) for w in pair.nu_weights],
        "z": float(pair.z_true),
        "name": pair.name,
    }


def pair_from_dict(doc: dict) -> DistributionPair:
    if not isinstance(doc, dict):
        raise ValueError(
            f"pair document must be a JSON object, got {type(doc).__name__}"
        )
    fields = (("mu", "a list of numbers"), ("nu", "a list of numbers"), ("z", "a number"))
    for key, _ in fields:
        if key not in doc:
            raise ValueError(f"pair document missing field {key!r}")
    values = []
    for key, kind in fields:
        value = doc[key]
        try:
            values.append(
                float(value) if key == "z" else np.asarray(value, dtype=np.float64)
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"pair document field {key!r} must be {kind}, "
                f"got {type(value).__name__}"
            ) from exc
    return make_finite_pair(*values, doc.get("name", ""))


def save_pair(pair: DistributionPair, path) -> None:
    """Write the pair as JSON. repr-based float serialization makes the
    round trip exact to the last bit (beyond 15 significant digits)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pair_to_dict(pair), fh, indent=2)
        fh.write("\n")


def load_pair(path) -> DistributionPair:
    with open(path, "r", encoding="utf-8") as fh:
        return pair_from_dict(json.load(fh))
