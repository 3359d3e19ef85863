"""Finite-support proposal/target pairs with exact density ratios.

A pair holds a proposal ``mu`` and a target ``nu`` on a shared finite
support, plus the true normalizing constant ``z_true`` used to evaluate
the unnormalized density ``lambda = z_true * dnu/dmu``. Everything
downstream (coverage profiles, planners, estimators, the sampling race)
consumes these pairs, and because the support is finite every tail
quantity has an exact closed form to test against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .rng import make_generator

# Inputs whose weights deviate from a probability vector by more than
# this are rejected rather than silently renormalized.
WEIGHT_SUM_TOL = 1e-9

# Consistency of E_mu[ratio] with the nu-mass actually reachable from mu.
RATIO_MEAN_TOL = 1e-12

# OpenBLAS splits dot products longer than this across threads, so their
# rounding depends on the thread count; ordered_dot never passes it more.
DOT_CHUNK = 10_000

# draw_atoms sorts its uniforms before searching tables of at least this
# many atoms: the search then walks the table in order, which beats the
# cost of the sort (measured crossover, see CHANGES.md).
SORTED_SEARCH_MIN_SUPPORT = 4096

# draw_atoms walks the pair's guide table when a call has at least as
# many uniforms as atoms, so that they pay for its build, and at least
# GUIDE_MIN_DRAWS of them: on tables of 2 to 1 024 atoms the search is
# faster up to 1 000 to 3 000 uniforms. It steps each uniform at most
# GUIDE_MAX_STEPS atoms past its guide entry, finishes the few still
# short with searchsorted, and works in chunks of GUIDE_CHUNK uniforms
# (all measured, see CHANGES.md).
GUIDE_MIN_DRAWS = 2048
GUIDE_MAX_STEPS = 2
GUIDE_CHUNK = 1 << 14


def ordered_dot(a: np.ndarray, b: np.ndarray):
    """Dot product of a 1-d ``b`` with an equally long 1-d ``a``, or with
    each row (last axis) of an ``a`` of two or more dimensions, that
    does not depend on the BLAS thread count.

    For a 1-d ``a``, np.dot runs over consecutive chunks of at most
    DOT_CHUNK elements and the chunk results are added left to right,
    so inputs of at most DOT_CHUNK elements give exactly np.dot and the
    result is a float. Otherwise the row dots come from np.einsum,
    whose loops never call BLAS, as an array of shape ``a.shape[:-1]``;
    each row's dot is the same whatever the leading axes.
    """
    if a.ndim >= 2:
        return np.einsum("...j,j->...", a, b)
    total = float(np.dot(a[:DOT_CHUNK], b[:DOT_CHUNK]))
    for start in range(DOT_CHUNK, a.size, DOT_CHUNK):
        stop = start + DOT_CHUNK
        total += float(np.dot(a[start:stop], b[start:stop]))
    return total


def _as_weight_array(w, label: str) -> np.ndarray:
    """A normalized copy of the weights ``w``, which it never writes to.

    A minimum of at least 0 and a finite sum rule out a nan, an inf and
    a negative entry at once; only weights failing that are scanned to
    say which."""
    arr = np.array(w, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{label} must be a non-empty 1-d weight vector")
    total = float(arr.sum())
    if not (arr.min() >= 0 and math.isfinite(total)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{label} contains non-finite entries")
        if np.any(arr < 0):
            raise ValueError(f"{label} contains negative entries")
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(
            f"{label} sums to {total!r}; must be within {WEIGHT_SUM_TOL} of 1"
        )
    arr /= total
    return arr


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
    ``cdf_ext`` is ``cdf`` with a +inf sentinel appended, so a step
    from atom S reads a value above every u.
    """

    scale: int
    guide: np.ndarray
    cdf_ext: np.ndarray
    max_steps: int

    @classmethod
    def build(cls, cdf: np.ndarray) -> "GuideTable":
        scale = 1 << (cdf.size - 1).bit_length()
        # exact: K is a power of two, so cdf * K rounds nowhere, and
        # cdf[i] <= j/K holds exactly when ceil(cdf[i] * K) <= j
        scaled = cdf * scale
        cells = np.ceil(scaled).astype(np.intp)
        guide = np.cumsum(np.bincount(np.minimum(cells, scale), minlength=scale + 1))
        # a value strictly inside bucket j has ceil(cdf * K) = j + 1; the
        # values past 1 that rounding can leave are inside no bucket
        inside = np.bincount(cells[scaled != cells])[: scale + 1]
        return cls(
            scale=scale,
            guide=_freeze(guide[:scale]),
            cdf_ext=_freeze(np.append(cdf, np.inf)),
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


@dataclass(frozen=True)
class DistributionPair:
    """Proposal/target pair on a shared finite support.

    ``ratio_cache[i]`` is dnu/dmu at atom i: ``nu[i]/mu[i]`` where the
    proposal has mass, ``inf`` where the target has mass but the
    proposal does not (that mass is also totalled in
    ``singular_mass``), and 0 on atoms carrying neither.
    ``last_drawable_atom`` is the index of the last atom with proposal
    mass, where inverse-CDF draws are clipped.

    The tables ``mu_cdf``, its ``mu_guide`` and ``lambda_values`` are
    built once, on first use, and are read-only; they are not fields, so
    ``==`` and ``repr`` ignore them.
    """

    mu_weights: np.ndarray
    nu_weights: np.ndarray
    z_true: float
    name: str = ""
    ratio_cache: np.ndarray = field(init=False, repr=False, compare=False)
    singular_mass: float = field(init=False, compare=False)
    last_drawable_atom: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mu = _as_weight_array(self.mu_weights, "mu_weights")
        nu = _as_weight_array(self.nu_weights, "nu_weights")
        if mu.shape != nu.shape:
            raise ValueError(
                f"support mismatch: mu has {mu.size} atoms, nu has {nu.size}"
            )
        z = float(self.z_true)
        if not (math.isfinite(z) and z > 0):
            raise ValueError(f"z_true must be positive and finite, got {z!r}")

        if mu.min() > 0:
            ratio = nu / mu
            singular = 0.0
            mean = ordered_dot(mu, ratio)
            last_drawable = mu.size - 1
        else:
            pos = mu > 0
            ratio = np.zeros_like(mu)
            np.divide(nu, mu, out=ratio, where=pos)
            singular = float(nu[~pos].sum())
            ratio[~pos & (nu > 0)] = np.inf
            mean = ordered_dot(mu[pos], ratio[pos])
            last_drawable = int(mu.size - 1 - np.argmax(pos[::-1]))
        if abs(mean + singular - 1.0) > RATIO_MEAN_TOL:
            raise ValueError(
                "inconsistent pair: E_mu[ratio] + singular_mass = "
                f"{mean + singular!r}, expected 1"
            )

        object.__setattr__(self, "mu_weights", _freeze(mu))
        object.__setattr__(self, "nu_weights", _freeze(nu))
        object.__setattr__(self, "z_true", z)
        object.__setattr__(self, "ratio_cache", _freeze(ratio))
        object.__setattr__(self, "singular_mass", singular)
        object.__setattr__(self, "last_drawable_atom", last_drawable)

    @property
    def support_size(self) -> int:
        return int(self.mu_weights.size)

    @property
    def absolutely_continuous(self) -> bool:
        return self.singular_mass == 0.0

    @cached_property
    def mu_cdf(self) -> np.ndarray:
        """Cumulative proposal mass per atom, the inverse-CDF table."""
        return _freeze(np.cumsum(self.mu_weights))

    @cached_property
    def mu_guide(self) -> GuideTable:
        """Guide table over ``mu_cdf``, for calls of ``draw_atoms`` with
        at least as many uniforms as atoms."""
        return GuideTable.build(self.mu_cdf)

    @cached_property
    def lambda_values(self) -> np.ndarray:
        """Unnormalized target density z_true * dnu/dmu per atom."""
        return _freeze(self.z_true * self.ratio_cache)

    @cached_property
    def lambda_drawn(self) -> np.ndarray:
        """The density table hit counts are dotted with:
        ``lambda_values`` with 0 on the atoms without proposal mass. No
        draw lands on those atoms, and on the ones carrying target mass
        lambda is inf, where 0 hits times inf would give nan."""
        return _freeze(np.where(self.mu_weights > 0, self.lambda_values, 0.0))

    @cached_property
    def lambda_order(self) -> np.ndarray:
        """Atom indices in increasing order of ``lambda_drawn``, where
        cumulative hit counts find an order statistic."""
        return _freeze(np.argsort(self.lambda_drawn, kind="stable"))

    def lambda_at(self, atoms: np.ndarray) -> np.ndarray:
        """``lambda_values[atoms]``, bit for bit, from the gathered
        ratios: O(len(atoms)) work and no support-sized table, for
        draws that may be fewer than the atoms."""
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


@dataclass(frozen=True)
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
    renormalized exactly at construction."""
    return DistributionPair(
        mu_weights=np.asarray(mu_weights, dtype=np.float64),
        nu_weights=np.asarray(nu_weights, dtype=np.float64),
        z_true=z,
        name=name,
    )


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
    if g.shape != pair.nu_weights.shape:
        raise ValueError(
            f"g has {g.size} entries, support has {pair.support_size}"
        )
    if not np.all(np.isfinite(g)) or np.any(g < 0):
        raise ValueError("g must be nonnegative and finite")
    nu_g = ordered_dot(pair.nu_weights, g)
    if nu_g <= 0:
        raise ValueError("E_nu[g] = 0; weighted target is undefined")
    return DistributionPair(
        mu_weights=pair.mu_weights,
        nu_weights=pair.nu_weights * g / nu_g,
        z_true=pair.z_true * nu_g,
        name=f"{pair.name}|weighted" if pair.name else "weighted",
    )


def make_random_pair(support_size: int, seed: int, z: float = 1.0) -> DistributionPair:
    """Seeded random pair with strictly positive weights on both sides.

    Raw weights are uniform on [0.05, 1.05) before normalization, which
    keeps every atom reachable (finite divergences, no singular mass)
    while still spreading the density ratio over about three decades.
    """
    for label, value in (("support_size", support_size), ("seed", seed)):
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{label} must be an integer, got {value!r}")
    support_size, seed = int(support_size), int(seed)
    if support_size < 1:
        raise ValueError(f"support_size must be >= 1, got {support_size}")
    gen = make_generator(seed)
    mu = gen.random(support_size)
    nu = gen.random(support_size)
    for raw in (mu, nu):
        raw += 0.05
        raw /= raw.sum()
    return make_finite_pair(mu, nu, z, name=f"random[{support_size},{seed}]")


def draw_atoms(pair: DistributionPair, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF map of uniforms in [0, 1), any shape, to atom indices:
    ``searchsorted(pair.mu_cdf, u, side="right")``, clipped as below.

    The cumulative proposal mass can round below 1, so u at or above its
    last value would index past the table; such draws are clipped to the
    last atom with proposal mass, never to a trailing zero-mass atom.
    Every route gives the same atoms. A call with at least as many
    uniforms as atoms, and at least GUIDE_MIN_DRAWS, walks the pair's
    guide table (``mu_guide``), whose O(S) build its own draws pay for.
    Other calls search the table directly, in sorted order (atoms
    scattered back) on tables of at least SORTED_SEARCH_MIN_SUPPORT
    atoms.
    """
    if u.size >= max(pair.support_size, GUIDE_MIN_DRAWS):
        atoms = pair.mu_guide.search(u)
    elif pair.support_size < SORTED_SEARCH_MIN_SUPPORT:
        atoms = np.searchsorted(pair.mu_cdf, u, side="right")
    else:
        flat = u.ravel()
        order = np.argsort(flat)
        atoms = np.empty(flat.shape, dtype=np.intp)
        atoms[order] = np.searchsorted(pair.mu_cdf, flat[order], side="right")
        atoms = atoms.reshape(u.shape)
    # searchsorted never returns below 0, so only the top needs clipping
    np.minimum(atoms, pair.last_drawable_atom, out=atoms)
    return atoms


def sample(
    pair: DistributionPair, n: int, seed: int, gen: np.random.Generator | None = None
) -> SampleBatch:
    """n i.i.d. proposal draws by inverse CDF over the atom table.

    Deterministic given the Philox key ``seed``: the same (pair, n,
    seed) triple always yields bit-identical batches. ``gen``, when
    given, is a fresh generator already keyed by ``seed`` (as
    ``substreams`` yields it) and saves building one.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if gen is None:
        gen = make_generator(seed)
    atoms = draw_atoms(pair, gen.random(n))
    lam = pair.lambda_at(atoms)
    return SampleBatch(
        atoms=atoms.astype(np.int64, copy=False), lambdas=lam, seed=int(seed), n=n
    )


def sample_counts(
    pair: DistributionPair, m: int, k: int, seed: int,
    gen: np.random.Generator | None = None,
) -> np.ndarray:
    """k independent Multinomial(m, mu) histograms of proposal draws,
    shape (k, support_size): row i holds the per-atom hit counts of m
    i.i.d. draws, which carry everything an estimator that ignores the
    draw order reads.

    Deterministic given the Philox key ``seed``; ``gen`` is as for
    ``sample``. Only the atoms up to the last one with proposal mass
    are passed to the multinomial, whose last category takes whatever
    count the rounding of the others leaves over; atoms without mass
    before it get binomial(., 0) = 0 hits.
    """
    m, k = int(m), int(k)
    if m < 1 or k < 1:
        raise ValueError(f"need m >= 1 draws in k >= 1 histograms, got m={m}, k={k}")
    if m >= 2**63:  # numpy's multinomial counts are int64
        raise ValueError(f"m={m} draws per histogram pass the 64-bit count range")
    if gen is None:
        gen = make_generator(seed)
    drawable = pair.last_drawable_atom + 1
    counts = gen.multinomial(m, pair.mu_weights[:drawable], size=k)
    if drawable < pair.support_size:
        counts = np.pad(counts, ((0, 0), (0, pair.support_size - drawable)))
    return counts


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
    try:
        return make_finite_pair(doc["mu"], doc["nu"], doc["z"], doc.get("name", ""))
    except KeyError as exc:
        raise ValueError(f"pair document missing field {exc}") from exc


def save_pair(pair: DistributionPair, path) -> None:
    """Write the pair as JSON. repr-based float serialization makes the
    round trip exact to the last bit (beyond 15 significant digits)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pair_to_dict(pair), fh, indent=2)
        fh.write("\n")


def load_pair(path) -> DistributionPair:
    with open(path, "r", encoding="utf-8") as fh:
        return pair_from_dict(json.load(fh))
