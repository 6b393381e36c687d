"""Valuation profiles, sample sets, value distributions, and deterministic randomness.

All sampling is a pure function of (spec, m, seed): the same inputs always
reproduce the same bits.  Sub-seeds are derived from a master seed via a keyed
hash of (master, purpose label, replicate index), so parallel experiments can
draw independent streams in any order.

A seed's stream is ``Seed.rng()``, numpy's PCG64 seeded with the master; it
is the reference.  ``sample_block`` draws the same bits without building a
generator per seed: it derives the PCG64 (state, increment) of all of a
block's masters at once (``_pcg64_states``, numpy's ``SeedSequence``
transcribed and vectorized over the masters) and sets them, row by row, on
one generator of its own.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .errors import (AuctionLearnError, DimensionMismatch, InvalidDistribution,
                     SampleFileError)

DEFAULT_RANGE = (0.0, 1.0)

_PROB_TOL = 1e-12


def check_value_range(value_range, error=AuctionLearnError) -> tuple[float, float]:
    """(alpha, beta) of a finite range with 0 <= alpha < beta (payments are
    nonnegative); anything else raises ``error``."""
    alpha, beta = value_range
    if not (math.isfinite(alpha) and math.isfinite(beta) and 0 <= alpha < beta):
        raise error(f"value range must be finite with 0 <= alpha < beta, got [{alpha}, {beta}]")
    return alpha, beta


def _check_values(arr: np.ndarray, value_range, what: str) -> None:
    """Raise unless the nonempty arr is finite (a NaN propagates to min and max) and in range."""
    alpha, beta = check_value_range(value_range)
    lo, hi = arr.min(), arr.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise AuctionLearnError(f"{what} contains non-finite values")
    if lo < alpha or hi > beta:
        raise AuctionLearnError(f"{what} values outside declared range [{alpha}, {beta}]")


# ---------------------------------------------------------------------------
# seeds


@dataclass(frozen=True)
class Seed:
    """Master seed for a reproducible computation tree.

    ``child(label, index)`` derives an independent sub-seed as a pure function
    of (master, label, index); derived streams never depend on evaluation
    order.
    """

    master: int = 0

    def __post_init__(self):
        try:
            master = operator.index(self.master)    # an int, or a numpy integer as an int
        except TypeError:
            raise AuctionLearnError(f"seed must be an integer, got {self.master!r}") from None
        if not 0 <= master < 2**64:
            raise AuctionLearnError("seed must be a 64-bit unsigned integer")
        object.__setattr__(self, "master", master)

    def child(self, label: str, index: int = 0) -> "Seed":
        return Seed(self.child_masters(label, [index])[0])

    def child_masters(self, label: str, indices) -> list[int]:
        """``child(label, i).master`` for each i of indices, building no seeds."""
        prefix = f"{self.master}|{label}|"
        return [int.from_bytes(hashlib.blake2b(f"{prefix}{i}".encode(), digest_size=8).digest(),
                               "big") for i in indices]

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.master))


# numpy's SeedSequence for an integer entropy of at most 64 bits (two 32-bit
# words, padded with zeros to the pool of 4) and PCG64's seeding from it.
# The hash constants advance the same way for every entropy, so each step's
# pair (constant before, constant after) is tabulated once.
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT = np.uint64(16)
_MIX_L, _MIX_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_steps(init: int, mult: int, count: int) -> np.ndarray:
    """(2, count, 1): the hash constant before and after each of `count` steps."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array([consts[:-1], consts[1:]], dtype=np.uint64)[..., None]


_HASHMIX = _hash_steps(0x43B0D7E5, 0x931E8875, 16)   # 4 fill the pool, 12 mix it
_OUTPUT = _hash_steps(0x8B51F9DD, 0x58F38DED, 8)     # the 8 output words


def _hash(words: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """``hashmix`` on 32-bit words held in uint64 (no product overflows)."""
    words = (words ^ before) * after & _MASK32
    words ^= words >> _SHIFT
    return words


def _pcg64_states(masters: list[int]) -> list[tuple[int, int]]:
    """(state, inc) of ``np.random.PCG64(master)`` for each 64-bit master.

    numpy's ``SeedSequence(master).generate_state(4, np.uint64)`` runs over
    all masters at once, the pool of 4 as one (4, R) array, then PCG64's
    ``srandom_r`` on each row's (seed, seq): inc = 2·seq + 1 and
    state = ((inc + seed)·mult + inc) mod 2¹²⁸.
    """
    masters = np.array(masters, dtype=np.uint64)
    pool = np.zeros((4, len(masters)), dtype=np.uint64)
    pool[0] = masters & _MASK32
    pool[1] = masters >> np.uint64(32)
    pool = _hash(pool, *_HASHMIX[:, :4])
    for src in range(4):    # mix each word into the 3 others
        dst = [d for d in range(4) if d != src]
        steps = _HASHMIX[:, 4 + 3 * src:7 + 3 * src]
        mixed = _MIX_L * pool[dst] - _MIX_R * _hash(pool[src], *steps) & _MASK32
        pool[dst] = mixed ^ (mixed >> _SHIFT)
    out = _hash(np.tile(pool, (2, 1)), *_OUTPUT)
    seed_hi, seed_lo, seq_hi, seq_lo = (out[0::2] | out[1::2] << np.uint64(32)).tolist()
    states = []
    for s_hi, s_lo, q_hi, q_lo in zip(seed_hi, seed_lo, seq_hi, seq_lo):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        states.append(((((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


# ---------------------------------------------------------------------------
# marginal distributions


@dataclass(frozen=True)
class Uniform:
    low: float
    high: float

    def __post_init__(self):
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise InvalidDistribution("uniform bounds must be finite")
        if self.high <= self.low:
            raise InvalidDistribution("uniform requires low < high")

    @property
    def support(self) -> tuple[float, float]:
        return (self.low, self.high)

    def ppf(self, u: np.ndarray) -> np.ndarray:
        return self.low + u * (self.high - self.low)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return np.clip((np.asarray(x, dtype=float) - self.low) / (self.high - self.low), 0.0, 1.0)

    def survival(self, price: np.ndarray) -> np.ndarray:
        """P(value >= price); piecewise linear."""
        return np.clip((self.high - price) / (self.high - self.low), 0.0, 1.0)

    def to_dict(self) -> dict:
        return {"type": "uniform", "low": self.low, "high": self.high}


@dataclass(frozen=True)
class TruncatedExponential:
    """Exponential with the given rate, truncated and renormalized on [0, cap]."""

    rate: float
    cap: float

    def __post_init__(self):
        if self.rate <= 0 or not math.isfinite(self.rate):
            raise InvalidDistribution("truncated exponential requires rate > 0")
        if self.cap <= 0 or not math.isfinite(self.cap):
            raise InvalidDistribution("truncated exponential requires cap > 0")

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, self.cap)

    @property
    def _mass(self) -> float:
        return -math.expm1(-self.rate * self.cap)

    def ppf(self, u: np.ndarray) -> np.ndarray:
        return -np.log1p(-u * self._mass) / self.rate

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.clip(np.asarray(x, dtype=float), 0.0, self.cap)
        return -np.expm1(-self.rate * x) / self._mass

    def to_dict(self) -> dict:
        return {"type": "trunc-exp", "rate": self.rate, "cap": self.cap}


@dataclass(frozen=True)
class Discrete:
    points: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        pts = tuple(float(x) for x in self.points)
        pr = tuple(float(p) for p in self.probs)
        if len(pts) == 0 or len(pts) != len(pr):
            raise InvalidDistribution("discrete requires matching nonempty points/probs")
        if any(not math.isfinite(x) for x in pts):
            raise InvalidDistribution("discrete support must be finite")
        if any(p < 0 for p in pr):
            raise InvalidDistribution("discrete probabilities must be nonnegative")
        if abs(sum(pr) - 1.0) > _PROB_TOL:
            raise InvalidDistribution(f"discrete probabilities sum to {sum(pr)!r}, not 1")
        order = np.argsort(pts, kind="stable")
        object.__setattr__(self, "points", tuple(pts[i] for i in order))
        object.__setattr__(self, "probs", tuple(pr[i] for i in order))
        # what ppf, cdf and survival read, built once (not fields): at i,
        # P(value <= points[i - 1]) and P(value >= points[i]), summed left to right
        object.__setattr__(self, "_pts", np.asarray(self.points))
        object.__setattr__(self, "_cum", np.concatenate([[0.0], np.cumsum(self.probs)]))
        tail = [sum(self.probs[i:]) for i in range(len(pr) + 1)]
        object.__setattr__(self, "_tail", np.array(tail, dtype=float))

    @property
    def support(self) -> tuple[float, float]:
        return (self.points[0], self.points[-1])

    def ppf(self, u: np.ndarray) -> np.ndarray:
        # the clamp maps u >= a last sum rounded below 1 to the last point
        idx = np.searchsorted(self._cum[1:], u, side="right")
        return self._pts[np.minimum(idx, len(self.points) - 1)]

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return self._cum[np.searchsorted(self._pts, np.asarray(x, dtype=float), side="right")]

    def cdf_left(self, x: np.ndarray) -> np.ndarray:
        """P(value < x); differs from cdf at the atoms."""
        return self._cum[np.searchsorted(self._pts, np.asarray(x, dtype=float), side="left")]

    def survival(self, price: np.ndarray) -> np.ndarray:
        """P(value >= price)."""
        return self._tail[np.searchsorted(self._pts, price, side="left")]

    def to_dict(self) -> dict:
        return {"type": "discrete", "points": list(self.points), "probs": list(self.probs)}


Marginal = Uniform | TruncatedExponential | Discrete


@contextlib.contextmanager
def _malformed(what: str):
    """Raise a missing key, a wrong type or a non-number in a distribution
    record as InvalidDistribution."""
    try:
        yield
    except AuctionLearnError:
        raise
    except KeyError as exc:
        raise InvalidDistribution(f"{what} needs the key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise InvalidDistribution(f"malformed {what}: {exc}") from exc


def marginal_from_dict(d: dict) -> Marginal:
    with _malformed("marginal"):
        kind = d.get("type")
        if kind == "uniform":
            return Uniform(float(d["low"]), float(d["high"]))
        if kind == "trunc-exp":
            return TruncatedExponential(float(d["rate"]), float(d["cap"]))
        if kind == "discrete":
            return Discrete(tuple(d["points"]), tuple(d["probs"]))
    raise InvalidDistribution(f"unknown marginal type {kind!r}")


# ---------------------------------------------------------------------------
# joint distribution over an n x k valuation matrix


@dataclass(frozen=True)
class DistributionSpec:
    """Independent per-bidder-per-item marginals on a common value range."""

    marginals: tuple[tuple[Marginal, ...], ...]  # [bidder][item]
    value_range: tuple[float, float] = DEFAULT_RANGE

    def __post_init__(self):
        alpha, beta = check_value_range(self.value_range, InvalidDistribution)
        if len(self.marginals) == 0 or any(len(row) == 0 for row in self.marginals):
            raise InvalidDistribution("need at least one bidder and one item")
        k = len(self.marginals[0])
        if any(len(row) != k for row in self.marginals):
            raise InvalidDistribution("ragged marginal grid")
        for row in self.marginals:
            for marg in row:
                lo, hi = marg.support
                if lo < alpha - _PROB_TOL or hi > beta + _PROB_TOL:
                    raise InvalidDistribution(
                        f"marginal support [{lo}, {hi}] outside declared range [{alpha}, {beta}]"
                    )

    @classmethod
    def iid(cls, marginal: Marginal, n: int = 1, k: int = 1,
            value_range: tuple[float, float] = DEFAULT_RANGE) -> "DistributionSpec":
        return cls(tuple(tuple(marginal for _ in range(k)) for _ in range(n)), value_range)

    @property
    def n(self) -> int:
        return len(self.marginals)

    @property
    def k(self) -> int:
        return len(self.marginals[0])

    def to_dict(self) -> dict:
        return {
            "alpha": self.value_range[0],
            "beta": self.value_range[1],
            "marginals": [[m.to_dict() for m in row] for row in self.marginals],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DistributionSpec":
        with _malformed("distribution"):
            rng = (float(d.get("alpha", 0.0)), float(d.get("beta", 1.0)))
            rows = tuple(tuple(marginal_from_dict(m) for m in row) for row in d["marginals"])
        return cls(rows, rng)


# ---------------------------------------------------------------------------
# profiles and sample sets


def _fields_equal(a, b) -> bool:
    """Field-wise == for dataclasses with array fields, compared by
    np.array_equal, where the generated == would raise."""
    if type(a) is not type(b):
        return NotImplemented
    pairs = ((getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in pairs)


@dataclass(frozen=True)
class ValuationProfile:
    """One joint bid vector: values[bidder, item] within the declared range."""

    values: np.ndarray
    value_range: tuple[float, float] = DEFAULT_RANGE

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionMismatch("profile values must be an n x k matrix")
        _check_values(arr, self.value_range, "profile")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    __eq__ = _fields_equal

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SampleSet:
    """Ordered multiset of valuation profiles sharing one (n, k, range)."""

    values: np.ndarray  # shape (m, n, k), read-only
    value_range: tuple[float, float] = DEFAULT_RANGE
    provenance: str = "unspecified"

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 3 or arr.shape[0] < 1:
            raise DimensionMismatch("sample values must have shape (m, n, k) with m >= 1")
        _check_values(arr, self.value_range, "sample")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    __eq__ = _fields_equal

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def k(self) -> int:
        return self.values.shape[2]


def sample_block(spec: DistributionSpec, m: int, masters) -> np.ndarray:
    """One sample of m i.i.d. profiles per 64-bit master, as (R, m, n, k) values
    checked as ``SampleSet`` checks one; row r is ``sample_values(spec, m,
    Seed(masters[r])).values``, its uniforms ``Seed(masters[r]).rng()``'s,
    drawn from one local generator set to each master's state in turn."""
    if m < 1:
        raise AuctionLearnError("m must be >= 1")
    block = np.empty((len(masters), m, spec.n, spec.k))   # uniforms, mapped to values in place
    bits = np.random.PCG64(0)
    uniform = np.random.Generator(bits)
    for r, (state, inc) in enumerate(_pcg64_states(masters)):
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        uniform.random(out=block[r])
    for i in range(spec.n):
        for j in range(spec.k):
            block[..., i, j] = spec.marginals[i][j].ppf(block[..., i, j])
    block.clip(*spec.value_range, out=block)  # guard against ppf rounding at the edges
    _check_values(block, spec.value_range, "sample")
    return block


def sample_values(spec: DistributionSpec, m: int, seed: Seed) -> SampleSet:
    """Draw m i.i.d. profiles from the spec.  Bit-identical for identical inputs."""
    return SampleSet(sample_block(spec, m, [seed.master])[0], spec.value_range,
                     provenance=f"sampled(seed={seed.master}, m={m})")


# ---------------------------------------------------------------------------
# sample files: JSON header line, then one JSON profile record per line


def save_samples(sample: SampleSet, path: str) -> None:
    header = {"n": sample.n, "k": sample.k,
              "alpha": sample.value_range[0], "beta": sample.value_range[1]}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for t in range(sample.m):
            fh.write(json.dumps(sample.values[t].tolist()) + "\n")


def load_samples(path: str, n: int | None = None, k: int | None = None,
                 value_range: tuple[float, float] | None = None) -> SampleSet:
    """Read a sample file, cross-checking any declared dimensions and range."""
    if not os.path.exists(path):
        raise SampleFileError(f"no such sample file: {path}")
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise SampleFileError(f"empty sample file: {path}")
    try:
        header = json.loads(lines[0])
        file_n, file_k = header["n"], header["k"]
        if any(type(d) is not int or d < 1 for d in (file_n, file_k)):
            raise ValueError(f"n and k must be integers >= 1, got {file_n!r} and {file_k!r}")
        rng = (float(header["alpha"]), float(header["beta"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SampleFileError(f"malformed header in {path}: {exc}") from exc
    if n is not None and n != file_n:
        raise DimensionMismatch(f"declared n={n} but file header has n={file_n}")
    if k is not None and k != file_k:
        raise DimensionMismatch(f"declared k={k} but file header has k={file_k}")
    if value_range is not None and tuple(value_range) != rng:
        raise SampleFileError(f"declared range {value_range} but file header has {rng}")
    if len(lines) == 1:
        raise SampleFileError(f"empty sample: {path} has a header but no records")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            arr = np.asarray(json.loads(line), dtype=float)
        except (TypeError, ValueError) as exc:
            raise SampleFileError(f"malformed record at {path}:{lineno}: {exc}") from exc
        if arr.shape != (file_n, file_k):
            raise DimensionMismatch(
                f"record at {path}:{lineno} has shape {arr.shape}, expected {(file_n, file_k)}"
            )
        if not np.all(np.isfinite(arr)) or arr.min() < rng[0] or arr.max() > rng[1]:
            raise SampleFileError(
                f"record at {path}:{lineno} has values outside declared range {rng}"
            )
        records.append(arr)
    return SampleSet(np.stack(records), rng, provenance=f"file:{path}")
