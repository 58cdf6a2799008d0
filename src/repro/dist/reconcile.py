"""Set reconciliation (Appendix A) and Bloom-filter difference estimation.

Conservation-of-content validation needs the *set difference* between the
fingerprints recorded at two routers.  Shipping whole sets is the naive
option; §2.4.1 discusses two cheaper ones, both implemented here:

* **Characteristic-polynomial reconciliation** (Minsky–Trachtenberg,
  Appendix A): each side evaluates the characteristic polynomial
  χ_S(z) = ∏_{x∈S}(z − x) of its fingerprint set at d+1 agreed sample
  points in GF(p).  The ratio χ_A(z)/χ_B(z) is a rational function whose
  numerator's roots are A∖B and denominator's roots are B∖A; it is
  recovered by rational interpolation (one linear solve) and factored by
  Cantor–Zassenhaus equal-degree splitting.  Communication is O(d) field
  elements — optimal in the size of the difference, independent of |A|.

* **Bloom filters**: constant-size, but only an *estimate* of the
  difference size, with exactly the accuracy caveats the paper notes
  ("a too-small filter can result in significant errors").

The field is GF(p) with p = 2^61 − 1 (Mersenne), comfortably above the
64-bit fingerprint space after reduction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

P = (1 << 61) - 1  # Mersenne prime 2^61 - 1

# -- polynomial arithmetic over GF(P); coefficients low-order first ----------


def _trim(poly: List[int]) -> List[int]:
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return poly


def poly_eval(poly: Sequence[int], x: int) -> int:
    acc = 0
    for coeff in reversed(poly):
        acc = (acc * x + coeff) % P
    return acc


def poly_mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % P
    return _trim(out)


def poly_divmod(a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], List[int]]:
    a = list(a)
    b = _trim(list(b))
    if b == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    deg_b = len(b) - 1
    inv_lead = pow(b[-1], P - 2, P)
    quot = [0] * max(1, len(a) - deg_b)
    rem = list(a)
    for i in range(len(a) - 1, deg_b - 1, -1):
        coeff = rem[i] * inv_lead % P
        if coeff == 0:
            continue
        quot[i - deg_b] = coeff
        for j in range(deg_b + 1):
            rem[i - deg_b + j] = (rem[i - deg_b + j] - coeff * b[j]) % P
    return _trim(quot), _trim(rem)


def poly_mod(a: Sequence[int], m: Sequence[int]) -> List[int]:
    return poly_divmod(a, m)[1]


def poly_gcd(a: Sequence[int], b: Sequence[int]) -> List[int]:
    a, b = _trim(list(a)), _trim(list(b))
    while b != [0]:
        a, b = b, poly_mod(a, b)
    if a != [0]:
        inv = pow(a[-1], P - 2, P)
        a = [c * inv % P for c in a]
    return a


def poly_powmod(base: Sequence[int], exponent: int, modulus: Sequence[int]) -> List[int]:
    result = [1]
    base = poly_mod(base, modulus)
    while exponent > 0:
        if exponent & 1:
            result = poly_mod(poly_mul(result, base), modulus)
        base = poly_mod(poly_mul(base, base), modulus)
        exponent >>= 1
    return result


def _find_roots(poly: List[int], rng: random.Random) -> List[int]:
    """All roots of a squarefree product of distinct linear factors."""
    poly = _trim(list(poly))
    degree = len(poly) - 1
    if degree == 0:
        return []
    if degree == 1:
        # c0 + c1 z = 0  ->  z = -c0/c1
        return [(-poly[0]) * pow(poly[1], P - 2, P) % P]
    # Keep only the part that splits into linear factors: gcd(z^P - z, f).
    zp = poly_powmod([0, 1], P, poly)  # z^P mod f
    zp_minus_z = _trim([(c - (1 if i == 1 else 0)) % P for i, c in
                        enumerate(zp + [0] * max(0, 2 - len(zp)))])
    linear_part = poly_gcd(zp_minus_z, poly)
    if len(linear_part) - 1 == 0:
        return []
    return _split_roots(linear_part, rng)


def _split_roots(poly: List[int], rng: random.Random) -> List[int]:
    degree = len(poly) - 1
    if degree == 0:
        return []
    if degree == 1:
        return [(-poly[0]) * pow(poly[1], P - 2, P) % P]
    while True:
        shift = rng.randrange(P)
        # g = gcd((z + shift)^((P-1)/2) - 1, f) splits the roots by
        # quadratic residuosity of (root + shift).
        probe = poly_powmod([shift, 1], (P - 1) // 2, poly)
        probe = _trim([(c - (1 if i == 0 else 0)) % P
                       for i, c in enumerate(probe)])
        g = poly_gcd(probe, poly)
        gdeg = len(g) - 1
        if 0 < gdeg < degree:
            rest, _ = poly_divmod(poly, g)
            return _split_roots(g, rng) + _split_roots(rest, rng)


# -- characteristic polynomial reconciliation --------------------------------


# Sample points live in a reserved band at the top of the field that
# element images can never reach; if the two overlapped, a fingerprint
# whose image equals a sample point would zero χ_S there and sink the
# whole reconciliation.
_SAMPLE_BAND = 1 << 16


def _to_field(value: int) -> int:
    """Map a fingerprint into [1, P - 1 - _SAMPLE_BAND]."""
    mapped = (value % (P - 1 - _SAMPLE_BAND)) + 1
    return mapped


def _sample_points(count: int) -> List[int]:
    # Fixed agreed points, descending from P - 1 through the reserved band.
    if count > _SAMPLE_BAND:
        raise ValueError("difference bound exceeds the reserved sample band")
    return [P - 1 - i for i in range(count)]


@dataclass
class CharacteristicPolynomialSet:
    """One side's reconciliation message: |S| and χ_S at the sample points."""

    size: int
    evaluations: Tuple[int, ...]

    @classmethod
    def from_set(cls, elements: Iterable[int], max_diff: int) -> "CharacteristicPolynomialSet":
        elems = [_to_field(x) for x in elements]
        points = _sample_points(max_diff + 1)
        evals = []
        for z in points:
            acc = 1
            for x in elems:
                acc = acc * ((z - x) % P) % P
            evals.append(acc)
        return cls(size=len(elems), evaluations=tuple(evals))


class ReconciliationError(Exception):
    """The difference exceeded the agreed bound (or inputs were corrupt)."""


def _solve_linear(matrix: List[List[int]], rhs: List[int]) -> Optional[List[int]]:
    """Gaussian elimination over GF(P).  Returns None if singular."""
    n = len(matrix)
    m = len(matrix[0]) if n else 0
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    rank = 0
    pivots = []
    for col in range(m):
        pivot = next((r for r in range(rank, n) if aug[r][col] % P != 0), None)
        if pivot is None:
            return None
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = pow(aug[rank][col], P - 2, P)
        aug[rank] = [v * inv % P for v in aug[rank]]
        for r in range(n):
            if r != rank and aug[r][col] % P != 0:
                factor = aug[r][col]
                aug[r] = [(aug[r][c] - factor * aug[rank][c]) % P
                          for c in range(m + 1)]
        pivots.append(col)
        rank += 1
        if rank == n:
            break
    if rank < m:
        return None
    # Check consistency of remaining rows.
    for r in range(rank, n):
        if aug[r][m] % P != 0:
            return None
    solution = [0] * m
    for r, col in enumerate(pivots):
        solution[col] = aug[r][m] % P
    return solution


def reconcile(
    local: Set[int],
    remote: CharacteristicPolynomialSet,
    max_diff: int,
    seed: int = 0,
) -> Tuple[Set[int], Set[int]]:
    """Recover (remote_only, local_only) from ``remote``'s message.

    ``local`` holds raw fingerprints (any ints); ``remote`` was built with
    the same ``max_diff``.  Returns the differences **as field images**
    for remote-only elements and as original values for local-only
    elements whose field images matched.  Raises
    :exc:`ReconciliationError` when the true difference exceeds the bound.
    """
    rng = random.Random(seed)
    local_images = {}
    for value in sorted(local):
        local_images.setdefault(_to_field(value), value)
    points = _sample_points(max_diff + 1)
    if len(remote.evaluations) < len(points):
        raise ReconciliationError("remote message has too few evaluations")

    local_evals = []
    for z in points:
        acc = 1
        for x in local_images:
            acc = acc * ((z - x) % P) % P
        local_evals.append(acc)

    delta = remote.size - len(local_images)  # deg(P) - deg(Q)
    ratios = []
    for le, re in zip(local_evals, remote.evaluations):
        if le == 0 or re == 0:
            raise ReconciliationError("sample point collided with an element")
        ratios.append(re * pow(le, P - 2, P) % P)

    # Degrees: numerator d1 (remote-only), denominator d2 (local-only).
    # d1 - d2 = delta and d1 + d2 <= max_diff.  Try the largest consistent
    # sizes first and shrink until the interpolation is consistent.
    found = None
    top = max_diff
    while top >= abs(delta):
        if (top - abs(delta)) % 2 != 0:
            top -= 1
            continue
        d1 = (top + delta) // 2
        d2 = (top - delta) // 2
        if d1 < 0 or d2 < 0:
            break
        solution = _try_interpolate(ratios, points, d1, d2)
        if solution is not None:
            found = (d1, d2, solution)
            break
        top -= 2
    if found is None:
        raise ReconciliationError("difference exceeds agreed bound")
    d1, d2, (num, den) = found

    remote_only_images = _find_roots(num, rng)
    local_only_images = _find_roots(den, rng)
    if len(remote_only_images) != d1 or len(local_only_images) != d2:
        raise ReconciliationError("polynomial did not fully split; bound too small")
    local_only = {local_images[img] for img in local_only_images
                  if img in local_images}
    if len(local_only) != len(local_only_images):
        raise ReconciliationError("recovered local-only root not in local set")
    return set(remote_only_images), local_only


def _try_interpolate(
    ratios: List[int], points: List[int], d1: int, d2: int
) -> Optional[Tuple[List[int], List[int]]]:
    """Fit monic num (deg d1) / monic den (deg d2) to ratio samples."""
    unknowns = d1 + d2
    needed = unknowns + 1
    if needed > len(points):
        return None
    rows = []
    rhs = []
    for i in range(max(needed, unknowns) if unknowns else needed):
        if i >= len(points):
            break
        z, r = points[i], ratios[i]
        row = [pow(z, j, P) for j in range(d1)]
        row += [(-r * pow(z, j, P)) % P for j in range(d2)]
        rows.append(row)
        rhs.append((r * pow(z, d2, P) - pow(z, d1, P)) % P)
    if unknowns == 0:
        # Constant ratio must be exactly 1 everywhere.
        return ([1], [1]) if all(r == 1 for r in ratios) else None
    solution = _solve_linear(rows, rhs)
    if solution is None:
        return None
    num = solution[:d1] + [1]
    den = solution[d1:] + [1]
    # Verify against all remaining sample points.
    for z, r in zip(points, ratios):
        pv = poly_eval(num, z)
        qv = poly_eval(den, z)
        if qv == 0 or pv * pow(qv, P - 2, P) % P != r:
            return None
    if poly_gcd(num, den) != [1]:
        return None
    return (num, den)


# -- Bloom filters ------------------------------------------------------------


class BloomFilter:
    """A classic Bloom filter over integer fingerprints."""

    def __init__(self, bits: int = 8192, hashes: int = 4) -> None:
        if bits <= 0 or hashes <= 0:
            raise ValueError("bits and hashes must be positive")
        self.bits = bits
        self.hashes = hashes
        self._array = bytearray((bits + 7) // 8)
        self.count = 0

    def _positions(self, value: int) -> List[int]:
        positions = []
        h = value & ((1 << 64) - 1)
        for i in range(self.hashes):
            h = (h * 0x9E3779B97F4A7C15 + i + 1) & ((1 << 64) - 1)
            h ^= h >> 29
            positions.append(h % self.bits)
        return positions

    def add(self, value: int) -> None:
        for pos in self._positions(value):
            self._array[pos // 8] |= 1 << (pos % 8)
        self.count += 1

    def to_bytes(self) -> bytes:
        return bytes(self._array)

    @classmethod
    def from_bytes(cls, data: bytes, bits: int, hashes: int,
                   count: int = 0) -> "BloomFilter":
        bloom = cls(bits=bits, hashes=hashes)
        if len(data) != len(bloom._array):
            raise ValueError("bloom payload length mismatch")
        bloom._array = bytearray(data)
        bloom.count = count
        return bloom

    def __contains__(self, value: int) -> bool:
        return all(self._array[p // 8] & (1 << (p % 8))
                   for p in self._positions(value))

    def bits_set(self) -> int:
        return sum(bin(b).count("1") for b in self._array)

    def estimated_cardinality(self) -> float:
        t = self.bits_set()
        if t >= self.bits:
            return float("inf")
        return -(self.bits / self.hashes) * math.log(1 - t / self.bits)

    def union_bits(self, other: "BloomFilter") -> int:
        self._check_compatible(other)
        return sum(bin(a | b).count("1")
                   for a, b in zip(self._array, other._array))

    def _check_compatible(self, other: "BloomFilter") -> None:
        if self.bits != other.bits or self.hashes != other.hashes:
            raise ValueError("incompatible Bloom filter parameters")


def bloom_difference_estimate(a: BloomFilter, b: BloomFilter) -> float:
    """Estimate |A Δ B| from two compatible filters.

    Uses cardinality estimates of A, B and A∪B:
    |A Δ B| = 2|A∪B| − |A| − |B|.  Accuracy degrades as the filters
    saturate — the caveat §2.4.1 raises against Bloom-based validation.
    """
    a._check_compatible(b)
    t_union = a.union_bits(b)
    if t_union >= a.bits:
        return float("inf")
    n_union = -(a.bits / a.hashes) * math.log(1 - t_union / a.bits)
    n_a = a.estimated_cardinality()
    n_b = b.estimated_cardinality()
    return max(0.0, 2 * n_union - n_a - n_b)
