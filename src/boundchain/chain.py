"""Banded one-dimensional rate tables with exact heads and modeled tails.

A bounding chain stores, per jump offset k, the exact rate for every class
l <= l_exact plus a tail model used for l > l_exact.  Tail models are
periodic-affine (per-residue intercepts, shared slope) with an optional
quadratic/cubic term when the period is 1; plain affine is the special case
period=1, c2=c3=0.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .network import ClassPartition

# rates in band(l_total); every band a chain builds is at most this large
BAND_CAP = 1 << 22


@dataclass(frozen=True)
class TailModel:
    """rate(l) = intercepts[l % period] + slope*l + c2*l^2 + c3*l^3 for l >= onset."""

    offset: int
    onset: int
    period: int = 1
    intercepts: tuple[float, ...] = (0.0,)
    slope: float = 0.0
    c2: float = 0.0
    c3: float = 0.0

    def __post_init__(self):
        if self.period < 1 or len(self.intercepts) != self.period:
            raise ValidationError("tail model needs one intercept per residue")
        if self.period > 1 and (self.c2 != 0.0 or self.c3 != 0.0):
            raise ValidationError("polynomial tails are only supported at period 1")

    @property
    def degree(self) -> int:
        if self.c3 != 0.0:
            return 3
        if self.c2 != 0.0:
            return 2
        if self.slope != 0.0:
            return 1
        return 0

    def __call__(self, ell) -> float:
        ell = np.asarray(ell, dtype=np.int64)
        base = np.asarray(self.intercepts)[ell % self.period]
        out = base + self.slope * ell + self.c2 * ell ** 2 + self.c3 * ell ** 3
        return float(out) if out.ndim == 0 else out

    def mean_intercept(self) -> float:
        return float(np.mean(self.intercepts))


class BoundingChain:
    """Transition-rate table of a 1-D bounding process.

    Off-diagonal rates live at offsets k in [-j_max, j_max] minus 0; the
    diagonal is implied by zero row sums.  ``exact`` maps offset -> rates
    array over l in [0, l_exact]; ``tails`` maps offset -> TailModel used
    for l in (l_exact, l_total]; ``weights`` are the class weights of the
    partition the chain bounds.
    """

    def __init__(self, direction: str, j_max: int, l_exact: int, l_total: int,
                 exact: dict, tails: dict, weights):
        if direction not in ("upper", "lower"):
            raise ValidationError(f"direction must be upper or lower, got {direction!r}")
        if not 0 <= l_exact <= l_total:
            raise ValidationError("need 0 <= l_exact <= l_total")
        if j_max < 0:
            raise ValidationError(f"j_max must be nonnegative, got {j_max}")
        if (l_total + 1) * (2 * j_max + 1) > BAND_CAP:
            raise ResourceLimitError(
                f"a band of {l_total + 1} levels by {2 * j_max + 1} offsets "
                f"exceeds the cap of {BAND_CAP} rates"
            )
        self.direction = direction
        self.j_max = int(j_max)
        self.l_exact = int(l_exact)
        self.l_total = int(l_total)
        self.tails = dict(tails)
        for k in set(exact) | set(self.tails):
            if k == 0 or abs(k) > self.j_max:
                raise ValidationError(f"offset {k} outside the band")
        self.exact = {}
        for k, arr in exact.items():
            arr = np.asarray(arr, dtype=float)
            if arr.shape != (self.l_exact + 1,):
                raise ValidationError(
                    f"exact rates for offset {k} must cover [0, {self.l_exact}]"
                )
            self.exact[int(k)] = arr
        for k, tm in self.tails.items():
            if tm.offset != k:
                raise ValidationError("tail model offset disagrees with its key")
        self.weights = ClassPartition(weights).weights
        rates = self.band(self.l_total)
        bad = np.argwhere(~np.isfinite(rates) | (rates < 0.0))
        if bad.size:
            ell, col = (int(v) for v in bad[0])
            raise ValidationError(
                f"rate {float(rates[ell, col])} at level {ell}, offset "
                f"{col - self.j_max}: rates on [0, {self.l_total}] must be "
                "finite and nonnegative"
            )

    @property
    def offsets(self) -> list[int]:
        return sorted(set(self.exact) | set(self.tails))

    def rate(self, ell: int, k: int) -> float:
        """Off-diagonal rate from class ell to class ell + k (zero outside band)."""
        if k == 0 or ell < 0 or ell + k < 0:
            return 0.0
        if ell <= self.l_exact:
            arr = self.exact.get(k)
            return float(arr[ell]) if arr is not None else 0.0
        tm = self.tails.get(k)
        return float(tm(ell)) if tm is not None else 0.0

    def row(self, ell: int) -> dict:
        """Nonzero off-diagonal rates of one row, keyed by offset."""
        out = {}
        for k in self.offsets:
            r = self.rate(ell, k)
            if r != 0.0:
                out[k] = r
        return out

    def band(self, hi: int) -> np.ndarray:
        """Rates on levels 0..hi as one (hi + 1, 2*j_max + 1) array.

        Column ``j_max + k`` holds the rate from ell to ell + k for k in
        -j_max..j_max: exact rates up to l_exact, tail models past it.  The
        k = 0 column and every jump below class 0 are zero, as in ``rate``.
        """
        J = self.j_max
        out = np.zeros((hi + 1, 2 * J + 1))
        head = min(hi, self.l_exact) + 1
        for k, arr in self.exact.items():
            out[:head, J + k] = arr[:head]
        ells = np.arange(head, hi + 1)
        for k, tm in self.tails.items():
            out[head:, J + k] = tm(ells)
        for k in range(1, J + 1):
            out[:k, J - k] = 0.0
        return out

    def check_partition(self, partition) -> None:
        """Raise unless ``partition`` has the weights the chain was built for."""
        if partition.weights != self.weights:
            raise ValidationError(f"partition weights {partition.weights} "
                                  f"differ from the chain's {self.weights}")

    def tail_degrees(self) -> dict:
        return {k: tm.degree for k, tm in sorted(self.tails.items())}

    # -- persistence ------------------------------------------------------

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            meta = (
                f"# bounding-chain direction={self.direction} j_max={self.j_max} "
                f"l_exact={self.l_exact} l_total={self.l_total} "
                f"weights={','.join(map(str, self.weights))}"
            )
            fh.write(meta + "\n")
            writer = csv.writer(fh)
            writer.writerow(["ell", "offset", "rate"])
            rates = self.band(self.l_exact)
            ell, col = np.nonzero(rates)
            writer.writerows(zip(ell.tolist(), (col - self.j_max).tolist(),
                                 map(repr, rates[ell, col].tolist())))
            fh.write("# tails\n")
            writer.writerow(["offset", "slope", "intercept", "onset",
                             "period", "residue", "c2", "c3"])
            for k in sorted(self.tails):
                tm = self.tails[k]
                for residue, beta in enumerate(tm.intercepts):
                    writer.writerow([k, repr(tm.slope), repr(beta), tm.onset,
                                     tm.period, residue, repr(tm.c2), repr(tm.c3)])

    @classmethod
    def from_csv(cls, path) -> "BoundingChain":
        meta = {}
        exact_rows = []
        tail_rows = []
        section = "exact"
        try:
            with open(path) as fh:
                first = fh.readline().strip()
                if not first.startswith("# bounding-chain"):
                    raise ValidationError(f"{path} is not a bounding-chain CSV")
                for item in first.removeprefix("# bounding-chain").split():
                    key, _, val = item.partition("=")
                    meta[key] = val
                reader = csv.reader(fh)
                for row in reader:
                    if not row:
                        continue
                    if row[0].startswith("#"):
                        section = "tails"
                        continue
                    if row[0] in ("ell", "offset"):
                        continue
                    if section == "exact":
                        exact_rows.append((int(row[0]), int(row[1]), float(row[2])))
                    else:
                        tail_rows.append((int(row[0]), float(row[1]), float(row[2]),
                                          int(row[3]), int(row[4]), int(row[5]),
                                          float(row[6]), float(row[7])))
            l_exact = int(meta["l_exact"])
            if meta.get("weights") in (None, "", "-"):
                raise ValidationError(f"chain CSV {path} carries no class "
                                      "weights: its header needs weights=")
            weights = tuple(int(v) for v in meta["weights"].split(","))
            head = (meta["direction"], int(meta["j_max"]), l_exact,
                    int(meta["l_total"]))
        except OSError as exc:
            raise ValidationError(f"cannot read chain file {path}: {exc}") from exc
        except (KeyError, ValueError, IndexError, csv.Error) as exc:
            raise ValidationError(f"malformed chain CSV {path}: {exc!r}") from exc

        cls(*head, {}, {}, weights)  # the header alone, before it sizes arrays
        if len({row[:2] for row in exact_rows}) < len(exact_rows):
            raise ValidationError(f"chain CSV {path} repeats an (ell, offset) row")
        exact: dict[int, np.ndarray] = {}
        for ell, k, rate in exact_rows:
            if not 0 <= ell <= l_exact:
                raise ValidationError(
                    f"chain CSV {path} has ell={ell} outside [0, {l_exact}]")
            exact.setdefault(k, np.zeros(l_exact + 1))[ell] = rate
        tails = {}
        by_offset: dict[int, list] = {}
        for row in tail_rows:
            by_offset.setdefault(row[0], []).append(row)
        for k, rows in by_offset.items():
            for field, i in (("slope", 1), ("onset", 3), ("period", 4),
                             ("c2", 6), ("c3", 7)):
                if len({r[i] for r in rows}) > 1:
                    raise ValidationError(f"chain CSV {path}: the tail rows "
                                          f"of offset {k} disagree on {field}")
            rows.sort(key=lambda r: r[5])
            period = rows[0][4]
            if len(rows) != period or [r[5] for r in rows] != list(range(period)):
                raise ValidationError(f"tail residues for offset {k} are incomplete")
            tails[k] = TailModel(
                offset=k, onset=rows[0][3], period=period,
                intercepts=tuple(r[2] for r in rows),
                slope=rows[0][1], c2=rows[0][6], c3=rows[0][7],
            )
        return cls(*head, exact, tails, weights)
