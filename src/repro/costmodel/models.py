"""Cost model core: named per-element rates plus fixed overheads.

Every modeled operation is ``time = overhead + n_elements * rate``. The
linear form is deliberate: all of the paper's kernels (S3D RHS evaluation,
ray casting, moment updates, subtree construction, streaming glue) are
linear in elements processed at fixed per-element work, and Table II
reports exactly one point per kernel, which pins the rate once the
overhead is taken as negligible.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CostModel:
    """Maps operation names to ``(rate_per_element, fixed_overhead)``."""

    name: str
    rates: dict[str, float]
    overheads: dict[str, float] = field(default_factory=dict)

    def rate(self, op: str) -> float:
        try:
            return self.rates[op]
        except KeyError:
            raise KeyError(
                f"cost model {self.name!r} has no rate for operation {op!r}; "
                f"known: {sorted(self.rates)}"
            ) from None

    def time(self, op: str, n_elements: int) -> float:
        """Seconds for ``op`` over ``n_elements`` elements."""
        if n_elements < 0:
            raise ValueError(f"n_elements must be >= 0, got {n_elements}")
        return self.overheads.get(op, 0.0) + n_elements * self.rate(op)

    def with_rate(self, op: str, rate: float) -> "CostModel":
        """Copy with one rate replaced/added (used by ablations)."""
        rates = dict(self.rates)
        rates[op] = rate
        return CostModel(self.name, rates, dict(self.overheads))
