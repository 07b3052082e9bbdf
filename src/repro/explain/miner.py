"""Learning template weights from the trail — no labels required.

A fired template is only evidence of legitimacy if legitimate traffic
fires it more often than suspect traffic does.  We have no labels at
mining time, but the 7-attribute schema gives a free proxy: *regular*
accesses went through the sanctioned path (legitimate by construction),
while *exception* accesses are the mixed class under investigation.  For
each template ``t`` the miner estimates, with Laplace smoothing ``α``::

    p_t = P(t fires | regular)    = (fires_regular + α) / (R + 2α)
    q_t = P(t fires | exception)  = (fires_exception + α) / (E + 2α)

and scores an entry with the Naive-Bayes log-likelihood ratio

    score = Σ_t  fired ? log(p_t / q_t) : log((1-p_t) / (1-q_t))

squashed to a ``strength`` in (0, 1) by the logistic function.  A
template that fires equally on both classes (e.g. ``on_shift`` when
everyone works their shift) gets weights near zero and self-neutralises;
a template that separates (treatment relations) earns a large positive
fired-weight.  Crucially the ``truth`` labels the corpus persists are
**never consulted** — they exist only so experiments can grade the
result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import obs
from repro.audit.entry import AuditEntry
from repro.audit.log import AuditLog
from repro.errors import ExplainError
from repro.explain.templates import (
    DEFAULT_TEMPLATES,
    ExplanationContext,
    ExplanationTemplate,
)


@dataclass(frozen=True, slots=True)
class TemplateWeight:
    """Learned evidence weights for one template."""

    name: str
    fired_weight: float
    absent_weight: float
    regular_rate: float
    exception_rate: float

    def to_dict(self) -> dict:
        """JSON-ready encoding."""
        return {
            "name": self.name,
            "fired_weight": self.fired_weight,
            "absent_weight": self.absent_weight,
            "regular_rate": self.regular_rate,
            "exception_rate": self.exception_rate,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TemplateWeight":
        """Rebuild a weight from a :meth:`to_dict` encoding."""
        try:
            return cls(
                name=payload["name"],
                fired_weight=float(payload["fired_weight"]),
                absent_weight=float(payload["absent_weight"]),
                regular_rate=float(payload["regular_rate"]),
                exception_rate=float(payload["exception_rate"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ExplainError(f"malformed template weight payload: {exc}") from exc


class TemplateWeights:
    """The learned weight table plus the scoring rule."""

    def __init__(
        self,
        weights: tuple[TemplateWeight, ...],
        templates: tuple[ExplanationTemplate, ...] = DEFAULT_TEMPLATES,
    ) -> None:
        by_name = {template.name: template for template in templates}
        for weight in weights:
            if weight.name not in by_name:
                raise ExplainError(
                    f"weight for unknown template {weight.name!r}"
                )
        self.weights = weights
        self._templates = tuple(by_name[weight.name] for weight in weights)

    def score(self, entry: AuditEntry, context: ExplanationContext) -> float:
        """Naive-Bayes log-likelihood ratio (regular vs exception)."""
        total = 0.0
        for template, weight in zip(self._templates, self.weights):
            if template.fires(entry, context):
                total += weight.fired_weight
            else:
                total += weight.absent_weight
        return total

    def strength(self, entry: AuditEntry, context: ExplanationContext) -> float:
        """The score squashed to (0, 1) — higher means more explainable."""
        return 1.0 / (1.0 + math.exp(-self.score(entry, context)))

    def fired_names(
        self, entry: AuditEntry, context: ExplanationContext
    ) -> tuple[str, ...]:
        """Names of the templates that fire for ``entry``."""
        return tuple(
            template.name
            for template in self._templates
            if template.fires(entry, context)
        )

    def to_dict(self) -> dict:
        """JSON-ready encoding of the weight table."""
        return {
            "format": 1,
            "weights": [weight.to_dict() for weight in self.weights],
        }

    @classmethod
    def from_dict(
        cls,
        payload: dict,
        templates: tuple[ExplanationTemplate, ...] = DEFAULT_TEMPLATES,
    ) -> "TemplateWeights":
        """Rebuild a weight table from a :meth:`to_dict` encoding."""
        try:
            weights = tuple(
                TemplateWeight.from_dict(item) for item in payload["weights"]
            )
        except (KeyError, TypeError) as exc:
            raise ExplainError(f"malformed template weights payload: {exc}") from exc
        return cls(weights, templates=templates)


def mine_template_weights(
    log: AuditLog,
    context: ExplanationContext,
    templates: tuple[ExplanationTemplate, ...] = DEFAULT_TEMPLATES,
    smoothing: float = 0.5,
) -> TemplateWeights:
    """Learn :class:`TemplateWeights` from ``log`` (labels never read)."""
    if smoothing <= 0:
        raise ExplainError(f"smoothing must be positive, got {smoothing}")
    if not templates:
        raise ExplainError("at least one explanation template is required")
    reg = obs.get_registry()
    with reg.span("repro_explain_mine"):
        regular = log.regular()
        exceptions = log.exceptions()
        if not len(regular) or not len(exceptions):
            raise ExplainError(
                "weight mining needs both regular and exception traffic "
                f"(got {len(regular)} regular, {len(exceptions)} exceptions)"
            )
        weights: list[TemplateWeight] = []
        for template in templates:
            fires_regular = sum(
                1 for entry in regular if template.fires(entry, context)
            )
            fires_exception = sum(
                1 for entry in exceptions if template.fires(entry, context)
            )
            p = (fires_regular + smoothing) / (len(regular) + 2 * smoothing)
            q = (fires_exception + smoothing) / (len(exceptions) + 2 * smoothing)
            weights.append(
                TemplateWeight(
                    name=template.name,
                    fired_weight=math.log(p / q),
                    absent_weight=math.log((1.0 - p) / (1.0 - q)),
                    regular_rate=fires_regular / len(regular),
                    exception_rate=fires_exception / len(exceptions),
                )
            )
    reg.counter("repro_explain_weights_mined_total").inc()
    return TemplateWeights(tuple(weights), templates=templates)
