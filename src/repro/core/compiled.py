"""Compile-once queries: the counter-independent half of every estimator.

Every estimator of :class:`~repro.core.sketchtree.SketchTree` splits in
two.  Everything that depends only on the query and the synopsis
*configuration* — parsing an s-expression, validating the pattern and its
size, enumerating unordered arrangements or OR expansions, encoding each
pattern to its value, grouping the values by virtual stream (residue) and
evaluating ξ per group — is a pure function of ``(query, config)``.  Only
the rest reads counters: the per-stream matrix lookup, the top-k
compensation for tracked query values, and the median-of-means boost.

:class:`QueryCompiler` does the first half and returns an immutable
:class:`CompiledQuery` (or :class:`CompiledExpression`);
:meth:`~repro.core.virtual.VirtualStreams.evaluate` does the second.  A
library call is ``evaluate(compile(q))`` — one code path — and anything
that answers one query over several synopses of the same configuration
(serving shards, window buckets) compiles once and evaluates the same
plan against each part (Rabin mapping only: pairing-mode encoders number
labels in first-seen order, so there every part compiles with its own
encoder).  That is bit-identical to asking every part to
estimate the query itself: the same int64 ξ columns, the same counter
arithmetic, the same group order.

Values whose order comes from a Python ``set`` (unordered arrangements,
``*``/``//`` resolutions) are grouped in ascending encoded-value order, so
the floating-point sum over groups — and hence the estimate — does not
depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.core.config import XI_SEED_OFFSET, SketchTreeConfig
from repro.core.encoding import PatternEncoder, encoder_for
from repro.core.expressions import (
    Expression,
    parse_expression,
    required_independence,
)
from repro.core.virtual import make_xi
from repro.errors import ConfigError, QueryError
from repro.query.pattern import (
    OR_SEPARATOR,
    arrangements,
    expand_or_labels,
    pattern_edges,
    validate_pattern,
)
from repro.query.summary import QueryNode, StructuralSummary
from repro.query.xpath import parse_xpath
from repro.trees.tree import LabeledTree, Nested

__all__ = [
    "CompiledExpression",
    "CompiledQuery",
    "QueryCompiler",
    "QueryGroup",
    "coerce_pattern",
    "distinct_sum_plan",
    "estimate_over",
    "shared_compiler",
]


def coerce_pattern(query) -> Nested:
    """Accept a nested tuple, s-expression string, tree, or plain
    :class:`QueryNode`, and return the canonical nested-tuple pattern."""
    if isinstance(query, str):
        from repro.trees.builders import from_sexpr

        return from_sexpr(query).to_nested()
    if isinstance(query, LabeledTree):
        return query.to_nested()
    if isinstance(query, QueryNode):
        return query.to_pattern()
    if isinstance(query, tuple):
        return query
    raise QueryError(f"cannot interpret {type(query).__name__} as a tree pattern")


def _any_label_has_or(pattern: Nested) -> bool:
    stack = [pattern]
    while stack:
        label, children = stack.pop()
        if OR_SEPARATOR in label:
            return True
        stack.extend(children)
    return False


class QueryGroup:
    """The query values one virtual stream answers.

    ``xi`` is the int64 per-instance ξ vector the stream's counters are
    multiplied by: ``ξ(v)`` for a single ordered pattern, ``Σ_j ξ(v_j)``
    for a distinct-pattern sum (the Theorem 2 estimator).  ``values``
    are what the stream's top-k tracker is asked to compensate.
    """

    __slots__ = ("residue", "values", "xi")

    def __init__(self, residue: int, values: tuple[int, ...], xi: np.ndarray):
        self.residue = residue
        self.values = values
        self.xi = xi

    def __repr__(self) -> str:
        return f"QueryGroup(residue={self.residue}, values={self.values})"


class CompiledQuery:
    """A linear query compiled against one configuration.

    Its estimate over a synopsis is the sum, in group order, of each
    group's boosted ``ξ · X`` on the group's stream (zero for streams
    that never received a value).  Holds no counters, so one instance
    may be evaluated against any number of synopses sharing the
    configuration, from any thread.
    """

    __slots__ = ("groups",)

    def __init__(self, groups: tuple[QueryGroup, ...]):
        self.groups = groups

    def __repr__(self) -> str:
        return f"CompiledQuery({list(self.groups)!r})"


class CompiledExpression:
    """A Section 4 expression compiled against one configuration.

    ``residues`` and ``values`` name the union of streams the expression
    reads and the atoms to compensate for top-k; each term is
    ``(coefficient, degree, Π ξ)`` over its atoms.
    """

    __slots__ = ("residues", "values", "terms")

    def __init__(
        self,
        residues: tuple[int, ...],
        values: tuple[int, ...],
        terms: tuple[tuple[int, int, np.ndarray], ...],
    ):
        self.residues = residues
        self.values = values
        self.terms = terms

    def __repr__(self) -> str:
        return f"CompiledExpression(values={self.values}, terms={len(self.terms)})"


def distinct_sum_plan(values: Iterable[int], n_streams: int, xi) -> CompiledQuery:
    """The plan of a sum over distinct encoded values (Theorem 2).

    Values are deduplicated and grouped by residue ``value mod
    n_streams`` in first-seen order; ξ is evaluated once for all of them
    and summed per group.
    """
    values = list(dict.fromkeys(values))
    if not values:
        return CompiledQuery(())
    by_residue: dict[int, list[int]] = {}
    for index, value in enumerate(values):
        by_residue.setdefault(value % n_streams, []).append(index)
    signs = xi.xi_values(values)  # (n_instances, len(values))
    return CompiledQuery(
        tuple(
            QueryGroup(
                residue,
                tuple(values[i] for i in indices),
                signs[:, indices].sum(axis=1),
            )
            for residue, indices in by_residue.items()
        )
    )


class QueryCompiler:  # sketchlint: thread-safe
    """Turns queries into :class:`CompiledQuery` plans for one config.

    Thread-safe: the encoder carries its own lock, the ξ family is read
    only, and the compiler keeps no other state.  Every synopsis owns
    one (over its own encoder); a service answering over many synopses
    builds its own with :meth:`for_config`, so its queries neither
    contend for an ingest encoder's lock nor evict its LRU entries.
    """

    def __init__(self, config: SketchTreeConfig, encoder: PatternEncoder, xi):
        self.config = config
        self.encoder = encoder
        self.xi = xi

    @classmethod
    def for_config(cls, config: SketchTreeConfig) -> "QueryCompiler":
        """A compiler with a private encoder and ξ family equal to those
        of every synopsis built with ``config``.

        Only ``mapping="rabin"`` encodings are a pure function of the
        pattern.  Pairing mode numbers labels in the order each encoder
        first sees them, so a private encoder would encode a query to
        values other than the ones a synopsis' counters were built from;
        it raises :class:`~repro.errors.ConfigError`, and callers over
        several pairing-mode synopses compile with each part's own
        ``compiler`` instead.
        """
        if config.mapping != "rabin":
            raise ConfigError(
                "QueryCompiler.for_config requires mapping='rabin': "
                "pairing-mode label ids depend on each encoder's "
                "observation order; compile with the synopsis' own compiler"
            )
        xi = make_xi(
            config.xi_family,
            config.s1 * config.s2,
            config.independence,
            config.seed + XI_SEED_OFFSET,
        )
        return cls(config, encoder_for(config), xi)

    # ------------------------------------------------------------------
    # Patterns
    # ------------------------------------------------------------------
    def pattern(self, query) -> Nested:
        """The validated nested-tuple pattern of ``query``.

        Raises :class:`~repro.errors.QueryError` (or ``PatternError``)
        for malformed patterns and for sizes outside ``1..k`` edges.
        """
        pattern = coerce_pattern(query)
        self.check_size(pattern)
        return pattern

    def check_size(self, pattern: Nested) -> None:
        """Validate a nested-tuple pattern and its ``1..k`` edge count."""
        validate_pattern(pattern)
        edges = pattern_edges(pattern)
        if edges < 1 or edges > self.config.max_pattern_edges:
            raise QueryError(
                f"pattern has {edges} edges; this synopsis counts patterns "
                f"with 1..{self.config.max_pattern_edges} edges "
                f"(larger patterns are the paper's stated future work)"
            )

    # ------------------------------------------------------------------
    # Query kinds
    # ------------------------------------------------------------------
    def ordered(self, query) -> CompiledQuery:
        """``COUNT_ord(Q)``: one value, one group (Theorem 1)."""
        value = self.encoder.encode(self.pattern(query))
        group = QueryGroup(
            value % self.config.n_virtual_streams, (value,), self.xi.xi(value)
        )
        return CompiledQuery((group,))

    def unordered(self, query) -> CompiledQuery:
        """``COUNT(Q)``: the distinct ordered arrangements (Section 3.3)."""
        pattern = self.pattern(query)
        values = self.encoder.encode_batch(list(arrangements(pattern)))
        return self._distinct_sum(sorted(set(values)))

    def sum(self, queries: Iterable) -> CompiledQuery:
        """``Σ_j COUNT_ord(Q_j)`` for distinct patterns (Theorem 2)."""
        patterns = [self.pattern(q) for q in queries]
        distinct = list(dict.fromkeys(patterns))
        if len(distinct) != len(patterns):
            raise QueryError(
                "estimate_sum requires distinct patterns (Theorem 2); "
                "duplicates were passed"
            )
        return self._distinct_sum(self.encoder.encode_batch(distinct))

    def or_labels(self, query) -> CompiledQuery:
        """A pattern with ``|`` OR-predicates in its labels (Example 5)."""
        expanded = expand_or_labels(coerce_pattern(query))
        for pattern in expanded:
            self.check_size(pattern)
        return self._distinct_sum(self.encoder.encode_batch(expanded))

    def extended(
        self, query: QueryNode, summary: StructuralSummary | None
    ) -> CompiledQuery:
        """A ``*`` / ``//`` query resolved against ``summary`` (Section
        6.2) into distinct parent-child patterns.

        The one compile step that depends on a synopsis' *data*: callers
        over several synopses compile once per summary.
        """
        if summary is None:
            raise QueryError(
                "extended queries need a structural summary: construct the "
                "synopsis with maintain_summary=True or pass one explicitly"
            )
        resolved = summary.resolve(query, max_edges=self.config.max_pattern_edges)
        values = self.encoder.encode_batch(list(resolved))
        return self._distinct_sum(sorted(set(values)))

    def xpath(
        self, query: str | QueryNode, summary: StructuralSummary | None = None
    ) -> CompiledQuery:
        """An XPath-subset query: plain paths compile like ordered (or
        OR-expanded) patterns; ``*``/``//`` queries need ``summary``."""
        if isinstance(query, str):
            query = parse_xpath(query)
        if not query.is_plain():
            return self.extended(query, summary)
        pattern = query.to_pattern()
        if _any_label_has_or(pattern):
            return self.or_labels(pattern)
        return self.ordered(pattern)

    def expression(self, expression: Expression | str) -> CompiledExpression:
        """A Section 4 expression (``+``, ``−``, ``×`` over counts).

        Raises :class:`~repro.errors.ConfigError` when the configured ξ
        independence is below the expression's requirement.
        """
        if isinstance(expression, str):
            expression = parse_expression(expression)
        needed = required_independence(expression)
        if self.config.independence < needed:
            raise ConfigError(
                f"expression needs {needed}-wise independent xi; synopsis was "
                f"built with independence={self.config.independence}"
            )
        terms = expression.expand()
        atoms = expression.atoms()
        for atom in atoms:
            self.check_size(atom)
        atom_values = {atom: self.encoder.encode(atom) for atom in atoms}
        values = tuple(atom_values.values())
        p = self.config.n_virtual_streams
        compiled_terms = []
        for coeff, term_atoms in terms:
            xi_prod = self.xi.xi_values(
                [atom_values[a] for a in term_atoms]
            ).prod(axis=1)
            compiled_terms.append((coeff, len(term_atoms), xi_prod))
        return CompiledExpression(
            tuple(dict.fromkeys(v % p for v in values)),
            values,
            tuple(compiled_terms),
        )

    # ------------------------------------------------------------------
    # Grouping
    # ------------------------------------------------------------------
    def _distinct_sum(self, values: list[int]) -> CompiledQuery:
        return distinct_sum_plan(values, self.config.n_virtual_streams, self.xi)

    def __repr__(self) -> str:
        return f"QueryCompiler({self.encoder!r})"


def shared_compiler(config: SketchTreeConfig) -> QueryCompiler | None:
    """One compiler for every synopsis of ``config``, or ``None`` in
    pairing mode, where each synopsis must compile with its own."""
    if config.mapping != "rabin":
        return None
    return QueryCompiler.for_config(config)


def estimate_over(
    parts: Iterable,
    compile_step: Callable[[QueryCompiler], CompiledQuery],
    compiler: QueryCompiler | None,
) -> float:
    """Σ over ``parts`` (synopses, in order) of one query's estimate.

    ``compile_step`` turns a compiler into the query's plan.  With a
    shared ``compiler`` (:func:`shared_compiler`) the query compiles
    once and every part evaluates the same plan; with ``None`` each part
    compiles it with its own ``compiler``.  Either way the result is
    bit-identical to summing the parts' own ``estimate_*`` answers.
    """
    if compiler is None:
        return sum(part.evaluate(compile_step(part.compiler)) for part in parts)
    plan = compile_step(compiler)
    return sum(part.evaluate(plan) for part in parts)
