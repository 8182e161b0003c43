"""Reference implementations the production paths are tested against.

``repro.core`` has one diagnosis path: numpy index, columnar trace; a
trace is stored as columns only; the live merge has one clocked drain;
reconstruction verifies matchings in blocks and walks chains into
columns; relations are columns and AutoFocus runs over all groups at once;
a dump decodes into batch columns and flows are counted over int codes.
The straightforward code the production paths were optimised from lives
here, moved without algorithmic edits, so tests can assert equality
against it:

* :mod:`tests.oracles.queuing` — the event-by-event queuing index loop,
* :mod:`tests.oracles.propagation` — the per-packet path decomposition,
* :mod:`tests.oracles.victims` — the per-hop victim selection loops,
* :mod:`tests.oracles.engine` — an engine wired through all of the above,
* :mod:`tests.oracles.journal` — the two-pass journal line encoder,
* :mod:`tests.oracles.ingest` — the per-record-scan clocked merge of
  ``IncrementalTrace`` (an ``IncrementalTrace`` subclass).
* :mod:`tests.oracles.trace` — the object trace model (``PacketView``
  rows with their hop index and ``upstream_of`` cache, the list-backed
  ``NFView``, ``from_sim_result`` / ``from_reconstruction``, live
  ``_apply_event`` / ``prune_before`` / snapshot restore into objects) and
  ``TraceColumns.from_trace``, the flatten the columns must equal, and the
  tuple-loop ``flow_counts`` (``counting_through`` swaps it in),
* :mod:`tests.oracles.reconstruct` — the scan candidate lookup of the
  reconstruction matcher (``ScanStreamMatcher``; ``matching_through``
  swaps it into ``TraceReconstructor``) and the object chaining, one exit
  record and one hop object at a time (``exit_loop_reference`` /
  ``chain_back_reference``; ``chaining_through`` swaps them in),
* :mod:`tests.oracles.autofocus` — the node-object passes of
  ``MultiAutoFocus.run`` (``OracleMultiAutoFocus``;
  ``aggregating_through`` swaps the per-group aggregator below into
  ``PatternAggregator``),
* :mod:`tests.oracles.patterns` — the per-group ``aggregate`` and
  ``aggregate_single_pass``: dict regrouping and one AutoFocus run per
  culprit group and per victim aggregate (``OraclePatternAggregator``),
* :mod:`tests.oracles.report` — the per-culprit dataclass
  ``causal_relations``,
* :mod:`tests.oracles.sums` — the builtin ``sum``'s plain (up to Python
  3.11) and compensated (CPython 3.12 on) float rules, transcribed; the
  references above take their float totals with ``plain_sum``, the rule
  ``src/`` sums by, and ``summing_as`` swaps the builtin for either rule
  so tests can check that no output depends on it,
* :mod:`tests.oracles.collector` — the per-record decoders and loader
  (one ``BatchRecord`` per batch, one ``FiveTuple`` per record) and the
  reconstructor's record-by-record stream flattening and tolerant-mode
  validation (``reconstructing_through`` swaps those in).

Nothing under ``src/`` imports this package.
"""
