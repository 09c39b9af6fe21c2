"""Static invariant checkers for the CBES reproduction.

The paper's claim that CS/NCS find near-optimal mappings rests on the
evaluation ``S_M = max_i(R_i + C_i)`` (eqs. 5-8) being computed
identically on every path — serial, incremental, pooled worker, or
daemon — and on the machinery around it (seeded RNG substreams, pickled
``SearchSpec`` payloads, an asyncio event loop) staying sound.  This
developer tool enforces those invariants mechanically over the source
tree; it ships in no install of the ``repro`` package.

* :mod:`tools.analysis.checkers` — the rule contract and the rule pack;
* :mod:`tools.analysis.engine` — one parse and one AST walk per file
  feed every rule, and inline ``# repro: disable=RPR###`` suppressions;
* :mod:`tools.analysis.cli` — ``python -m tools.analysis`` from the repo
  root, with text/JSON output and stable exit codes.

See docs/ANALYSIS.md for the rule catalog.
"""
