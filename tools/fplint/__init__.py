"""fplint: scope-aware static analysis for the FlowPulse tree.

A dependency-free (stdlib-only, Python >= 3.8) replacement for the
regex-based detlint engine. The substrate is a real C++ tokenizer
(lexer.py), a brace/scope tracker with declaration capture (scopes.py),
a cross-TU identifier/declaration index and include-graph builder
(engine.py), and a legacy-compatible line view (legacy.py) on which the
twelve historical detlint rules run byte-identically (rules_ported.py —
proven by the parity ctest against the frozen engine under tests/).

On top of that substrate live the four rules a line regex cannot
express (rules_scoped.py + engine.py):

  lane-capture        a lambda posted cross-lane must not capture by
                      reference or smuggle pointers to source-lane state
  variant-divergence  FP_AUDIT / FP_TRACE / assert argument expressions
                      must be side-effect-free (they are not evaluated
                      in every build or run)
  layering            the module DAG
                      core < sim < net < transport < collective <
                      flowpulse < {ctrl, baseline, obs} < exp < daemon
                      is enforced from the include graph
  stale-waiver        a waiver on a line where its rule no longer fires
                      is itself an error

Entry point: `python3 tools/fplint <paths>` (tools/fplint/__main__.py);
`--compat-detlint` reproduces the legacy output for the parity test.
"""

__version__ = "1.0"
