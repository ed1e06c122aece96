"""fplint: scope-aware static analysis for the FlowPulse tree.

Dependency-free (stdlib-only, Python >= 3.8). Each file is tokenized
once by a real C++ tokenizer (lexer.py); every rule reads that one token
stream, either directly or through the code view built from it (the
source with comments and literals blanked, lexer.code_lines). On top of
it sit a brace/scope tracker with declaration capture (scopes.py), a
cross-TU identifier/declaration index and include-graph builder
(engine.py), and the rule catalogue and waiver scanner (waivers.py).

The twelve line rules (rules_ported.py) match regexes against the code
view. The four rules a line regex cannot express live in
rules_scoped.py + engine.py:

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

Entry point: `python3 tools/fplint <paths>` (tools/fplint/__main__.py).
"""

__version__ = "1.0"
