// fplint: ok(nosuchrule): a typo in the rule id — expect[bad-waiver]
// fplint: ok(layering)
// expect[bad-waiver]@2 — the directive above has no justification (and
// must stay bare: any text after the rule WOULD be its justification)
int f();
// fplint: ok(stale-waiver): trying to silence the meta rule — expect[bad-waiver]
int g();
