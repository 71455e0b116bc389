package main

import (
	"time"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/mcheck"
)

// vcase is one model-checking job with its expected verdict.
type vcase struct {
	name  string
	class string // "sc", "wmm" or "por": which mcheck.s.* timer it feeds
	prog  func() mcheck.Program
	cfg   mcheck.Config
	// proven is the expected verdict: true = verified clean, false = the
	// seeded bug must be convicted.
	proven bool
}

// verifyCases is the fixed program set: the four Armv8 basic locks at two
// threads × two iterations under SC and WMM, the 3-thread CLoF induction step
// searched exhaustively and with partial-order reduction, and two seeded bugs
// the checker must convict.
func verifyCases() []vcase {
	var cs []vcase
	for _, name := range []string{"tkt", "mcs", "clh", "hem"} {
		mk := func() lockapi.Lock { return locks.MustType(name).New() }
		prog := func() mcheck.Program { return mcheck.LockProgram(name, 2, 2, mk) }
		cs = append(cs,
			vcase{name + "/sc", "sc", prog, mcheck.Config{Mode: mcheck.SC}, true},
			vcase{name + "/wmm", "wmm", prog, mcheck.Config{Mode: mcheck.WMM}, true})
	}
	induction := func() mcheck.Program { return mcheck.InductionProgram(1, false, "tkt", "tkt") }
	return append(cs,
		vcase{"clof-induction/sc", "sc", induction, mcheck.Config{Mode: mcheck.SC}, true},
		vcase{"clof-induction/por", "por", induction, mcheck.Config{Mode: mcheck.SC, POR: true}, true},
		// A ticket lock whose release store lacks its barrier: only WMM breaks it.
		vcase{"relaxed-release-ticket/wmm", "wmm",
			func() mcheck.Program { return mcheck.BrokenTicketProgram(2, 2) }, mcheck.Config{Mode: mcheck.WMM}, false},
		// CLoF with the low and high locks released in the wrong order.
		vcase{"release-order-bug/sc", "sc",
			func() mcheck.Program { return mcheck.InductionProgram(1, true, "mcs", "mcs") }, mcheck.Config{Mode: mcheck.SC}, false},
	)
}

// verifyOutcome is one case's exact result.
type verifyOutcome struct{ states, executions int }

// verifyPasses is how many passes over the set the verify probe makes.
const verifyPasses = 2

// verifyProbe model-checks the fixed program set inside compose-armv8's
// traced run, the verification step of the paper's pipeline. Its host times
// are too sensitive to other tenants' load for an end-to-end bound: over two
// sets of ten 30 s runs on a 2-vCPU shared host, a pass drifted between 3.7
// and 5.7 s, a spread of 22-28% of the median against the largest bound,
// 0.25. As per-layer metrics its figures carry none. The program set is
// fixed, so the seed is not used: the jobs run in one order, and a pass
// always does the same work.
func verifyProbe(b *bench) error {
	defer oneCPU()()
	cases := verifyCases()
	var want map[string]verifyOutcome
	caseS := map[string][]float64{}
	tr := newTracer()
	// Every case must get its expected verdict, and the same state and
	// execution counts on every pass.
	for pass := 0; pass < verifyPasses; pass++ {
		out := map[string]verifyOutcome{}
		sid := tr.begin("verify.set", -1)
		for _, c := range cases {
			id := tr.begin("mcheck.check."+c.class, sid)
			t0 := time.Now()
			res := mcheck.Check(c.prog(), c.cfg)
			caseS[c.name] = append(caseS[c.name], time.Since(t0).Seconds())
			tr.end(id)
			o := verifyOutcome{res.States, res.Executions}
			out[c.name] = o
			if c.proven {
				if !b.checks.check(res.OK && !res.Truncated) {
					b.checks.failf("verify %s: expected proof, got %q (truncated %v)", c.name, res.Violation, res.Truncated)
				}
			} else {
				if !b.checks.check(!res.OK && res.Violation != "") {
					b.checks.failf("verify %s: seeded bug not convicted", c.name)
				}
			}
			if w, ok := want[c.name]; ok {
				if !b.checks.check(w.states == o.states && w.executions == o.executions) {
					b.checks.failf("verify %s: %d states/%d executions, earlier %d/%d", c.name, o.states, o.executions, w.states, w.executions)
				}
			}
		}
		tr.end(sid)
		if want == nil {
			want = out
		}
	}

	var states, execs int
	for name, o := range want {
		states += o.states
		execs += o.executions
		b.exact["mcheck."+name] = [2]int{o.states, o.executions}
	}
	b.exact["mcheck.states"] = states
	b.exact["mcheck.executions"] = execs
	// A pass's time is the sum of each case's fast quartile over the passes.
	var passS float64
	for _, c := range cases {
		passS += fastQuartile(caseS[c.name])
	}
	b.set("verify_s", passS)
	b.set("mcheck.states", float64(states))
	b.set("mcheck.executions", float64(execs))
	var checkS float64
	for _, class := range []string{"sc", "wmm", "por"} {
		var sum float64
		for _, d := range tr.durations("mcheck.check." + class) {
			sum += d
		}
		b.set("mcheck.s."+class, sum/verifyPasses)
		checkS += sum
	}
	b.set("mcheck.states_per_s", float64(states)*verifyPasses/checkS)
	b.set("mcheck.us_per_execution", checkS*1e6/(float64(execs)*verifyPasses))
	b.logf("verify probe: %d passes over %d cases, %d states, %d executions", verifyPasses, len(cases), states, execs)
	tr.writeSpans(b.log)
	return nil
}
