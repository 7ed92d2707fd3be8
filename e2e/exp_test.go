//go:build linux

package e2e

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestExpSections: sdexp -exp all prints the committed golden bytes,
// every -exp name prints exactly its section of all, and an unknown
// name fails with one line on stderr. testdata/exp_all.txt holds the
// output of the hand-written -exp runners that the registry sections
// replaced, with the timing lines dropped.
func TestExpSections(t *testing.T) {
	openSources(t)
	e := newEnv(t)
	run := func(exp string) string {
		out, _ := e.sdexp("exp-"+exp, "-exp", exp, "-scale", "0.03", "-seed", "1", "-workers", "2")
		return dropTimings(out)
	}
	golden, err := os.ReadFile("testdata/exp_all.txt")
	e.must(err)
	all := run("all")
	same(t, "sdexp -exp all", string(golden), all)

	// Each section runs from its "==== <name> (scale ...) ====" banner to
	// the next one.
	sections := map[string]string{}
	var section string
	for _, line := range strings.SplitAfter(all, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "====" {
			section = f[1]
		}
		sections[section] += line
	}
	for _, c := range []struct{ exp, section string }{
		{"table1", "table1"}, {"table2", "table2"},
		{"fig1", "fig1-3"}, {"fig2", "fig1-3"}, {"fig3", "fig1-3"},
		{"fig4", "fig4-6"}, {"fig5", "fig4-6"}, {"fig6", "fig4-6"},
		{"fig7", "fig7"}, {"fig8", "fig8"}, {"fig9", "fig9"},
		{"ablations", "ablations"},
	} {
		same(t, "sdexp -exp "+c.exp, sections[c.section], run(c.exp))
	}
	if len(sections) != 8 {
		t.Fatalf("-exp all printed %d sections, want 8", len(sections))
	}

	p := e.start("exp-unknown", "sdexp", "-exp", "fig10")
	select {
	case <-p.done:
	case <-e.ctx.Done():
		t.Fatal("sdexp -exp fig10 still running at the deadline")
	}
	if log := e.read(p.log); p.err == nil || log != "sdexp: unknown experiment \"fig10\"\n" {
		t.Fatalf("sdexp -exp fig10: exit %v, stderr %q", p.err, log)
	}
}

// dropTimings removes the wall-clock line ("[fig8 done in 157ms]") that
// closes each -exp section.
func dropTimings(out string) string {
	lines := strings.SplitAfter(out, "\n")
	return strings.Join(slices.DeleteFunc(lines, func(l string) bool {
		return strings.Contains(l, " done in ")
	}), "")
}
