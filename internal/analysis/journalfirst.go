package analysis

import (
	"go/ast"
)

// journalGuard describes one protected live-mutation helper: a function in
// internal/hive that mutates recoverable state and therefore may only run
// after its operation has been journaled (or while replaying the journal).
type journalGuard struct {
	// callee is the protected function's name within the package.
	callee string
	// callers are the function names allowed to invoke it.
	callers map[string]bool
}

// journalGuards encodes the hive's write-ahead discipline (PR 3): every
// mutation is appended to the journal *before* it is applied, so the only
// legal callers of the apply helpers are the journaled wrappers (which
// append first) and recovery replay (which applies ops already journaled).
// A handler calling an apply helper directly would mutate state that a
// crash forgets — the exact bug class the journal exists to prevent.
var journalGuards = []journalGuard{
	{callee: "applyBatchView", callers: set("ingestView", "applyOp")},
	// Fix synthesis journals its own outcome op; it may only be elected
	// from within an applied batch, never ad hoc.
	{callee: "synthesizeFix", callers: set("applyBatchView")},
	// A program's dedup window must only advance for journaled (or
	// replayed) frames; marking a session outside those paths would let a
	// crash acknowledge-and-forget a frame.
	{callee: "markSession", callers: set("ingestView", "applyOp", "mergeSessions")},
	// PR 10: the read-only breaker's failure accounting wraps every live
	// batch append. Appending to the journal around the wrapper would let
	// a full disk fail silently without ever tripping the breaker.
	{callee: "journalBatchAppend", callers: set("ingestView")},
	// The breaker may only close once a checkpoint has landed durably —
	// closing it anywhere else would ack ingest into an unproven journal.
	{callee: "closeReadOnly", callers: set("CheckpointProgram")},
	// A session enters a program's dedup table only through the ingest
	// path's entry lookup (sessionFor), a journaled or replayed mark
	// (markSession), or the restore merge (mergeSessions) — each holding the
	// program's sessMu. Any other insert would put a window in the snapshot
	// that no journaled frame accounts for, or race those three.
	{callee: "entryLocked", callers: set("sessionFor", "markSession", "mergeSessions")},
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// JournalFirst enforces journal-ahead-of-apply reachability in
// internal/hive.
var JournalFirst = &Analyzer{
	Name: "journalfirst",
	Doc: "in internal/hive, live-mutation helpers (applyBatchView, " +
		"synthesizeFix, markSession, journalBatchAppend, closeReadOnly, " +
		"entryLocked) are reachable only from the journaled wrapper " +
		"(ingestView), recovery replay (applyOp/mergeSessions), the " +
		"session table's own lookup (sessionFor, for entryLocked), or the " +
		"checkpoint path (CheckpointProgram); calling them from handlers " +
		"would apply state a crash forgets or bypass the read-only breaker",
	Run: runJournalFirst,
}

func runJournalFirst(p *Pass) {
	if !pathMatches(p.Pkg.Path, "internal/hive") {
		return
	}
	guards := map[string]*journalGuard{}
	for i := range journalGuards {
		guards[journalGuards[i].callee] = &journalGuards[i]
	}
	for _, file := range p.Pkg.Files {
		enclosingFuncs(file, func(fd *ast.FuncDecl) {
			caller := funcName(fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				f := calleeFunc(p.Pkg.Info, call)
				if f == nil || f.Pkg() != p.Pkg.Types {
					return true
				}
				g, protected := guards[f.Name()]
				if !protected || g.callers[caller] || caller == g.callee {
					return true
				}
				p.Reportf(call.Pos(), "%s called from %s: %s mutates journaled state and is reachable only from %s (journal the op first, or route through the journaled wrapper)", f.Name(), caller, f.Name(), allowedCallers(g))
				return true
			})
		})
	}
}

func allowedCallers(g *journalGuard) string {
	names := make([]string, 0, len(g.callers))
	for n := range g.callers {
		names = append(names, n)
	}
	// Deterministic message text.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	out := ""
	for i, n := range names {
		if i > 0 {
			out += "/"
		}
		out += n
	}
	return out
}
