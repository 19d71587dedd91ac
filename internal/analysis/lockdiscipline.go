package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockDiscipline enforces two lock-hygiene invariants:
//
//  1. Leak-on-return: a sync.Mutex/RWMutex acquisition must be released —
//     by a defer or an explicit unlock — before any return that follows it
//     lexically. A return while the lock is (lexically) still held is the
//     classic early-return leak that deadlocks the next caller.
//
//  2. Acquisition order (internal/hive, internal/wire, internal/archive):
//     the hive's
//     documented order is session-entry lock ≺ checkpoint gate ≺ program
//     mu ≺ input stripes (kgMu/coordMu); the registry lock (Hive.mu) and
//     the per-program session-table lock (programState.sessMu) are leaves
//     never held across another acquisition. The wire layer's routing
//     locks rank BELOW all of the hive's: router placement (Router.mu) ≺
//     server placement (Server.placeMu) ≺ client connection (Client.mu) —
//     a server dispatching into the hive may hold a wire lock across hive
//     acquisitions, never the reverse. The admission layer's locks
//     (admissionState.mu for the token-bucket table, connState.qMu for
//     queued-byte accounting) are leaves like Hive.mu, and so is the
//     archiver's sync lock (Archiver.mu) — tiering must never couple
//     itself to the ingest path's lock graph. Acquiring against
//     that order within one function is an inversion that can deadlock
//     the sharded fleet.
//
// The analysis is lexical and intraprocedural — a deliberate approximation
// that catches the bug classes above without whole-program may-hold facts.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc: "every Lock() must be released (defer or explicit unlock) before a " +
		"lexically later return, and internal/hive + internal/wire + " +
		"internal/archive lock classes must be acquired in documented order " +
		"(Router.mu ≺ Server.placeMu ≺ Client.mu ≺ session ≺ ckpt ≺ mu ≺ " +
		"stripes; Hive.mu, programState.sessMu, the admission locks " +
		"admissionState.mu/connState.qMu, and the archiver sync lock " +
		"Archiver.mu are leaves)",
	Run: runLockDiscipline,
}

// lockRank orders the ranked lock classes across internal/hive and
// internal/wire. Lower rank is acquired first; acquiring a class at or
// below a held class's rank is an inversion. The wire routing locks sit
// below every hive class: server dispatch may hold them while entering
// the hive, and the hive never calls back out into the wire layer.
var lockRank = map[string]int{
	// internal/wire (PR 8 routing tier). Router.mu is released before a
	// per-owner client is driven; Server.placeMu is released before a
	// proxy client call; Client.mu guards one connection's stream.
	"Router.mu":            1,
	"Server.placeMu":       2,
	"Client.mu":            5,
	"sessionEntry.mu":      10,
	"programState.ckpt":    20,
	"programState.mu":      30,
	"programState.kgMu":    40,
	"programState.coordMu": 40,
	// Leaf locks: never legal to hold across another ranked acquisition.
	// A program's session table (sessMu) is taken alone, inside ckpt and a
	// sessionEntry.mu, and released before anything else is acquired.
	"Hive.mu":             50,
	"programState.sessMu": 50,
	// PR 9 admission tier: the token-bucket table lock and the
	// per-connection queued-bytes accounting lock are leaves too — debit
	// and byte accounting never call back into any other ranked class.
	"admissionState.mu": 50,
	"connState.qMu":     50,
	// PR 10 archive tier: the archiver's sync lock is held across a whole
	// program sync (export → upload → manifest → prune). The journal's
	// internal locks are unranked, so that is safe — but holding it across
	// any ranked hive/wire acquisition would couple disk tiering to the
	// ingest path's lock graph. Leaf.
	"Archiver.mu": 50,
}

// lockEvent is one lexical lock-relevant occurrence inside a function.
type lockEvent struct {
	pos      token.Pos
	kind     lockEventKind
	key      string // lock identity, e.g. "st.ckpt"
	class    string // ranked class, e.g. "programState.ckpt" ("" unranked)
	readSide bool   // RLock/RUnlock pair
}

type lockEventKind int

const (
	evLock lockEventKind = iota
	evUnlock
	evDeferUnlock
	evReturn
)

func runLockDiscipline(p *Pass) {
	for _, file := range p.Pkg.Files {
		enclosingFuncs(file, func(fd *ast.FuncDecl) {
			// Each function literal is its own lock scope: its returns leave
			// the literal, not the enclosing function, and locks it takes are
			// its own responsibility (sort comparators, walk callbacks).
			for _, body := range funcBodies(fd.Body) {
				events := collectLockEvents(p, body)
				if len(events) == 0 {
					continue
				}
				checkLeakOnReturn(p, events)
				checkAcquisitionOrder(p, events)
			}
		})
	}
}

// funcBodies returns body plus the body of every function literal nested
// anywhere inside it (recursively), each to be analyzed as its own scope.
func funcBodies(body *ast.BlockStmt) []*ast.BlockStmt {
	out := []*ast.BlockStmt{body}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != nil {
			out = append(out, lit.Body)
		}
		return true
	})
	return out
}

// collectLockEvents walks one function scope in lexical order, skipping
// nested function literals (they are separate scopes).
func collectLockEvents(p *Pass, body *ast.BlockStmt) []lockEvent {
	info := p.Pkg.Info
	var events []lockEvent
	deferred := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			if v.Body != body {
				return false // separate scope
			}
		case *ast.DeferStmt:
			deferred[v.Call] = true
		case *ast.ReturnStmt:
			events = append(events, lockEvent{pos: v.Pos(), kind: evReturn})
		case *ast.CallExpr:
			ev, ok := classifyLockCall(info, v)
			if !ok {
				return true
			}
			if deferred[v] {
				if ev.kind == evUnlock {
					ev.kind = evDeferUnlock
				} else {
					// defer x.Lock() is never meaningful; treat as a plain
					// acquisition so it at least surfaces through rule 1.
					ev.pos = v.Pos()
				}
			}
			events = append(events, ev)
		}
		return true
	})
	return events
}

// classifyLockCall recognizes sync.Mutex / sync.RWMutex lock operations.
func classifyLockCall(info *types.Info, call *ast.CallExpr) (lockEvent, bool) {
	f := calleeFunc(info, call)
	if f == nil {
		return lockEvent{}, false
	}
	recv := recvNamed(f)
	if recv == nil || recv.Obj().Pkg() == nil || recv.Obj().Pkg().Path() != "sync" {
		return lockEvent{}, false
	}
	name := recv.Obj().Name()
	if name != "Mutex" && name != "RWMutex" {
		return lockEvent{}, false
	}
	ev := lockEvent{pos: call.Pos()}
	switch f.Name() {
	case "Lock":
		ev.kind = evLock
	case "RLock":
		ev.kind, ev.readSide = evLock, true
	case "Unlock":
		ev.kind = evUnlock
	case "RUnlock":
		ev.kind, ev.readSide = evUnlock, true
	default:
		return lockEvent{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	ev.key = exprString(sel.X)
	ev.class = lockClass(info, sel.X)
	return ev, true
}

// lockClass resolves "st.ckpt" to "programState.ckpt" when the owning named
// struct lives in a package with ranked classes (internal/hive,
// internal/wire), else "".
func lockClass(info *types.Info, lockExpr ast.Expr) string {
	sel, ok := ast.Unparen(lockExpr).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return ""
	}
	owner := namedOf(selection.Recv())
	if owner == nil {
		return ""
	}
	pkg := owner.Obj().Pkg()
	if !pkgMatches(pkg, "internal/hive") && !pkgMatches(pkg, "internal/wire") &&
		!pkgMatches(pkg, "internal/archive") {
		return ""
	}
	return owner.Obj().Name() + "." + sel.Sel.Name
}

// checkLeakOnReturn flags acquisitions followed lexically by a return
// before any matching release.
func checkLeakOnReturn(p *Pass, events []lockEvent) {
	for i, ev := range events {
		if ev.kind != evLock {
			continue
		}
	scan:
		for _, later := range events[i+1:] {
			switch later.kind {
			case evUnlock, evDeferUnlock:
				if later.key == ev.key && later.readSide == ev.readSide {
					break scan
				}
			case evReturn:
				verb, unverb := "Lock", "Unlock"
				if ev.readSide {
					verb, unverb = "RLock", "RUnlock"
				}
				p.Reportf(ev.pos, "%s.%s() with a return before any matching %s: the lock leaks on the early-return path (acquire then `defer %s.%s()`)", ev.key, verb, unverb, ev.key, unverb)
				break scan
			}
		}
	}
}

// checkAcquisitionOrder simulates the held-lock set lexically and flags
// ranked acquisitions at or below a held class's rank.
func checkAcquisitionOrder(p *Pass, events []lockEvent) {
	type held struct {
		key      string
		class    string
		readSide bool
		forever  bool // defer-released: held through function end
	}
	var stack []held
	release := func(key string) {
		for i := len(stack) - 1; i >= 0; i-- {
			if stack[i].key == key && !stack[i].forever {
				stack = append(stack[:i], stack[i+1:]...)
				return
			}
		}
	}
	for _, ev := range events {
		switch ev.kind {
		case evLock:
			for _, h := range stack {
				if h.key == ev.key {
					if !h.readSide || !ev.readSide {
						p.Reportf(ev.pos, "%s acquired while already held (lexically): self-deadlock", ev.key)
					}
					continue
				}
				hr, hOK := lockRank[h.class]
				nr, nOK := lockRank[ev.class]
				if hOK && nOK && nr <= hr && h.class != ev.class {
					p.Reportf(ev.pos, "lock order inversion: %s (%s) acquired while holding %s (%s); documented order is Router.mu ≺ Server.placeMu ≺ Client.mu ≺ session ≺ ckpt ≺ mu ≺ stripes, with Hive.mu/sessMu as leaf locks", ev.key, ev.class, h.key, h.class)
				}
			}
			stack = append(stack, held{key: ev.key, class: ev.class, readSide: ev.readSide})
		case evUnlock:
			release(ev.key)
		case evDeferUnlock:
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i].key == ev.key {
					stack[i].forever = true
					break
				}
			}
		}
	}
}
