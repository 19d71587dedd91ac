package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/hive"
	"repro/internal/journal"
	"repro/internal/pod"
	"repro/internal/trace"
)

// podInterfaces lists every exported interface type declared in package
// pod, with its method names.
func podInterfaces(t *testing.T) map[string][]string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join("..", "internal", "pod"), func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]string)
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() {
					return true
				}
				it, ok := ts.Type.(*ast.InterfaceType)
				if !ok {
					return true
				}
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						out[ts.Name.Name] = append(out[ts.Name.Name], name.Name)
					}
				}
				return true
			})
		}
	}
	return out
}

func hasMethods(v any, names []string) bool {
	typ := reflect.TypeOf(v)
	for _, n := range names {
		if _, ok := typ.MethodByName(n); !ok {
			return false
		}
	}
	return true
}

// The traced hive must offer the wire server exactly the optional pod
// interfaces the hive does, or traced runs would take another code path.
func TestTracedHiveInterfaces(t *testing.T) {
	ifaces := podInterfaces(t)
	if len(ifaces) == 0 {
		t.Fatal("found no interfaces in package pod")
	}
	names := make([]string, 0, len(ifaces))
	for n := range ifaces {
		names = append(names, n)
	}
	sort.Strings(names)
	implemented := 0
	for _, n := range names {
		h := hasMethods(&hive.Hive{}, ifaces[n])
		w := hasMethods(&tracedHive{}, ifaces[n])
		if h != w {
			t.Errorf("pod.%s: implemented by *hive.Hive = %v, by *tracedHive = %v", n, h, w)
		}
		if h {
			implemented++
		}
	}
	if _, ok := ifaces["ColumnarSubmitter"]; !ok || implemented < 2 {
		t.Errorf("interface scan looks wrong: %v", names)
	}
}

// fsOps runs one fixed sequence of file operations and records every
// result, so two FS implementations can be compared call by call.
func fsOps(vfs journal.FS, dir string) []string {
	var log []string
	note := func(op string, v any, err error) {
		log = append(log, op+": "+jsonString(v)+" err="+errString(err))
	}
	p := filepath.Join(dir, "wal-a-1.log")
	f, err := vfs.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	note("open", f != nil, err)
	if f != nil {
		n, err := f.Write([]byte("hello journal"))
		note("write", n, err)
		note("sync", nil, f.Sync())
		st, err := f.Stat()
		note("stat", st.Size(), err)
		note("truncate", nil, f.Truncate(5))
		note("close", nil, f.Close())
	}
	b, err := vfs.ReadFile(p)
	note("readfile", string(b), err)
	note("rename", nil, vfs.Rename(p, filepath.Join(dir, "snap-a-2.snap")))
	note("truncate-path", nil, vfs.Truncate(filepath.Join(dir, "snap-a-2.snap"), 2))
	entries, err := vfs.ReadDir(dir)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	note("readdir", names, err)
	_, err = vfs.ReadFile(filepath.Join(dir, "missing"))
	note("missing-is-notexist", errors.Is(err, fs.ErrNotExist), nil)
	r, err := vfs.OpenFile(filepath.Join(dir, "snap-a-2.snap"), os.O_RDONLY, 0)
	if r != nil {
		buf := make([]byte, 8)
		n, err := r.Read(buf)
		note("read", string(buf[:n]), err)
		r.Close()
	}
	note("mkdir", nil, vfs.MkdirAll(filepath.Join(dir, "sub", "dir"), 0o755))
	note("remove", nil, vfs.Remove(filepath.Join(dir, "snap-a-2.snap")))
	note("remove-missing", nil, vfs.Remove(filepath.Join(dir, "snap-a-2.snap")))
	return log
}

func jsonString(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func errString(err error) string {
	if err == nil {
		return "nil"
	}
	return "error"
}

// The timing FS must pass every call through unchanged, and time the ones
// it claims to.
func TestTimingFSPassthrough(t *testing.T) {
	tr := newTracer()
	want := fsOps(journal.OSFS(), t.TempDir())
	got := fsOps(timingFS{inner: journal.OSFS(), tr: tr}, t.TempDir())
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("timing FS changed results:\n got %q\nwant %q", got, want)
	}
	seen := make(map[string]bool)
	for _, s := range tr.take() {
		seen[s.layer+"/"+s.key] = true
	}
	for _, k := range []string{"fs.write/wal", "fs.sync/wal", "fs.read/wal", "fs.read/snap"} {
		if !seen[k] {
			t.Errorf("no %s span recorded; got %v", k, seen)
		}
	}
}

// smoke runs one short workload and returns its exit code, stdout and the
// parsed last line.
func smoke(t *testing.T, workload string, traced bool, wrap func(*hive.Hive) pod.HiveClient) (int, string, output) {
	t.Helper()
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.5",
		"--data-root", t.TempDir()}
	if traced {
		args = append(args, "--trace", "1")
	}
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr, wrap)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s: last line is not a result (exit %d): %v\nstdout:\n%s\nstderr:\n%s",
			workload, code, err, stdout.String(), stderr.String())
	}
	return code, stdout.String(), out
}

// Every workload prints every end-to-end metric by name and unit, with a
// clean correctness gate; a traced run prints every per-layer metric.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range []string{"ingest", "fleet", "churn"} {
		t.Run(w, func(t *testing.T) {
			code, text, out := smoke(t, w, false, nil)
			if code != 0 || !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Fatalf("exit %d, result %+v\n%s", code, out, text)
			}
			for _, m := range endToEndUnits {
				got, ok := out.Metrics[m.name]
				if !ok || got.Unit != m.unit || !(got.Value > 0) {
					t.Errorf("metric %s = %+v, want a positive value in %s", m.name, got, m.unit)
				}
				if !strings.Contains(text, m.name) {
					t.Errorf("report does not print %s", m.name)
				}
			}
			if len(out.Metrics) != len(endToEndUnits) {
				t.Errorf("%d metrics, want %d", len(out.Metrics), len(endToEndUnits))
			}

			code, text, out = smoke(t, w, true, nil)
			if code != 0 || !out.Correct {
				t.Fatalf("traced: exit %d, result %+v\n%s", code, out, text)
			}
			for _, m := range perLayerUnits {
				if got, ok := out.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("per-layer metric %s = %+v, want unit %s", m.name, got, m.unit)
				}
			}
			if out.Metrics["trace.spans"].Value == 0 || out.Metrics["trace.coverage"].Value == 0 {
				t.Errorf("traced run recorded no spans: %+v", out.Metrics)
			}
		})
	}
}

// dropOne acknowledges one columnar batch without applying it.
type dropOne struct {
	*hive.Hive
	calls atomic.Int64
}

func (d *dropOne) SubmitColumnarSession(session string, seq uint64, b *trace.BatchView) (bool, error) {
	if d.calls.Add(1) == 3 {
		return false, nil
	}
	return d.Hive.SubmitColumnarSession(session, seq, b)
}

// A hive that silently loses one batch must fail every workload's
// correctness gate.
func TestGateCatchesDroppedBatch(t *testing.T) {
	for _, w := range []string{"ingest", "fleet", "churn"} {
		t.Run(w, func(t *testing.T) {
			wrap := func(h *hive.Hive) pod.HiveClient { return &dropOne{Hive: h} }
			code, text, out := smoke(t, w, false, wrap)
			if code == 0 || out.Correct || out.Failed == 0 {
				t.Fatalf("dropped batch passed the gate: exit %d, result %+v\n%s", code, out, text)
			}
			if !strings.Contains(text, "CORRECTNESS MISS") {
				t.Errorf("report names no correctness miss:\n%s", text)
			}
		})
	}
}

func TestIntervalsOverlap(t *testing.T) {
	iv := newIntervals([]span{{start: 0, end: 10}, {start: 5, end: 15}, {start: 20, end: 30}})
	for _, c := range []struct{ lo, hi, want int64 }{
		{0, 30, 25}, {10, 25, 10}, {15, 20, 0}, {-5, 3, 3}, {12, 22, 5},
	} {
		if got := iv.overlap(c.lo, c.hi); got != c.want {
			t.Errorf("overlap(%d, %d) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}
