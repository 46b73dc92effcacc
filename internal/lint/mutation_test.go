package lint

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// mutation is one textual edit to a real module file and the exact
// set of analyzers that must fire once it is applied. The unmutated
// module lints clean (TestRepoInvariants), so every finding in a
// mutated copy — a stale suppression included — is the mutation's.
type mutation struct {
	name string
	file string // module-relative
	// edits are old→new replacements; each old must occur exactly
	// once in file.
	edits [][2]string
	want  []string // analyzer names, sorted; nil pins a silent miss
	// miss names the analyzer that should catch the mutation but does
	// not yet; the row pins the miss so a fix shows up as a diff here.
	miss string
}

var mutations = []mutation{
	{
		name:  "snappy DecodeCapped drops its length cap",
		file:  "internal/snappy/snappy.go",
		edits: [][2]string{{"\tif dLen64 > uint64(maxLen) {\n\t\treturn nil, ErrTooLarge\n\t}\n", ""}},
		want:  []string{"boundedalloc"},
	},
	{
		name: "listener reads the wall clock",
		file: "internal/nodefinder/listener.go",
		edits: [][2]string{
			{"\t\"sync\"\n", "\t\"sync\"\n\t\"time\"\n"},
			{"\tstart := clk.Now()\n", "\tstart := time.Now()\n"},
		},
		want: []string{"wallclock"},
	},
	{
		name: "faultnet Write holds its mutex across the wrapped write",
		file: "internal/faultnet/conn.go",
		edits: [][2]string{{
			"\t\tc.mu.Lock()\n\t\tc.moved += len(b)\n\t\ttrip := c.moved >= c.plan.resetAfter()\n\t\tc.mu.Unlock()\n",
			"\t\tc.mu.Lock()\n\t\tdefer c.mu.Unlock()\n\t\tc.moved += len(b)\n\t\ttrip := c.moved >= c.plan.resetAfter()\n",
		}},
		want: []string{"locknet"},
	},
	{
		name:  "discv4 sizes a reply queue by a duration",
		file:  "internal/discv4/udp.go",
		edits: [][2]string{{"make(chan error, 1)", "make(chan error, int(t.cfg.RespTimeout))"}},
		want:  []string{"boundedchan"},
	},
	{
		name: "rlpx gains an unclassified sentinel",
		file: "internal/rlpx/frame.go",
		edits: [][2]string{{
			"\tErrFrameTooBig  = errors.New(\"rlpx: frame exceeds size limit\")\n",
			"\tErrFrameTooBig  = errors.New(\"rlpx: frame exceeds size limit\")\n\tErrMutant       = errors.New(\"rlpx: mutant\")\n",
		}},
		want: []string{"errtaxonomy"},
	},
	{
		name:  "eth HashOrNumber loses its custom decoder",
		file:  "internal/eth/eth.go",
		edits: [][2]string{{"func (h *HashOrNumber) DecodeRLP(", "func (h *HashOrNumber) decodeRLP("}},
		want:  []string{"wiresym"},
	},
	{
		name:  "census writes a snapshot after publishing it",
		file:  "internal/census/daemon.go",
		edits: [][2]string{{"\td.cur.Store(snap)\n", "\td.cur.Store(snap)\n\tsnap.Epoch++\n"}},
		want:  []string{"frozenpublish"},
	},
	{
		name:  "ethnode rebinds its listener after the accept loop starts",
		file:  "internal/ethnode/ethnode.go",
		edits: [][2]string{{"\tgo n.acceptLoop()\n", "\tgo n.acceptLoop()\n\tn.ln = ln\n"}},
		want:  []string{"sharedstate"},
	},
	{
		name:  "eth ServeHeaders drops its amount clamp",
		file:  "internal/eth/eth.go",
		edits: [][2]string{{"\tif amount > MaxHeadersServe {\n\t\tamount = MaxHeadersServe\n\t}\n", ""}},
		want:  []string{"wiretaint"},
	},
	{
		name:  "RealDialer drops its deferred Close",
		file:  "internal/nodefinder/adapters.go",
		edits: [][2]string{{"\tdefer fd.Close()\n", ""}},
		miss:  "connclose", // fd escapes into rlpx.InitiateTimeout
	},
	{
		name:  "Listener accept loop spins on accept errors",
		file:  "internal/nodefinder/listener.go",
		edits: [][2]string{{"\t\tif err != nil {\n\t\t\treturn\n\t\t}\n\t\tl.wg.Add(1)\n", "\t\tif err != nil {\n\t\t\tcontinue\n\t\t}\n\t\tl.wg.Add(1)\n"}},
		miss:  "goroutinelife",
	},
	{
		name:  "rlpx ReadMsg drops its read deadline",
		file:  "internal/rlpx/conn.go",
		edits: [][2]string{{"\t\tc.fd.SetReadDeadline(time.Now().Add(time.Duration(d))) //nolint:errcheck\n", "\t\t_ = d\n"}},
		want:  []string{"lint"}, // only the now-stale wallclock suppression
		miss:  "deadlineflow",
	},
	{
		name:  "faultnet ServeConn drops its conn deadline",
		file:  "internal/faultnet/hostile.go",
		edits: [][2]string{{"\tfd.SetDeadline(now.Add(hostileConnDeadline)) //nolint:errcheck\n", "\t_ = now\n"}},
		miss:  "deadlineflow",
	},
}

// TestMutationCatches applies each mutation to a fresh copy of the
// module and pins exactly which analyzers notice it: a refactor of
// the lint engine must keep every catch, and a fixed miss must update
// its row on purpose.
func TestMutationCatches(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module once per mutation")
	}
	root, module, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	// One loader type-checks the standard library; every mutated copy
	// reuses those packages (and their file set) and re-checks only
	// module code.
	std := NewLoader(root, module)
	if _, err := std.LoadAll(); err != nil {
		t.Fatal(err)
	}
	sources, err := moduleSources(root)
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[string]bool)
	for _, m := range mutations {
		covered[m.miss] = true
		for _, a := range m.want {
			covered[a] = true
		}
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, rel := range sources {
				data, err := os.ReadFile(filepath.Join(root, rel))
				if err != nil {
					t.Fatal(err)
				}
				if rel == m.file {
					src := string(data)
					for _, e := range m.edits {
						if n := strings.Count(src, e[0]); n != 1 {
							t.Fatalf("%s: mutation anchor %q occurs %d times, want 1", m.file, e[0], n)
						}
						src = strings.Replace(src, e[0], e[1], 1)
					}
					data = []byte(src)
				}
				dst := filepath.Join(dir, rel)
				if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(dst, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l := NewLoader(dir, module)
			l.Fset, l.stdPkgs = std.Fset, std.stdPkgs
			pkgs, err := l.LoadAll()
			if err != nil {
				t.Fatalf("mutated module does not type-check: %v", err)
			}
			fired := make(map[string]bool)
			var got []string
			findings := Run(l, pkgs, RepoAnalyzers(module))
			for _, f := range findings {
				if !fired[f.Analyzer] {
					fired[f.Analyzer] = true
					got = append(got, f.Analyzer)
				}
			}
			sort.Strings(got)
			if strings.Join(got, ",") != strings.Join(m.want, ",") {
				for _, f := range findings {
					t.Logf("%s:%d:%d: %s: %s", l.RelPath(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
				}
				t.Errorf("analyzers fired: %v, want %v", got, m.want)
			}
		})
	}
	for _, a := range RepoAnalyzers(module) {
		if !covered[a.Name()] {
			t.Errorf("analyzer %s has no mutation row (neither a catch nor a pinned miss)", a.Name())
		}
	}
}

// moduleSources lists the module-relative paths the loader reads:
// go.mod and every non-test Go file outside the directories
// ListPackages skips.
func moduleSources(root string) ([]string, error) {
	srcs := []string{"go.mod"}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			srcs = append(srcs, filepath.ToSlash(rel))
		}
		return nil
	})
	return srcs, err
}
