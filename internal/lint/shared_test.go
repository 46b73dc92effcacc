package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestPessimisticPassShared pins that boundedalloc and boundedchan
// read one pessimistic taint run per program: the first analyzer
// fills the loader's cache, the second reuses the same sinks, and
// emptying the cache silences the sink-based findings of both —
// neither can quietly fall back to an engine run of its own.
func TestPessimisticPassShared(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, "lintest")
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	alloc := &BoundedAlloc{Packages: []string{"lintest/boundedalloc"}}
	chans := &BoundedChan{Packages: []string{"lintest/boundedchan"}}
	capacity := func(fs []Finding) int {
		n := 0
		for _, f := range fs {
			if strings.HasPrefix(f.Message, "channel capacity ") {
				n++
			}
		}
		return n
	}

	allocs := alloc.Run(l, pkgs)
	first := l.pessimistic
	if len(allocs) == 0 || len(first) == 0 || l.pessimisticFor != l.Program(pkgs) {
		t.Fatalf("boundedalloc must fill the pessimistic cache (%d findings, %d sinks)", len(allocs), len(first))
	}
	if capacity(chans.Run(l, pkgs)) == 0 {
		t.Fatal("boundedchan reported no channel-capacity findings on the golden universe")
	}
	if len(l.pessimistic) != len(first) || &l.pessimistic[0] != &first[0] {
		t.Fatal("boundedchan replaced the pessimistic sinks instead of sharing them")
	}

	l.pessimistic = nil
	if fs := alloc.Run(l, pkgs); len(fs) != 0 {
		t.Errorf("boundedalloc ignored the shared run: %d findings from an emptied cache", len(fs))
	}
	if n := capacity(chans.Run(l, pkgs)); n != 0 {
		t.Errorf("boundedchan ignored the shared run: %d capacity findings from an emptied cache", n)
	}
}
