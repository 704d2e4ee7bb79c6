package scengen

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the sweep fingerprint lists in testdata/")

// fingerprintPins holds one sweep's pinned fingerprints: the SHA-256 of
// the first run's fingerprint for every seed, one "seed hash" line each,
// in testdata/<sweep>_fingerprints.txt. The run-twice check proves a
// sweep is deterministic; the pins prove it still computes what it did
// when they were captured, so a change that claims byte-identical output
// is checked against a stored value instead of by hand.
//
// The pins are captured on the CI architecture (amd64). Go may fuse
// x*y+z into one FMA instruction on arm64 but not on amd64, so float
// fields such as the link-traffic averages can differ in the last bit on
// other architectures; the pins are checked only on amd64.
type fingerprintPins struct {
	path string
	mu   sync.Mutex
	got  map[int64]string
}

func newFingerprintPins(sweep string) *fingerprintPins {
	return &fingerprintPins{
		path: filepath.Join("testdata", sweep+"_fingerprints.txt"),
		got:  make(map[int64]string),
	}
}

// record notes seed's fingerprint; sweep workers call it concurrently.
func (p *fingerprintPins) record(seed int64, fingerprint string) {
	sum := sha256.Sum256([]byte(fingerprint))
	p.mu.Lock()
	p.got[seed] = hex.EncodeToString(sum[:])
	p.mu.Unlock()
}

// check compares every recorded seed that the file pins, or rewrites the
// file from the recorded seeds under -update. Seeds the file does not
// list (a sweep widened through its environment variables) are skipped.
func (p *fingerprintPins) check(t *testing.T) {
	t.Helper()
	seeds := make([]int64, 0, len(p.got))
	for s := range p.got {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	if *update {
		var b strings.Builder
		for _, s := range seeds {
			fmt.Fprintf(&b, "%d %s\n", s, p.got[s])
		}
		if err := os.WriteFile(p.path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Logf("fingerprint pins skipped on %s: they are captured on amd64", runtime.GOARCH)
		return
	}
	want, err := readFingerprintPins(p.path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	checked, moved := 0, 0
	for _, s := range seeds {
		w, ok := want[s]
		if !ok {
			continue
		}
		checked++
		if p.got[s] != w {
			moved++
			t.Errorf("seed %d: fingerprint sha256 %s, pinned %s", s, p.got[s], w)
		}
	}
	if moved > 0 {
		t.Errorf("%d of %d pinned fingerprints moved (%s); rerun with -update only for an intended change", moved, checked, p.path)
	}
}

func readFingerprintPins(path string) (map[int64]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pins := make(map[int64]string)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		seed, sum, ok := strings.Cut(sc.Text(), " ")
		s, err := strconv.ParseInt(seed, 10, 64)
		if !ok || err != nil || len(sum) != sha256.Size*2 {
			return nil, fmt.Errorf("%s:%d: want \"seed sha256\", got %q", path, line, sc.Text())
		}
		pins[s] = sum
	}
	return pins, sc.Err()
}
