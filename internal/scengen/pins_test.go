package scengen

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"composable/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the sweep pin lists in testdata/")

// fingerprintPins holds one sweep's pins, one "seed hash digest" line per
// seed in testdata/<sweep>_fingerprints.txt: the SHA-256 of the first
// run's fingerprint and the sim.Digest of every event that run
// dispatched. The run-twice check proves a sweep is deterministic; the
// pins prove it still computes what it did when they were captured, so a
// change that claims byte-identical output is checked against a stored
// value instead of by hand. The fingerprint covers end results only; the
// event digest also catches a change that reorders same-instant events
// (two ring channels started the other way round, completion batches
// signalled in another order) without moving any result.
//
// The pins were captured with go1.24.0 on amd64, the toolchain
// bench/pins.json records; CI's setup-go installs Go 1.22. They are
// checked on every architecture: every product that feeds a sum is
// rounded (float64(a*b) + c), so no architecture fuses it into an FMA,
// and CI runs them on 386 as well as amd64.
type fingerprintPins struct {
	path string
	mu   sync.Mutex
	got  map[int64]sweepPin
}

// sweepPin is one seed's pinned line.
type sweepPin struct {
	fingerprint string // hex SHA-256 of the fingerprint
	digest      string // sim.Digest sum, 16 hex digits
}

func newFingerprintPins(sweep string) *fingerprintPins {
	return &fingerprintPins{
		path: filepath.Join("testdata", sweep+"_fingerprints.txt"),
		got:  make(map[int64]sweepPin),
	}
}

// newSweepEnv returns a fresh environment with an event digest attached,
// for one sweep run.
func newSweepEnv() (*sim.Env, *sim.Digest) {
	env, d := sim.NewEnv(), &sim.Digest{}
	env.SetDigest(d)
	return env, d
}

// record notes seed's fingerprint and event digest; sweep workers call it
// concurrently.
func (p *fingerprintPins) record(seed int64, fingerprint string, d *sim.Digest) {
	sum := sha256.Sum256([]byte(fingerprint))
	pin := sweepPin{fingerprint: hex.EncodeToString(sum[:]), digest: fmt.Sprintf("%016x", d.Sum())}
	p.mu.Lock()
	p.got[seed] = pin
	p.mu.Unlock()
}

// check compares every recorded seed with its pin, or rewrites the file
// from the recorded seeds under -update. A recorded seed the file does
// not list fails, so a deleted pin line cannot pass unnoticed.
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
			fmt.Fprintf(&b, "%d %s %s\n", s, p.got[s].fingerprint, p.got[s].digest)
		}
		if err := os.WriteFile(p.path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readFingerprintPins(p.path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	checked, moved, reordered := 0, 0, 0
	for _, s := range seeds {
		w, ok := want[s]
		if !ok {
			t.Errorf("seed %d: not pinned in %s", s, p.path)
			continue
		}
		checked++
		got := p.got[s]
		if got.fingerprint != w.fingerprint {
			moved++
			t.Errorf("seed %d: fingerprint sha256 %s, pinned %s", s, got.fingerprint, w.fingerprint)
		}
		if got.digest != w.digest {
			reordered++
			t.Errorf("seed %d: event digest %s, pinned %s", s, got.digest, w.digest)
		}
	}
	if moved > 0 || reordered > 0 {
		t.Errorf("%d of %d pinned fingerprints and %d event digests moved (%s); rerun with -update only for an intended change",
			moved, checked, reordered, p.path)
	}
}

func readFingerprintPins(path string) (map[int64]sweepPin, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pins := make(map[int64]sweepPin)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 || len(fields[1]) != sha256.Size*2 || len(fields[2]) != 16 {
			return nil, fmt.Errorf("%s:%d: want \"seed sha256 digest\", got %q", path, line, sc.Text())
		}
		s, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		pins[s] = sweepPin{fingerprint: fields[1], digest: fields[2]}
	}
	return pins, sc.Err()
}
