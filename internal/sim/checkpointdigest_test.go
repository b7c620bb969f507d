package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"heteromem/internal/core"
)

// TestCheckpointBytesPinned pins the checkpoint encoding itself, which the
// resume-equivalence tests only check for self-consistency: every
// checkpoint of a 1,000-record cadence run (boundaries land mid-swap and
// inside the warmup) must hash to the committed SHA-256
// digest. The runs cover N, N-1 and Live with faults off and on, plus the
// fault-ladder campaign on one and two channels with observability off.
// Regenerate with -update only for a deliberate format change.
func TestCheckpointBytesPinned(t *testing.T) {
	type run struct {
		name string
		cfg  Config
	}
	var runs []run
	for _, design := range []core.Design{core.DesignN, core.DesignN1, core.DesignLive} {
		for _, faults := range []bool{false, true} {
			runs = append(runs, run{fmt.Sprintf("%v/faults=%v", design, faults), equivConfig(design, faults)})
		}
	}
	for _, channels := range []int{1, 2} {
		for _, design := range []core.Design{core.DesignN, core.DesignN1, core.DesignLive} {
			runs = append(runs, run{fmt.Sprintf("ladder/c%d/%v", channels, design), ladderConfig(channels, design)})
		}
	}

	var got bytes.Buffer
	for _, r := range runs {
		cfg := r.cfg
		cfg.CheckpointEvery = 1_000
		n := 0
		cfg.CheckpointSink = func(data []byte, at uint64) error {
			fmt.Fprintf(&got, "%s %d %x\n", r.name, at, sha256.Sum256(data))
			n++
			return nil
		}
		if _, err := Run(equivSource(t), cfg); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if n == 0 {
			t.Fatalf("%s: no checkpoint captured", r.name)
		}
	}

	path := filepath.Join("testdata", "checkpoint_digests.txt")
	if *updatePerfGoldens {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (generate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("checkpoint bytes changed:\n got %s\nwant %s", got.Bytes(), want)
	}
}
