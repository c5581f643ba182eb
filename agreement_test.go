package ringsym_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"ringsym"
)

// agreementFile records, for every point of the coordination and discovery
// grids below, the rounds, crossings and result digest the runtimes agreed on.
const agreementFile = "testdata/runtime_agreement.txt"

const agreementHeader = `# Runtime agreement: one line per grid point of TestRuntimeDifferential*, with
# the rounds, crossings and SHA-256 of the JSON result (or of "error: " and
# the error text) that the v1 legacy, v2 barrier and v3 scheduler runtimes
# produced identically.  Recorded while all three runtimes were live.
`

// agreementPoint is one grid point: a task on one generated network.
type agreementPoint struct {
	task  string // "coordinate" or "discover"
	model ringsym.Model
	n     int
	mixed bool
	seed  int64
}

func (p agreementPoint) String() string {
	return fmt.Sprintf("%s model=%v n=%d mixed=%t seed=%d", p.task, p.model, p.n, p.mixed, p.seed)
}

// agreementGrid is the coordination grid (model × n × chirality × seed) and
// the discovery grid (lazy sweep, odd-n basic/perceptive sweep, even-n
// perceptive Section V pipeline).
func agreementGrid() []agreementPoint {
	var pts []agreementPoint
	for _, model := range []ringsym.Model{ringsym.Basic, ringsym.Lazy, ringsym.Perceptive} {
		for _, n := range []int{7, 8, 11, 12} {
			for _, mixed := range []bool{false, true} {
				for seed := int64(1); seed <= 3; seed++ {
					pts = append(pts, agreementPoint{"coordinate", model, n, mixed, seed})
				}
			}
		}
	}
	for _, tc := range []struct {
		model ringsym.Model
		n     int
		mixed bool
	}{
		{ringsym.Lazy, 8, true},
		{ringsym.Lazy, 9, false},
		{ringsym.Basic, 9, true},
		{ringsym.Perceptive, 9, true},
		{ringsym.Perceptive, 8, true},
		{ringsym.Perceptive, 12, false},
	} {
		for seed := int64(1); seed <= 2; seed++ {
			pts = append(pts, agreementPoint{"discover", tc.model, tc.n, tc.mixed, seed})
		}
	}
	return pts
}

// agreementRun is the observable outcome of one grid point.
type agreementRun struct {
	res       any
	err       error
	rounds    int
	crossings int
}

func runAgreementPoint(t *testing.T, p agreementPoint) agreementRun {
	t.Helper()
	nw, err := ringsym.RandomNetwork(ringsym.RandomConfig{N: p.n, Model: p.model, MixedChirality: p.mixed, Seed: p.seed})
	if err != nil {
		t.Fatal(err)
	}
	var r agreementRun
	switch p.task {
	case "coordinate":
		res, err := nw.Coordinate(ringsym.CoordinationOptions{Seed: p.seed})
		r.res, r.err = res, err
	case "discover":
		res, err := nw.DiscoverLocations(ringsym.DiscoveryOptions{Seed: p.seed})
		r.res, r.err = res, err
	}
	r.rounds, r.crossings = nw.Rounds(), nw.Engine().Crossings()
	return r
}

// line renders the recorded form of a run: rounds, crossings and a SHA-256
// of the JSON-encoded result (or of the error text when the run failed).
func (r agreementRun) line(t *testing.T, p agreementPoint) string {
	t.Helper()
	payload := []byte("error: ")
	if r.err != nil {
		payload = append(payload, r.err.Error()...)
	} else {
		raw, err := json.Marshal(r.res)
		if err != nil {
			t.Fatal(err)
		}
		payload = raw
	}
	return fmt.Sprintf("%s rounds=%d crossings=%d sha256=%x", p, r.rounds, r.crossings, sha256.Sum256(payload))
}

// checkAgreement checks every grid point of one task against the recorded
// agreement of the three runtimes the engine used to have: the v1 legacy
// channel rendezvous (one crossing per round), the v2 goroutine-per-agent
// barrier and the v3 scheduler.  The file was generated while all three ran
// and asserted deep-equal results, equal round counts and equal v2/v3
// crossing counts at every point, so the scheduler alone must still
// reproduce each recorded line.
func checkAgreement(t *testing.T, task string) {
	t.Helper()
	raw, err := os.ReadFile(agreementFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(strings.TrimPrefix(string(raw), agreementHeader), "\n"), "\n")
	grid := agreementGrid()
	if len(want) != len(grid) {
		t.Fatalf("%s has %d lines for %d grid points", agreementFile, len(want), len(grid))
	}
	checked := 0
	for i, p := range grid {
		if p.task != task {
			continue
		}
		checked++
		if got := runAgreementPoint(t, p).line(t, p); got != want[i] {
			t.Errorf("%v drifted from the recorded agreement:\ngot:  %s\nwant: %s", p, got, want[i])
		}
	}
	if checked == 0 {
		t.Fatalf("no %s points in the grid", task)
	}
}

// TestRuntimeDifferentialCoordinate checks the coordination grid (model × n ×
// chirality × seed) against the recorded runtime agreement.
func TestRuntimeDifferentialCoordinate(t *testing.T) {
	checkAgreement(t, "coordinate")
}

// TestRuntimeDifferentialDiscover checks the location-discovery grid — the
// lazy sweep, the odd-n basic/perceptive sweep and the even-n perceptive
// Section V pipeline — against the recorded runtime agreement.
func TestRuntimeDifferentialDiscover(t *testing.T) {
	checkAgreement(t, "discover")
}
