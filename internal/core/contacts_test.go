package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"slmob/internal/geom"
	"slmob/internal/trace"
)

// buildTrace assembles a trace from a per-snapshot map of avatar positions.
func buildTrace(t *testing.T, tau int64, frames []map[trace.AvatarID]geom.Vec) *trace.Trace {
	t.Helper()
	tr := trace.New("test", tau)
	for i, frame := range frames {
		snap := trace.Snapshot{T: int64(i+1) * tau}
		ids := make([]trace.AvatarID, 0, len(frame))
		for id := range frame {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			snap.Samples = append(snap.Samples, trace.Sample{ID: id, Pos: frame[id]})
		}
		if err := tr.Append(snap); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestExtractContactsSimpleContact(t *testing.T) {
	near := geom.V2(50, 50)
	far := geom.V2(200, 200)
	frames := []map[trace.AvatarID]geom.Vec{
		{1: near, 2: far},                     // t=10: apart
		{1: near, 2: near.Add(geom.V2(5, 0))}, // t=20: contact start
		{1: near, 2: near.Add(geom.V2(6, 0))}, // t=30: still in contact
		{1: near, 2: far},                     // t=40: apart -> contact [20,30]
	}
	cs, err := ExtractContacts(buildTrace(t, 10, frames), 10)
	if err != nil {
		t.Fatal(err)
	}
	if cs.CT.N() != 1 {
		t.Fatalf("CT = %v, want one contact", cs.CT.Values())
	}
	// Seen at t=20 and t=30: duration (30-20)+tau = 20.
	if cs.CT.Min() != 20 {
		t.Errorf("CT = %v, want 20", cs.CT.Min())
	}
	if cs.Censored != 0 {
		t.Errorf("censored = %d", cs.Censored)
	}
	if cs.Pairs != 1 {
		t.Errorf("pairs = %d", cs.Pairs)
	}
}

func TestExtractContactsSingleSnapshotContact(t *testing.T) {
	near := geom.V2(50, 50)
	far := geom.V2(200, 200)
	frames := []map[trace.AvatarID]geom.Vec{
		{1: near, 2: far},
		{1: near, 2: near}, // one snapshot of contact
		{1: near, 2: far},
	}
	cs, err := ExtractContacts(buildTrace(t, 10, frames), 10)
	if err != nil {
		t.Fatal(err)
	}
	if cs.CT.N() != 1 || cs.CT.Min() != 10 {
		t.Errorf("CT = %v, want [10]", cs.CT.Values())
	}
}

func TestExtractContactsInterContactTime(t *testing.T) {
	near := geom.V2(50, 50)
	far := geom.V2(200, 200)
	frames := []map[trace.AvatarID]geom.Vec{
		{1: near, 2: far},  // t=10
		{1: near, 2: near}, // t=20: contact 1
		{1: near, 2: far},  // t=30: apart (contact 1 ended at t=20)
		{1: near, 2: far},  // t=40
		{1: near, 2: near}, // t=50: contact 2 -> ICT = 50-20 = 30
	}
	cs, err := ExtractContacts(buildTrace(t, 10, frames), 10)
	if err != nil {
		t.Fatal(err)
	}
	if cs.ICT.N() != 1 || cs.ICT.Min() != 30 {
		t.Errorf("ICT = %v, want [30]", cs.ICT.Values())
	}
	// Second contact still open at trace end: right-censored.
	if cs.Censored != 1 {
		t.Errorf("censored = %d, want 1", cs.Censored)
	}
	if cs.CT.N() != 1 {
		t.Errorf("CT = %v, want one completed contact", cs.CT.Values())
	}
}

func TestExtractContactsLeftCensoring(t *testing.T) {
	near := geom.V2(50, 50)
	far := geom.V2(200, 200)
	frames := []map[trace.AvatarID]geom.Vec{
		{1: near, 2: near}, // in contact at the very first snapshot
		{1: near, 2: near},
		{1: near, 2: far}, // ends: left-censored, not counted in CT
	}
	cs, err := ExtractContacts(buildTrace(t, 10, frames), 10)
	if err != nil {
		t.Fatal(err)
	}
	if cs.CT.N() != 0 {
		t.Errorf("CT = %v, want none (left-censored)", cs.CT.Values())
	}
	if cs.Censored != 1 {
		t.Errorf("censored = %d, want 1", cs.Censored)
	}
}

func TestExtractContactsFirstContactTime(t *testing.T) {
	near := geom.V2(50, 50)
	far := geom.V2(200, 200)
	lone := geom.V2(120, 10)
	frames := []map[trace.AvatarID]geom.Vec{
		{1: near, 2: far, 3: lone},  // t=10: everyone appears
		{1: near, 2: far, 3: lone},  // t=20
		{1: near, 2: near, 3: lone}, // t=30: 1 and 2 meet
	}
	cs, err := ExtractContacts(buildTrace(t, 10, frames), 10)
	if err != nil {
		t.Fatal(err)
	}
	// Users 1 and 2 first appeared at t=10 and first contacted at t=30:
	// FT=20 each. User 3 never contacted.
	if cs.FT.N() != 2 {
		t.Fatalf("FT = %v, want two samples", cs.FT.Values())
	}
	for _, ft := range cs.FT.Values() {
		if ft != 20 {
			t.Errorf("FT = %v, want 20", ft)
		}
	}
	if cs.NeverContacted != 1 {
		t.Errorf("never contacted = %d, want 1", cs.NeverContacted)
	}
}

func TestExtractContactsFTZeroAtLogin(t *testing.T) {
	near := geom.V2(50, 50)
	frames := []map[trace.AvatarID]geom.Vec{
		{1: near},          // t=10: 1 alone
		{1: near, 2: near}, // t=20: 2 logs in next to 1
	}
	cs, err := ExtractContacts(buildTrace(t, 10, frames), 10)
	if err != nil {
		t.Fatal(err)
	}
	// User 2's FT is 0 (first seen in contact); user 1 waited 10 s.
	// Values() is sorted ascending.
	ft := cs.FT.Values()
	if len(ft) != 2 || ft[0] != 0 || ft[1] != 10 {
		t.Errorf("FT = %v, want [0 10]", ft)
	}
}

func TestExtractContactsSeatedExcluded(t *testing.T) {
	near := geom.V2(50, 50)
	tr := trace.New("test", 10)
	_ = tr.Append(trace.Snapshot{T: 10, Samples: []trace.Sample{
		{ID: 1, Pos: near},
		{ID: 2, Pos: near, Seated: true}, // seated: no usable position
	}})
	_ = tr.Append(trace.Snapshot{T: 20, Samples: []trace.Sample{
		{ID: 1, Pos: near},
		{ID: 2, Pos: near, Seated: true},
	}})
	cs, err := ExtractContacts(tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Pairs != 0 || cs.CT.N() != 0 {
		t.Errorf("seated avatar created contacts: %+v", cs)
	}
}

func TestExtractContactsRangeMatters(t *testing.T) {
	a := geom.V2(50, 50)
	b := geom.V2(50, 90) // 40 m apart
	frames := []map[trace.AvatarID]geom.Vec{
		{1: a, 2: b},
		{1: a, 2: b},
	}
	tr := buildTrace(t, 10, frames)
	cs10, err := ExtractContacts(tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	cs80, err := ExtractContacts(tr, 80)
	if err != nil {
		t.Fatal(err)
	}
	if cs10.Pairs != 0 {
		t.Error("contact at r=10 for 40 m pair")
	}
	if cs80.Pairs != 1 {
		t.Error("no contact at r=80 for 40 m pair")
	}
}

func TestExtractContactsValidation(t *testing.T) {
	tr := trace.New("x", 10)
	if _, err := ExtractContacts(tr, 0); err == nil {
		t.Error("r=0 accepted")
	}
	bad := trace.New("x", 0)
	if _, err := ExtractContacts(bad, 10); err == nil {
		t.Error("tau=0 accepted")
	}
}

func TestLoSMetricsDegreesAndDiameter(t *testing.T) {
	// Chain of three avatars 8 m apart: degrees 1,2,1; diameter 2;
	// no triangles so clustering 0.
	frames := []map[trace.AvatarID]geom.Vec{
		{1: geom.V2(50, 50), 2: geom.V2(58, 50), 3: geom.V2(66, 50)},
	}
	nm, err := LoSMetrics(buildTrace(t, 10, frames), 10)
	if err != nil {
		t.Fatal(err)
	}
	deg := nm.Degrees.Values() // sorted ascending
	if len(deg) != 3 || deg[0] != 1 || deg[1] != 1 || deg[2] != 2 {
		t.Errorf("degrees = %v", deg)
	}
	if nm.Diameters.N() != 1 || nm.Diameters.Min() != 2 {
		t.Errorf("diameters = %v", nm.Diameters.Values())
	}
	if nm.Clusterings[0] != 0 {
		t.Errorf("clustering = %v", nm.Clusterings)
	}
	if got := nm.DegreeZeroFraction(); got != 0 {
		t.Errorf("deg-zero = %v", got)
	}
	if got := nm.MaxDiameter(); got != 2 {
		t.Errorf("max diameter = %v", got)
	}
}

func TestLoSMetricsSkipsEmptySnapshots(t *testing.T) {
	tr := trace.New("x", 10)
	_ = tr.Append(trace.Snapshot{T: 10})
	_ = tr.Append(trace.Snapshot{T: 20, Samples: []trace.Sample{{ID: 1, Pos: geom.V2(1, 1)}}})
	nm, err := LoSMetrics(tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if nm.Diameters.N() != 1 {
		t.Errorf("diameters = %v, want one entry", nm.Diameters.Values())
	}
	if nm.DegreeZeroFraction() != 1 {
		t.Errorf("deg-zero = %v", nm.DegreeZeroFraction())
	}
}

func TestZoneOccupation(t *testing.T) {
	tr := trace.New("x", 10)
	_ = tr.Append(trace.Snapshot{T: 10, Samples: []trace.Sample{
		{ID: 1, Pos: geom.V2(5, 5)},
		{ID: 2, Pos: geom.V2(6, 6)},
		{ID: 3, Pos: geom.V2(35, 5)},
		{ID: 4, Pos: geom.V2(500, 5)}, // outside footprint: ignored
		// Just below 0 on one axis: outside too, not in row or column 0.
		{ID: 5, Pos: geom.V2(-5, 10)},
		{ID: 6, Pos: geom.V2(10, -0.5)},
	}})
	zones, err := ZoneOccupation(tr, 40, 20) // 2x2 cells
	if err != nil {
		t.Fatal(err)
	}
	if len(zones) != 4 {
		t.Fatalf("zones = %v, want 4 cells", zones)
	}
	sort.Float64s(zones)
	want := []float64{0, 0, 1, 2}
	for i := range want {
		if zones[i] != want[i] {
			t.Fatalf("zones = %v, want %v", zones, want)
		}
	}
	// The streaming path counts the same cells.
	a, err := NewAnalyzer("x", 10, Config{LandSize: 40, ZoneSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Observe(tr.Snapshots[0]); err != nil {
		t.Fatal(err)
	}
	an, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := an.Zones.Values(); !slices.Equal(got, want) {
		t.Fatalf("streaming zones = %v, want %v", got, want)
	}
	if _, err := ZoneOccupation(tr, 0, 20); err == nil {
		t.Error("invalid land size accepted")
	}
}

func TestTripsMetrics(t *testing.T) {
	tr := trace.New("x", 10)
	// One avatar: moves 20 m, stands still, moves 10 m.
	pts := []geom.Vec{geom.V2(0, 0), geom.V2(20, 0), geom.V2(20, 0), geom.V2(20, 10)}
	for i, p := range pts {
		_ = tr.Append(trace.Snapshot{T: int64(i+1) * 10, Samples: []trace.Sample{{ID: 1, Pos: p}}})
	}
	ts := Trips(tr, 0.5, 0)
	if len(ts.TravelLength) != 1 {
		t.Fatalf("sessions = %d", len(ts.TravelLength))
	}
	if math.Abs(ts.TravelLength[0]-30) > 1e-9 {
		t.Errorf("travel length = %v, want 30", ts.TravelLength[0])
	}
	// Two moving intervals of 10 s each.
	if ts.EffectiveTravelTime[0] != 20 {
		t.Errorf("effective travel time = %v, want 20", ts.EffectiveTravelTime[0])
	}
	if ts.TravelTime[0] != 30 {
		t.Errorf("travel time = %v, want 30", ts.TravelTime[0])
	}
}

func TestNormalizeSeated(t *testing.T) {
	tr := trace.New("x", 10)
	_ = tr.Append(trace.Snapshot{T: 10, Samples: []trace.Sample{
		{ID: 1, Pos: geom.V2(0, 0)}, // the {0,0,0} quirk
		{ID: 2, Pos: geom.V2(5, 5)},
	}})
	out := NormalizeSeated(tr)
	if !out.Snapshots[0].Samples[0].Seated {
		t.Error("zero position not marked seated")
	}
	if out.Snapshots[0].Samples[1].Seated {
		t.Error("non-zero position marked seated")
	}
	if tr.Snapshots[0].Samples[0].Seated {
		t.Error("original trace mutated")
	}
}

func TestAnalyzeEndToEnd(t *testing.T) {
	near := geom.V2(50, 50)
	frames := []map[trace.AvatarID]geom.Vec{
		{1: near, 2: near.Add(geom.V2(5, 0))},
		{1: near, 2: near.Add(geom.V2(6, 0))},
		{1: near, 2: geom.V2(200, 200)},
	}
	tr := buildTrace(t, 10, frames)
	an, err := Analyze(tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if an.Contacts[BluetoothRange] == nil || an.Contacts[WiFiRange] == nil {
		t.Fatal("missing default ranges")
	}
	if an.Summary.Unique != 2 {
		t.Errorf("unique = %d", an.Summary.Unique)
	}
	if an.Zones.N() == 0 || an.Trips == nil {
		t.Error("missing zones or trips")
	}
}

func TestAnalyzeTreatsZeroAsSeated(t *testing.T) {
	tr := trace.New("x", 10)
	_ = tr.Append(trace.Snapshot{T: 10, Samples: []trace.Sample{
		{ID: 1, Pos: geom.V2(0, 0)},
		{ID: 2, Pos: geom.V2(3, 3)},
	}})
	_ = tr.Append(trace.Snapshot{T: 20, Samples: []trace.Sample{
		{ID: 1, Pos: geom.V2(0, 0)},
		{ID: 2, Pos: geom.V2(3, 3)},
	}})
	an, err := Analyze(tr, Config{TreatZeroAsSeated: true})
	if err != nil {
		t.Fatal(err)
	}
	// The {0,0,0} sample must not register as a user standing at the
	// origin 4.2 m from user 2.
	if an.Contacts[BluetoothRange].Pairs != 0 {
		t.Error("seated-at-origin sample created a contact")
	}
}
